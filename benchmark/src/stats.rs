//! Small numeric helpers: order statistics, the tail-percentile rule,
//! the device-memory digest, metric-name validation and the seeded
//! generator the benchmark makes its inputs from.

/// Median of `values` (mean of the two middle samples for an even
/// count). Returns 0 for an empty slice so a missing series never
/// turns into a NaN in the output.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing series summarised the way every timing is printed: median
/// with min, max and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, and the value there. With ten samples or fewer no percentile
/// qualifies and the rule degenerates to the smallest sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
}

pub fn tail(values: &[f64]) -> Tail {
    if values.is_empty() {
        return Tail {
            pct: 0.0,
            value: 0.0,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at_or_below = n.saturating_sub(10).max(1);
    Tail {
        pct: 100.0 * at_or_below as f64 / n as f64,
        value: v[at_or_below - 1],
    }
}

/// FNV-1a over 32-bit words: the digest of a device-memory image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A metric or workload name as `BENCHMARK.json` allows it: starts
/// with a letter or digit, then letters, digits, `_`, `.` and `-`, at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// SplitMix64: the benchmark's own seeded generator (spec order and
/// per-spec data seeds of the serve mix).
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = summarize(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 80 samples 1..=80: ten samples (71..=80) lie beyond the 70th.
        let v: Vec<f64> = (1..=80).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 70.0);
        assert_eq!(t.pct, 87.5);
        // 800 samples: p98.75.
        let v: Vec<f64> = (1..=800).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 98.75);
        // Eleven samples: only the smallest has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).value, 1.0);
        // Ten or fewer: degenerate, never out of bounds.
        assert_eq!(tail(&[5.0, 3.0]).value, 3.0);
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let run = |words: &[u32]| {
            let mut d = Digest::new();
            words.iter().for_each(|w| d.word(*w));
            d
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[1, 3, 2]));
        assert_ne!(run(&[0]), run(&[0, 0]));
        // FNV-1a of four zero bytes.
        assert_eq!(run(&[0]).0, 0x4d25_767f_9dce_13f5);
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in ["setup_s", "mem.l1v_hit_rate", "serve-warm.p50", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn splitmix_is_seeded_and_shuffles_a_permutation() {
        let mut a = SplitMix(1);
        let mut b = SplitMix(1);
        assert_eq!(a.next(), b.next());
        let mut items: Vec<u32> = (0..40).collect();
        SplitMix(2).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
