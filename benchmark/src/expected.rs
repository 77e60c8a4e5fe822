//! `expected.json`: the exact simulated counts per workload and seed.
//! A speed-only change must leave them alone (`sim_stats: same`); a
//! modelling change shows field by field what it moved, and
//! `run.sh --bless` rewrites the file.

use serde_json::Value;
use std::path::Path;

/// The simulated statistics of one run, in a fixed order. All repeat
/// exactly for a given workload and seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats(pub Vec<(String, f64)>);

impl SimStats {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Value::F64(*v)))
                .collect(),
        )
    }

    pub fn from_json(v: &Value) -> Option<SimStats> {
        let Value::Object(fields) = v else {
            return None;
        };
        fields
            .iter()
            .map(|(k, v)| {
                let n = match v {
                    Value::F64(n) => *n,
                    Value::U64(n) => *n as f64,
                    Value::I64(n) => *n as f64,
                    _ => return None,
                };
                Some((k.clone(), n))
            })
            .collect::<Option<Vec<_>>>()
            .map(SimStats)
    }

    /// One line per field that differs from `expected` (missing on
    /// either side counts).
    pub fn diff(&self, expected: &SimStats) -> Vec<String> {
        let get = |s: &SimStats, k: &str| s.0.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        let mut names: Vec<&String> = expected.0.iter().map(|(k, _)| k).collect();
        names.extend(
            self.0
                .iter()
                .map(|(k, _)| k)
                .filter(|k| get(expected, k).is_none()),
        );
        names
            .into_iter()
            .filter_map(|k| match (get(expected, k), get(self, k)) {
                (Some(e), Some(g)) if e == g => None,
                (e, g) => Some(format!(
                    "{k}: expected {}, got {}",
                    e.map_or("nothing".to_string(), |v| v.to_string()),
                    g.map_or("nothing".to_string(), |v| v.to_string())
                )),
            })
            .collect()
    }
}

pub fn load(path: &Path) -> Option<Value> {
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

pub fn lookup(doc: &Value, workload: &str, seed: u64) -> Option<SimStats> {
    SimStats::from_json(doc.get("entries")?.get(workload)?.get(&seed.to_string())?)
}

/// Prints `sim_stats: same`, the field-by-field diff, or why there is
/// nothing to compare against.
pub fn report(path: &Path, workload: &str, seed: u64, quick: bool, got: &SimStats) {
    if quick {
        println!("sim_stats: not compared (quick sizes)");
        return;
    }
    let expected = load(path).and_then(|doc| lookup(&doc, workload, seed));
    match expected.map(|e| got.diff(&e)) {
        None => println!(
            "sim_stats: no expectation for {workload} seed {seed} in {}",
            path.display()
        ),
        Some(d) if d.is_empty() => println!("sim_stats: same"),
        Some(d) => {
            println!("sim_stats: DIFFERENT from {}", path.display());
            d.iter().for_each(|line| println!("  {line}"));
        }
    }
}

/// The document `--bless` writes: `entries[workload][seed] = stats`.
pub fn document(entries: &[(String, u64, SimStats)]) -> Value {
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for (workload, seed, stats) in entries {
        let slot = match workloads.iter_mut().find(|(w, _)| w == workload) {
            Some((_, v)) => v,
            None => {
                workloads.push((workload.clone(), Value::Object(Vec::new())));
                &mut workloads.last_mut().expect("just pushed").1
            }
        };
        if let Value::Object(seeds) = slot {
            seeds.push((seed.to_string(), stats.to_json()));
        }
    }
    serde_json::json!({
        "note": "Exact simulated counts per workload and seed. Rewritten by `benchmark/run.sh --bless`; never edit by hand.",
        "entries": Value::Object(workloads),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: f64) -> SimStats {
        let mut s = SimStats::default();
        s.put("sim.cycles_full", cycles);
        s.put("photon_err_pct", 5.837865916702317);
        s
    }

    #[test]
    fn document_round_trips_and_diffs_field_by_field() {
        let doc = document(&[
            ("mm_compute".to_string(), 1, stats(65452.0)),
            ("mm_compute".to_string(), 2, stats(65452.0)),
            ("fir_stream".to_string(), 1, stats(120047.0)),
        ]);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let e = lookup(&back, "mm_compute", 2).unwrap();
        assert_eq!(e, stats(65452.0), "floats survive the round trip exactly");
        assert!(stats(65452.0).diff(&e).is_empty());
        let d = stats(65453.0).diff(&e);
        assert_eq!(d, ["sim.cycles_full: expected 65452, got 65453"]);
        assert!(lookup(&back, "mm_compute", 3).is_none());
        assert!(lookup(&back, "spmv_irregular", 1).is_none());
        let mut extra = stats(65452.0);
        extra.put("sim.events", 9.0);
        assert_eq!(extra.diff(&e).len(), 1);
        assert_eq!(e.diff(&extra).len(), 1);
    }
}
