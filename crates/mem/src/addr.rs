//! Sparse functional address space.

use std::collections::HashMap;
use std::hash::Hasher;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Hasher specialized for `u64` keys (page numbers, byte addresses):
/// one multiply plus a xor-fold instead of SipHash. The functional
/// interpreter does a page-table lookup per run of same-page lanes of
/// every memory instruction (one per lane on irregular accesses), so
/// the hash is squarely on the simulator's hot path; there is no
/// untrusted-key DoS concern inside a simulation.
#[derive(Debug, Default, Clone)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // FNV-style fallback for non-u64 keys (unused by the page maps).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply, then fold the well-mixed high bits down so
        // both the bucket index (low bits) and control byte (high bits)
        // of the hashbrown table see avalanche.
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`U64Hasher`]-keyed maps.
pub type U64HashBuilder = std::hash::BuildHasherDefault<U64Hasher>;

/// The indices of the set bits of `mask`, lowest first — the active
/// lanes of a warp-wide access.
#[inline]
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Page number no address maps to (addresses have 52 page bits).
const NO_PAGE: u64 = u64::MAX;

/// A sparse, paged, byte-addressable memory.
///
/// Pages are allocated on first touch and zero-initialized, so simulated
/// GPUs can use multi-gigabyte address spaces without host cost.
///
/// # Example
/// ```
/// use gpu_mem::AddressSpace;
/// let mut m = AddressSpace::new();
/// m.write_f32(0x8000_0000, 1.5);
/// assert_eq!(m.read_f32(0x8000_0000), 1.5);
/// assert_eq!(m.read_u32(0xdead_0000), 0); // untouched memory reads zero
/// ```
#[derive(Debug, Default, Clone)]
pub struct AddressSpace {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, U64HashBuilder>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte; untouched memory reads as zero.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian `u32` (may straddle a page boundary).
    pub fn read_u32(&self, addr: u64) -> u32 {
        if (addr & PAGE_MASK) as usize <= PAGE_SIZE - 4 {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => {
                    let o = (addr & PAGE_MASK) as usize;
                    u32::from_le_bytes([p[o], p[o + 1], p[o + 2], p[o + 3]])
                }
                None => 0,
            }
        } else {
            let mut b = [0u8; 4];
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = self.read_u8(addr + i as u64);
            }
            u32::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let bytes = value.to_le_bytes();
        if (addr & PAGE_MASK) as usize <= PAGE_SIZE - 4 {
            let page = self.page_mut(addr);
            let o = (addr & PAGE_MASK) as usize;
            page[o..o + 4].copy_from_slice(&bytes);
        } else {
            for (i, byte) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, *byte);
            }
        }
    }

    /// Warp-wide load: for every lane set in `mask`, reads the `W`-byte
    /// little-endian value (`W` is 1 or 4, zero-extended) at
    /// `addrs[lane]` into `out[lane]`; other lanes of `out` are left
    /// alone. Equal to one [`Self::read_u8`] / [`Self::read_u32`] per
    /// lane, but the page table is probed once per run of consecutive
    /// lanes on the same page.
    pub fn gather<const W: usize>(&self, addrs: &[u64], mask: u64, out: &mut [u32]) {
        let mut cur = NO_PAGE;
        let mut page: Option<&[u8; PAGE_SIZE]> = None;
        for lane in set_bits(mask) {
            let a = addrs[lane];
            let o = (a & PAGE_MASK) as usize;
            if o > PAGE_SIZE - W {
                out[lane] = self.read_u32(a); // straddles two pages
                continue;
            }
            if a >> PAGE_SHIFT != cur {
                cur = a >> PAGE_SHIFT;
                page = self.pages.get(&cur).map(|p| &**p);
            }
            out[lane] = page.map_or(0, |p| {
                let mut b = [0u8; 4];
                b[..W].copy_from_slice(&p[o..o + W]);
                u32::from_le_bytes(b)
            });
        }
    }

    /// Warp-wide store: for every lane set in `mask`, in lane order,
    /// writes the low `W` bytes (`W` is 1 or 4) of `vals[lane]` at
    /// `addrs[lane]`. Equal to one [`Self::write_u8`] /
    /// [`Self::write_u32`] per lane (a later lane wins on overlap), with
    /// the page resolved once per run of consecutive same-page lanes.
    pub fn scatter<const W: usize>(&mut self, addrs: &[u64], mask: u64, vals: &[u32]) {
        let straddles = |a: u64| (a & PAGE_MASK) as usize > PAGE_SIZE - W;
        let mut rest = mask;
        while rest != 0 {
            let first = addrs[rest.trailing_zeros() as usize];
            if straddles(first) {
                self.write_u32(first, vals[rest.trailing_zeros() as usize]);
                rest &= rest - 1;
                continue;
            }
            // One page borrow serves this lane and every following lane
            // on the same page.
            let page = self.page_mut(first);
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                let a = addrs[lane];
                if a >> PAGE_SHIFT != first >> PAGE_SHIFT || straddles(a) {
                    break;
                }
                let o = (a & PAGE_MASK) as usize;
                page[o..o + W].copy_from_slice(&vals[lane].to_le_bytes()[..W]);
                rest &= rest - 1;
            }
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr + 4) as u64) << 32)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr + 4, (value >> 32) as u32);
    }

    /// Reads an `f32` (bit pattern of the `u32` at `addr`).
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Writes a slice of `f32` starting at `addr`.
    pub fn write_f32_slice(&mut self, addr: u64, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, *v);
        }
    }

    /// Reads `len` `f32`s starting at `addr`.
    pub fn read_f32_vec(&self, addr: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| self.read_f32(addr + 4 * i as u64))
            .collect()
    }

    /// Writes a slice of `u32` starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, *v);
        }
    }

    /// Reads `len` `u32`s starting at `addr`.
    pub fn read_u32_vec(&self, addr: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| self.read_u32(addr + 4 * i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = AddressSpace::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u32(12345), 0);
        assert_eq!(m.read_u64(12345), 0);
    }

    #[test]
    fn u32_roundtrip() {
        let mut m = AddressSpace::new();
        m.write_u32(100, 0xdeadbeef);
        assert_eq!(m.read_u32(100), 0xdeadbeef);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = AddressSpace::new();
        m.write_u64(0x4008, u64::MAX - 7);
        assert_eq!(m.read_u64(0x4008), u64::MAX - 7);
    }

    #[test]
    fn straddles_page_boundary() {
        let mut m = AddressSpace::new();
        let addr = (1 << 12) - 2; // 2 bytes in page 0, 2 in page 1
        m.write_u32(addr, 0x11223344);
        assert_eq!(m.read_u32(addr), 0x11223344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn f32_roundtrip_including_nan_payload() {
        let mut m = AddressSpace::new();
        m.write_f32(0, -0.0);
        assert_eq!(m.read_f32(0).to_bits(), (-0.0f32).to_bits());
        m.write_f32(4, f32::INFINITY);
        assert_eq!(m.read_f32(4), f32::INFINITY);
    }

    #[test]
    fn slices_roundtrip() {
        let mut m = AddressSpace::new();
        let vals = [1.0f32, 2.5, -3.25, 0.0];
        m.write_f32_slice(0x100, &vals);
        assert_eq!(m.read_f32_vec(0x100, 4), vals);
        let ints = [7u32, 8, 9];
        m.write_u32_slice(0x200, &ints);
        assert_eq!(m.read_u32_vec(0x200, 3), ints);
    }

    #[test]
    fn set_bits_lists_active_lanes_in_order() {
        assert_eq!(set_bits(0).count(), 0);
        assert_eq!(set_bits(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(
            set_bits(u64::MAX).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gather_and_scatter_equal_one_access_per_lane() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let top = 3 * PAGE_SIZE as u64;
        for round in 0..200 {
            // runs on one page, hops between pages, page-straddling words
            let addrs: Vec<u64> = (0..64)
                .map(|l| match round % 4 {
                    0 => PAGE_SIZE as u64 - 30 + 4 * l,
                    1 => (l % 3) * PAGE_SIZE as u64 + 4 * l,
                    2 => PAGE_SIZE as u64 - 2 + (l % 2) * PAGE_SIZE as u64,
                    _ => rng.gen_range(0..top - 4),
                })
                .collect();
            let mask: u64 = if round % 5 == 0 { u64::MAX } else { rng.gen() };
            let vals: Vec<u32> = (0..64).map(|_| rng.gen()).collect();

            let mut got = AddressSpace::new();
            got.write_u32_slice(PAGE_SIZE as u64 - 64, &vals); // page 2 stays untouched
            let mut want = got.clone();
            if round % 2 == 0 {
                got.scatter::<4>(&addrs, mask, &vals);
                set_bits(mask).for_each(|l| want.write_u32(addrs[l], vals[l]));
            } else {
                got.scatter::<1>(&addrs, mask, &vals);
                set_bits(mask).for_each(|l| want.write_u8(addrs[l], vals[l] as u8));
            }
            for a in 0..top + 8 {
                assert_eq!(got.read_u8(a), want.read_u8(a), "round {round} @{a:#x}");
            }
            assert_eq!(got.resident_pages(), want.resident_pages());

            let (mut words, mut bytes) = ([7u32; 64], [7u32; 64]);
            got.gather::<4>(&addrs, mask, &mut words);
            got.gather::<1>(&addrs, mask, &mut bytes);
            for l in 0..64 {
                let on = mask >> l & 1 == 1;
                assert_eq!(words[l], if on { got.read_u32(addrs[l]) } else { 7 });
                assert_eq!(bytes[l], if on { got.read_u8(addrs[l]) as u32 } else { 7 });
            }
        }
    }

    #[test]
    fn sparse_pages_only_touched() {
        let mut m = AddressSpace::new();
        m.write_u8(0, 1);
        m.write_u8(1 << 30, 1);
        assert_eq!(m.resident_pages(), 2);
    }
}
