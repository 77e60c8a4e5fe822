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

/// Lanes of a warp: one per bit of an EXEC mask.
pub(crate) const LANES: usize = u64::BITS as usize;

/// The addresses of one warp-wide access, resolved once into the shape
/// that decides what moving its data and coalescing its lines cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpAccess<'a> {
    /// Every lane active, lane `l` at `start + l·W` for a `W`-byte
    /// access, and the run's last byte below the top of the address
    /// space: one contiguous run of bytes.
    Unit(u64),
    /// Every lane active, all at this one address.
    Uniform(u64),
    /// The lanes set in `mask`, each at `addrs[lane]`: every other
    /// shape, including every partial mask.
    Lanes {
        /// Per-lane byte addresses.
        addrs: &'a [u64; LANES],
        /// The active lanes.
        mask: u64,
    },
}

impl<'a> WarpAccess<'a> {
    /// The shape of the `width`-byte accesses at `addrs[lane]` for the
    /// lanes set in `mask`. Only a full mask can be Unit or Uniform, and
    /// a run that would wrap past the top of the address space stays
    /// Lanes.
    pub fn resolve(addrs: &'a [u64; LANES], mask: u64, width: u64) -> Self {
        if mask == u64::MAX {
            let a0 = addrs[0];
            let (mut unit, mut uniform) = (true, true);
            for (l, &a) in addrs.iter().enumerate() {
                unit &= a == a0.wrapping_add(l as u64 * width);
                uniform &= a == a0;
            }
            if uniform {
                return WarpAccess::Uniform(a0);
            }
            let run_end = a0.checked_add((LANES as u64 * width).saturating_sub(1));
            if unit && run_end.is_some() {
                return WarpAccess::Unit(a0);
            }
        }
        WarpAccess::Lanes { addrs, mask }
    }

    /// `(lane, address)` of every active lane of a `width`-byte access,
    /// lowest lane first.
    pub fn lanes(self, width: u64) -> impl Iterator<Item = (usize, u64)> + 'a {
        let mask = match self {
            WarpAccess::Lanes { mask, .. } => mask,
            _ => u64::MAX,
        };
        set_bits(mask).map(move |lane| {
            let a = match self {
                WarpAccess::Unit(start) => start.wrapping_add(lane as u64 * width),
                WarpAccess::Uniform(a) => a,
                WarpAccess::Lanes { addrs, .. } => addrs[lane],
            };
            (lane, a)
        })
    }
}

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

    /// Fills `buf` with the bytes from `addr` on, wrapping past the top
    /// of the address space to 0; one page probe per page touched.
    fn read_bytes(&self, mut addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let o = (addr & PAGE_MASK) as usize;
            let take = (PAGE_SIZE - o).min(buf.len() - done);
            let dst = &mut buf[done..done + take];
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => dst.copy_from_slice(&p[o..o + take]),
                None => dst.fill(0),
            }
            done += take;
            addr = addr.wrapping_add(take as u64);
        }
    }

    /// Writes `bytes` from `addr` on, wrapping past the top of the
    /// address space to 0; one page borrow per page touched.
    fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let o = (addr & PAGE_MASK) as usize;
            let take = (PAGE_SIZE - o).min(bytes.len());
            self.page_mut(addr)[o..o + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            addr = addr.wrapping_add(take as u64);
        }
    }

    /// Reads a little-endian `u32`. A word may straddle a page boundary;
    /// one at the top of the address space wraps to address 0.
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
            self.read_bytes(addr, &mut b);
            u32::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u32`, wrapping as [`Self::read_u32`] does.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let bytes = value.to_le_bytes();
        if (addr & PAGE_MASK) as usize <= PAGE_SIZE - 4 {
            let page = self.page_mut(addr);
            let o = (addr & PAGE_MASK) as usize;
            page[o..o + 4].copy_from_slice(&bytes);
        } else {
            self.write_bytes(addr, &bytes);
        }
    }

    /// The `W`-byte value (`W` is 1 or 4, zero-extended) at `addr`.
    fn read_w<const W: usize>(&self, addr: u64) -> u32 {
        match W {
            1 => self.read_u8(addr) as u32,
            _ => self.read_u32(addr),
        }
    }

    /// Writes the low `W` bytes (`W` is 1 or 4) of `value` at `addr`.
    fn write_w<const W: usize>(&mut self, addr: u64, value: u32) {
        match W {
            1 => self.write_u8(addr, value as u8),
            _ => self.write_u32(addr, value),
        }
    }

    /// Warp-wide load: for every active lane of `access`, reads the
    /// `W`-byte little-endian value (`W` is 1 or 4, zero-extended) at the
    /// lane's address into `out[lane]`; other lanes of `out` are left
    /// alone. Equal to one [`Self::read_u8`] / [`Self::read_u32`] per
    /// lane. A Unit run is one page probe and one copy (two if it
    /// crosses a page), a Uniform access one read for all lanes, and
    /// Lanes one probe per run of consecutive same-page lanes.
    pub fn load<const W: usize>(&self, access: WarpAccess<'_>, out: &mut [u32; LANES]) {
        match access {
            WarpAccess::Unit(start) => {
                let n = LANES * W;
                let o = (start & PAGE_MASK) as usize;
                let mut buf = [0u8; LANES * 4];
                let bytes = if o + n <= PAGE_SIZE {
                    match self.pages.get(&(start >> PAGE_SHIFT)) {
                        Some(p) => &p[o..o + n],
                        None => &buf[..n],
                    }
                } else {
                    self.read_bytes(start, &mut buf[..n]);
                    &buf[..n]
                };
                for (v, b) in out.iter_mut().zip(bytes.chunks_exact(W)) {
                    let mut word = [0u8; 4];
                    word[..W].copy_from_slice(b);
                    *v = u32::from_le_bytes(word);
                }
            }
            WarpAccess::Uniform(a) => *out = [self.read_w::<W>(a); LANES],
            WarpAccess::Lanes { addrs, mask } => self.gather::<W>(addrs, mask, out),
        }
    }

    /// Warp-wide store: for every active lane of `access`, in lane
    /// order, writes the low `W` bytes (`W` is 1 or 4) of `vals[lane]` at
    /// the lane's address — so a later lane wins where words overlap.
    /// Equal to one [`Self::write_u8`] / [`Self::write_u32`] per lane. A
    /// Unit run is one page borrow and one copy (two if it crosses a
    /// page), a Uniform access the last lane's value written once, and
    /// Lanes one borrow per run of consecutive same-page lanes.
    pub fn store<const W: usize>(&mut self, access: WarpAccess<'_>, vals: &[u32; LANES]) {
        match access {
            WarpAccess::Unit(start) => {
                let mut buf = [0u8; LANES * 4];
                for (b, v) in buf.chunks_exact_mut(W).zip(vals) {
                    b.copy_from_slice(&v.to_le_bytes()[..W]);
                }
                self.write_bytes(start, &buf[..LANES * W]);
            }
            WarpAccess::Uniform(a) => self.write_w::<W>(a, vals[LANES - 1]),
            WarpAccess::Lanes { addrs, mask } => self.scatter::<W>(addrs, mask, vals),
        }
    }

    /// [`Self::load`] of Lanes: the page table is probed once per run of
    /// consecutive active lanes on the same page.
    fn gather<const W: usize>(&self, addrs: &[u64; LANES], mask: u64, out: &mut [u32; LANES]) {
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

    /// [`Self::store`] of Lanes: the page is resolved once per run of
    /// consecutive active lanes on the same page.
    fn scatter<const W: usize>(&mut self, addrs: &[u64; LANES], mask: u64, vals: &[u32; LANES]) {
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

    /// Reads a little-endian `u64`, wrapping as [`Self::read_u32`] does.
    pub fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
    }

    /// Writes a little-endian `u64`, wrapping as [`Self::read_u32`] does.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
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

    /// Per-lane addresses for every shape `load` / `store` treat
    /// differently, within the first three pages.
    fn lane_patterns(rng: &mut rand::rngs::StdRng) -> Vec<[u64; LANES]> {
        use rand::Rng;
        let page = PAGE_SIZE as u64;
        let lane = |f: &mut dyn FnMut(u64) -> u64| std::array::from_fn(|l| f(l as u64));
        vec![
            // unit stride, unaligned: a word straddles the page boundary
            lane(&mut |l| page - 30 + 4 * l),
            // unit stride, aligned, crossing into page 1 at lane 32
            lane(&mut |l| page - 128 + 4 * l),
            // unit stride inside one page; byte unit stride into page 2
            lane(&mut |l| 100 + 4 * l),
            lane(&mut |l| 2 * page - 32 + l),
            // one word straddling a page; one inside a line
            lane(&mut |_| page - 2),
            lane(&mut |_| 2 * page + 8),
            // hops between pages, page-straddling words
            lane(&mut |l| (l % 3) * page + 4 * l),
            lane(&mut |l| page - 2 + (l % 2) * page),
            lane(&mut |_| rng.gen_range(0..3 * page - 4)),
        ]
    }

    #[test]
    fn gather_and_scatter_equal_one_access_per_lane() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let top = 3 * PAGE_SIZE as u64;
        let mut shapes = [0; 3];
        for round in 0..216 {
            let addrs = lane_patterns(&mut rng)[round / 2 % 9];
            // every pattern at both widths under one mask kind per 18 rounds
            let mask: u64 = if round / 18 % 4 != 3 {
                u64::MAX
            } else {
                rng.gen()
            };
            let vals: [u32; LANES] = std::array::from_fn(|_| rng.gen());
            let width = if round % 2 == 0 { 4 } else { 1 };
            let access = WarpAccess::resolve(&addrs, mask, width);
            shapes[match access {
                WarpAccess::Unit(_) => 0,
                WarpAccess::Uniform(_) => 1,
                WarpAccess::Lanes { .. } => 2,
            }] += 1;

            let mut got = AddressSpace::new();
            got.write_u32_slice(PAGE_SIZE as u64 - 64, &vals); // page 2 stays untouched
            let mut want = got.clone();
            if width == 4 {
                got.store::<4>(access, &vals);
                set_bits(mask).for_each(|l| want.write_u32(addrs[l], vals[l]));
            } else {
                got.store::<1>(access, &vals);
                set_bits(mask).for_each(|l| want.write_u8(addrs[l], vals[l] as u8));
            }
            for a in 0..top + 8 {
                assert_eq!(got.read_u8(a), want.read_u8(a), "round {round} @{a:#x}");
            }
            assert_eq!(got.resident_pages(), want.resident_pages());

            // Loads, with the page the stores left untouched read too.
            let mut got_lanes = [7u32; LANES];
            if width == 4 {
                got.load::<4>(access, &mut got_lanes);
            } else {
                got.load::<1>(access, &mut got_lanes);
            }
            for l in 0..LANES {
                let want_lane = match (mask >> l & 1 == 1, width) {
                    (false, _) => 7,
                    (true, 4) => got.read_u32(addrs[l]),
                    (true, _) => got.read_u8(addrs[l]) as u32,
                };
                assert_eq!(got_lanes[l], want_lane, "round {round} lane {l}");
            }
        }
        assert!(
            shapes.iter().all(|&n| n >= 20),
            "every shape ran: {shapes:?}"
        );
    }

    #[test]
    fn resolve_takes_the_bulk_shapes_only_when_exact() {
        let unit: [u64; LANES] = std::array::from_fn(|l| 0x1000 + 4 * l as u64);
        assert_eq!(
            WarpAccess::resolve(&unit, u64::MAX, 4),
            WarpAccess::Unit(0x1000)
        );
        // the same addresses are not unit stride for bytes, and no
        // partial mask is Unit
        assert!(matches!(
            WarpAccess::resolve(&unit, u64::MAX, 1),
            WarpAccess::Lanes { .. }
        ));
        assert!(matches!(
            WarpAccess::resolve(&unit, u64::MAX >> 1, 4),
            WarpAccess::Lanes { .. }
        ));
        let mut off = unit;
        off[37] += 4;
        assert!(matches!(
            WarpAccess::resolve(&off, u64::MAX, 4),
            WarpAccess::Lanes { .. }
        ));

        let same = [u64::MAX - 1; LANES];
        assert_eq!(
            WarpAccess::resolve(&same, u64::MAX, 4),
            WarpAccess::Uniform(u64::MAX - 1)
        );
        assert!(matches!(
            WarpAccess::resolve(&same, 1, 4),
            WarpAccess::Lanes { .. }
        ));
        let mut odd = same;
        odd[63] = 0;
        assert!(matches!(
            WarpAccess::resolve(&odd, u64::MAX, 4),
            WarpAccess::Lanes { .. }
        ));

        // A run whose last byte is the top of the address space is Unit;
        // one byte further would wrap, and stays Lanes.
        let last: [u64; LANES] = std::array::from_fn(|l| u64::MAX - 255 + 4 * l as u64);
        assert_eq!(
            WarpAccess::resolve(&last, u64::MAX, 4),
            WarpAccess::Unit(u64::MAX - 255)
        );
        let wraps = last.map(|a| a.wrapping_add(1));
        assert!(matches!(
            WarpAccess::resolve(&wraps, u64::MAX, 4),
            WarpAccess::Lanes { .. }
        ));
    }

    #[test]
    fn a_word_at_the_top_of_the_address_space_wraps_to_zero() {
        let mut m = AddressSpace::new();
        m.write_u32(u64::MAX - 1, 0x1122_3344);
        assert_eq!(
            [
                m.read_u8(u64::MAX - 1),
                m.read_u8(u64::MAX),
                m.read_u8(0),
                m.read_u8(1)
            ],
            [0x44, 0x33, 0x22, 0x11]
        );
        assert_eq!(m.read_u32(u64::MAX - 1), 0x1122_3344);
        m.write_u64(u64::MAX - 3, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(u64::MAX - 3), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u32(0), 0x0102_0304);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn sparse_pages_only_touched() {
        let mut m = AddressSpace::new();
        m.write_u8(0, 1);
        m.write_u8(1 << 30, 1);
        assert_eq!(m.resident_pages(), 2);
    }
}
