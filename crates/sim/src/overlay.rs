//! Memory backends for functional execution.
//!
//! Detailed and fast-forward execution commit to the real
//! [`AddressSpace`]; Photon's *online analysis* traces a sample of warps
//! that will still be simulated later, so those traces run against a
//! copy-on-write [`OverlayMem`] and leave no side effects.

use gpu_isa::LANES;
use gpu_mem::{AddressSpace, U64HashBuilder, WarpAccess};
use std::collections::HashMap;

/// A byte-addressable data memory the functional interpreter can run on.
/// Addresses wrap: a word at the top of the address space continues at
/// address 0.
pub trait DataMem {
    /// Reads one byte (untouched memory reads zero).
    fn read_u8(&self, addr: u64) -> u8;
    /// Reads a little-endian `u32`.
    fn read_u32(&self, addr: u64) -> u32;
    /// Reads a little-endian `u64`.
    fn read_u64(&self, addr: u64) -> u64;
    /// Writes one byte.
    fn write_u8(&mut self, addr: u64, value: u8);
    /// Writes a little-endian `u32`.
    fn write_u32(&mut self, addr: u64, value: u32);

    /// Warp-wide load: for every active lane of `access`, reads the
    /// `W`-byte value (`W` is 1 or 4, zero-extended) at the lane's
    /// address into `out[lane]`, leaving the other lanes of `out` alone.
    fn load<const W: usize>(&self, access: WarpAccess<'_>, out: &mut [u32; LANES]);

    /// Warp-wide store: for every active lane of `access`, in lane
    /// order, writes the low `W` bytes (`W` is 1 or 4) of `vals[lane]` at
    /// the lane's address.
    fn store<const W: usize>(&mut self, access: WarpAccess<'_>, vals: &[u32; LANES]);
}

impl DataMem for AddressSpace {
    fn read_u8(&self, addr: u64) -> u8 {
        AddressSpace::read_u8(self, addr)
    }
    fn read_u32(&self, addr: u64) -> u32 {
        AddressSpace::read_u32(self, addr)
    }
    fn read_u64(&self, addr: u64) -> u64 {
        AddressSpace::read_u64(self, addr)
    }
    fn write_u8(&mut self, addr: u64, value: u8) {
        AddressSpace::write_u8(self, addr, value)
    }
    fn write_u32(&mut self, addr: u64, value: u32) {
        AddressSpace::write_u32(self, addr, value)
    }
    fn load<const W: usize>(&self, access: WarpAccess<'_>, out: &mut [u32; LANES]) {
        AddressSpace::load::<W>(self, access, out)
    }
    fn store<const W: usize>(&mut self, access: WarpAccess<'_>, vals: &[u32; LANES]) {
        AddressSpace::store::<W>(self, access, vals)
    }
}

/// Copy-on-write view over an [`AddressSpace`]: reads fall through to
/// the base, writes stay in the overlay and are discarded with it.
///
/// # Example
/// ```
/// use gpu_mem::AddressSpace;
/// use gpu_sim::{DataMem, OverlayMem};
/// let mut base = AddressSpace::new();
/// base.write_u32(0, 7);
/// let mut ov = OverlayMem::new(&base);
/// ov.write_u32(0, 99);
/// assert_eq!(ov.read_u32(0), 99);
/// assert_eq!(base.read_u32(0), 7); // base untouched
/// ```
#[derive(Debug)]
pub struct OverlayMem<'a> {
    base: &'a AddressSpace,
    writes: HashMap<u64, u8, U64HashBuilder>,
}

impl<'a> OverlayMem<'a> {
    /// Creates an empty overlay over `base`.
    pub fn new(base: &'a AddressSpace) -> Self {
        OverlayMem {
            base,
            writes: HashMap::default(),
        }
    }

    /// Number of shadowed bytes.
    pub fn dirty_bytes(&self) -> usize {
        self.writes.len()
    }

    /// Drains the shadowed bytes (unordered) so they can be merged into
    /// the base address space at an epoch barrier; a shard extends its
    /// own reused buffer with them.
    pub fn drain_writes(&mut self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.writes.drain()
    }

    /// [`Self::drain_writes`] collected into a new `Vec`.
    pub fn take_writes(&mut self) -> Vec<(u64, u8)> {
        self.drain_writes().collect()
    }
}

impl DataMem for OverlayMem<'_> {
    fn read_u8(&self, addr: u64) -> u8 {
        match self.writes.get(&addr) {
            Some(b) => *b,
            None => self.base.read_u8(addr),
        }
    }

    fn read_u32(&self, addr: u64) -> u32 {
        // Until the traced warp writes something, reads fall straight
        // through — one page lookup instead of four shadow probes.
        if self.writes.is_empty() {
            return self.base.read_u32(addr);
        }
        let mut b = [0u8; 4];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        u32::from_le_bytes(b)
    }

    fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        self.writes.insert(addr, value);
    }

    fn write_u32(&mut self, addr: u64, value: u32) {
        for (i, byte) in value.to_le_bytes().iter().enumerate() {
            self.writes.insert(addr.wrapping_add(i as u64), *byte);
        }
    }

    fn load<const W: usize>(&self, access: WarpAccess<'_>, out: &mut [u32; LANES]) {
        // Same fall-through as `read_u32`: nothing shadowed yet, so the
        // base's bulk load is exact. Once dirty, every byte needs its
        // shadow probe and the per-lane reads do that.
        if self.writes.is_empty() {
            return self.base.load::<W>(access, out);
        }
        let read = |a| match W {
            1 => self.read_u8(a) as u32,
            _ => self.read_u32(a),
        };
        match access {
            WarpAccess::Uniform(a) => *out = [read(a); LANES],
            _ => access
                .lanes(W as u64)
                .for_each(|(lane, a)| out[lane] = read(a)),
        }
    }

    fn store<const W: usize>(&mut self, access: WarpAccess<'_>, vals: &[u32; LANES]) {
        let mut write = |a, v: u32| match W {
            1 => self.write_u8(a, v as u8),
            _ => self.write_u32(a, v),
        };
        match access {
            // every lane writes the same bytes: the last lane's stay
            WarpAccess::Uniform(a) => write(a, vals[LANES - 1]),
            _ => access
                .lanes(W as u64)
                .for_each(|(lane, a)| write(a, vals[lane])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_reads_through() {
        let mut base = AddressSpace::new();
        base.write_u32(100, 0xabcd);
        let ov = OverlayMem::new(&base);
        assert_eq!(ov.read_u32(100), 0xabcd);
        assert_eq!(ov.read_u64(100), 0xabcd);
    }

    #[test]
    fn overlay_writes_shadow_partially() {
        let mut base = AddressSpace::new();
        base.write_u32(0, 0xff00ff00);
        let mut ov = OverlayMem::new(&base);
        ov.write_u8(1, 0xaa); // shadow one byte in the middle
        assert_eq!(ov.read_u32(0), 0xff00aa00);
        assert_eq!(ov.dirty_bytes(), 1);
    }

    #[test]
    fn overlay_discard_leaves_base() {
        let mut base = AddressSpace::new();
        {
            let mut ov = OverlayMem::new(&base);
            ov.write_u32(8, 1234);
            assert_eq!(ov.read_u32(8), 1234);
        }
        assert_eq!(base.read_u32(8), 0);
        base.write_u32(8, 5);
        assert_eq!(base.read_u32(8), 5);
    }
}
