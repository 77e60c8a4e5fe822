//! Memory backends for functional execution.
//!
//! Detailed and fast-forward execution commit to the real
//! [`AddressSpace`]; Photon's *online analysis* traces a sample of warps
//! that will still be simulated later, so those traces run against a
//! copy-on-write [`OverlayMem`] and leave no side effects.

use gpu_isa::LANES;
use gpu_mem::{set_bits, AddressSpace, U64HashBuilder};
use std::collections::HashMap;

/// A byte-addressable data memory the functional interpreter can run on.
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

    /// Warp-wide load: for every lane set in `mask`, reads the `W`-byte
    /// value (`W` is 1 or 4, zero-extended) at `addrs[lane]` into
    /// `out[lane]`, leaving the other lanes of `out` alone.
    fn gather<const W: usize>(&self, addrs: &[u64; LANES], mask: u64, out: &mut [u32; LANES]) {
        gather_per_lane::<W, _>(self, addrs, mask, out)
    }

    /// Warp-wide store: for every lane set in `mask`, in lane order,
    /// writes the low `W` bytes (`W` is 1 or 4) of `vals[lane]` at
    /// `addrs[lane]`.
    fn scatter<const W: usize>(&mut self, addrs: &[u64; LANES], mask: u64, vals: &[u32; LANES]) {
        for lane in set_bits(mask) {
            match W {
                1 => self.write_u8(addrs[lane], vals[lane] as u8),
                _ => self.write_u32(addrs[lane], vals[lane]),
            }
        }
    }
}

/// [`DataMem::gather`] as one scalar read per active lane.
fn gather_per_lane<const W: usize, M: DataMem + ?Sized>(
    mem: &M,
    addrs: &[u64; LANES],
    mask: u64,
    out: &mut [u32; LANES],
) {
    for lane in set_bits(mask) {
        out[lane] = match W {
            1 => mem.read_u8(addrs[lane]) as u32,
            _ => mem.read_u32(addrs[lane]),
        };
    }
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
    fn gather<const W: usize>(&self, addrs: &[u64; LANES], mask: u64, out: &mut [u32; LANES]) {
        AddressSpace::gather::<W>(self, addrs, mask, out)
    }
    fn scatter<const W: usize>(&mut self, addrs: &[u64; LANES], mask: u64, vals: &[u32; LANES]) {
        AddressSpace::scatter::<W>(self, addrs, mask, vals)
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
            *byte = self.read_u8(addr + i as u64);
        }
        u32::from_le_bytes(b)
    }

    fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr + 4) as u64) << 32)
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        self.writes.insert(addr, value);
    }

    fn write_u32(&mut self, addr: u64, value: u32) {
        for (i, byte) in value.to_le_bytes().iter().enumerate() {
            self.writes.insert(addr + i as u64, *byte);
        }
    }

    fn gather<const W: usize>(&self, addrs: &[u64; LANES], mask: u64, out: &mut [u32; LANES]) {
        // Same fall-through as `read_u32`: nothing shadowed yet, so the
        // base's page-run gather is exact. Once dirty, every byte needs
        // its shadow probe and the per-lane reads do that.
        if self.writes.is_empty() {
            self.base.gather::<W>(addrs, mask, out)
        } else {
            gather_per_lane::<W, _>(self, addrs, mask, out)
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
