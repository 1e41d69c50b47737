//! First-touch virtual-to-physical page allocation.
//!
//! Physical frames are assigned on first touch through a multiplicative
//! permutation, so consecutive virtual pages land on decorrelated
//! frames — the property that makes *physical-address* prefetchers lose
//! page-crossing patterns while Berti, training on virtual addresses,
//! keeps them (Sec. III).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use berti_types::{Ppn, Vpn};

/// Frame-number space width; 2^24 frames of 4 KiB = 64 GiB, far more
/// than any simulated footprint.
const FRAME_BITS: u32 = 24;
/// Odd multiplier: multiplication modulo 2^24 is a bijection, giving a
/// deterministic pseudo-random frame permutation.
const FRAME_SCRAMBLE: u64 = 0x9E37_79B1;

/// A fixed multiplicative hash of a page number. The map is never
/// iterated, so its order cannot reach a report, and a page number
/// needs none of SipHash's protection against chosen keys: one
/// multiply per lookup instead of a keyed SipHash round.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

/// The per-process page table: deterministic first-touch allocation.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    map: HashMap<Vpn, Ppn, BuildHasherDefault<PageHasher>>,
    next: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Translates `vpn`, allocating a frame on first touch.
    pub fn translate(&mut self, vpn: Vpn) -> Ppn {
        if let Some(&p) = self.map.get(&vpn) {
            return p;
        }
        let frame = (self.next.wrapping_mul(FRAME_SCRAMBLE)) & ((1 << FRAME_BITS) - 1);
        self.next += 1;
        let ppn = Ppn::new(frame);
        self.map.insert(vpn, ppn);
        ppn
    }

    /// Translates without allocating (`None` if never touched).
    pub fn peek(&self, vpn: Vpn) -> Option<Ppn> {
        self.map.get(&vpn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_allocates_stably() {
        let mut pt = PageTable::new();
        let p1 = pt.translate(Vpn::new(100));
        let p2 = pt.translate(Vpn::new(100));
        assert_eq!(p1, p2);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new();
        let mut seen = std::collections::HashSet::new();
        for v in 0..10_000u64 {
            let p = pt.translate(Vpn::new(v));
            assert!(seen.insert(p), "frame reused for vpn {v}");
        }
    }

    #[test]
    fn consecutive_vpns_are_decorrelated() {
        let mut pt = PageTable::new();
        let a = pt.translate(Vpn::new(0)).raw() as i64;
        let b = pt.translate(Vpn::new(1)).raw() as i64;
        assert_ne!((b - a).abs(), 1, "frames must not be trivially adjacent");
    }

    #[test]
    fn peek_does_not_allocate() {
        let mut pt = PageTable::new();
        assert!(pt.peek(Vpn::new(7)).is_none());
        let p = pt.translate(Vpn::new(7));
        assert_eq!(pt.peek(Vpn::new(7)), Some(p));
    }
}
