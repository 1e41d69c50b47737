//! Translation look-aside buffers.
//!
//! The L1 dTLB and the second-level STLB are small set-associative
//! caches of virtual-to-physical page translations. Berti's prefetch
//! requests translate through the *STLB* and are dropped on an STLB
//! miss (Sec. III-B), which is what bounds its cross-page reach.

use berti_types::{Cycle, Ppn, Vpn};

use crate::set_index::SetIndex;

#[derive(Clone, Copy, Debug)]
struct TlbLine {
    vpn: Vpn,
    ppn: Ppn,
    last_use: u64,
}

/// A set-associative TLB with LRU replacement.
#[derive(Clone, Debug)]
pub struct Tlb {
    index: SetIndex,
    ways: usize,
    latency: u64,
    lines: Vec<Option<TlbLine>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(entries: usize, ways: usize, latency: u64) -> Self {
        assert!(ways > 0 && entries > 0 && entries.is_multiple_of(ways));
        Self {
            index: SetIndex::new(entries / ways),
            ways,
            latency,
            lines: vec![None; entries],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Lookup latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    #[inline]
    fn set_of(&self, vpn: Vpn) -> usize {
        self.index.set_of(vpn.raw())
    }

    /// Translates `vpn`, returning the frame if present.
    pub fn lookup(&mut self, vpn: Vpn, _now: Cycle) -> Option<Ppn> {
        self.tick += 1;
        let set = self.set_of(vpn);
        let base = set * self.ways;
        for w in 0..self.ways {
            if let Some(line) = &mut self.lines[base + w] {
                if line.vpn == vpn {
                    line.last_use = self.tick;
                    self.hits += 1;
                    return Some(line.ppn);
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Probes without updating LRU state or counters (used by prefetch
    /// translation checks that should not pollute demand statistics).
    pub fn probe(&self, vpn: Vpn) -> Option<Ppn> {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        (0..self.ways).find_map(|w| {
            self.lines[base + w]
                .as_ref()
                .filter(|l| l.vpn == vpn)
                .map(|l| l.ppn)
        })
    }

    /// Installs a translation (LRU victim within the set).
    pub fn insert(&mut self, vpn: Vpn, ppn: Ppn) {
        self.tick += 1;
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            match &self.lines[base + w] {
                None => {
                    victim = w;
                    break;
                }
                Some(l) if l.vpn == vpn => {
                    victim = w;
                    break;
                }
                Some(l) if l.last_use < oldest => {
                    oldest = l.last_use;
                    victim = w;
                }
                Some(_) => {}
            }
        }
        self.lines[base + victim] = Some(TlbLine {
            vpn,
            ppn,
            last_use: self.tick,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup() {
        let mut t = Tlb::new(8, 4, 1);
        t.insert(Vpn::new(5), Ppn::new(50));
        assert_eq!(t.lookup(Vpn::new(5), Cycle::ZERO), Some(Ppn::new(50)));
        assert_eq!(t.lookup(Vpn::new(6), Cycle::ZERO), None);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_within_set() {
        // 1 set, 2 ways.
        let mut t = Tlb::new(2, 2, 1);
        t.insert(Vpn::new(1), Ppn::new(10));
        t.insert(Vpn::new(2), Ppn::new(20));
        assert!(t.lookup(Vpn::new(1), Cycle::ZERO).is_some()); // 1 is MRU
        t.insert(Vpn::new(3), Ppn::new(30)); // evicts 2
        assert!(t.probe(Vpn::new(1)).is_some());
        assert!(t.probe(Vpn::new(2)).is_none());
        assert!(t.probe(Vpn::new(3)).is_some());
    }

    #[test]
    fn probe_does_not_count() {
        let mut t = Tlb::new(8, 4, 1);
        t.insert(Vpn::new(5), Ppn::new(50));
        let _ = t.probe(Vpn::new(5));
        let _ = t.probe(Vpn::new(9));
        assert_eq!(t.hits() + t.misses(), 0);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new(2, 2, 1);
        t.insert(Vpn::new(1), Ppn::new(10));
        t.insert(Vpn::new(1), Ppn::new(99));
        assert_eq!(t.probe(Vpn::new(1)), Some(Ppn::new(99)));
    }

    #[test]
    fn non_power_of_two_set_count_indexes_by_modulo() {
        // 3 sets x 2 ways: pages 0, 3, 6 share set 0; 1 and 4 set 1.
        let mut t = Tlb::new(6, 2, 1);
        for v in [0, 3, 1, 4] {
            t.insert(Vpn::new(v), Ppn::new(100 + v));
        }
        t.insert(Vpn::new(6), Ppn::new(106)); // evicts page 0, set 0's LRU
        assert_eq!(t.probe(Vpn::new(0)), None);
        for v in [3, 6, 1, 4] {
            assert_eq!(t.lookup(Vpn::new(v), Cycle::ZERO), Some(Ppn::new(100 + v)));
        }
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = Tlb::new(7, 4, 1);
    }
}
