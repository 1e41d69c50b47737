//! Simulation time and request classification enums.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in core clock cycles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// Wraps a raw cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Truncates to the low `bits` bits, as a hardware timestamp
    /// register would (Berti keeps 16-bit timestamps, Table I).
    #[inline]
    pub const fn truncated(self, bits: u32) -> u64 {
        if bits >= 64 {
            self.0
        } else {
            self.0 & ((1u64 << bits) - 1)
        }
    }

    /// Saturating difference `self - earlier` in cycles.
    #[inline]
    pub const fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Self::new(raw)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.since(rhs)
    }
}

/// Classification of a memory request as it moves through the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A demand load issued by the core.
    Load,
    /// A read-for-ownership caused by a store.
    Rfo,
    /// A prefetch request issued by a hardware prefetcher.
    Prefetch,
    /// A write-back of a dirty victim line.
    Writeback,
}

impl AccessKind {
    /// Whether this request was produced by the running program
    /// (a load or a store), as opposed to the prefetcher or the
    /// cache machinery.
    #[inline]
    pub const fn is_demand(self) -> bool {
        matches!(self, AccessKind::Load | AccessKind::Rfo)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Load => "load",
            AccessKind::Rfo => "rfo",
            AccessKind::Prefetch => "prefetch",
            AccessKind::Writeback => "writeback",
        };
        f.write_str(s)
    }
}

/// The innermost cache level a prefetch request fills into.
///
/// Berti picks the level from the delta's coverage: high-coverage deltas
/// fill up to L1D, medium-coverage deltas up to L2, low-coverage deltas
/// only the LLC (Sec. III-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FillLevel {
    /// Fill all levels down to (and including) the L1D.
    L1,
    /// Fill the L2 and LLC, but not the L1D.
    L2,
    /// Fill only the LLC.
    Llc,
}

impl fmt::Display for FillLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FillLevel::L1 => "L1",
            FillLevel::L2 => "L2",
            FillLevel::Llc => "LLC",
        };
        f.write_str(s)
    }
}

/// Cache replacement policy selector (Table II: SRRIP at L2, DRRIP at
/// the LLC, LRU elsewhere; Berti's own tables use FIFO).
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, Debug, Default, serde::Serialize, serde::Deserialize,
)]
pub enum ReplacementKind {
    /// Least-recently-used.
    #[default]
    Lru,
    /// First-in first-out.
    Fifo,
    /// Static re-reference interval prediction.
    Srrip,
    /// Dynamic re-reference interval prediction (set-dueling SRRIP/BRRIP).
    Drrip,
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::Fifo => "FIFO",
            ReplacementKind::Srrip => "SRRIP",
            ReplacementKind::Drrip => "DRRIP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle::new(100);
        assert_eq!((c + 20).raw(), 120);
        assert_eq!(c + 20 - c, 20);
        assert_eq!(Cycle::new(5) - Cycle::new(10), 0, "saturates at zero");
        let mut m = Cycle::ZERO;
        m += 3;
        assert_eq!(m.raw(), 3);
    }

    #[test]
    fn cycle_truncation_wraps_like_hardware() {
        let c = Cycle::new(0x1_0005);
        assert_eq!(c.truncated(16), 0x0005);
        assert_eq!(c.truncated(64), 0x1_0005);
    }

    #[test]
    fn demand_classification() {
        assert!(AccessKind::Load.is_demand());
        assert!(AccessKind::Rfo.is_demand());
        assert!(!AccessKind::Prefetch.is_demand());
        assert!(!AccessKind::Writeback.is_demand());
    }

    #[test]
    fn fill_level_ordering_is_innermost_first() {
        assert!(FillLevel::L1 < FillLevel::L2);
        assert!(FillLevel::L2 < FillLevel::Llc);
    }

    #[test]
    fn displays_are_nonempty() {
        for k in [
            AccessKind::Load,
            AccessKind::Rfo,
            AccessKind::Prefetch,
            AccessKind::Writeback,
        ] {
            assert!(!k.to_string().is_empty());
        }
        for l in [FillLevel::L1, FillLevel::L2, FillLevel::Llc] {
            assert!(!l.to_string().is_empty());
        }
        for r in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Srrip,
            ReplacementKind::Drrip,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
