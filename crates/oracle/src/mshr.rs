//! A by-value MSHR occupancy reference model.
//!
//! [`berti_mem::Mshr`] keeps its in-flight entries in a structure built
//! for speed and reclaims expired ones lazily, only inside `allocate`.
//! Event times reach the MSHR out of order (demand times carry variable
//! translation latency; prefetch issue times trail them), so *when* an
//! entry is reclaimed is observable: an `allocate` at cycle 100 forgets
//! every entry resolved by then, and a later query at cycle 50 must not
//! see them again. The oracle keeps the same rule in its plainest form
//! — one `Vec` in admission order, `retain` at `allocate`, a full scan
//! per query — so any disagreement means the real MSHR's ordering,
//! search or reclamation dropped or resurrected an entry.

use berti_types::Cycle;

/// The reference model: live allocations in admission order.
#[derive(Clone, Debug, Default)]
pub struct MshrOracle {
    capacity: usize,
    /// Every allocation admitted and not yet reclaimed, oldest first:
    /// `(line, ready_at)`.
    live: Vec<(u64, Cycle)>,
}

impl MshrOracle {
    /// Creates the model with the real MSHR's capacity. Zero capacity
    /// is permanently full, as for [`berti_mem::Mshr`].
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            live: Vec::new(),
        }
    }

    /// Entries still in flight at `now`.
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.live.iter().filter(|(_, r)| *r > now).count()
    }

    /// Occupancy as a fraction of capacity (1.0 when capacity is zero).
    pub fn occupancy_fraction(&self, now: Cycle) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.occupancy(now) as f64 / self.capacity as f64
    }

    /// Whether an allocation would be admitted at `now`.
    pub fn has_free_entry(&self, now: Cycle) -> bool {
        self.occupancy(now) < self.capacity
    }

    /// Forgets every entry resolved by `now` (whether or not the new
    /// miss is admitted), then admits a miss on `line` resolving at
    /// `ready_at` if a slot is free. Returns whether it was admitted.
    pub fn allocate(&mut self, line: u64, now: Cycle, ready_at: Cycle) -> bool {
        self.live.retain(|(_, r)| *r > now);
        if self.live.len() >= self.capacity {
            return false;
        }
        self.live.push((line, ready_at));
        true
    }

    /// Fill time of the first-admitted in-flight allocation for `line`,
    /// if any.
    pub fn pending(&self, line: u64, now: Cycle) -> Option<Cycle> {
        self.live
            .iter()
            .find(|(l, r)| *l == line && *r > now)
            .map(|(_, r)| *r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_respects_capacity_and_expiry() {
        let mut o = MshrOracle::new(2);
        assert!(o.allocate(1, Cycle::new(0), Cycle::new(100)));
        assert!(o.allocate(2, Cycle::new(0), Cycle::new(50)));
        assert!(!o.allocate(3, Cycle::new(10), Cycle::new(200)), "full");
        // At cycle 60 entry 2 has resolved; a slot is free again.
        assert!(o.allocate(3, Cycle::new(60), Cycle::new(200)));
        assert_eq!(o.occupancy(Cycle::new(60)), 2);
        assert_eq!(o.pending(2, Cycle::new(60)), None, "resolved");
        assert_eq!(o.pending(3, Cycle::new(60)), Some(Cycle::new(200)));
    }

    #[test]
    fn allocate_forgets_what_it_reclaimed_even_for_earlier_queries() {
        let mut o = MshrOracle::new(2);
        assert!(o.allocate(1, Cycle::new(0), Cycle::new(40)));
        assert_eq!(o.occupancy(Cycle::new(10)), 1);
        // Full or not, an allocate at 100 reclaims the entry that
        // resolved at 40; a query stamped earlier no longer sees it.
        assert!(o.allocate(2, Cycle::new(100), Cycle::new(300)));
        assert_eq!(o.pending(1, Cycle::new(10)), None);
        assert_eq!(o.occupancy(Cycle::new(10)), 1, "only line 2");
    }

    #[test]
    fn zero_capacity_is_permanently_full() {
        let mut o = MshrOracle::new(0);
        assert!(!o.has_free_entry(Cycle::ZERO));
        assert!(!o.allocate(1, Cycle::ZERO, Cycle::new(10)));
        assert_eq!(o.occupancy_fraction(Cycle::ZERO), 1.0);
    }
}
