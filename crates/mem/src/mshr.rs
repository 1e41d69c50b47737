//! Miss-status holding registers.
//!
//! The MSHR bounds the number of outstanding misses per cache and, in
//! this reproduction exactly as in the paper (Sec. III-C), carries the
//! timestamp a miss was issued so the fill latency can be measured with
//! a single subtraction on fill. Berti additionally reads the MSHR
//! *occupancy* to decide whether high-coverage deltas may fill the L1D
//! (the 70 % occupancy watermark).
//!
//! # Query semantics
//!
//! All read-side queries ([`occupancy`](Mshr::occupancy),
//! [`occupancy_fraction`](Mshr::occupancy_fraction),
//! [`has_free_entry`](Mshr::has_free_entry), [`pending`](Mshr::pending))
//! take `&self` and filter expired entries *by value*: repeated queries
//! at the same cycle are idempotent and never mutate the structure.
//! Expired entries are physically reclaimed only inside
//! [`allocate`](Mshr::allocate). Event times arrive out of order, so
//! that rule is observable — a query stamped earlier than a previous
//! `allocate` must not see what that `allocate` reclaimed — and it keeps
//! the live set bounded by `capacity`.
//!
//! Entries live in one [`VecDeque`] sized once at construction and kept
//! sorted by fill time: everything an `allocate` reclaims is a prefix,
//! occupancy at any cycle is at most a binary search, and the MSHR
//! performs zero heap allocations per miss in steady state.

use std::collections::VecDeque;

use berti_types::Cycle;

#[derive(Clone, Copy, Debug)]
struct Entry {
    ready_at: Cycle,
    line: u64,
    /// Admission order: [`Mshr::pending`] answers with the
    /// first-admitted in-flight miss on a line, and fill-time order
    /// does not keep that.
    seq: u64,
}

/// A fixed-capacity MSHR modelled as a set of in-flight (line, ready)
/// pairs; entries free themselves once simulated time passes `ready_at`.
#[derive(Clone, Debug)]
pub struct Mshr {
    /// In-flight entries, earliest fill first. Never grows past
    /// `capacity`, so the deque never reallocates.
    entries: VecDeque<Entry>,
    capacity: usize,
    next_seq: u64,
    /// `fractions[k]` is `k / capacity` as `f64`, computed once, so the
    /// per-access occupancy fraction is a lookup instead of a division
    /// (the same values bit for bit). `[1.0]` for a zero capacity.
    fractions: Box<[f64]>,
}

impl Mshr {
    /// Creates an MSHR with `capacity` entries.
    ///
    /// A zero-capacity MSHR is permanently full (every
    /// [`allocate`](Mshr::allocate) fails); such configurations are
    /// rejected up front by `SystemConfig::validate` before a simulation
    /// is ever constructed, so this constructor never panics — a bad
    /// campaign grid cell fails its one job with a `ConfigError` instead
    /// of tripping the worker pool's panic-isolation path.
    pub fn new(capacity: usize) -> Self {
        let fractions = match capacity {
            0 => [1.0].into(),
            _ => (0..=capacity).map(|k| k as f64 / capacity as f64).collect(),
        };
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            fractions,
        }
    }

    /// Entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of misses outstanding at `now`. Pure: same-cycle repeats
    /// return the same answer and leave the MSHR untouched.
    ///
    /// Berti samples this watermark on every access; with the entries
    /// in fill-time order it is everything past the last entry resolved
    /// by `now`. Resolved entries stay until the next `allocate`, so the
    /// two common answers are read off the ends in O(1): a front still
    /// in flight means every entry is, a resolved back means none is.
    /// Only a deque that straddles `now` is binary-searched.
    pub fn occupancy(&self, now: Cycle) -> usize {
        match (self.entries.front(), self.entries.back()) {
            (Some(front), _) if front.ready_at > now => self.entries.len(),
            (_, Some(back)) if back.ready_at > now => {
                self.entries.len() - self.entries.partition_point(|e| e.ready_at <= now)
            }
            _ => 0,
        }
    }

    /// Occupancy as a fraction of capacity (Berti's watermark input).
    /// A zero-capacity MSHR reports fully occupied.
    pub fn occupancy_fraction(&self, now: Cycle) -> f64 {
        self.fractions[self.occupancy(now)]
    }

    /// Whether a new miss can be accepted at `now`: a slot is unused,
    /// or the earliest fill (the front) has resolved by `now`.
    pub fn has_free_entry(&self, now: Cycle) -> bool {
        self.entries.len() < self.capacity
            || self.entries.front().is_some_and(|e| e.ready_at <= now)
    }

    /// Allocates an entry for a miss on `line` that will fill at
    /// `ready_at`. Returns `false` (and allocates nothing) if full.
    ///
    /// This is the only operation that physically reclaims expired
    /// entries — the prefix resolved by `now`, admitted or not — so the
    /// live set never exceeds `capacity` and no heap traffic occurs.
    pub fn allocate(&mut self, line: u64, now: Cycle, ready_at: Cycle) -> bool {
        while self.entries.front().is_some_and(|e| e.ready_at <= now) {
            self.entries.pop_front();
        }
        let admitted = self.entries.len() < self.capacity;
        if admitted {
            let seq = self.next_seq;
            self.next_seq += 1;
            // Built where it is stored: an entry bound once and moved
            // takes a round trip through the stack that stalls the
            // store (measured: a third of `allocate`).
            let entry = || Entry {
                ready_at,
                line,
                seq,
            };
            // Fills mostly complete in the order they were requested.
            if self.entries.back().is_none_or(|e| e.ready_at <= ready_at) {
                self.entries.push_back(entry());
            } else {
                let at = self.entries.partition_point(|e| e.ready_at <= ready_at);
                self.entries.insert(at, entry());
            }
        }
        self.check_invariants();
        admitted
    }

    /// The fill time of the first-admitted in-flight miss on `line`, if
    /// any. Pure.
    pub fn pending(&self, line: u64, now: Cycle) -> Option<Cycle> {
        self.entries
            .iter()
            .filter(|e| e.line == line && e.ready_at > now)
            .min_by_key(|e| e.seq)
            .map(|e| e.ready_at)
    }

    /// `check-invariants`: the MSHR may never hold more entries than its
    /// capacity (ISSUE 5 "MSHR never over capacity"), and the entries
    /// must be in fill-time order — the binary search behind
    /// [`Mshr::occupancy`] and the front-only reclaim would otherwise
    /// silently skew Berti's occupancy watermark.
    #[cfg(feature = "check-invariants")]
    fn check_invariants(&self) {
        assert!(
            self.entries.len() <= self.capacity,
            "MSHR over capacity: {} entries > {} capacity",
            self.entries.len(),
            self.capacity
        );
        assert!(
            self.entries.iter().is_sorted_by_key(|e| e.ready_at),
            "MSHR entries out of fill-time order"
        );
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn check_invariants(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_free_entries_over_time() {
        let mut m = Mshr::new(2);
        assert!(m.allocate(1, Cycle::new(0), Cycle::new(100)));
        assert!(m.allocate(2, Cycle::new(0), Cycle::new(50)));
        assert!(!m.has_free_entry(Cycle::new(10)));
        assert!(!m.allocate(3, Cycle::new(10), Cycle::new(200)));
        // Entry for line 2 frees at cycle 50.
        assert!(m.has_free_entry(Cycle::new(51)));
        assert!(m.allocate(3, Cycle::new(51), Cycle::new(200)));
        assert_eq!(m.occupancy(Cycle::new(51)), 2);
    }

    #[test]
    fn occupancy_fraction_feeds_the_watermark() {
        let mut m = Mshr::new(16);
        for i in 0..12 {
            assert!(m.allocate(i, Cycle::new(0), Cycle::new(1000)));
        }
        let f = m.occupancy_fraction(Cycle::new(0));
        assert!((f - 0.75).abs() < 1e-9);
        assert!(f > 0.70, "12/16 crosses Berti's 70% watermark");
    }

    #[test]
    fn pending_lookup() {
        let mut m = Mshr::new(4);
        m.allocate(7, Cycle::new(0), Cycle::new(80));
        assert_eq!(m.pending(7, Cycle::new(10)), Some(Cycle::new(80)));
        assert_eq!(m.pending(8, Cycle::new(10)), None);
        assert_eq!(m.pending(7, Cycle::new(90)), None, "gone after fill");
    }

    #[test]
    fn same_cycle_queries_are_idempotent() {
        // Watermark reads must not change the answer for later reads at
        // the same cycle: the Berti fill-level decision and the
        // track-miss admission check both sample occupancy within one
        // demand access.
        let mut m = Mshr::new(4);
        m.allocate(1, Cycle::new(0), Cycle::new(10));
        m.allocate(2, Cycle::new(0), Cycle::new(20));
        let t = Cycle::new(15); // line 1 expired, line 2 in flight
        let first = (m.occupancy(t), m.occupancy_fraction(t), m.has_free_entry(t));
        for _ in 0..3 {
            assert_eq!(m.occupancy(t), first.0);
            assert_eq!(m.occupancy_fraction(t), first.1);
            assert_eq!(m.has_free_entry(t), first.2);
        }
        // Reads never reclaim: the expired entry is still physically
        // present until the next allocate.
        assert_eq!(m.pending(2, t), Some(Cycle::new(20)));
        assert_eq!(m.pending(1, t), None, "expired entry is logically gone");
    }

    #[test]
    fn pending_is_first_admitted_not_first_to_fill() {
        let mut m = Mshr::new(4);
        m.allocate(7, Cycle::new(0), Cycle::new(90));
        m.allocate(7, Cycle::new(1), Cycle::new(40));
        assert_eq!(m.pending(7, Cycle::new(10)), Some(Cycle::new(90)));
        assert_eq!(m.pending(7, Cycle::new(95)), None);
    }

    #[test]
    fn earlier_queries_do_not_see_what_allocate_reclaimed() {
        let mut m = Mshr::new(2);
        m.allocate(1, Cycle::new(0), Cycle::new(40));
        assert!(m.allocate(2, Cycle::new(100), Cycle::new(300)));
        assert_eq!(m.pending(1, Cycle::new(10)), None, "reclaimed at 100");
        assert_eq!(m.occupancy(Cycle::new(10)), 1);
        // An entry admitted behind the reclaim horizon stays visible.
        assert!(m.allocate(3, Cycle::new(20), Cycle::new(60)));
        assert_eq!(m.occupancy(Cycle::new(30)), 2);
        assert!(!m.has_free_entry(Cycle::new(30)));
        assert!(m.has_free_entry(Cycle::new(60)));
    }

    #[test]
    fn occupancy_early_outs_match_the_binary_search() {
        // Resolved entries stay until the next allocate, so a query can
        // find the deque all in flight, all resolved, or straddling
        // `now`; every boundary must agree with the plain search.
        let mut m = Mshr::new(8);
        m.allocate(1, Cycle::new(0), Cycle::new(10));
        m.allocate(2, Cycle::new(0), Cycle::new(20));
        m.allocate(3, Cycle::new(0), Cycle::new(20));
        m.allocate(4, Cycle::new(0), Cycle::new(30));
        let reference = |m: &Mshr, now: Cycle| {
            m.entries.len() - m.entries.partition_point(|e| e.ready_at <= now)
        };
        for now in 0..=35 {
            let now = Cycle::new(now);
            assert_eq!(m.occupancy(now), reference(&m, now), "at {now:?}");
        }
        assert_eq!(m.occupancy(Cycle::new(9)), 4, "front in flight: all");
        assert_eq!(m.occupancy(Cycle::new(10)), 3, "front just resolved");
        assert_eq!(m.occupancy(Cycle::new(29)), 1, "back still in flight");
        assert_eq!(m.occupancy(Cycle::new(30)), 0, "back just resolved");
        // Nothing was reclaimed by the queries above.
        assert_eq!(m.entries.len(), 4);
        assert_eq!(Mshr::new(2).occupancy(Cycle::new(5)), 0, "empty");
    }

    #[test]
    fn zero_capacity_is_always_full_not_a_panic() {
        // Rejected by SystemConfig::validate for real runs; as a raw
        // structure it degrades to "permanently full" instead of
        // panicking inside a campaign worker.
        let mut m = Mshr::new(0);
        assert!(!m.has_free_entry(Cycle::new(0)));
        assert!(!m.allocate(1, Cycle::new(0), Cycle::new(10)));
        assert_eq!(m.occupancy(Cycle::new(0)), 0);
        assert_eq!(m.occupancy_fraction(Cycle::new(0)), 1.0);
    }
}
