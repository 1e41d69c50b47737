//! The table of deltas: per-IP delta coverage and prefetch statuses
//! (Sec. III-C, "Computing the coverage of deltas").
//!
//! A 16-entry fully-associative, FIFO-replaced table. Each entry keeps
//! a 10-bit IP tag, a 4-bit search counter, and 16 delta slots of
//! (13-bit delta, 4-bit coverage, 2-bit status). Every history search
//! bumps the counter; every timely delta found bumps its slot's
//! coverage. When the counter overflows (16 searches), coverage is
//! converted into statuses against the watermarks, and a new learning
//! phase begins.

use berti_types::{Delta, Ip};

use crate::storage::BertiConfig;

/// Prefetch status of a learned delta (the 2-bit field of Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaStatus {
    /// Do not prefetch with this delta.
    NoPref,
    /// Prefetch filling only the LLC (low-coverage tier; the paper
    /// evaluates this option and disables it by setting the low
    /// watermark equal to the medium one, Sec. III-C).
    LlcPref,
    /// Prefetch filling to L2, and the delta is a replacement candidate
    /// (its selection coverage was below 50 %).
    L2PrefRepl,
    /// Prefetch filling to L2.
    L2Pref,
    /// Prefetch filling to L1D (subject to the MSHR watermark).
    L1Pref,
}

impl DeltaStatus {
    /// Whether this status issues prefetch requests.
    pub fn prefetches(self) -> bool {
        self != DeltaStatus::NoPref
    }

    /// Whether the slot may be stolen for a newly observed delta.
    fn replaceable(self) -> bool {
        matches!(
            self,
            DeltaStatus::NoPref | DeltaStatus::L2PrefRepl | DeltaStatus::LlcPref
        )
    }
}

/// A delta with its current learning state (diagnostics/examples).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LearnedDelta {
    /// The delta.
    pub delta: Delta,
    /// Coverage counter in the current phase.
    pub coverage: u32,
    /// Status assigned at the last phase boundary.
    pub status: DeltaStatus,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    delta: Delta,
    coverage: u32,
    status: DeltaStatus,
    valid: bool,
}

impl Default for Slot {
    fn default() -> Self {
        Self {
            delta: Delta::ZERO,
            coverage: 0,
            status: DeltaStatus::NoPref,
            valid: false,
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    tag: u16,
    counter: u32,
    slots: Vec<Slot>,
    phase_completed: bool,
    valid: bool,
}

/// The table of deltas.
#[derive(Clone, Debug)]
pub struct DeltaTable {
    entries: Vec<Entry>,
    cursor: usize,
    rounds_per_phase: u32,
    high: f64,
    medium: f64,
    low: f64,
    replaceable: f64,
    warmup: f64,
    warmup_min_rounds: u32,
    max_prefetch_deltas: usize,
    delta_bits: u32,
    /// Reused phase-boundary ranking buffer ([`DeltaTable::end_phase`]):
    /// sized once, so steady-state training allocates nothing.
    scratch_order: Vec<usize>,
}

impl DeltaTable {
    /// Creates the table from the Berti configuration.
    pub fn new(cfg: &BertiConfig) -> Self {
        let empty = Entry {
            tag: 0,
            counter: 0,
            slots: vec![Slot::default(); cfg.deltas_per_entry],
            phase_completed: false,
            valid: false,
        };
        Self {
            entries: vec![empty; cfg.delta_table_entries],
            cursor: 0,
            rounds_per_phase: cfg.rounds_per_phase,
            high: cfg.high_watermark,
            medium: cfg.medium_watermark,
            low: cfg.low_watermark,
            replaceable: cfg.replaceable_watermark,
            warmup: cfg.warmup_watermark,
            warmup_min_rounds: cfg.warmup_min_rounds,
            max_prefetch_deltas: cfg.max_prefetch_deltas,
            delta_bits: cfg.delta_bits,
            scratch_order: Vec::with_capacity(cfg.deltas_per_entry),
        }
    }

    fn tag_of(ip: Ip) -> u16 {
        // 10-bit multiplicative hash (Fibonacci hashing). A xor-fold is
        // too weak here: nearby code addresses collide easily, and a
        // collision makes two IPs share one entry, halving both IPs'
        // measured coverage.
        (ip.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as u16
    }

    fn find(&self, ip: Ip) -> Option<usize> {
        let tag = Self::tag_of(ip);
        self.entries.iter().position(|e| e.valid && e.tag == tag)
    }

    fn find_or_allocate(&mut self, ip: Ip) -> usize {
        if let Some(i) = self.find(ip) {
            return i;
        }
        // Fully-associative FIFO replacement; the entry is reset in
        // place so its slot storage is reused, not reallocated.
        let i = self.cursor;
        self.cursor = (self.cursor + 1) % self.entries.len();
        let e = &mut self.entries[i];
        e.tag = Self::tag_of(ip);
        e.counter = 0;
        for s in &mut e.slots {
            *s = Slot::default();
        }
        e.phase_completed = false;
        e.valid = true;
        i
    }

    /// Accounts one history search for `ip` that found `timely_deltas`
    /// (deduplicated per search: coverage is the fraction of searches a
    /// delta appears in). Triggers a phase boundary when the 4-bit
    /// counter overflows.
    pub fn record_search(&mut self, ip: Ip, timely_deltas: &[Delta]) {
        let i = self.find_or_allocate(ip);
        self.entries[i].counter += 1;
        for (k, &d) in timely_deltas.iter().enumerate() {
            // The filters depend only on the delta's value, so an
            // earlier copy of `d` in the slice was already counted
            // exactly when this one would be.
            let repeat = timely_deltas[..k].contains(&d);
            if !repeat && d != Delta::ZERO && d.fits_bits(self.delta_bits) {
                self.bump_delta(i, d);
            }
        }
        if self.entries[i].counter >= self.rounds_per_phase {
            self.end_phase(i);
        }
        self.check_entry_invariant(i);
    }

    /// `check-invariants`: structural consistency of one entry after a
    /// search — the 4-bit counter stays below a phase, per-slot coverage
    /// never exceeds the searches that could have bumped it, valid slots
    /// hold representable nonzero deltas, and the number of
    /// prefetch-issuing statuses respects the selection bound.
    #[cfg(feature = "check-invariants")]
    fn check_entry_invariant(&self, i: usize) {
        let e = &self.entries[i];
        if !e.valid {
            return;
        }
        assert!(
            e.counter < self.rounds_per_phase,
            "delta-table counter {} must reset at the phase bound {}",
            e.counter,
            self.rounds_per_phase
        );
        let mut prefetching = 0usize;
        for s in e.slots.iter().filter(|s| s.valid) {
            assert!(s.delta != Delta::ZERO, "valid slot with zero delta");
            assert!(
                s.delta.fits_bits(self.delta_bits),
                "slot delta {:?} does not fit {} bits",
                s.delta,
                self.delta_bits
            );
            assert!(
                s.coverage <= e.counter,
                "slot coverage {} exceeds searches this phase {}",
                s.coverage,
                e.counter
            );
            if s.status.prefetches() {
                prefetching += 1;
            }
        }
        assert!(
            prefetching <= self.max_prefetch_deltas,
            "{prefetching} prefetching slots exceed the bound {}",
            self.max_prefetch_deltas
        );
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn check_entry_invariant(&self, _i: usize) {}

    fn bump_delta(&mut self, entry: usize, d: Delta) {
        let rounds = self.rounds_per_phase;
        let e = &mut self.entries[entry];
        if let Some(s) = e.slots.iter_mut().find(|s| s.valid && s.delta == d) {
            s.coverage = (s.coverage + 1).min(rounds);
            return;
        }
        if let Some(s) = e.slots.iter_mut().find(|s| !s.valid) {
            *s = Slot {
                delta: d,
                coverage: 1,
                status: DeltaStatus::NoPref,
                valid: true,
            };
            return;
        }
        // Evict the lowest-coverage replaceable slot, if any; otherwise
        // the new delta is discarded (Sec. III-C).
        if let Some(victim) = e
            .slots
            .iter_mut()
            .filter(|s| s.status.replaceable())
            .min_by_key(|s| s.coverage)
        {
            *victim = Slot {
                delta: d,
                coverage: 1,
                status: DeltaStatus::NoPref,
                valid: true,
            };
        }
    }

    /// Phase boundary: convert coverage into statuses, bounded to
    /// `max_prefetch_deltas` selections, then reset the counters.
    fn end_phase(&mut self, entry: usize) {
        let rounds = f64::from(self.rounds_per_phase);
        let max_sel = self.max_prefetch_deltas;
        let order = &mut self.scratch_order;
        let e = &mut self.entries[entry];
        // Rank slots by coverage, highest first, to apply the selection
        // bound. The ranking buffer is reused across phase boundaries
        // and sorted with a manual *stable* insertion sort (equal
        // coverage keeps slot order, exactly as the allocating stable
        // `sort_by_key(Reverse(coverage))` did; `std`'s stable sort may
        // heap-allocate its merge buffer).
        order.clear();
        order.extend((0..e.slots.len()).filter(|&i| e.slots[i].valid));
        for k in 1..order.len() {
            let idx = order[k];
            let cov = e.slots[idx].coverage;
            let mut j = k;
            while j > 0 && e.slots[order[j - 1]].coverage < cov {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = idx;
        }
        let mut selected = 0usize;
        for &i in order.iter() {
            let cov = e.slots[i].coverage as f64 / rounds;
            let status = if selected < max_sel && cov > self.high {
                DeltaStatus::L1Pref
            } else if selected < max_sel && cov > self.medium {
                if cov < self.replaceable {
                    DeltaStatus::L2PrefRepl
                } else {
                    DeltaStatus::L2Pref
                }
            } else if selected < max_sel && cov > self.low {
                // Only reachable when the low watermark is configured
                // below the medium one (the paper's disabled LLC tier).
                DeltaStatus::LlcPref
            } else {
                DeltaStatus::NoPref
            };
            if status.prefetches() {
                selected += 1;
            }
            // `check-invariants`: a slot's assigned status must be
            // consistent with its coverage and the watermarks (guards
            // against watermark-comparison regressions).
            #[cfg(feature = "check-invariants")]
            {
                match status {
                    DeltaStatus::L1Pref => assert!(cov > self.high),
                    DeltaStatus::L2Pref => assert!(cov > self.medium && cov >= self.replaceable),
                    DeltaStatus::L2PrefRepl => assert!(cov > self.medium && cov < self.replaceable),
                    DeltaStatus::LlcPref => assert!(cov > self.low && cov <= self.medium),
                    DeltaStatus::NoPref => {}
                }
                assert!(selected <= max_sel, "selection bound exceeded");
            }
            e.slots[i].status = status;
        }
        for s in &mut e.slots {
            s.coverage = 0;
        }
        e.counter = 0;
        e.phase_completed = true;
    }

    /// The deltas `ip` should prefetch with right now, with the status
    /// governing the fill level. During warm-up (before the first phase
    /// boundary) deltas need `warmup_watermark` of the searches so far
    /// and at least `warmup_min_rounds` searches (Sec. III-C).
    pub fn prefetch_deltas(&self, ip: Ip, out: &mut Vec<(Delta, DeltaStatus)>) {
        let Some(i) = self.find(ip) else {
            return;
        };
        let e = &self.entries[i];
        if e.phase_completed {
            for s in e.slots.iter().filter(|s| s.valid && s.status.prefetches()) {
                out.push((s.delta, s.status));
            }
        } else if e.counter >= self.warmup_min_rounds {
            let c = f64::from(e.counter);
            for s in e.slots.iter().filter(|s| s.valid) {
                if s.coverage as f64 / c >= self.warmup {
                    out.push((s.delta, DeltaStatus::L1Pref));
                }
            }
        }
    }

    /// Current learning state for `ip` (diagnostics, Fig. 3).
    pub fn snapshot(&self, ip: Ip) -> Vec<LearnedDelta> {
        let Some(i) = self.find(ip) else {
            return Vec::new();
        };
        self.entries[i]
            .slots
            .iter()
            .filter(|s| s.valid)
            .map(|s| LearnedDelta {
                delta: s.delta,
                coverage: s.coverage,
                status: s.status,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ip = Ip::new(0x4049de);

    fn table() -> DeltaTable {
        DeltaTable::new(&BertiConfig::default())
    }

    fn run_phase(t: &mut DeltaTable, ip: Ip, deltas_per_search: &[i32], searches: u32) {
        let ds: Vec<Delta> = deltas_per_search.iter().map(|&d| Delta::new(d)).collect();
        for _ in 0..searches {
            t.record_search(ip, &ds);
        }
    }

    #[test]
    fn high_coverage_delta_becomes_l1pref() {
        let mut t = table();
        run_phase(&mut t, IP, &[10], 16); // 16/16 coverage
        let snap = t.snapshot(IP);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].status, DeltaStatus::L1Pref);
        let mut out = Vec::new();
        t.prefetch_deltas(IP, &mut out);
        assert_eq!(out, vec![(Delta::new(10), DeltaStatus::L1Pref)]);
    }

    #[test]
    fn medium_coverage_becomes_l2pref_and_low_becomes_nopref() {
        let mut t = table();
        // Delta 3 in 10/16 searches (62.5% -> L2Pref, >= 50% so not repl);
        // delta 5 in 4/16 (25% -> NoPref).
        for i in 0..16 {
            let mut ds = Vec::new();
            if i < 10 {
                ds.push(Delta::new(3));
            }
            if i < 4 {
                ds.push(Delta::new(5));
            }
            t.record_search(IP, &ds);
        }
        let snap = t.snapshot(IP);
        let status_of = |d: i32| {
            snap.iter()
                .find(|s| s.delta == Delta::new(d))
                .expect("delta recorded")
                .status
        };
        assert_eq!(status_of(3), DeltaStatus::L2Pref);
        assert_eq!(status_of(5), DeltaStatus::NoPref);
    }

    #[test]
    fn low_selection_coverage_marks_replaceable() {
        let mut t = table();
        // 7/16 = 43.75%: above medium (35%), below replaceable (50%).
        for i in 0..16 {
            let ds = if i < 7 { vec![Delta::new(4)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::L2PrefRepl);
    }

    #[test]
    fn boundary_values_match_paper_thresholds() {
        // "a coverage value higher than 10" -> L1; exactly 10 -> L2.
        let mut t = table();
        for i in 0..16 {
            let ds = if i < 10 { vec![Delta::new(2)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::L2Pref);
        let mut t = table();
        for i in 0..16 {
            let ds = if i < 11 { vec![Delta::new(2)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::L1Pref);
        // "lower or equal than 10 and higher than 5": exactly 6 -> L2PrefRepl
        // (37.5% is below the 50% replaceable mark); exactly 5 -> NoPref.
        let mut t = table();
        for i in 0..16 {
            let ds = if i < 6 { vec![Delta::new(2)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::L2PrefRepl);
        let mut t = table();
        for i in 0..16 {
            let ds = if i < 5 { vec![Delta::new(2)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::NoPref);
    }

    #[test]
    fn warmup_issues_only_above_80_percent() {
        let mut t = table();
        // 8 searches, delta +7 in all 8 (100%), delta +9 in 6 (75%).
        for i in 0..8 {
            let mut ds = vec![Delta::new(7)];
            if i < 6 {
                ds.push(Delta::new(9));
            }
            t.record_search(IP, &ds);
        }
        let mut out = Vec::new();
        t.prefetch_deltas(IP, &mut out);
        assert_eq!(out, vec![(Delta::new(7), DeltaStatus::L1Pref)]);
    }

    #[test]
    fn no_warmup_prefetch_before_min_rounds() {
        let mut t = table();
        run_phase(&mut t, IP, &[7], 7); // only 7 searches
        let mut out = Vec::new();
        t.prefetch_deltas(IP, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn statuses_persist_into_next_phase_until_boundary() {
        let mut t = table();
        run_phase(&mut t, IP, &[10], 16);
        // Mid-phase: 5 more searches with a different delta.
        run_phase(&mut t, IP, &[4], 5);
        let mut out = Vec::new();
        t.prefetch_deltas(IP, &mut out);
        assert!(
            out.contains(&(Delta::new(10), DeltaStatus::L1Pref)),
            "previous-phase status must keep prefetching mid-phase"
        );
        assert!(!out.iter().any(|(d, _)| *d == Delta::new(4)));
    }

    #[test]
    fn selection_bounded_to_max_prefetch_deltas() {
        let cfg = BertiConfig {
            deltas_per_entry: 16,
            max_prefetch_deltas: 12,
            ..BertiConfig::default()
        };
        let mut t = DeltaTable::new(&cfg);
        // 14 deltas, all 100% coverage.
        let ds: Vec<i32> = (1..=14).collect();
        run_phase(&mut t, IP, &ds, 16);
        let mut out = Vec::new();
        t.prefetch_deltas(IP, &mut out);
        assert_eq!(out.len(), 12, "at most 12 deltas may be selected");
    }

    #[test]
    fn full_entry_evicts_replaceable_lowest_coverage() {
        let cfg = BertiConfig {
            deltas_per_entry: 2,
            ..BertiConfig::default()
        };
        let mut t = DeltaTable::new(&cfg);
        // Phase 1: delta 1 strong (L1Pref), delta 2 weak (NoPref).
        for i in 0..16 {
            let mut ds = vec![Delta::new(1)];
            if i < 2 {
                ds.push(Delta::new(2));
            }
            t.record_search(IP, &ds);
        }
        // New delta 3 arrives: must displace delta 2 (NoPref), not delta 1.
        t.record_search(IP, &[Delta::new(3)]);
        let snap = t.snapshot(IP);
        let deltas: Vec<i32> = snap.iter().map(|s| s.delta.raw()).collect();
        assert!(deltas.contains(&1));
        assert!(deltas.contains(&3));
        assert!(!deltas.contains(&2));
    }

    #[test]
    fn unreplaceable_full_entry_discards_new_delta() {
        let cfg = BertiConfig {
            deltas_per_entry: 2,
            ..BertiConfig::default()
        };
        let mut t = DeltaTable::new(&cfg);
        run_phase(&mut t, IP, &[1, 2], 16); // both become L1Pref
        t.record_search(IP, &[Delta::new(3)]);
        let snap = t.snapshot(IP);
        assert!(!snap.iter().any(|s| s.delta == Delta::new(3)));
    }

    #[test]
    fn fifo_entry_replacement_under_ip_pressure() {
        let cfg = BertiConfig {
            delta_table_entries: 2,
            ..BertiConfig::default()
        };
        let mut t = DeltaTable::new(&cfg);
        run_phase(&mut t, Ip::new(100), &[1], 16);
        run_phase(&mut t, Ip::new(200), &[2], 16);
        run_phase(&mut t, Ip::new(300), &[3], 16); // evicts IP 100
        assert!(t.snapshot(Ip::new(100)).is_empty());
        assert!(!t.snapshot(Ip::new(200)).is_empty());
        assert!(!t.snapshot(Ip::new(300)).is_empty());
    }

    #[test]
    fn oversized_deltas_rejected() {
        let mut t = table();
        run_phase(&mut t, IP, &[5000], 16); // doesn't fit 13 bits
        assert!(t.snapshot(IP).is_empty());
    }

    #[test]
    fn duplicate_deltas_in_one_search_count_once() {
        let mut t = table();
        // A repeat later in the slice, after a different delta, still
        // counts once.
        t.record_search(IP, &[Delta::new(5), Delta::new(3), Delta::new(5)]);
        let snap = t.snapshot(IP);
        assert!(snap.iter().all(|s| s.coverage == 1), "{snap:?}");
        let mut t = table();
        for _ in 0..16 {
            t.record_search(IP, &[Delta::new(5), Delta::new(5)]);
        }
        // If double-counted, coverage would overflow past rounds and the
        // phase math would be wrong; status must be plain L1Pref.
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::L1Pref);
    }
}

#[cfg(test)]
mod llc_tier_tests {
    use super::*;

    const IP: Ip = Ip::new(0x4049de);

    #[test]
    fn llc_tier_activates_only_below_medium_watermark() {
        let cfg = BertiConfig {
            low_watermark: 0.10, // enable the LLC tier
            ..BertiConfig::default()
        };
        let mut t = DeltaTable::new(&cfg);
        // Coverage 4/16 = 25%: between low (10%) and medium (35%).
        for i in 0..16 {
            let ds = if i < 4 { vec![Delta::new(9)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::LlcPref);
        // With the paper's default (low == medium) the same coverage is
        // NoPref.
        let mut t = DeltaTable::new(&BertiConfig::default());
        for i in 0..16 {
            let ds = if i < 4 { vec![Delta::new(9)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        assert_eq!(t.snapshot(IP)[0].status, DeltaStatus::NoPref);
    }

    #[test]
    fn llc_slots_are_replacement_candidates() {
        let cfg = BertiConfig {
            low_watermark: 0.10,
            deltas_per_entry: 1,
            ..BertiConfig::default()
        };
        let mut t = DeltaTable::new(&cfg);
        for i in 0..16 {
            let ds = if i < 4 { vec![Delta::new(9)] } else { vec![] };
            t.record_search(IP, &ds);
        }
        // A new delta may steal the LlcPref slot.
        t.record_search(IP, &[Delta::new(3)]);
        assert_eq!(t.snapshot(IP)[0].delta, Delta::new(3));
    }
}
