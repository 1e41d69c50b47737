//! A set-associative, write-back, non-inclusive cache with in-flight
//! line tracking, prefetch metadata, and per-kind statistics.
//!
//! Lines filled by a miss become visible at `valid_at` (the fill time);
//! accesses arriving earlier merge into the outstanding miss exactly as
//! an MSHR merge would. Each line carries the metadata Berti's hardware
//! keeps next to the L1D: a *prefetched* bit and the 12-bit latency of
//! the prefetch that brought the line (Fig. 5, "L1D shadow part").

use berti_types::{AccessKind, CacheGeometry, Cycle, Ip};

use crate::mshr::Mshr;
use crate::presence::PresenceIndex;
use crate::replacement::ReplacementPolicy;
use crate::set_index::SetIndex;

/// Width of the per-line latency field (Sec. III-C: 12 bits; overflow
/// is recorded as zero and skipped by training).
pub const LATENCY_BITS: u32 = 12;

/// Upper bound on associativity: per-set line flags are packed into one
/// `u64` bitmask per flag, so a set can hold at most 64 ways.
pub const MAX_WAYS: usize = 64;

/// A dirty victim that must be written back to the next level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line address in this cache's address space.
    pub addr: u64,
    /// Line address in the next level's address space (see `xlat`).
    pub xlat: u64,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
    /// Whether the victim was an unused prefetch (accuracy accounting).
    pub wasted_prefetch: bool,
}

/// Result of a demand lookup that found the line.
#[derive(Clone, Copy, Debug)]
pub struct HitInfo {
    /// Cycle at which data is available to the requester (includes the
    /// cache hit latency, or the fill time for in-flight merges).
    pub ready_at: Cycle,
    /// This was the first demand touch of a prefetched line that had
    /// already arrived: a *timely, useful* prefetch.
    pub timely_prefetch_hit: bool,
    /// This demand merged into a still-in-flight prefetch: a *late,
    /// useful* prefetch.
    pub late_prefetch_hit: bool,
    /// The stored per-line fill latency (Berti's 12-bit shadow field);
    /// zero if overflowed or already consumed. Reading a demand hit
    /// consumes it.
    pub stored_latency: u16,
}

/// Result of [`Cache::access`]: 16 bytes (the latency field is the
/// shadow field's own width, and a flag's spare values tell the
/// variants apart), so it comes back in two registers instead of
/// through a stack slot that the caller's wider reload could not take
/// from the store buffer.
#[derive(Clone, Copy, Debug)]
pub enum AccessOutcome {
    /// Present (possibly still in flight; see
    /// [`HitInfo::late_prefetch_hit`] and `ready_at`).
    Hit(HitInfo),
    /// Absent; the caller must fetch from the next level and call
    /// [`Cache::fill`].
    Miss,
    /// Absent, and no MSHR entry is free: a demand must stall, a
    /// prefetch is dropped.
    MshrFull,
}

berti_stats::counter_group! {
    /// Per-cache event counters.
    pub struct CacheStats {
        /// Demand-load hits (including merges into in-flight lines).
        pub load_hits: u64,
        /// Demand-load misses.
        pub load_misses: u64,
        /// RFO (store) hits.
        pub rfo_hits: u64,
        /// RFO misses.
        pub rfo_misses: u64,
        /// Writeback requests that found the line.
        pub wb_hits: u64,
        /// Writeback requests that allocated.
        pub wb_misses: u64,
        /// Prefetch requests that found the line already present.
        pub pf_already_present: u64,
        /// Prefetch requests that missed and were sent down (prefetch fills).
        pub pf_fills: u64,
        /// Prefetched lines first touched by a demand after arriving.
        pub pf_useful_timely: u64,
        /// Prefetched lines whose first demand merged while in flight.
        pub pf_useful_late: u64,
        /// Prefetched lines evicted without ever being demanded.
        pub pf_useless: u64,
        /// Demand misses forwarded to the next level (read traffic).
        pub demand_reads_below: u64,
        /// Prefetch misses forwarded to the next level (prefetch traffic).
        pub pf_reads_below: u64,
        /// Dirty writebacks sent to the next level (write traffic).
        pub writebacks_below: u64,
    }
}

impl CacheStats {
    /// Total demand accesses (loads + RFOs).
    pub fn demand_accesses(&self) -> u64 {
        self.load_hits + self.load_misses + self.rfo_hits + self.rfo_misses
    }

    /// Total demand misses.
    pub fn demand_misses(&self) -> u64 {
        self.load_misses + self.rfo_misses
    }

    /// The artifact's accuracy metric (Appendix G):
    /// `(late + timely useful) / prefetch fills`.
    pub fn prefetch_accuracy(&self) -> Option<f64> {
        if self.pf_fills == 0 {
            return None;
        }
        Some((self.pf_useful_timely + self.pf_useful_late) as f64 / self.pf_fills as f64)
    }

    /// Fraction of useful prefetches that arrived late.
    pub fn late_fraction(&self) -> Option<f64> {
        let useful = self.pf_useful_timely + self.pf_useful_late;
        if useful == 0 {
            return None;
        }
        Some(self.pf_useful_late as f64 / useful as f64)
    }

    /// Total read+write traffic this cache sent to the next level.
    pub fn traffic_below(&self) -> u64 {
        self.demand_reads_below + self.pf_reads_below + self.writebacks_below
    }
}

/// Sorted resident addresses of one set, in fixed stack storage
/// (the oracle-comparison return of [`Cache::resident_in_set`], made
/// allocation-free for `check-invariants` hot paths).
#[derive(Clone, Copy, Debug)]
pub struct SetResidency {
    addrs: [u64; MAX_WAYS],
    len: usize,
}

impl SetResidency {
    /// The sorted addresses as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.addrs[..self.len]
    }
}

impl std::ops::Deref for SetResidency {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl PartialEq<Vec<u64>> for SetResidency {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<SetResidency> for SetResidency {
    fn eq(&self, other: &SetResidency) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A set-associative cache level.
///
/// Line state is stored struct-of-arrays: per-slot metadata words
/// (`tags`, `valid_at`, `latency`, `xlat`) indexed by
/// `set * ways + way`, plus one packed `u64` bitmask per set for each
/// boolean flag (valid/dirty/prefetched/demand-merged). A set lookup
/// touches one contiguous tag stripe and one mask word instead of
/// `ways` scattered `Option<Line>` structs. Beside the sets, a
/// [`PresenceIndex`] keeps one mask of resident lines per page, which
/// is what [`Cache::probe`] reads.
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    geom: CacheGeometry,
    index: SetIndex,
    /// Full line address per slot (meaningful only where `valid` is set;
    /// this model stores the whole address rather than a truncated tag —
    /// the geometry still determines indexing).
    tags: Vec<u64>,
    /// The slot's line is in flight until this cycle.
    valid_at: Vec<Cycle>,
    /// Latency of the request that brought the line, truncated to
    /// [`LATENCY_BITS`]; zero means overflow or already-consumed.
    latency: Vec<u16>,
    /// Translation of this line in the next level's address space
    /// (physical line for a virtually-indexed L1D); `u64::MAX` if unset.
    xlat: Vec<u64>,
    /// Per-set occupancy bitmask (bit `way` set = slot holds a line).
    valid: Vec<u64>,
    /// Per-set dirty bitmask.
    dirty: Vec<u64>,
    /// Per-set "brought in by a prefetch, not yet demanded" bitmask.
    prefetched: Vec<u64>,
    /// Per-set "a demand merged while the line was still in flight"
    /// bitmask (a *late* prefetch, Fig. 10's dark bars).
    demand_merged: Vec<u64>,
    /// The resident lines by page. [`Cache::fill_absent`] is its only
    /// writer, as it is of `tags` and `valid`.
    present: PresenceIndex,
    repl: ReplacementPolicy,
    mshr: Mshr,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero sets or ways (via
    /// [`ReplacementPolicy::new`]) or more than [`MAX_WAYS`] ways.
    pub fn new(name: &'static str, geom: CacheGeometry) -> Self {
        assert!(
            geom.ways <= MAX_WAYS,
            "{name}: {} ways exceed the packed-bitmask limit of {MAX_WAYS}",
            geom.ways
        );
        let slots = geom.sets * geom.ways;
        Self {
            name,
            geom,
            index: SetIndex::new(geom.sets),
            tags: vec![0; slots],
            valid_at: vec![Cycle::ZERO; slots],
            latency: vec![0; slots],
            xlat: vec![0; slots],
            valid: vec![0; geom.sets],
            dirty: vec![0; geom.sets],
            prefetched: vec![0; geom.sets],
            demand_merged: vec![0; geom.sets],
            present: PresenceIndex::new(slots),
            repl: ReplacementPolicy::new(geom.replacement, geom.sets, geom.ways),
            mshr: Mshr::new(geom.mshr_entries),
            stats: CacheStats::default(),
        }
    }

    /// The cache's display name ("L1D", "L2", "LLC").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Event counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets event counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.geom.latency
    }

    /// MSHR occupancy fraction at `now` (Berti's watermark input).
    /// Pure: same-cycle repeats are idempotent (see [`Mshr`]).
    pub fn mshr_occupancy_fraction(&self, now: Cycle) -> f64 {
        self.mshr.occupancy_fraction(now)
    }

    /// Whether an MSHR entry is free at `now`. Pure.
    pub fn mshr_has_free_entry(&self, now: Cycle) -> bool {
        self.mshr.has_free_entry(now)
    }

    /// MSHR occupancy at `now` (diagnostics/oracle comparison). Pure.
    pub fn mshr_occupancy(&self, now: Cycle) -> usize {
        self.mshr.occupancy(now)
    }

    /// Fill time of an in-flight tracked miss on `addr`, if any
    /// (diagnostics and the "fills only for pending misses" invariant).
    pub fn mshr_pending(&self, addr: u64, now: Cycle) -> Option<Cycle> {
        self.mshr.pending(addr, now)
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        self.index.set_of(addr)
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.geom.ways + way
    }

    /// Tag match over one set: the lowest valid way holding `addr`
    /// (the set invariant — no address cached twice — makes it the only
    /// one). A scalar walk over the valid ways that stops at the match;
    /// the mask-building form this replaces (`(tag == addr) << w` over
    /// every way) was turned by the compiler into emulated 64-bit SIMD
    /// compares and variable shifts the baseline x86-64 target lacks.
    /// Measured equal in total to a branch-free conditional-move walk,
    /// ahead of it where hits dominate.
    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let set = self.set_of(addr);
        let base = set * self.geom.ways;
        let tags = &self.tags[base..base + self.geom.ways];
        let mut live = self.valid[set];
        while live != 0 {
            let way = live.trailing_zeros() as usize;
            if tags[way] == addr {
                return Some((set, way));
            }
            live &= live - 1;
        }
        None
    }

    /// Whether `addr` is present (even if still in flight): a bit test
    /// in the presence index, no tag walk.
    pub fn probe(&self, addr: u64) -> bool {
        let present = self.present.contains(addr);
        self.check_presence(addr, present);
        present
    }

    /// The resident lines of page `page` (line address `>> 6`) as a
    /// mask, bit `i` for the page's line `i`: what [`Cache::probe`]
    /// answers for every line of the page at once.
    pub fn page_mask(&self, page: u64) -> u64 {
        let mask = self.present.page_mask(page);
        #[cfg(feature = "check-invariants")]
        for i in 0..64 {
            self.check_presence(page << 6 | i, mask >> i & 1 != 0);
        }
        mask
    }

    /// Looks up a demand access (`Load`/`Rfo`) or a prefetch probe
    /// (`Prefetch`) on `addr` at `now`.
    ///
    /// On a miss with a free MSHR entry the caller is responsible for
    /// resolving the miss against the next level and calling
    /// [`Cache::fill`] with the fill time; this method only accounts the
    /// lookup. Prefetch probes that find the line present return `Hit`
    /// without perturbing prefetch-usefulness metadata.
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: Cycle) -> AccessOutcome {
        match self.find(addr) {
            Some((set, way)) => {
                let slot = self.slot(set, way);
                let wbit = 1u64 << way;
                match kind {
                    AccessKind::Load | AccessKind::Rfo => {
                        let in_flight = self.valid_at[slot] > now;
                        let was_prefetched = self.prefetched[set] & wbit != 0;
                        let timely = was_prefetched && !in_flight;
                        let late = was_prefetched && in_flight;
                        if was_prefetched {
                            self.prefetched[set] &= !wbit;
                            if late {
                                self.demand_merged[set] |= wbit;
                            }
                        }
                        let stored_latency = self.latency[slot];
                        self.latency[slot] = 0; // consumed by this demand touch
                        if kind == AccessKind::Rfo {
                            self.dirty[set] |= wbit;
                            self.stats.rfo_hits += 1;
                        } else {
                            self.stats.load_hits += 1;
                        }
                        let ready_at = if in_flight {
                            self.valid_at[slot]
                        } else {
                            now + self.geom.latency
                        };
                        self.repl.on_hit(set, way);
                        if timely {
                            self.stats.pf_useful_timely += 1;
                        }
                        if late {
                            self.stats.pf_useful_late += 1;
                        }
                        AccessOutcome::Hit(HitInfo {
                            ready_at,
                            timely_prefetch_hit: timely,
                            late_prefetch_hit: late,
                            stored_latency,
                        })
                    }
                    AccessKind::Prefetch => {
                        self.stats.pf_already_present += 1;
                        self.repl.on_hit(set, way);
                        AccessOutcome::Hit(HitInfo {
                            ready_at: now.max(self.valid_at[slot]),
                            timely_prefetch_hit: false,
                            late_prefetch_hit: false,
                            stored_latency: 0,
                        })
                    }
                    AccessKind::Writeback => {
                        self.dirty[set] |= wbit;
                        self.repl.on_hit(set, way);
                        self.stats.wb_hits += 1;
                        AccessOutcome::Hit(HitInfo {
                            ready_at: now + self.geom.latency,
                            timely_prefetch_hit: false,
                            late_prefetch_hit: false,
                            stored_latency: 0,
                        })
                    }
                }
            }
            None => {
                if !self.mshr.has_free_entry(now) && kind != AccessKind::Writeback {
                    return AccessOutcome::MshrFull;
                }
                match kind {
                    AccessKind::Load => self.stats.load_misses += 1,
                    AccessKind::Rfo => self.stats.rfo_misses += 1,
                    AccessKind::Prefetch => {}
                    AccessKind::Writeback => self.stats.wb_misses += 1,
                }
                AccessOutcome::Miss
            }
        }
    }

    /// Allocates an MSHR entry for a miss on `addr` that resolves at
    /// `ready_at`, and accounts the read sent to the next level.
    pub fn track_miss(&mut self, addr: u64, kind: AccessKind, now: Cycle, ready_at: Cycle) {
        let ok = self.mshr.allocate(addr, now, ready_at);
        debug_assert!(ok, "caller must check mshr_has_free_entry first");
        match kind {
            AccessKind::Prefetch => self.stats.pf_reads_below += 1,
            AccessKind::Writeback => {}
            _ => self.stats.demand_reads_below += 1,
        }
    }

    /// Inserts `addr` (arriving at `ready_at`) and returns the victim,
    /// if one had to be evicted.
    ///
    /// `latency` is the measured fill latency to be stored in the
    /// per-line shadow field (truncated to 12 bits; overflow stores 0,
    /// Sec. III-C). `xlat` is the line's address in the next level's
    /// address space (used to route writebacks from a virtually-indexed
    /// L1D). `_ip` is not stored: it stays because the benchmark's layer
    /// probes call `fill` with this signature.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware fill interface
    pub fn fill(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: Cycle,
        ready_at: Cycle,
        latency: u64,
        _ip: Ip,
        xlat: u64,
    ) -> Option<EvictedLine> {
        if let Some((set, way)) = self.find(addr) {
            // Writeback to a present line, or a refill race: update in place.
            if kind == AccessKind::Writeback {
                self.dirty[set] |= 1 << way;
            }
            self.repl.on_hit(set, way);
            return None;
        }
        let _ = now;
        self.fill_absent(addr, kind, ready_at, latency, xlat)
    }

    /// [`Cache::fill`] of a line the caller has just seen absent: the
    /// miss path, after an `access` or `probe` of `addr` that found
    /// nothing, with no fill of this cache in between (what lies below a
    /// level never fills the level above it). Skips the tag walk that
    /// would only confirm the absence.
    pub(crate) fn fill_absent(
        &mut self,
        addr: u64,
        kind: AccessKind,
        ready_at: Cycle,
        latency: u64,
        xlat: u64,
    ) -> Option<EvictedLine> {
        debug_assert!(
            self.find(addr).is_none(),
            "{}: fill_absent of present line {addr:#x}",
            self.name
        );
        let set = self.set_of(addr);
        let way = self.repl.victim(set, self.valid[set]);
        let slot = self.slot(set, way);
        let wbit = 1u64 << way;
        let evicted = (self.valid[set] & wbit != 0).then(|| {
            self.present.remove(self.tags[slot]);
            let was_prefetched = self.prefetched[set] & wbit != 0;
            let was_dirty = self.dirty[set] & wbit != 0;
            if was_prefetched {
                self.stats.pf_useless += 1;
            }
            if was_dirty {
                self.stats.writebacks_below += 1;
            }
            EvictedLine {
                addr: self.tags[slot],
                xlat: self.xlat[slot],
                dirty: was_dirty,
                wasted_prefetch: was_prefetched,
            }
        });
        let stored_latency = if latency >= (1 << LATENCY_BITS) {
            0
        } else {
            latency as u16
        };
        let is_prefetch = kind == AccessKind::Prefetch;
        if is_prefetch {
            self.stats.pf_fills += 1;
        }
        let is_dirty = kind == AccessKind::Writeback || kind == AccessKind::Rfo;
        self.tags[slot] = addr;
        self.valid_at[slot] = ready_at;
        self.latency[slot] = stored_latency;
        self.xlat[slot] = xlat;
        self.valid[set] |= wbit;
        self.present.insert(addr);
        self.dirty[set] = (self.dirty[set] & !wbit) | (u64::from(is_dirty) << way);
        self.prefetched[set] = (self.prefetched[set] & !wbit) | (u64::from(is_prefetch) << way);
        self.demand_merged[set] &= !wbit;
        self.repl.on_fill(set, way, kind.is_demand());
        self.check_set_invariant(set);
        if let Some(ev) = &evicted {
            self.check_presence(ev.addr, false);
        }
        self.check_presence(addr, true);
        evicted
    }

    /// `check-invariants`: every line in `set` indexes to `set` and no
    /// address is cached twice (a duplicate would make `find` and the
    /// LRU oracle disagree about which copy is live). Allocation-free:
    /// walks valid-mask pairs instead of collecting seen addresses.
    #[cfg(feature = "check-invariants")]
    fn check_set_invariant(&self, set: usize) {
        let base = set * self.geom.ways;
        for w in 0..self.geom.ways {
            if self.valid[set] >> w & 1 == 0 {
                continue;
            }
            let addr = self.tags[base + w];
            assert_eq!(
                self.set_of(addr),
                set,
                "{}: line {addr:#x} stored in wrong set {set}",
                self.name,
            );
            for earlier in 0..w {
                assert!(
                    self.valid[set] >> earlier & 1 == 0 || self.tags[base + earlier] != addr,
                    "{}: line {addr:#x} duplicated in set {set}",
                    self.name,
                );
            }
        }
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn check_set_invariant(&self, _set: usize) {}

    /// `check-invariants`: the presence index answers `present` for
    /// `addr` exactly when the tag walk finds it, and holds no more
    /// pages than the cache has lines.
    #[cfg(feature = "check-invariants")]
    fn check_presence(&self, addr: u64, present: bool) {
        assert_eq!(
            present,
            self.find(addr).is_some(),
            "{}: presence index and tag walk disagree on {addr:#x}",
            self.name
        );
        assert!(
            self.present.pages() <= self.present.capacity(),
            "{}: presence index over capacity",
            self.name
        );
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn check_presence(&self, _addr: u64, _present: bool) {}

    /// The stored shadow latency of `addr` without consuming it
    /// (testing/diagnostics).
    pub fn peek_latency(&self, addr: u64) -> Option<u64> {
        self.find(addr)
            .map(|(s, w)| u64::from(self.latency[self.slot(s, w)]))
    }

    /// Number of resident lines (testing/diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// The set index `addr` maps to (oracle comparison).
    pub fn set_index(&self, addr: u64) -> usize {
        self.set_of(addr)
    }

    /// Sorted line addresses resident in `set` (oracle comparison; sorted
    /// so two models can be compared without exposing way placement).
    /// Allocation-free: the result lives in fixed stack storage, hot
    /// under `check-invariants` shadow suites.
    pub fn resident_in_set(&self, set: usize) -> SetResidency {
        let base = set * self.geom.ways;
        let mut out = SetResidency {
            addrs: [0; MAX_WAYS],
            len: 0,
        };
        let mut mask = self.valid[set];
        while mask != 0 {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let addr = self.tags[base + w];
            // Insertion sort into the stack buffer keeps the slice sorted.
            let mut i = out.len;
            while i > 0 && out.addrs[i - 1] > addr {
                out.addrs[i] = out.addrs[i - 1];
                i -= 1;
            }
            out.addrs[i] = addr;
            out.len += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_types::ReplacementKind;

    fn tiny() -> Cache {
        Cache::new(
            "T",
            CacheGeometry {
                sets: 2,
                ways: 2,
                latency: 5,
                mshr_entries: 2,
                rq_entries: 8,
                wq_entries: 8,
                pq_entries: 8,
                bandwidth: 2,
                replacement: ReplacementKind::Lru,
            },
        )
    }

    #[test]
    fn access_outcome_fits_two_registers() {
        assert_eq!(std::mem::size_of::<AccessOutcome>(), 16);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let now = Cycle::new(0);
        assert!(matches!(
            c.access(100, AccessKind::Load, now),
            AccessOutcome::Miss
        ));
        c.track_miss(100, AccessKind::Load, now, Cycle::new(50));
        c.fill(
            100,
            AccessKind::Load,
            now,
            Cycle::new(50),
            50,
            Ip::new(1),
            100,
        );
        match c.access(100, AccessKind::Load, Cycle::new(60)) {
            AccessOutcome::Hit(h) => assert_eq!(h.ready_at, Cycle::new(65)),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().load_misses, 1);
        assert_eq!(c.stats().load_hits, 1);
        assert_eq!(c.stats().demand_reads_below, 1);
    }

    #[test]
    fn in_flight_demand_merges() {
        let mut c = tiny();
        c.fill(
            100,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(80),
            80,
            Ip::new(1),
            100,
        );
        // A second demand at cycle 10 must wait for the fill, not hit at 15.
        match c.access(100, AccessKind::Load, Cycle::new(10)) {
            AccessOutcome::Hit(h) => assert_eq!(h.ready_at, Cycle::new(80)),
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn timely_and_late_prefetch_accounting() {
        let mut c = tiny();
        // Timely: prefetch fills at 50; demand arrives at 100.
        c.fill(
            1,
            AccessKind::Prefetch,
            Cycle::new(0),
            Cycle::new(50),
            50,
            Ip::new(1),
            1,
        );
        match c.access(1, AccessKind::Load, Cycle::new(100)) {
            AccessOutcome::Hit(h) => {
                assert!(h.timely_prefetch_hit);
                assert!(!h.late_prefetch_hit);
                assert_eq!(h.stored_latency, 50);
            }
            other => panic!("{other:?}"),
        }
        // Late: prefetch fills at 500; demand arrives at 100.
        c.fill(
            2,
            AccessKind::Prefetch,
            Cycle::new(0),
            Cycle::new(500),
            500,
            Ip::new(1),
            2,
        );
        match c.access(2, AccessKind::Load, Cycle::new(100)) {
            AccessOutcome::Hit(h) => {
                assert!(!h.timely_prefetch_hit);
                assert!(h.late_prefetch_hit);
                assert_eq!(h.ready_at, Cycle::new(500));
            }
            other => panic!("{other:?}"),
        }
        let s = c.stats();
        assert_eq!(s.pf_fills, 2);
        assert_eq!(s.pf_useful_timely, 1);
        assert_eq!(s.pf_useful_late, 1);
        assert_eq!(s.prefetch_accuracy(), Some(1.0));
        assert_eq!(s.late_fraction(), Some(0.5));
        // Second touch is a plain hit: latency was consumed.
        match c.access(1, AccessKind::Load, Cycle::new(200)) {
            AccessOutcome::Hit(h) => {
                assert!(!h.timely_prefetch_hit);
                assert_eq!(h.stored_latency, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn useless_prefetch_counted_on_eviction() {
        let mut c = tiny();
        // Set 0 holds even addresses: 0, 2, 4 map to set 0 (2 sets).
        c.fill(
            0,
            AccessKind::Prefetch,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            0,
        );
        c.fill(
            2,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            2,
        );
        c.fill(
            4,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            4,
        );
        assert_eq!(c.stats().pf_useless, 1);
        assert_eq!(c.stats().prefetch_accuracy(), Some(0.0));
    }

    #[test]
    fn latency_overflow_stores_zero() {
        let mut c = tiny();
        c.fill(
            1,
            AccessKind::Prefetch,
            Cycle::new(0),
            Cycle::new(1),
            4096,
            Ip::new(1),
            1,
        );
        assert_eq!(c.peek_latency(1), Some(0));
        c.fill(
            3,
            AccessKind::Prefetch,
            Cycle::new(0),
            Cycle::new(1),
            4095,
            Ip::new(1),
            3,
        );
        assert_eq!(c.peek_latency(3), Some(4095));
    }

    #[test]
    fn mshr_full_blocks_misses() {
        let mut c = tiny();
        let now = Cycle::new(0);
        for a in [10, 12] {
            assert!(matches!(
                c.access(a, AccessKind::Load, now),
                AccessOutcome::Miss
            ));
            c.track_miss(a, AccessKind::Load, now, Cycle::new(1000));
        }
        assert!(matches!(
            c.access(14, AccessKind::Load, now),
            AccessOutcome::MshrFull
        ));
        // After the fills resolve, misses are accepted again.
        assert!(matches!(
            c.access(14, AccessKind::Load, Cycle::new(1001)),
            AccessOutcome::Miss
        ));
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut c = tiny();
        c.fill(
            0,
            AccessKind::Rfo,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            900,
        );
        c.fill(
            2,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            902,
        );
        let ev = c.fill(
            4,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            904,
        );
        let ev = ev.expect("dirty victim");
        assert_eq!(ev.addr, 0);
        assert_eq!(ev.xlat, 900);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks_below, 1);
    }

    #[test]
    fn writeback_into_present_line_sets_dirty() {
        let mut c = tiny();
        c.fill(
            6,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            6,
        );
        assert!(matches!(
            c.access(6, AccessKind::Writeback, Cycle::new(5)),
            AccessOutcome::Hit(_)
        ));
        // Evicting it now must produce a writeback (set 0: 6%2==0 -> set 0).
        c.fill(
            8,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            8,
        );
        let ev = c.fill(
            10,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            10,
        );
        assert!(ev.expect("victim").dirty);
    }

    #[test]
    fn prefetch_probe_does_not_consume_usefulness() {
        let mut c = tiny();
        c.fill(
            1,
            AccessKind::Prefetch,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            1,
        );
        assert!(matches!(
            c.access(1, AccessKind::Prefetch, Cycle::new(5)),
            AccessOutcome::Hit(_)
        ));
        // The later demand still counts as a useful prefetch.
        match c.access(1, AccessKind::Load, Cycle::new(10)) {
            AccessOutcome::Hit(h) => assert!(h.timely_prefetch_hit),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().pf_already_present, 1);
    }

    #[test]
    fn rfo_marks_dirty_on_hit() {
        let mut c = tiny();
        c.fill(
            6,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            6,
        );
        assert!(matches!(
            c.access(6, AccessKind::Rfo, Cycle::new(5)),
            AccessOutcome::Hit(_)
        ));
        c.fill(
            8,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            8,
        );
        let ev = c.fill(
            10,
            AccessKind::Load,
            Cycle::new(0),
            Cycle::new(1),
            1,
            Ip::new(1),
            10,
        );
        assert!(ev.expect("victim").dirty, "RFO hit must dirty the line");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random fills of every kind and demand touches over a 4-set,
        /// 3-way cache, with lines drawn from 40 pages: the index holds
        /// up to 12 pages in 32 slots, so pages collide, empty and move.
        /// After every step the index answers exactly what the tag walk
        /// finds for every line, and never holds more pages than the
        /// cache has lines.
        #[test]
        fn presence_index_matches_the_tag_walk(
            ops in proptest::prop::collection::vec((0u64..40, 0u64..4, 0u8..5), 1..300),
            repl in proptest::prop::sample::select(vec![
                ReplacementKind::Lru,
                ReplacementKind::Fifo,
                ReplacementKind::Srrip,
                ReplacementKind::Drrip,
            ]),
        ) {
            let mut c = Cache::new(
                "P",
                CacheGeometry {
                    sets: 4,
                    ways: 3,
                    replacement: repl,
                    ..tiny().geom
                },
            );
            for (n, &(page, index, op)) in ops.iter().enumerate() {
                let addr = page << 6 | index;
                let now = Cycle::new(10 * n as u64);
                let kind = [
                    AccessKind::Load,
                    AccessKind::Rfo,
                    AccessKind::Prefetch,
                    AccessKind::Writeback,
                ];
                match kind.get(usize::from(op)) {
                    Some(&kind) => {
                        let _ = c.fill(addr, kind, now, now + 1, 1, Ip::new(1), addr);
                    }
                    None => {
                        let _ = c.access(addr, AccessKind::Load, now);
                    }
                }
                for page in 0..40u64 {
                    let mut walked = 0u64;
                    for index in 0..4u64 {
                        let line = page << 6 | index;
                        let found = c.find(line).is_some();
                        proptest::prop_assert_eq!(c.probe(line), found, "line {:#x}", line);
                        walked |= u64::from(found) << index;
                    }
                    proptest::prop_assert_eq!(c.page_mask(page), walked, "page {}", page);
                }
                proptest::prop_assert!(c.present.pages() <= c.present.capacity());
            }
            proptest::prop_assert_eq!(c.present.pages() > 0, c.resident_lines() > 0);
        }
    }
}
