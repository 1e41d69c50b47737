//! The history table: recent demand accesses per IP (Sec. III-C,
//! "Learning timely deltas").
//!
//! An 8-set × 16-way cache, indexed by the IP and replaced FIFO within
//! a set. Each entry keeps a 7-bit IP tag, the 24 least-significant
//! bits of the accessed cache-line address, and a 16-bit timestamp.
//! Entries are inserted on demand misses and on first demand hits of
//! prefetched lines; searches return, youngest first, the entries by
//! the same IP whose timestamp is early enough that a prefetch issued
//! then would have been timely.

use berti_mem::SetIndex;
use berti_types::{Cycle, Delta, Ip, VLine};

/// Bits of the stored line address (Table I: 24).
const LINE_ADDR_BITS: u32 = 24;
/// Bits of the IP tag (Table I: 7, taken above the index bits).
const IP_TAG_BITS: u32 = 7;

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u16,
    /// 24 LSBs of the line address.
    line_lo: u32,
    /// Full cycle of insertion; comparisons apply the configured
    /// timestamp window to model the 16-bit hardware register.
    inserted_at: Cycle,
    valid: bool,
    /// `check-invariants`: global insertion sequence number, used to
    /// prove FIFO replacement. Timestamps cannot serve here — demand
    /// event times are stamped with variable translation latency and
    /// are not monotone across inserts.
    #[cfg(feature = "check-invariants")]
    seq: u64,
}

impl Default for Entry {
    fn default() -> Self {
        Self {
            tag: 0,
            line_lo: 0,
            inserted_at: Cycle::ZERO,
            valid: false,
            #[cfg(feature = "check-invariants")]
            seq: 0,
        }
    }
}

/// One timely access found by a history search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryHit {
    /// Delta from the recorded access to the current line (current −
    /// recorded, computed on the stored 24-bit line addresses).
    pub delta: Delta,
    /// When the recorded access happened.
    pub at: Cycle,
}

/// The history table.
#[derive(Clone, Debug)]
pub struct HistoryTable {
    index: SetIndex,
    ways: usize,
    timestamp_window: u64,
    entries: Vec<Entry>,
    /// FIFO insertion cursor per set.
    cursor: Vec<usize>,
    /// `check-invariants`: next global insertion sequence number.
    #[cfg(feature = "check-invariants")]
    next_seq: u64,
}

impl HistoryTable {
    /// Creates a history table with the given geometry and timestamp
    /// width in bits.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize, timestamp_bits: u32) -> Self {
        assert!(sets > 0 && ways > 0);
        Self {
            index: SetIndex::new(sets),
            ways,
            timestamp_window: if timestamp_bits >= 64 {
                u64::MAX
            } else {
                1u64 << timestamp_bits
            },
            entries: vec![Entry::default(); sets * ways],
            cursor: vec![0; sets],
            #[cfg(feature = "check-invariants")]
            next_seq: 0,
        }
    }

    #[inline]
    fn set_of(&self, ip: Ip) -> usize {
        // Skip the low 2 bits: neighbouring memory instructions are a
        // few bytes apart and would otherwise pile into one set.
        self.index.set_of(ip.raw() >> 2)
    }

    #[inline]
    fn tag_of(&self, ip: Ip) -> u16 {
        (self.index.tag_of(ip.raw() >> 2) & ((1 << IP_TAG_BITS) - 1)) as u16
    }

    /// Records a demand access by `ip` to `line` at `now` (FIFO within
    /// the set).
    pub fn insert(&mut self, ip: Ip, line: VLine, now: Cycle) {
        let set = self.set_of(ip);
        let way = self.cursor[set];
        self.cursor[set] = (way + 1) % self.ways;
        // `check-invariants`: FIFO ordering — the overwritten way must
        // hold the oldest valid entry of the set (by insertion
        // sequence, not timestamp; event times are not monotone).
        #[cfg(feature = "check-invariants")]
        let seq = {
            let base = set * self.ways;
            if self.entries[base + way].valid {
                let oldest = (0..self.ways)
                    .filter(|&w| self.entries[base + w].valid)
                    .map(|w| self.entries[base + w].seq)
                    .min()
                    .expect("victim is valid");
                assert_eq!(
                    self.entries[base + way].seq,
                    oldest,
                    "history FIFO must overwrite the oldest entry in set {set}"
                );
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        };
        self.entries[set * self.ways + way] = Entry {
            tag: self.tag_of(ip),
            line_lo: (line.raw() & ((1 << LINE_ADDR_BITS) - 1)) as u32,
            inserted_at: now,
            valid: true,
            #[cfg(feature = "check-invariants")]
            seq,
        };
    }

    /// Searches for accesses by `ip` that would have produced a timely
    /// prefetch for a demand of `line` at `demand_at` with measured
    /// fetch latency `latency`: entries no younger than
    /// `demand_at − latency` (Sec. III-A, Fig. 4). At most `max_hits`
    /// results are returned, youngest first; zero deltas are skipped.
    pub fn search_timely(
        &self,
        ip: Ip,
        line: VLine,
        demand_at: Cycle,
        latency: u64,
        max_hits: usize,
    ) -> Vec<HistoryHit> {
        let mut hits = Vec::with_capacity(self.ways);
        self.search_timely_into(ip, line, demand_at, latency, max_hits, &mut hits);
        hits
    }

    /// [`HistoryTable::search_timely`] into a caller-owned buffer: the
    /// hot path reuses one scratch vector across misses, so steady-state
    /// training performs no heap allocation. `out` is cleared first and
    /// never grows past the set's way count.
    ///
    /// Ordering matches the allocating variant exactly: a *stable*
    /// insertion sort, youngest first — entries with equal timestamps
    /// keep way order, as `sort_by_key(Reverse(at))` (stable) did.
    pub fn search_timely_into(
        &self,
        ip: Ip,
        line: VLine,
        demand_at: Cycle,
        latency: u64,
        max_hits: usize,
        out: &mut Vec<HistoryHit>,
    ) {
        out.clear();
        let cutoff = demand_at.raw().saturating_sub(latency);
        let set = self.set_of(ip);
        let tag = self.tag_of(ip);
        let line_lo = (line.raw() & ((1 << LINE_ADDR_BITS) - 1)) as i64;
        for way in 0..self.ways {
            let e = &self.entries[set * self.ways + way];
            if !e.valid || e.tag != tag {
                continue;
            }
            let t = e.inserted_at.raw();
            // A 16-bit timestamp can only be compared within its wrap
            // window; older entries are stale in hardware.
            if t > cutoff || demand_at.raw().saturating_sub(t) >= self.timestamp_window {
                continue;
            }
            // Delta on the stored 24-bit addresses, wrap-aware.
            let mut d = line_lo - i64::from(e.line_lo);
            let half = 1i64 << (LINE_ADDR_BITS - 1);
            if d > half {
                d -= 1i64 << LINE_ADDR_BITS;
            } else if d < -half {
                d += 1i64 << LINE_ADDR_BITS;
            }
            if d == 0 {
                continue;
            }
            let hit = HistoryHit {
                delta: Delta::saturating(d),
                at: e.inserted_at,
            };
            // Stable insertion, youngest first: shift only strictly
            // older entries so equal timestamps keep way order.
            let mut i = out.len();
            out.push(hit);
            while i > 0 && out[i - 1].at < hit.at {
                out[i] = out[i - 1];
                i -= 1;
            }
            out[i] = hit;
        }
        // The hardware collects the youngest `max_hits`.
        out.truncate(max_hits);
    }

    /// Total entries (diagnostics).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> HistoryTable {
        HistoryTable::new(8, 16, 16)
    }

    const IP: Ip = Ip::new(0x401cb0);

    #[test]
    fn finds_timely_deltas_like_figure_4() {
        // Fig. 4: same IP accesses lines 2, 5, 7, 10, 12, 15; latency
        // such that only sufficiently old accesses are timely.
        let mut h = table();
        // (line, time): 2@0, 5@10, 7@20, 10@30, 12@40.
        for (line, t) in [(2, 0), (5, 10), (7, 20), (10, 30), (12, 40)] {
            h.insert(IP, VLine::new(line), Cycle::new(t));
        }
        // Demand of line 15 at t=50 with latency 35: timely cutoff is
        // t ≤ 15, i.e. lines 2 (delta +13) and 5 (delta +10).
        let hits = h.search_timely(IP, VLine::new(15), Cycle::new(50), 35, 8);
        let deltas: Vec<i32> = hits.iter().map(|x| x.delta.raw()).collect();
        assert_eq!(deltas, vec![10, 13], "youngest (line 5) first");
    }

    #[test]
    fn no_previous_access_no_deltas() {
        let mut h = table();
        h.insert(IP, VLine::new(10), Cycle::new(100));
        // Cutoff excludes everything: latency spans the entire history.
        let hits = h.search_timely(IP, VLine::new(12), Cycle::new(110), 50, 8);
        assert!(hits.is_empty());
    }

    #[test]
    fn different_ip_is_invisible() {
        let mut h = table();
        h.insert(Ip::new(0x1111), VLine::new(2), Cycle::new(0));
        let hits = h.search_timely(IP, VLine::new(15), Cycle::new(100), 10, 8);
        assert!(hits.is_empty());
    }

    #[test]
    fn fifo_overwrites_oldest_within_set() {
        let mut h = HistoryTable::new(1, 2, 16);
        h.insert(IP, VLine::new(1), Cycle::new(0));
        h.insert(IP, VLine::new(2), Cycle::new(1));
        h.insert(IP, VLine::new(3), Cycle::new(2)); // evicts line 1
        let hits = h.search_timely(IP, VLine::new(10), Cycle::new(100), 10, 8);
        let deltas: Vec<i32> = hits.iter().map(|x| x.delta.raw()).collect();
        assert_eq!(deltas, vec![7, 8], "line 1 must be gone");
    }

    #[test]
    fn max_hits_keeps_youngest() {
        let mut h = table();
        for i in 0..10 {
            h.insert(IP, VLine::new(i), Cycle::new(i));
        }
        let hits = h.search_timely(IP, VLine::new(100), Cycle::new(1000), 10, 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].at, Cycle::new(9));
        assert_eq!(hits[2].at, Cycle::new(7));
    }

    #[test]
    fn zero_delta_skipped() {
        let mut h = table();
        h.insert(IP, VLine::new(15), Cycle::new(0));
        let hits = h.search_timely(IP, VLine::new(15), Cycle::new(100), 10, 8);
        assert!(hits.is_empty(), "re-access of the same line is not a delta");
    }

    #[test]
    fn negative_deltas_found() {
        let mut h = table();
        h.insert(IP, VLine::new(100), Cycle::new(0));
        let hits = h.search_timely(IP, VLine::new(95), Cycle::new(100), 10, 8);
        assert_eq!(hits[0].delta.raw(), -5);
    }

    #[test]
    fn timestamp_window_expires_ancient_entries() {
        let mut h = HistoryTable::new(8, 16, 16);
        h.insert(IP, VLine::new(2), Cycle::new(0));
        // 2^16 cycles later the 16-bit timestamp has wrapped.
        let hits = h.search_timely(IP, VLine::new(15), Cycle::new(70_000), 10, 8);
        assert!(hits.is_empty());
        // A 64-bit window keeps it.
        let mut wide = HistoryTable::new(8, 16, 64);
        wide.insert(IP, VLine::new(2), Cycle::new(0));
        let hits = wide.search_timely(IP, VLine::new(15), Cycle::new(70_000), 10, 8);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn out_of_order_accesses_still_yield_all_deltas() {
        // Sec. II-B: reordered 1,3,2,4,5,6 — later searches see all
        // pairwise deltas regardless of order.
        let mut h = table();
        for (line, t) in [(1, 0), (3, 10), (2, 20), (4, 30), (5, 40), (6, 50)] {
            h.insert(IP, VLine::new(line), Cycle::new(t));
        }
        // Demand at t=100 with latency 45: cutoff 55 admits all six
        // recorded accesses, producing every pairwise delta to line 7.
        let hits = h.search_timely(IP, VLine::new(7), Cycle::new(100), 45, 8);
        let mut deltas: Vec<i32> = hits.iter().map(|x| x.delta.raw()).collect();
        deltas.sort_unstable();
        assert_eq!(deltas, vec![1, 2, 3, 4, 5, 6]);
    }
}
