//! Per-set replacement policies: LRU, FIFO, SRRIP, and DRRIP.
//!
//! Table II uses SRRIP at the L2 and DRRIP at the LLC; the L1D and the
//! prefetcher tables use LRU/FIFO. DRRIP is implemented with set
//! dueling between SRRIP and bimodal RRIP, following Jaleel et al.
//! (ISCA 2010), with a 10-bit PSEL counter and 32 leader sets per policy.

use berti_types::ReplacementKind;

/// Maximum re-reference prediction value for a 2-bit RRPV (SRRIP/DRRIP).
const RRPV_MAX: u8 = 3;
/// Probability denominator for BRRIP inserting at "long" instead of
/// "distant" (1/32, as in the original proposal).
const BRRIP_LONG_ONE_IN: u32 = 32;
/// PSEL saturation bound (10-bit counter).
const PSEL_MAX: i32 = 512;

/// Replacement state for one cache, covering all sets.
///
/// The policy tracks one small state word per line (an LRU stack
/// position, a FIFO sequence number, or an RRPV) plus, for DRRIP, a
/// global PSEL counter and leader-set assignment derived from the set
/// index.
#[derive(Clone, Debug)]
pub struct ReplacementPolicy {
    kind: ReplacementKind,
    sets: usize,
    ways: usize,
    /// Per-line state: meaning depends on `kind`.
    state: Vec<u32>,
    /// Monotonic counter for LRU/FIFO ordering.
    tick: u32,
    /// DRRIP set-dueling selector (positive favours SRRIP).
    psel: i32,
    /// Deterministic pseudo-random stream for BRRIP insertions.
    brrip_lfsr: u32,
}

impl ReplacementPolicy {
    /// Creates replacement state for a `sets`×`ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        assert!(ways <= 64, "occupancy bitmask limits associativity to 64");
        Self {
            kind,
            sets,
            ways,
            state: vec![0; sets * ways],
            tick: 0,
            psel: 0,
            brrip_lfsr: 0xACE1,
        }
    }

    /// The policy in use.
    pub fn kind(&self) -> ReplacementKind {
        self.kind
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.sets && way < self.ways);
        set * self.ways + way
    }

    #[inline]
    fn bump(&mut self) -> u32 {
        self.tick = self.tick.wrapping_add(1);
        self.tick
    }

    fn lfsr_next(&mut self) -> u32 {
        // 16-bit Fibonacci LFSR, taps 16,14,13,11.
        let lfsr = self.brrip_lfsr;
        let bit = (lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1;
        self.brrip_lfsr = (lfsr >> 1) | (bit << 15);
        self.brrip_lfsr
    }

    /// Whether `set` is an SRRIP leader set (DRRIP dueling).
    fn is_srrip_leader(&self, set: usize) -> bool {
        set.is_multiple_of(64)
    }

    /// Whether `set` is a BRRIP leader set (DRRIP dueling).
    fn is_brrip_leader(&self, set: usize) -> bool {
        set % 64 == 33
    }

    /// Records a hit on `(set, way)`.
    pub fn on_hit(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        match self.kind {
            ReplacementKind::Lru => self.state[i] = self.bump(),
            ReplacementKind::Fifo => {}
            ReplacementKind::Srrip | ReplacementKind::Drrip => self.state[i] = 0,
        }
    }

    /// Records a fill into `(set, way)`. `demand_miss` distinguishes the
    /// DRRIP leader-set PSEL update (misses train the duel).
    pub fn on_fill(&mut self, set: usize, way: usize, demand_miss: bool) {
        if demand_miss && self.kind == ReplacementKind::Drrip {
            if self.is_srrip_leader(set) {
                self.psel = (self.psel - 1).max(-PSEL_MAX);
            } else if self.is_brrip_leader(set) {
                self.psel = (self.psel + 1).min(PSEL_MAX);
            }
        }
        let i = self.idx(set, way);
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Fifo => self.state[i] = self.bump(),
            ReplacementKind::Srrip => self.state[i] = u32::from(RRPV_MAX - 1),
            ReplacementKind::Drrip => {
                let use_brrip = if self.is_srrip_leader(set) {
                    false
                } else if self.is_brrip_leader(set) {
                    true
                } else {
                    self.psel >= 0
                };
                let rrpv = if use_brrip {
                    if self.lfsr_next().is_multiple_of(BRRIP_LONG_ONE_IN) {
                        RRPV_MAX - 1
                    } else {
                        RRPV_MAX
                    }
                } else {
                    RRPV_MAX - 1
                };
                self.state[i] = u32::from(rrpv);
            }
        }
    }

    /// Chooses a victim way in `set` given the set's occupancy bitmask
    /// (bit `way` set = occupied); returns the lowest unoccupied way
    /// first. LRU/FIFO selection is branchless: each way's tick is
    /// packed with its index into one word and the minimum taken, which
    /// preserves the lowest-way tie-break of the old scan.
    pub fn victim(&mut self, set: usize, occupied: u64) -> usize {
        debug_assert!(self.ways <= 64, "occupancy mask requires ways <= 64");
        let ways_mask = if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        };
        let free = !occupied & ways_mask;
        if free != 0 {
            return free.trailing_zeros() as usize;
        }
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Fifo => {
                let base = set * self.ways;
                let mut best = u64::MAX;
                for (way, &tick) in self.state[base..base + self.ways].iter().enumerate() {
                    best = best.min((u64::from(tick) << 6) | way as u64);
                }
                (best & 63) as usize
            }
            ReplacementKind::Srrip | ReplacementKind::Drrip => {
                let base = set * self.ways;
                Self::rrip_victim(&mut self.state[base..base + self.ways])
            }
        }
    }

    /// The RRIP victim of one set's RRPV row, in one pass: ageing every
    /// way until one reaches `RRPV_MAX` adds `RRPV_MAX - max` to each
    /// (RRPVs never exceed `RRPV_MAX`, so the first ways to get there
    /// are the ones at the row's maximum), and the victim is the first
    /// of them — the same way and the same row as the ageing loop.
    fn rrip_victim(row: &mut [u32]) -> usize {
        let max = row.iter().copied().max().unwrap_or(0);
        let age = u32::from(RRPV_MAX).saturating_sub(max);
        if age != 0 {
            for rrpv in row.iter_mut() {
                *rrpv += age;
            }
        }
        row.iter().position(|&rrpv| rrpv == max + age).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Occupancy mask with the low `n` ways occupied.
    fn full(n: usize) -> u64 {
        (1u64 << n) - 1
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Lru, 1, 4);
        for w in 0..4 {
            p.on_fill(0, w, true);
        }
        p.on_hit(0, 0); // 0 becomes MRU; 1 is now LRU
        assert_eq!(p.victim(0, full(4)), 1);
        p.on_hit(0, 1);
        assert_eq!(p.victim(0, full(4)), 2);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Fifo, 1, 4);
        for w in 0..4 {
            p.on_fill(0, w, true);
        }
        p.on_hit(0, 0);
        p.on_hit(0, 0);
        assert_eq!(p.victim(0, full(4)), 0, "hits must not refresh FIFO");
    }

    #[test]
    fn unoccupied_way_wins() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Lru, 1, 4);
        p.on_fill(0, 0, true);
        assert_eq!(p.victim(0, 0b0001), 1);
    }

    #[test]
    fn lru_tie_break_is_lowest_way() {
        // Freshly constructed state: every tick is 0 (all tied), so the
        // packed-min selection must fall back to the lowest way, exactly
        // like the old first-strictly-smaller scan.
        let mut p = ReplacementPolicy::new(ReplacementKind::Lru, 1, 4);
        assert_eq!(p.victim(0, full(4)), 0);
    }

    #[test]
    fn srrip_hit_promotes_to_zero_rrpv() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Srrip, 1, 2);
        p.on_fill(0, 0, true);
        p.on_fill(0, 1, true);
        p.on_hit(0, 0);
        // Way 1 still has RRPV 2, so aging reaches it first.
        assert_eq!(p.victim(0, full(2)), 1);
    }

    #[test]
    fn srrip_victim_terminates_by_aging() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Srrip, 1, 4);
        for w in 0..4 {
            p.on_fill(0, w, true);
            p.on_hit(0, w); // all RRPV 0
        }
        let v = p.victim(0, full(4));
        assert!(v < 4);
    }

    #[test]
    fn drrip_psel_moves_with_leader_misses() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Drrip, 128, 4);
        let before = p.psel;
        p.on_fill(0, 0, true); // SRRIP leader set (0 % 64 == 0)
        assert!(p.psel < before);
        let before = p.psel;
        p.on_fill(33, 0, true); // BRRIP leader set
        assert!(p.psel > before);
        // Follower sets never move PSEL.
        let before = p.psel;
        p.on_fill(5, 0, true);
        assert_eq!(p.psel, before);
    }

    #[test]
    fn psel_saturates() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Drrip, 128, 4);
        for _ in 0..2000 {
            p.on_fill(0, 0, true);
        }
        assert_eq!(p.psel, -PSEL_MAX);
        for _ in 0..4000 {
            p.on_fill(33, 0, true);
        }
        assert_eq!(p.psel, PSEL_MAX);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Drrip, 128, 4);
        p.psel = PSEL_MAX; // force BRRIP on followers
        let mut distant = 0;
        for i in 0..1000 {
            p.on_fill(5, i % 4, false);
            if p.state[p.idx(5, i % 4)] == u32::from(RRPV_MAX) {
                distant += 1;
            }
        }
        assert!(distant > 900, "BRRIP should insert at distant most times");
        assert!(distant < 1000, "but occasionally at long");
    }

    /// The RRIP victim by the textbook loop: take the first way at
    /// `RRPV_MAX`, else age every way by one and look again.
    fn victim_by_ageing(row: &mut [u32]) -> usize {
        loop {
            if let Some(way) = row.iter().position(|&r| r >= u32::from(RRPV_MAX)) {
                return way;
            }
            for r in row.iter_mut() {
                *r += 1;
            }
        }
    }

    #[test]
    fn one_pass_rrip_victim_matches_the_ageing_loop() {
        // Every row of up to 4 ways over {0..=RRPV_MAX}, and
        // pseudo-random rows of up to 16: same way, same aged row.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let levels = u64::from(RRPV_MAX) + 1;
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for ways in 1..=4u32 {
            for code in 0..levels.pow(ways) {
                let row = (0..ways)
                    .map(|w| (code / levels.pow(w) % levels) as u32)
                    .collect();
                rows.push(row);
            }
        }
        for _ in 0..20_000 {
            let ways = 1 + (next() % 16) as usize;
            rows.push((0..ways).map(|_| (next() % levels) as u32).collect());
        }
        for row in rows {
            let (mut fast, mut slow) = (row.clone(), row.clone());
            let (vf, vs) = (
                ReplacementPolicy::rrip_victim(&mut fast),
                victim_by_ageing(&mut slow),
            );
            assert_eq!((vf, &fast), (vs, &slow), "row {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sets and ways")]
    fn zero_geometry_panics() {
        let _ = ReplacementPolicy::new(ReplacementKind::Lru, 0, 4);
    }
}
