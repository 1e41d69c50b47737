//! Multi-lookahead offset prefetching (MLOP), third place at DPC-3
//! (Shakerinava et al.) — BOP extended with one best offset *per
//! lookahead level*, still global (context-agnostic), which is exactly
//! the property Berti's motivation targets (Sec. II-A: "Both BOP and
//! MLOP treat the demand addresses in isolation").
//!
//! This reproduction keeps MLOP's structure: a 128-entry access-map
//! table of per-zone access histories, score matrices indexed by
//! (lookahead, offset), a 500-update evaluation round (Table III:
//! "128-entry AMT, 500-update, 16-degree"), and per-round selection of
//! the best offset for each of the 16 lookahead levels.

use berti_mem::{AccessEvent, PrefetchDecision, Prefetcher};
use berti_types::{Delta, FillLevel, VLine, Vpn};

/// Offsets range over [-OFFSET_RANGE, +OFFSET_RANGE].
const OFFSET_RANGE: i32 = 63;
/// Number of lookahead levels (the prefetch degree, Table III).
const LOOKAHEADS: usize = 16;
/// Updates per evaluation round (Table III).
const ROUND_UPDATES: u32 = 500;
/// Access-map-table entries (Table III).
const AMT_ENTRIES: usize = 128;
/// Minimum score (as a fraction of round updates) for an offset to be
/// selected at its lookahead level.
const SELECT_FRACTION: f64 = 0.30;
/// Zone access-history depth used to score lookaheads.
const ZONE_HISTORY: usize = LOOKAHEADS;

#[derive(Clone, Copy, Debug)]
struct Zone {
    page: Vpn,
    /// The zone's last `history_len` accesses, oldest first, in place:
    /// recording one shifts the window instead of touching the heap.
    history: [VLine; ZONE_HISTORY],
    history_len: usize,
    last_use: u64,
    valid: bool,
}

impl Zone {
    const EMPTY: Zone = Zone {
        page: Vpn::new(0),
        history: [VLine::new(0); ZONE_HISTORY],
        history_len: 0,
        last_use: 0,
        valid: false,
    };

    fn history(&self) -> &[VLine] {
        &self.history[..self.history_len]
    }

    /// Appends `line`, dropping the oldest access once the window is
    /// full.
    fn record(&mut self, line: VLine) {
        if self.history_len == ZONE_HISTORY {
            self.history.copy_within(1.., 0);
            self.history[ZONE_HISTORY - 1] = line;
        } else {
            self.history[self.history_len] = line;
            self.history_len += 1;
        }
    }
}

/// The MLOP prefetcher.
#[derive(Clone, Debug)]
pub struct Mlop {
    zones: Vec<Zone>,
    /// scores[lookahead][offset + OFFSET_RANGE].
    scores: Vec<Vec<u32>>,
    updates: u32,
    /// Chosen offset per lookahead (None = not selected this round).
    chosen: Vec<Option<i32>>,
    tick: u64,
    fill_level: FillLevel,
}

impl Default for Mlop {
    fn default() -> Self {
        Self::new(FillLevel::L1)
    }
}

impl Mlop {
    /// Creates an MLOP instance prefetching into `fill_level`.
    pub fn new(fill_level: FillLevel) -> Self {
        Self {
            zones: vec![Zone::EMPTY; AMT_ENTRIES],
            scores: vec![vec![0; (2 * OFFSET_RANGE + 1) as usize]; LOOKAHEADS],
            updates: 0,
            chosen: vec![None; LOOKAHEADS],
            tick: 0,
            fill_level,
        }
    }

    /// The offsets selected in the last round, per lookahead level.
    pub fn selected_offsets(&self) -> &[Option<i32>] {
        &self.chosen
    }

    fn zone_slot(&mut self, page: Vpn) -> usize {
        self.tick += 1;
        let tick = self.tick;
        if let Some(i) = self.zones.iter().position(|z| z.valid && z.page == page) {
            self.zones[i].last_use = tick;
            return i;
        }
        let i = self
            .zones
            .iter()
            .enumerate()
            .min_by_key(|(_, z)| if z.valid { z.last_use } else { 0 })
            .map(|(i, _)| i)
            .expect("nonempty");
        self.zones[i] = Zone {
            page,
            last_use: tick,
            valid: true,
            ..Zone::EMPTY
        };
        i
    }

    fn end_round(&mut self) {
        let threshold = (f64::from(ROUND_UPDATES) * SELECT_FRACTION) as u32;
        for (k, row) in self.scores.iter_mut().enumerate() {
            let (best_idx, &best) = row
                .iter()
                .enumerate()
                .max_by_key(|(_, &s)| s)
                .expect("nonempty row");
            let off = best_idx as i32 - OFFSET_RANGE;
            self.chosen[k] = (best >= threshold && off != 0).then_some(off);
            row.fill(0);
        }
        self.updates = 0;
    }
}

impl Prefetcher for Mlop {
    fn name(&self) -> &'static str {
        "mlop"
    }

    fn storage_bits(&self) -> u64 {
        // AMT: tag (36) + history (16 × 24) per entry; score matrices:
        // 16 × 127 × 9 bits; chosen registers.
        AMT_ENTRIES as u64 * (36 + (ZONE_HISTORY as u64 * 24))
            + (LOOKAHEADS as u64 * (2 * OFFSET_RANGE as u64 + 1) * 9)
            + LOOKAHEADS as u64 * 8
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchDecision>) {
        if !ev.kind.is_demand() {
            return;
        }
        let page = ev.line.page();
        let slot = self.zone_slot(page);
        // Score: for each lookahead j, the offset from the access j
        // steps back in this zone to the current line would have
        // covered this access with lookahead j.
        {
            let history = self.zones[slot].history();
            let n = history.len();
            for j in 1..=n.min(LOOKAHEADS) {
                let past = history[n - j];
                let off = (ev.line - past).raw();
                if off != 0 && off.abs() <= OFFSET_RANGE {
                    self.scores[j - 1][(off + OFFSET_RANGE) as usize] += 1;
                }
            }
        }
        self.zones[slot].record(ev.line);
        self.updates += 1;
        if self.updates >= ROUND_UPDATES {
            self.end_round();
        }
        // Prediction: one prefetch per selected lookahead offset,
        // deduplicated. Near lookaheads fill the host level; far ones
        // fill the L2, as MLOP's multi-level mapping does — far
        // prefetches must not monopolize the L1D MSHRs.
        for (k, off) in self
            .chosen
            .iter()
            .enumerate()
            .filter_map(|(k, o)| o.map(|o| (k, o)))
        {
            // A nearer lookahead with the same offset already emitted it.
            if self.chosen[..k].contains(&Some(off)) {
                continue;
            }
            out.push(PrefetchDecision {
                target: ev.line + Delta::new(off),
                fill_level: if k < 2 {
                    self.fill_level
                } else {
                    FillLevel::L2
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_types::{AccessKind, Cycle, Ip};

    fn ev(line: u64) -> AccessEvent {
        AccessEvent {
            ip: Ip::new(1),
            line: VLine::new(line),
            at: Cycle::ZERO,
            kind: AccessKind::Load,
            hit: false,
            timely_prefetch_hit: false,
            late_prefetch_hit: false,
            stored_latency: 0,
            mshr_occupancy: 0.0,
        }
    }

    #[test]
    fn learns_multiple_lookaheads_of_a_stride() {
        let mut p = Mlop::default();
        let mut out = Vec::new();
        // +1 stride within one page region, long enough for a round.
        for i in 0..600u64 {
            p.on_access(&ev(4096 + (i % 48)), &mut out);
        }
        let sel = p.selected_offsets();
        // Lookahead j should select offset ≈ j for a +1 stride.
        assert!(sel.iter().flatten().count() >= 4, "selected: {sel:?}");
        assert_eq!(sel[0], Some(1));
        assert_eq!(sel[1], Some(2));
    }

    #[test]
    fn prefetches_after_a_round() {
        let mut p = Mlop::default();
        let mut out = Vec::new();
        for i in 0..600u64 {
            out.clear();
            p.on_access(&ev(8192 + (i % 40)), &mut out);
        }
        assert!(!out.is_empty());
        // Offsets must be deduplicated.
        let mut ts: Vec<u64> = out.iter().map(|d| d.target.raw()).collect();
        let before = ts.len();
        ts.dedup();
        assert_eq!(ts.len(), before);
    }

    #[test]
    fn random_zone_traffic_selects_nothing() {
        let mut p = Mlop::default();
        let mut out = Vec::new();
        let mut x = 99u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            p.on_access(&ev(x % (1 << 30)), &mut out);
        }
        assert!(
            p.selected_offsets().iter().flatten().count() == 0,
            "random traffic must not cross the selection threshold"
        );
    }

    #[test]
    fn interleaved_strides_pick_one_global_offset_per_lookahead() {
        // Two pages with different strides interleaved: each lookahead
        // still has exactly one global offset — the MLOP weakness
        // Fig. 9's mcf/GAP analysis highlights.
        let mut p = Mlop::default();
        let mut out = Vec::new();
        for i in 0..300u64 {
            p.on_access(&ev(4096 + (2 * i) % 60), &mut out); // +2 stride
            p.on_access(&ev(81920 + (3 * i) % 60), &mut out); // +3 stride
        }
        // Only one offset per lookahead even though two streams exist.
        assert!(p.selected_offsets().iter().flatten().count() <= LOOKAHEADS);
    }
}
