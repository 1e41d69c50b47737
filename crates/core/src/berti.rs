//! The Berti prefetcher: training and prediction (Sec. III-A/B) wired
//! to the [`berti_mem::Prefetcher`] interface, generic over the *local
//! context* its tables are keyed by.

use std::marker::PhantomData;

use berti_mem::{AccessEvent, FillEvent, PrefetchDecision, Prefetcher};
use berti_types::{Cycle, Delta, FillLevel, Ip, VLine};

use crate::deltas::{DeltaTable, LearnedDelta};
use crate::history::{HistoryHit, HistoryTable};
use crate::storage::BertiConfig;

/// The local context deltas are learned in (Sec. II): the key both the
/// history table and the table of deltas are indexed by. It is the one
/// thing that differs between [`Berti`] and [`BertiPage`].
pub trait LocalContext {
    /// The prefetcher's display name.
    fn name() -> &'static str;

    /// The table key for an access by `ip` to `line`.
    fn key(ip: Ip, line: VLine) -> Ip;
}

/// Per-instruction-pointer deltas: the MICRO 2022 design.
#[derive(Clone, Copy, Debug)]
pub struct PerIp;

impl LocalContext for PerIp {
    fn name() -> &'static str {
        "berti"
    }

    #[inline]
    fn key(ip: Ip, _line: VLine) -> Ip {
        ip
    }
}

/// Per-page deltas: the DPC-3 predecessor of Berti ("Berti: a per-page
/// best-request-time delta prefetcher", Ros, 3rd Data Prefetching
/// Championship — the paper's reference \[46\]), keyed by the 4 KiB page
/// of the access; see the `sens_local_context` experiment.
#[derive(Clone, Copy, Debug)]
pub struct PerPage;

impl LocalContext for PerPage {
    fn name() -> &'static str {
        "berti-page"
    }

    /// The page of `line`, encoded as the tables' context key.
    #[inline]
    fn key(_ip: Ip, line: VLine) -> Ip {
        Ip::new(line.page().raw() << 2)
    }
}

/// The per-page Berti: identical training machinery and table geometry,
/// keyed by the page of the access.
///
/// # Example
///
/// ```
/// use berti_core::{BertiConfig, BertiPage};
/// use berti_mem::Prefetcher;
///
/// let p = BertiPage::with_context(BertiConfig::default());
/// assert_eq!(p.name(), "berti-page");
/// ```
pub type BertiPage = Berti<PerPage>;

/// The Berti accurate local-delta L1D data prefetcher.
///
/// # Example
///
/// ```
/// use berti_core::{Berti, BertiConfig};
/// use berti_mem::Prefetcher;
///
/// let mut berti = Berti::new(BertiConfig::default());
/// assert_eq!(berti.name(), "berti");
/// ```
#[derive(Clone, Debug)]
pub struct Berti<C: LocalContext = PerIp> {
    cfg: BertiConfig,
    history: HistoryTable,
    deltas: DeltaTable,
    scratch_deltas: Vec<Delta>,
    scratch_hits: Vec<HistoryHit>,
    /// Fills whose measured latency exceeded the fill cycle; training
    /// with a clamped cycle-0 demand time would mislearn, so such fills
    /// are dropped and counted instead.
    dropped_inconsistent_latency: u64,
    /// Predictions whose target would underflow the line-address space
    /// (a negative delta larger than the trigger line); issuing them
    /// would wrap to a garbage address whose page check is meaningless.
    dropped_underflow_target: u64,
    context: PhantomData<C>,
}

impl Berti {
    /// Creates a Berti prefetcher.
    pub fn new(cfg: BertiConfig) -> Self {
        Self::with_context(cfg)
    }

    /// Current learning state for `ip` (Fig. 3 diagnostics).
    pub fn learned_deltas(&self, ip: Ip) -> Vec<LearnedDelta> {
        self.deltas.snapshot(ip)
    }
}

impl<C: LocalContext> Berti<C> {
    /// Creates a Berti prefetcher keyed by the local context `C`.
    pub fn with_context(cfg: BertiConfig) -> Self {
        Self {
            history: HistoryTable::new(cfg.history_sets, cfg.history_ways, cfg.timestamp_bits),
            deltas: DeltaTable::new(&cfg),
            scratch_deltas: Vec::new(),
            scratch_hits: Vec::with_capacity(cfg.max_timely_deltas_per_search),
            cfg,
            dropped_inconsistent_latency: 0,
            dropped_underflow_target: 0,
            context: PhantomData,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BertiConfig {
        &self.cfg
    }

    /// Diagnostic counters: `(fills dropped for latency > fill cycle,
    /// predictions dropped for line-address underflow)`.
    pub fn drop_counters(&self) -> (u64, u64) {
        (
            self.dropped_inconsistent_latency,
            self.dropped_underflow_target,
        )
    }

    /// Applies the configured latency-field width: values that do not
    /// fit are recorded as zero and skipped (Sec. III-C and the
    /// latency-counter sensitivity study of Sec. IV-J).
    fn truncate_latency(&self, latency: u64) -> u64 {
        if self.cfg.latency_bits >= 64 || latency < (1 << self.cfg.latency_bits) {
            latency
        } else {
            0
        }
    }

    /// One training step: search the history of context `key` for
    /// timely deltas for a demand of `line` at `demand_at` with fetch
    /// latency `latency`, and account the search in the table of deltas.
    fn train(&mut self, key: Ip, line: VLine, demand_at: Cycle, latency: u64) {
        self.history.search_timely_into(
            key,
            line,
            demand_at,
            latency,
            self.cfg.max_timely_deltas_per_search,
            &mut self.scratch_hits,
        );
        self.scratch_deltas.clear();
        self.scratch_deltas
            .extend(self.scratch_hits.iter().map(|h| h.delta));
        self.deltas.record_search(key, &self.scratch_deltas);
    }

    /// Prediction: emit one prefetch per selected delta of context `key`
    /// for this access. The list already carries each delta's fill
    /// level; an L1 fill becomes an L2 fill while the MSHR occupancy is
    /// at the watermark or above (Sec. III-B).
    fn predict(&mut self, key: Ip, ev: &AccessEvent, out: &mut Vec<PrefetchDecision>) {
        let l1 = if ev.mshr_occupancy < self.cfg.mshr_watermark {
            FillLevel::L1
        } else {
            FillLevel::L2
        };
        for &(delta, level) in self.deltas.predictions(key) {
            // Compute the target in signed space: `VLine + Delta` wraps
            // on underflow, so a negative delta larger than the trigger
            // line would produce a garbage address whose page
            // comparison (and prefetch) is meaningless.
            let Some(raw) = ev.line.raw().checked_add_signed(i64::from(delta.raw())) else {
                self.dropped_underflow_target += 1;
                continue;
            };
            let target = VLine::new(raw);
            if !self.cfg.cross_page && target.page() != ev.line.page() {
                continue;
            }
            let fill_level = if level == FillLevel::L1 { l1 } else { level };
            out.push(PrefetchDecision { target, fill_level });
        }
    }
}

impl<C: LocalContext> Prefetcher for Berti<C> {
    fn name(&self) -> &'static str {
        C::name()
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage().total_bits()
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchDecision>) {
        if !ev.kind.is_demand() {
            return;
        }
        let key = C::key(ev.ip, ev.line);
        if !ev.hit {
            // Demand miss: record the access now; the timely-delta
            // search happens when the fill latency is known (on_fill).
            self.history.insert(key, ev.line, ev.at);
        } else if ev.timely_prefetch_hit || ev.late_prefetch_hit {
            // First demand touch of a prefetched line — a miss the
            // baseline would have had. Record it and search immediately
            // using the latency stored alongside the line.
            self.history.insert(key, ev.line, ev.at);
            let latency = self.truncate_latency(ev.stored_latency);
            if latency != 0 {
                self.train(key, ev.line, ev.at, latency);
            }
        }
        // "On every L1D access, the table of deltas is searched" —
        // prediction runs for hits and misses alike (Sec. III-C).
        self.predict(key, ev, out);
    }

    fn on_fill(&mut self, ev: &FillEvent) {
        // Berti does not learn deltas on prefetch-caused fills, since
        // the demand time is not known yet (Sec. III-A).
        if ev.was_prefetch {
            return;
        }
        let latency = self.truncate_latency(ev.latency);
        if latency == 0 {
            return;
        }
        // Recover the demand time in signed space. A latency larger
        // than the fill cycle is inconsistent (the demand would predate
        // cycle 0); clamping it to 0, as a saturating subtraction would,
        // silently widens the timeliness window and mislearns deltas —
        // drop the sample and count it instead.
        let Some(demand_at) = ev.at.raw().checked_sub(latency) else {
            self.dropped_inconsistent_latency += 1;
            return;
        };
        let key = C::key(ev.ip, ev.line);
        self.train(key, ev.line, Cycle::new(demand_at), latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltas::DeltaStatus;
    use berti_types::AccessKind;

    const IP: Ip = Ip::new(0x4049de);

    fn miss_event(line: u64, at: u64) -> AccessEvent {
        AccessEvent {
            ip: IP,
            line: VLine::new(line),
            at: Cycle::new(at),
            kind: AccessKind::Load,
            hit: false,
            timely_prefetch_hit: false,
            late_prefetch_hit: false,
            stored_latency: 0,
            mshr_occupancy: 0.0,
        }
    }

    fn fill_event(line: u64, at: u64, latency: u64) -> FillEvent {
        FillEvent {
            line: VLine::new(line),
            ip: IP,
            at: Cycle::new(at),
            latency,
            was_prefetch: false,
        }
    }

    /// The learning state of the context an access by `IP` to `line`
    /// falls in.
    fn learned<C: LocalContext>(b: &Berti<C>, line: u64) -> Vec<LearnedDelta> {
        b.deltas.snapshot(C::key(IP, VLine::new(line)))
    }

    /// Drives a steady +2 stride with fetch latency 100 and 300 cycles
    /// between accesses, so the +2 delta (one access of lead time,
    /// 300 >= 100) is timely.
    fn train_stride(b: &mut Berti, start_line: u64, accesses: u64) -> Vec<PrefetchDecision> {
        let mut out = Vec::new();
        for i in 0..accesses {
            let line = start_line + 2 * i;
            let t = 300 * i;
            b.on_access(&miss_event(line, t), &mut out);
            b.on_fill(&fill_event(line, t + 100, 100));
        }
        out
    }

    #[test]
    fn learns_and_prefetches_a_steady_stride() {
        let mut b = Berti::new(BertiConfig::default());
        let decisions = train_stride(&mut b, 1000, 40);
        assert!(
            !decisions.is_empty(),
            "after a full phase Berti must prefetch the learned delta"
        );
        // The learned delta set should contain +2 with L1 status.
        let learned = b.learned_deltas(IP);
        assert!(
            learned
                .iter()
                .any(|d| d.delta == Delta::new(2) && d.status == DeltaStatus::L1Pref),
            "learned: {learned:?}"
        );
        // Targets must be line + learned delta.
        let last_targets: Vec<u64> = decisions.iter().map(|d| d.target.raw()).collect();
        assert!(last_targets.iter().all(|&t| t >= 1000));
    }

    #[test]
    fn no_prefetch_without_confidence() {
        let mut b = Berti::new(BertiConfig::default());
        let mut out = Vec::new();
        // Random-ish lines: no repeated delta support.
        for (i, line) in [5u64, 900, 17, 4000, 33].iter().enumerate() {
            b.on_access(&miss_event(*line, 300 * i as u64), &mut out);
            b.on_fill(&fill_event(*line, 300 * i as u64 + 100, 100));
        }
        assert!(out.is_empty());
    }

    #[test]
    fn high_mshr_occupancy_demotes_to_l2_fill() {
        let mut b = Berti::new(BertiConfig::default());
        let _ = train_stride(&mut b, 1000, 40);
        let mut out = Vec::new();
        let mut ev = miss_event(2000, 100_000);
        ev.mshr_occupancy = 0.9; // above the 70% watermark
        b.on_access(&ev, &mut out);
        assert!(!out.is_empty());
        assert!(
            out.iter().all(|d| d.fill_level == FillLevel::L2),
            "L1Pref deltas must demote to L2 fills under MSHR pressure: {out:?}"
        );
    }

    #[test]
    fn low_mshr_occupancy_fills_l1() {
        let mut b = Berti::new(BertiConfig::default());
        let _ = train_stride(&mut b, 1000, 40);
        let mut out = Vec::new();
        b.on_access(&miss_event(2000, 100_000), &mut out);
        assert!(out.iter().any(|d| d.fill_level == FillLevel::L1));
    }

    #[test]
    fn cross_page_ablation_suppresses_page_crossers() {
        let cfg = BertiConfig {
            cross_page: false,
            ..BertiConfig::default()
        };
        let mut b = Berti::new(cfg);
        // Large stride that crosses pages: +80 lines (page = 64 lines).
        let mut out = Vec::new();
        for i in 0..40u64 {
            let line = 1000 + 80 * i;
            b.on_access(&miss_event(line, 300 * i), &mut out);
            b.on_fill(&fill_event(line, 300 * i + 100, 100));
        }
        assert!(
            out.is_empty(),
            "every +80 target crosses a page and must be suppressed"
        );
        // Training still happened.
        assert!(b
            .learned_deltas(IP)
            .iter()
            .any(|d| d.delta == Delta::new(80)));
    }

    #[test]
    fn four_bit_latency_field_kills_training() {
        let cfg = BertiConfig {
            latency_bits: 4, // latencies >= 16 overflow to 0
            ..BertiConfig::default()
        };
        let mut b = Berti::new(cfg);
        let out = train_stride(&mut b, 1000, 40);
        assert!(out.is_empty(), "latency 100 overflows a 4-bit field");
        assert!(b.learned_deltas(IP).is_empty());
    }

    #[test]
    fn late_deltas_are_not_learned() {
        // Accesses 10 cycles apart with latency 100: the +2 delta (one
        // access back) is NOT timely; only deltas ≥ 10 accesses back
        // would be, and the +20 delta appears consistently.
        let mut b = Berti::new(BertiConfig::default());
        let mut out = Vec::new();
        for i in 0..60u64 {
            let line = 1000 + 2 * i;
            let t = 10 * i;
            b.on_access(&miss_event(line, t), &mut out);
            b.on_fill(&fill_event(line, t + 100, 100));
        }
        let learned = b.learned_deltas(IP);
        assert!(
            !learned.iter().any(|d| d.delta == Delta::new(2)
                && (d.status == DeltaStatus::L1Pref || d.status == DeltaStatus::L2Pref)),
            "+2 would be a late prefetch and must not be selected: {learned:?}"
        );
        assert!(
            learned.iter().any(|d| d.delta.raw() >= 20),
            "a larger, timely delta must be learned instead: {learned:?}"
        );
    }

    #[test]
    fn trains_on_prefetched_hit_with_stored_latency() {
        let mut b = Berti::new(BertiConfig::default());
        let mut out = Vec::new();
        // Seed history with older accesses.
        for i in 0..20u64 {
            b.on_access(&miss_event(100 + 3 * i, 300 * i), &mut out);
            b.on_fill(&fill_event(100 + 3 * i, 300 * i + 90, 90));
        }
        // Now a prefetched-line first touch (hit_p) continues training.
        let ev = AccessEvent {
            ip: IP,
            line: VLine::new(100 + 3 * 20),
            at: Cycle::new(300 * 20),
            kind: AccessKind::Load,
            hit: true,
            timely_prefetch_hit: true,
            late_prefetch_hit: false,
            stored_latency: 90,
            mshr_occupancy: 0.0,
        };
        b.on_access(&ev, &mut out);
        assert!(b
            .learned_deltas(IP)
            .iter()
            .any(|d| d.delta == Delta::new(3)));
    }

    #[test]
    fn prefetch_fills_do_not_train() {
        let mut b = Berti::new(BertiConfig::default());
        let mut out = Vec::new();
        b.on_access(&miss_event(100, 0), &mut out);
        b.on_fill(&FillEvent {
            line: VLine::new(102),
            ip: IP,
            at: Cycle::new(200),
            latency: 100,
            was_prefetch: true,
        });
        // Only the demand miss is in history; no search has happened,
        // so nothing can be learned yet.
        assert!(b.learned_deltas(IP).is_empty());
    }

    /// A latency larger than the fill cycle must be dropped and counted
    /// by context `C`, not clamped.
    fn drops_inconsistent_fill_latency<C: LocalContext>() {
        let mut b = Berti::<C>::with_context(BertiConfig::default());
        let mut out = Vec::new();
        b.on_access(&miss_event(100, 0), &mut out);
        b.on_access(&miss_event(102, 10), &mut out);
        // Fill at cycle 50 claiming 500 cycles of latency: impossible.
        b.on_fill(&fill_event(102, 50, 500));
        assert_eq!(b.drop_counters().0, 1, "{}", C::name());
        assert!(
            learned(&b, 102).is_empty(),
            "{}: the inconsistent sample must not train",
            C::name()
        );
    }

    #[test]
    fn inconsistent_fill_latency_is_dropped_not_clamped() {
        // Regression (ISSUE 5 satellite): a latency larger than the fill
        // cycle used to clamp the demand time to 0 via saturating_sub,
        // silently widening the timeliness window. It must be dropped
        // and counted.
        drops_inconsistent_fill_latency::<PerIp>();
        drops_inconsistent_fill_latency::<PerPage>();
    }

    /// A learned negative delta applied at line 0 must be dropped and
    /// counted by context `C`, never wrapped.
    fn drops_underflowing_targets<C: LocalContext>() {
        let mut b = Berti::<C>::with_context(BertiConfig::default());
        let mut out = Vec::new();
        // Learn a -2 stride inside page 0, so the per-page context that
        // predicts for line 0 is the one that learned it.
        for i in 0..31u64 {
            let line = 62 - 2 * i;
            let t = 300 * i;
            b.on_access(&miss_event(line, t), &mut out);
            b.on_fill(&fill_event(line, t + 100, 100));
        }
        assert!(
            learned(&b, 0).iter().any(|d| d.delta.raw() < 0),
            "{}",
            C::name()
        );
        out.clear();
        // Trigger at line 0: every negative delta underflows.
        b.on_access(&miss_event(0, 100_000), &mut out);
        assert!(
            out.iter().all(|d| d.target.raw() < (1 << 32)),
            "{}: no wrapped targets may escape: {out:?}",
            C::name()
        );
        assert!(
            b.drop_counters().1 >= 1,
            "{}: underflowing targets must be counted",
            C::name()
        );
    }

    #[test]
    fn underflowing_prediction_targets_are_dropped_with_counter() {
        // Regression (ISSUE 5 satellite): `VLine + Delta` wraps on
        // underflow, so a learned negative delta applied near line 0
        // used to emit a garbage-address prefetch whose cross-page
        // check was meaningless.
        drops_underflowing_targets::<PerIp>();
        drops_underflowing_targets::<PerPage>();
    }

    #[test]
    fn storage_matches_table_i() {
        let b = Berti::new(BertiConfig::default());
        let kb = b.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((kb - 2.55).abs() < 0.02, "{kb}");
    }

    #[test]
    fn per_ip_isolation() {
        // Two IPs with different strides must learn different deltas
        // (the paper's core claim vs. global-delta prefetchers).
        let mut b = Berti::new(BertiConfig::default());
        let mut out = Vec::new();
        let ip2 = Ip::new(0x402dc7);
        for i in 0..40u64 {
            let t = 600 * i;
            let l1 = 1000 + 2 * i;
            let l2 = 500_000 - i; // -1 stride
            b.on_access(&miss_event(l1, t), &mut out);
            b.on_fill(&fill_event(l1, t + 100, 100));
            let ev2 = AccessEvent {
                ip: ip2,
                line: VLine::new(l2),
                at: Cycle::new(t + 300),
                ..miss_event(l2, t + 300)
            };
            b.on_access(&ev2, &mut out);
            b.on_fill(&FillEvent {
                line: VLine::new(l2),
                ip: ip2,
                at: Cycle::new(t + 300 + 100),
                latency: 100,
                was_prefetch: false,
            });
        }
        let d1 = b.learned_deltas(IP);
        let d2 = b.learned_deltas(ip2);
        assert!(d1.iter().any(|d| d.delta.raw() > 0));
        assert!(d2.iter().any(|d| d.delta.raw() < 0));
    }
    #[test]
    fn learns_within_a_page_regardless_of_ip() {
        // Two alternating IPs walk one page with stride +2: a per-IP
        // tracker sees stride +4 per IP, the per-page tracker sees the
        // full +2 stream.
        let mut p = BertiPage::with_context(BertiConfig::default());
        let mut out = Vec::new();
        let base = 64 * 1000;
        for i in 0..30u64 {
            let ip = Ip::new(if i % 2 == 0 { 0x400 } else { 0x900 });
            let line = base + 2 * i;
            out.clear();
            p.on_access(
                &AccessEvent {
                    ip,
                    ..miss_event(line, 300 * i)
                },
                &mut out,
            );
            p.on_fill(&FillEvent {
                ip,
                ..fill_event(line, 300 * i + 100, 100)
            });
        }
        assert!(!out.is_empty(), "page context must cover the merged stream");
    }

    #[test]
    fn interleaved_pages_learn_independently() {
        let mut p = BertiPage::with_context(BertiConfig::default());
        let mut out = Vec::new();
        // Page A strides +1; page B strides -2; one IP drives both.
        for i in 0..40u64 {
            let t = 600 * i;
            out.clear();
            p.on_access(&miss_event(64 * 500 + i, t), &mut out);
            p.on_fill(&fill_event(64 * 500 + i, t + 100, 100));
            p.on_access(&miss_event(64 * 900 - 2 * i, t + 300), &mut out);
            p.on_fill(&fill_event(64 * 900 - 2 * i, t + 400, 100));
        }
        let a = learned(&p, 64 * 500 + 39);
        let b = learned(&p, 64 * 900 - 78);
        assert!(a.iter().any(|d| d.delta.raw() > 0), "{a:?}");
        assert!(b.iter().any(|d| d.delta.raw() < 0), "{b:?}");
    }

    #[test]
    fn one_ip_in_one_page_predicts_alike_in_both_contexts() {
        // With a single IP that never leaves its page, both contexts
        // key every access to one table entry, so they must emit the
        // identical decision stream.
        let base = 64 * 321;
        let run = |pf: &mut dyn Prefetcher| {
            let mut out = Vec::new();
            for i in 0..64u64 {
                let line = base + (5 * i) % 64;
                let t = 250 * i;
                let mut ev = miss_event(line, t);
                ev.mshr_occupancy = if i % 4 == 0 { 0.9 } else { 0.1 };
                pf.on_access(&ev, &mut out);
                pf.on_fill(&fill_event(line, t + 90, 90));
            }
            out
        };
        let per_ip = run(&mut Berti::new(BertiConfig::default()));
        let per_page = run(&mut BertiPage::with_context(BertiConfig::default()));
        assert!(!per_ip.is_empty(), "the walk must be learned");
        assert_eq!(per_ip, per_page);
    }

    /// Drives Berti keyed by context `C` with `steps` of (IP, line
    /// offset, event kind, latency) and checks after every step that
    /// each delta-table entry's cached prediction list equals one
    /// rebuilt from its slots — the list is rebuilt only when a search
    /// can change it.
    fn cached_predictions_stay_fresh<C: LocalContext>(
        cfg: BertiConfig,
        steps: &[(u64, u64, u8, u64)],
    ) -> Result<(), String> {
        let mut b = Berti::<C>::with_context(cfg);
        let mut out = Vec::new();
        let mut lines = [1 << 20, 2 << 20, 3 << 20, 4 << 20];
        for (n, &(ip, offset, kind, latency)) in steps.iter().enumerate() {
            let k = (ip % 4) as usize;
            // Mostly a per-IP stride, sometimes a jump: enough repeated
            // deltas to cross the watermarks, enough new ones to fill
            // and evict slots.
            lines[k] += if offset < 24 { 1 + k as u64 } else { offset };
            let line = lines[k];
            let at = 400 * n as u64 + 1000;
            let mut ev = AccessEvent {
                ip: Ip::new(0x400 + 0x40 * k as u64),
                ..miss_event(line, at)
            };
            match kind % 4 {
                0 | 1 => {
                    b.on_access(&ev, &mut out);
                    b.on_fill(&FillEvent {
                        ip: ev.ip,
                        ..fill_event(line, at + latency, latency)
                    });
                }
                2 => {
                    ev.hit = true;
                    ev.timely_prefetch_hit = true;
                    ev.stored_latency = latency;
                    b.on_access(&ev, &mut out);
                }
                _ => {
                    ev.hit = true;
                    b.on_access(&ev, &mut out);
                }
            }
            out.clear();
            if let Some((i, fresh)) = b.deltas.stale_predictions() {
                return Err(format!(
                    "{}: step {n}: entry {i} caches a stale list; the slots give {fresh:?}",
                    C::name()
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random search sequences, for both local contexts, under the
        /// paper's table and under one of three slots a context with the
        /// LLC tier on (so prefetching slots are evicted often).
        #[test]
        fn cached_prediction_list_equals_a_rebuild(
            steps in proptest::prop::collection::vec(
                (0u64..4, 0u64..40, 0u8..4, 20u64..600), 1..400),
            small in proptest::any::<bool>(),
        ) {
            let cfg = if small {
                BertiConfig {
                    deltas_per_entry: 3,
                    low_watermark: 0.10,
                    ..BertiConfig::default()
                }
            } else {
                BertiConfig::default()
            };
            cached_predictions_stay_fresh::<PerIp>(cfg, &steps)?;
            cached_predictions_stay_fresh::<PerPage>(cfg, &steps)?;
        }
    }
}
