//! The simulation driver: one warm-up + measurement procedure, with
//! single-core as a one-slot mix.

use berti_cpu::{Core, DataPort, MemOpKind, PortResponse};
use berti_mem::{DemandAccess, DemandOutcome, Hierarchy, SharedMemory};
use berti_stats::Registry;
use berti_traces::{Trace, WorkloadDef};
use berti_types::{AccessKind, ConfigError, Cycle, Ip, SystemConfig, VAddr};

use crate::choices::{L2PrefetcherChoice, PrefetcherChoice};
use crate::engine::Engine;
use crate::report::{MultiCoreReport, Report, ReportMeta};
use crate::sampler::{IntervalSampler, Sampling};

/// Simulation phase lengths and limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimOptions {
    /// Instructions executed to warm caches, TLBs, and prefetcher
    /// state before statistics reset (the paper warms 50 M).
    pub warmup_instructions: u64,
    /// Instructions measured after warm-up (the paper measures 200 M).
    pub sim_instructions: u64,
    /// Hard cycle ceiling per phase as a multiple of the instruction
    /// budget (guards against pathological stalls).
    pub max_cpi: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            warmup_instructions: 400_000,
            sim_instructions: 2_000_000,
            max_cpi: 64,
        }
    }
}

impl SimOptions {
    /// Validates the phase lengths together with the system
    /// configuration they will drive. Campaign runners call this
    /// before constructing any simulation state, so a bad grid cell
    /// fails its own job with a diagnostic instead of panicking inside
    /// a worker (e.g. a zero-entry MSHR would otherwise stall every
    /// demand miss forever and burn the whole cycle ceiling).
    pub fn validate(&self, cfg: &SystemConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        if self.sim_instructions == 0 {
            return Err(ConfigError::new(
                "sim.sim_instructions",
                "measurement phase needs a positive instruction budget",
            ));
        }
        if self.max_cpi == 0 {
            return Err(ConfigError::new(
                "sim.max_cpi",
                "cycle ceiling multiplier must be positive",
            ));
        }
        Ok(())
    }
}

/// Adapts a hierarchy + shared back end to the core's [`DataPort`].
struct Port<'a> {
    hier: &'a mut Hierarchy,
    shared: &'a mut SharedMemory,
}

impl DataPort for Port<'_> {
    fn demand(&mut self, ip: Ip, addr: VAddr, kind: MemOpKind, at: Cycle) -> PortResponse {
        let kind = match kind {
            MemOpKind::Load => AccessKind::Load,
            MemOpKind::Store => AccessKind::Rfo,
        };
        match self.hier.demand_access(
            self.shared,
            DemandAccess {
                ip,
                vaddr: addr,
                kind,
            },
            at,
        ) {
            DemandOutcome::Done { ready_at, .. } => PortResponse::Ready(ready_at),
            DemandOutcome::MshrFull => PortResponse::Stall,
        }
    }
}

/// One simulated core with its private hierarchy and trace.
struct CoreSlot {
    core: Core,
    hier: Hierarchy,
    trace: Trace,
    /// The run-identifying half of this slot's reports.
    meta: ReportMeta,
    retired: u64,
    /// Report as of the cycle this core crossed the instruction budget
    /// (in a mix it keeps replaying afterwards).
    snapshot: Option<Report>,
    /// Partial-quiescence bound: strictly before this cycle the slot is
    /// provably inert (core quiescent, no private-hierarchy event due),
    /// so a lockstep step may be [`Core::skip_to`] bookkeeping instead
    /// of a full [`CoreSlot::cycle`]. A value at or below the current
    /// cycle means "unknown — recompute". Sound to cache because an
    /// inert slot's schedule is frozen: its core wake time and queued
    /// prefetch turns are fixed timestamps, and no other slot can touch
    /// this slot's private hierarchy.
    idle_until: Cycle,
    /// `retired` snapshot at [`drive_phase`] entry (kept on the slot so
    /// phase bookkeeping allocates nothing).
    phase_start_retired: u64,
}

impl CoreSlot {
    fn new(
        cfg: &SystemConfig,
        l1: &PrefetcherChoice,
        l2: Option<L2PrefetcherChoice>,
        trace: Trace,
    ) -> Self {
        let hier = Hierarchy::new(cfg, l1.build(), l2.map(|c| c.build()));
        let meta = ReportMeta {
            workload: trace.name().to_string(),
            l1_prefetcher: l1.name().to_string(),
            l2_prefetcher: l2.map(|c| c.name().to_string()),
            prefetcher_storage_bits: hier.l1_prefetcher().storage_bits()
                + hier.l2_prefetcher().map_or(0, |p| p.storage_bits()),
        };
        Self {
            core: Core::new(cfg.core),
            hier,
            trace,
            meta,
            retired: 0,
            snapshot: None,
            idle_until: Cycle::new(0),
            phase_start_retired: 0,
        }
    }

    /// Attempts a partial-quiescence step at `now`: when the slot is
    /// inert this cycle, advances the core one cycle of bookkeeping
    /// (what a full [`CoreSlot::cycle`] would amount to — the hierarchy
    /// tick is a no-op before its `next_event`, and a quiescent core
    /// neither retires nor dispatches) and returns `true`. Returns
    /// `false` when the slot must run a real cycle.
    fn try_idle_cycle(&mut self, now: Cycle) -> bool {
        if now >= self.idle_until {
            let Some(wake) = self.core.quiescent_until() else {
                return false;
            };
            let bound = match self.hier.next_event(now) {
                Some(ev) if ev <= now => return false,
                Some(ev) => wake.min(ev),
                None => wake,
            };
            if bound <= now {
                return false;
            }
            self.idle_until = bound;
        }
        // `check-invariants`: the cached bound must still describe an
        // inert slot — a stale claim of idleness would silently skip
        // real work and diverge from the naive engine.
        #[cfg(feature = "check-invariants")]
        {
            assert!(
                self.core.quiescent_until().is_some(),
                "partial quiescence on a core that can act at {}",
                now.raw()
            );
            if let Some(ev) = self.hier.next_event(now) {
                assert!(
                    ev > now,
                    "partial quiescence past a hierarchy event at {}",
                    ev.raw()
                );
            }
        }
        self.core.skip_to(Cycle::new(now.raw() + 1));
        true
    }

    fn cycle(&mut self, shared: &mut SharedMemory) {
        let now = self.core.now();
        self.hier.tick(shared, now);
        let mut port = Port {
            hier: &mut self.hier,
            shared,
        };
        let trace = &mut self.trace;
        self.retired += self.core.cycle(&mut port, || Some(trace.next_instr()));
    }

    fn reset_stats(&mut self) {
        self.core.reset_stats();
        self.hier.reset_stats();
        self.retired = 0;
    }

    /// Snapshots every counter group this run contributes into a
    /// stats registry: the core's counters plus the private hierarchy
    /// and shared back-end groups.
    fn registry(&self, shared: &SharedMemory) -> Registry {
        let mut reg = Registry::new();
        reg.record("core", self.core.stats());
        self.hier.register_stats(&mut reg);
        shared.register_stats(&mut reg);
        reg
    }

    /// Builds a report from the current counters, generically through
    /// the stats registry.
    fn report(&self, shared: &SharedMemory) -> Report {
        Report::from_registry(self.meta.clone(), &self.registry(shared))
    }
}

/// The common cycle every slot can fast-forward to with no component
/// doing any work in between, bounded by `limit` (the phase's cycle
/// ceiling). `None` when some core can retire or dispatch this cycle,
/// or some queued prefetch is due — then the cycle must run normally.
fn common_skip_target(
    slots: &[CoreSlot],
    shared: &SharedMemory,
    now: Cycle,
    limit: Cycle,
) -> Option<Cycle> {
    let mut target = limit;
    if let Some(ev) = shared.dram.next_event(now) {
        if ev <= now {
            return None;
        }
        target = target.min(ev);
    }
    for s in slots {
        debug_assert_eq!(s.core.now(), now, "cores run in lockstep");
        // An inert slot's schedule is frozen until `idle_until`, so the
        // bound it cached is exactly what recomputing `min(wake, next
        // event)` would give now.
        if now < s.idle_until {
            target = target.min(s.idle_until);
            continue;
        }
        let wake = s.core.quiescent_until()?;
        target = target.min(wake);
        if let Some(ev) = s.hier.next_event(now) {
            if ev <= now {
                return None;
            }
            target = target.min(ev);
        }
    }
    (target > now).then_some(target)
}

/// Runs one phase (warm-up or measurement): cycles every slot in
/// lockstep until each has retired `instructions` since phase start
/// or the phase's cycle ceiling (`instructions * max_cpi`) is hit.
///
/// `on_slot_cycled` runs immediately after each slot's cycle — at
/// that point the shared LLC/DRAM state reflects this slot's activity
/// this cycle but not yet the remaining slots' — so per-slot
/// observations (budget snapshots, interval samples) see exactly what
/// the reference per-cycle loop would show them.
///
/// With [`Engine::SkipAhead`], stretches where every core is
/// quiescent and no component has an event due are fast-forwarded via
/// [`Core::skip_to`]; the skip target is common to all slots, so
/// cores stay in lockstep and results are byte-identical to
/// [`Engine::Naive`]. When only *some* slots are inert (partial
/// quiescence — the common multi-core case, where one long DRAM miss
/// pins the whole lockstep), each inert slot steps through
/// [`CoreSlot::try_idle_cycle`] instead of a full cycle: one cycle of
/// [`Core::skip_to`] bookkeeping, which is exactly what its naive
/// cycle would have done. Cores still advance one cycle per loop
/// iteration, so lockstep and byte-identical results are preserved.
fn drive_phase(
    slots: &mut [CoreSlot],
    shared: &mut SharedMemory,
    engine: Engine,
    instructions: u64,
    max_cpi: u64,
    mut on_slot_cycled: impl FnMut(&mut CoreSlot, &SharedMemory),
) {
    if slots.is_empty() {
        return;
    }
    for s in slots.iter_mut() {
        s.phase_start_retired = s.retired;
    }
    // Partial quiescence only exists multi-core: with one slot, a
    // failed common skip already proves the slot is not inert (the
    // shared DRAM has no autonomous events), so probing it again per
    // cycle would pay a second `quiescent_until` for nothing.
    let partial_quiescence = engine == Engine::SkipAhead && slots.len() > 1;
    let phase_start = slots[0].core.now();
    let deadline = instructions.saturating_mul(max_cpi);
    let limit = Cycle::new(phase_start.raw().saturating_add(deadline));
    loop {
        let now = slots[0].core.now();
        if now.since(phase_start) >= deadline {
            break;
        }
        if !slots
            .iter()
            .any(|s| s.retired - s.phase_start_retired < instructions)
        {
            break;
        }
        if engine == Engine::SkipAhead {
            if let Some(target) = common_skip_target(slots, shared, now, limit) {
                // `check-invariants`: skip-ahead must never pass a
                // component's next event or wake a core late — that
                // would silently diverge from the naive engine.
                #[cfg(feature = "check-invariants")]
                {
                    assert!(target > now && target <= limit, "skip target out of range");
                    if let Some(ev) = shared.dram.next_event(now) {
                        assert!(target <= ev, "skip-ahead past DRAM event at {}", ev.raw());
                    }
                    for s in slots.iter() {
                        let wake = s.core.quiescent_until().expect("skipping a busy core");
                        assert!(
                            target <= wake,
                            "skip-ahead past core wake at {}",
                            wake.raw()
                        );
                        if let Some(ev) = s.hier.next_event(now) {
                            assert!(
                                target <= ev,
                                "skip-ahead past hierarchy event at {}",
                                ev.raw()
                            );
                        }
                    }
                }
                for s in slots.iter_mut() {
                    s.core.skip_to(target);
                }
                continue;
            }
        }
        for s in slots.iter_mut() {
            if !(partial_quiescence && s.try_idle_cycle(now)) {
                s.cycle(shared);
            }
            on_slot_cycled(s, shared);
        }
    }
}

/// The one measurement procedure (Sec. IV-A, and Sec. IV-I for mixes):
/// one [`CoreSlot`] per trace over one [`SharedMemory`], warm up, reset
/// every counter, measure, and report each slot as of the cycle it
/// crossed the instruction budget. Slots that finish early keep
/// replaying — and keep contending for the LLC and DRAM — until every
/// slot has finished.
///
/// A single-core run is a one-slot mix: the lone slot crosses the
/// budget on the very cycle the measurement loop exits on, so its
/// budget snapshot *is* the end-of-phase report.
///
/// `sampling` attaches the interval sampler to the measurement phase
/// (warm-up is never sampled). It only reads counters, so reports are
/// identical with and without it. It follows a lone slot: no entry
/// point samples a mix.
fn run(
    cfg: &SystemConfig,
    l1: &PrefetcherChoice,
    l2: Option<L2PrefetcherChoice>,
    traces: Vec<Trace>,
    opts: &SimOptions,
    engine: Engine,
    sampling: Option<Sampling<'_>>,
) -> Vec<Report> {
    debug_assert!(
        sampling.is_none() || traces.len() == 1,
        "the interval sampler follows a lone slot"
    );
    let mut shared = SharedMemory::new(cfg, traces.len());
    let mut slots: Vec<CoreSlot> = traces
        .into_iter()
        .map(|t| CoreSlot::new(cfg, l1, l2, t))
        .collect();
    drive_phase(
        &mut slots,
        &mut shared,
        engine,
        opts.warmup_instructions,
        opts.max_cpi,
        |_, _| {},
    );
    for s in slots.iter_mut() {
        s.reset_stats();
    }
    shared.reset_stats();
    let budget = opts.sim_instructions;
    let mut sampler = sampling.map(IntervalSampler::new);
    drive_phase(
        &mut slots,
        &mut shared,
        engine,
        budget,
        opts.max_cpi,
        |slot, shared| {
            if let Some(sampler) = &mut sampler {
                sampler.observe(slot.retired, || slot.registry(shared));
            }
            if slot.retired >= budget && slot.snapshot.is_none() {
                slot.snapshot = Some(slot.report(shared));
            }
        },
    );
    // A slot the cycle ceiling stopped short of the budget reports
    // what it reached.
    slots
        .iter_mut()
        .map(|s| s.snapshot.take().unwrap_or_else(|| s.report(&shared)))
        .collect()
}

/// Runs one workload on a single core with an L1D prefetcher only.
pub fn simulate(
    cfg: &SystemConfig,
    l1: PrefetcherChoice,
    trace: &mut Trace,
    opts: &SimOptions,
) -> Report {
    let traces = vec![trace.restarted()];
    run(cfg, &l1, None, traces, opts, Engine::default(), None)
        .pop()
        .expect("one slot, one report")
}

/// Runs one workload single-core with L1D and optional L2 prefetchers
/// under an explicit [`Engine`].
pub fn simulate_with_engine(
    cfg: &SystemConfig,
    l1: PrefetcherChoice,
    l2: Option<L2PrefetcherChoice>,
    trace: &mut Trace,
    opts: &SimOptions,
    engine: Engine,
) -> Report {
    let traces = vec![trace.restarted()];
    run(cfg, &l1, l2, traces, opts, engine, None)
        .pop()
        .expect("one slot, one report")
}

/// Runs one workload single-core, optionally sampling an
/// IPC/MPKI/accuracy time series every `sampling.interval` retired
/// instructions of the measurement phase (the warm-up phase is never
/// sampled). Sampling only observes counters; it does not perturb the
/// simulation, so reports are identical with and without it.
pub fn simulate_instrumented(
    cfg: &SystemConfig,
    l1: PrefetcherChoice,
    l2: Option<L2PrefetcherChoice>,
    trace: &mut Trace,
    opts: &SimOptions,
    engine: Engine,
    sampling: Option<Sampling<'_>>,
) -> Report {
    let traces = vec![trace.restarted()];
    run(cfg, &l1, l2, traces, opts, engine, sampling)
        .pop()
        .expect("one slot, one report")
}

/// Runs a heterogeneous mix on `mix.len()` cores sharing the LLC and
/// one DRAM channel (Sec. IV-I). Each core that finishes its budget is
/// snapshotted and keeps running (replayed) until all cores finish.
pub fn simulate_multicore(
    cfg: &SystemConfig,
    l1: PrefetcherChoice,
    l2: Option<L2PrefetcherChoice>,
    mix: &[WorkloadDef],
    opts: &SimOptions,
) -> MultiCoreReport {
    let traces = mix.iter().map(WorkloadDef::trace).collect();
    let cores = run(cfg, &l1, l2, traces, opts, Engine::default(), None);
    MultiCoreReport { cores }
}

/// [`simulate_multicore`] under an explicit [`Engine`]. Skip-ahead
/// only fast-forwards when *every* core is quiescent, preserving the
/// lockstep interleaving of shared LLC/DRAM activity.
pub fn simulate_multicore_with_engine(
    cfg: &SystemConfig,
    l1: PrefetcherChoice,
    l2: Option<L2PrefetcherChoice>,
    mix: &[WorkloadDef],
    opts: &SimOptions,
    engine: Engine,
) -> MultiCoreReport {
    let traces = mix.iter().map(WorkloadDef::trace).collect();
    let cores = run(cfg, &l1, l2, traces, opts, engine, None);
    MultiCoreReport { cores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_traces::spec;

    fn tiny_opts() -> SimOptions {
        SimOptions {
            warmup_instructions: 20_000,
            sim_instructions: 100_000,
            ..SimOptions::default()
        }
    }

    #[test]
    fn options_validate_catches_bad_grid_cells() {
        let cfg = SystemConfig::default();
        assert!(tiny_opts().validate(&cfg).is_ok());
        let err = SimOptions {
            sim_instructions: 0,
            ..SimOptions::default()
        }
        .validate(&cfg)
        .unwrap_err();
        assert!(err.to_string().contains("sim_instructions"), "{err}");
        assert!(SimOptions {
            max_cpi: 0,
            ..SimOptions::default()
        }
        .validate(&cfg)
        .is_err());
        // A broken system config propagates through.
        let mut bad = SystemConfig::default();
        bad.l1d.mshr_entries = 0;
        let err = tiny_opts().validate(&bad).unwrap_err();
        assert!(err.to_string().contains("mshr_entries"), "{err}");
    }

    #[test]
    fn baseline_runs_and_reports() {
        let cfg = SystemConfig::default();
        let mut t = spec::suite()[0].trace(); // bwaves-like
        let r = simulate(&cfg, PrefetcherChoice::IpStride, &mut t, &tiny_opts());
        // May overshoot by less than one retire group.
        assert!(r.instructions >= 100_000 && r.instructions < 100_004);
        assert!(r.ipc() > 0.05 && r.ipc() < 6.0, "ipc {}", r.ipc());
        // The baseline IP-stride covers the streams; misses may all be
        // prefetch-covered, but data still moved through the hierarchy.
        assert!(r.dram.reads > 0);
        assert!(r.energy.total_nj() > 0.0);
    }

    #[test]
    fn berti_beats_no_prefetching_on_streams() {
        let cfg = SystemConfig::default();
        let opts = tiny_opts();
        let w = &spec::suite()[0]; // bwaves-like: pure streams
        let base = simulate(&cfg, PrefetcherChoice::None, &mut w.trace(), &opts);
        let berti = simulate(&cfg, PrefetcherChoice::Berti, &mut w.trace(), &opts);
        assert!(
            berti.speedup_over(&base) > 1.05,
            "berti {} vs none {}",
            berti.ipc(),
            base.ipc()
        );
        assert!(berti.l1d_accuracy().unwrap_or(0.0) > 0.5);
    }

    #[test]
    fn berti_covers_the_lbm_pattern_ip_stride_cannot() {
        let cfg = SystemConfig::default();
        let opts = tiny_opts();
        let w = &spec::suite()[1]; // lbm-like: +1/+2 interleaved
        let stride = simulate(&cfg, PrefetcherChoice::IpStride, &mut w.trace(), &opts);
        let berti = simulate(&cfg, PrefetcherChoice::Berti, &mut w.trace(), &opts);
        assert!(
            berti.speedup_over(&stride) > 1.02,
            "berti {} vs ip-stride {}",
            berti.ipc(),
            stride.ipc()
        );
    }
}
