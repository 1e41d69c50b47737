//! The per-core memory hierarchy and its shared back end, as a chain of
//! cache levels.
//!
//! A cache level is written once: a [`Cache`], the prefetcher it hosts
//! (if any) and that prefetcher's queue, over *what is below it*
//! ([`Below`]: read a line, take a dirty victim). A private level over
//! its own `Below` is one too, and so are [`SharedMemory`] (the LLC
//! over the DRAM channel) and [`Dram`]. [`Hierarchy`] owns one core's
//! private levels (the L1D, always hosting a prefetcher, and the L2,
//! optionally), the TLBs and the page table; the chain
//! L1D → L2 → LLC → DRAM is borrowed together per access and is
//! monomorphised.
//!
//! Demand flow (Sec. IV-A's ChampSim): translate through dTLB/STLB,
//! look up the L1D on the *virtual* line; on a miss walk down
//! L2 → LLC → DRAM on the *physical* line, each level taking the same
//! miss path ([`fetch`]) and filling on the way back (non-inclusive,
//! fills propagate up). Prefetch flow (Sec. III-B): a level's
//! prefetcher sees the demand accesses that reach it; its decisions
//! enter the level's queue with a timestamp; each cycle the queue head
//! is checked for presence at its fill level and issued down the chain.
//! The L1D alone translates the head through the STLB (dropped on a
//! miss), stalls the core when its MSHR is full, demotes an L1 fill to
//! the L2 when its MSHR is saturated, and stores the latency Berti
//! trains on — fill time minus *queue-insertion* time — in the line's
//! shadow field.

use std::collections::VecDeque;

use berti_types::{AccessKind, Cycle, FillLevel, Ip, PLine, Ppn, SystemConfig, VAddr, VLine, Vpn};

use crate::cache::{AccessOutcome, Cache, HitInfo};
use crate::dram::Dram;
use crate::prefetch::{AccessEvent, FillEvent, PrefetchDecision, Prefetcher};
use crate::tlb::Tlb;
use crate::vmem::PageTable;

/// What lies below a cache level: the next level down, or DRAM. Lines
/// below the L1D are physical.
trait Below {
    /// Serves `req` (`req.line` is in this level's address space) and
    /// returns the cycle the data is ready; `flow` counts the prefetch
    /// flow of the core that asked.
    fn read(&mut self, flow: &mut FlowStats, req: Request) -> Cycle;

    /// Takes the dirty victim `line` written back at `at`.
    fn write(&mut self, line: u64, at: Cycle);
}

impl Below for Dram {
    fn read(&mut self, _flow: &mut FlowStats, req: Request) -> Cycle {
        Dram::read(self, req.line, req.at)
    }

    fn write(&mut self, line: u64, at: Cycle) {
        Dram::write(self, line, at);
    }
}

/// The LLC and DRAM, shared by every core of the simulated system.
#[derive(Debug)]
pub struct SharedMemory {
    /// Last-level cache (physical lines).
    pub llc: Cache,
    /// The DRAM channel.
    pub dram: Dram,
}

impl SharedMemory {
    /// Builds the shared back end for `cores` cores (LLC capacity and
    /// queues scale per core, Table II).
    pub fn new(cfg: &SystemConfig, cores: usize) -> Self {
        let scaled = cfg.for_cores(cores.max(1));
        Self {
            llc: Cache::new("LLC", scaled.llc),
            dram: Dram::new(scaled.dram),
        }
    }

    /// Resets statistics at the end of warm-up.
    pub fn reset_stats(&mut self) {
        self.llc.reset_stats();
        self.dram.reset_stats();
    }

    /// Registers the shared back end's counter groups (`"llc"`,
    /// `"dram"`) into `registry`.
    pub fn register_stats(&self, registry: &mut berti_stats::Registry) {
        registry.record("llc", self.llc.stats());
        registry.record("dram", self.dram.stats());
    }
}

/// The LLC, which hosts no prefetcher, over the DRAM channel.
impl Below for SharedMemory {
    fn read(&mut self, flow: &mut FlowStats, req: Request) -> Cycle {
        match self.llc.access(req.line, req.kind, req.at) {
            AccessOutcome::Hit(h) => h.ready_at,
            AccessOutcome::Miss | AccessOutcome::MshrFull => {
                fetch(&mut self.llc, None, flow, &mut self.dram, req, req.at)
            }
        }
    }

    fn write(&mut self, line: u64, at: Cycle) {
        write_back(&mut self.llc, &mut self.dram, line, at);
    }
}

/// A line request arriving at a cache level.
#[derive(Clone, Copy, Debug)]
struct Request {
    /// The line in the level's own address space.
    line: u64,
    /// The same line in the address space below (they differ only at
    /// the virtually-indexed L1D).
    xlat: u64,
    kind: AccessKind,
    ip: Ip,
    /// Arrival at the level.
    at: Cycle,
}

/// The miss path every level takes. Fetches `req` from `below` after
/// the level's own lookup latency; tracks the miss while an MSHR entry
/// is free (demands proceed regardless — the L1D MSHR is the core's
/// gate, and an overflow below it only loses occupancy tracking, never
/// correctness); fills; writes a dirty victim back below; and shows
/// `host`, the level's prefetcher, the eviction and the fill. The
/// latency stored with the line and reported to `host` runs from
/// `since`: the arrival, or for an L1D prefetch its queue insertion.
/// Returns the cycle the data is ready.
fn fetch<B: Below>(
    cache: &mut Cache,
    mut host: Option<&mut Box<dyn Prefetcher>>,
    flow: &mut FlowStats,
    below: &mut B,
    req: Request,
    since: Cycle,
) -> Cycle {
    let data_at = below.read(
        flow,
        Request {
            line: req.xlat,
            at: req.at + cache.latency(),
            ..req
        },
    );
    let latency = data_at - since;
    if cache.mshr_has_free_entry(req.at) {
        cache.track_miss(req.line, req.kind, req.at, data_at);
        // `check-invariants`: every fill of a tracked miss must match a
        // pending MSHR entry with the same fill time.
        #[cfg(feature = "check-invariants")]
        assert_eq!(
            cache.mshr_pending(req.line, req.at),
            Some(data_at),
            "{} fill without a matching pending miss",
            cache.name()
        );
    }
    // Absent: the caller's lookup missed, and nothing below fills it.
    let evicted = cache.fill_absent(req.line, req.kind, data_at, latency, req.xlat);
    if let Some(ev) = evicted {
        if ev.dirty {
            below.write(ev.xlat, data_at);
        }
        if let Some(p) = host.as_mut() {
            p.on_eviction(VLine::new(ev.addr), ev.wasted_prefetch);
        }
    }
    if let Some(p) = host {
        p.on_fill(&FillEvent {
            line: VLine::new(req.line),
            ip: req.ip,
            at: data_at,
            latency,
            was_prefetch: req.kind == AccessKind::Prefetch,
        });
    }
    data_at
}

/// The write-back every level takes: a dirty victim from above lands in
/// `cache` (allocating if absent), and a dirty line that allocation
/// displaces goes on below.
fn write_back<B: Below>(cache: &mut Cache, below: &mut B, line: u64, at: Cycle) {
    if !matches!(
        cache.access(line, AccessKind::Writeback, at),
        AccessOutcome::Hit(_)
    ) {
        let evicted = cache.fill_absent(line, AccessKind::Writeback, at, 0, line);
        if let Some(ev) = evicted {
            if ev.dirty {
                below.write(ev.xlat, at);
            }
        }
    }
    // `check-invariants`: non-inclusive hierarchy — a dirty victim
    // must be resident in the next level after its writeback lands.
    #[cfg(feature = "check-invariants")]
    assert!(
        cache.probe(line),
        "non-inclusive invariant violated: victim {line:#x} absent from {}",
        cache.name()
    );
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug)]
pub enum DemandOutcome {
    /// The access was accepted; data is ready at `ready_at`.
    Done {
        /// Cycle the data is available to the core.
        ready_at: Cycle,
        /// Whether the L1D had the line (including in-flight merges).
        l1_hit: bool,
    },
    /// The L1D MSHR is full; the core must retry next cycle.
    MshrFull,
}

/// A demand access request from the core.
#[derive(Clone, Copy, Debug)]
pub struct DemandAccess {
    /// IP of the memory instruction.
    pub ip: Ip,
    /// Virtual byte address.
    pub vaddr: VAddr,
    /// `Load` or `Rfo`.
    pub kind: AccessKind,
}

#[derive(Clone, Copy, Debug)]
struct QueuedPrefetch {
    target: VLine,
    fill_level: FillLevel,
    enqueued_at: Cycle,
    trigger_ip: Ip,
}

berti_stats::counter_group! {
    /// Drop/issue counters for the prefetch machinery and the TLBs.
    pub struct FlowStats {
        /// Decisions accepted into the L1D prefetch queue.
        pub pf_enqueued: u64,
        /// Decisions dropped because the PQ was full.
        pub pf_dropped_pq_full: u64,
        /// Queued prefetches dropped on an STLB translation miss.
        pub pf_dropped_stlb_miss: u64,
        /// Queued prefetches dropped because the target was present.
        pub pf_dropped_present: u64,
        /// Queued prefetches dropped because the fill level's MSHR was
        /// full.
        pub pf_dropped_mshr_full: u64,
        /// L1-bound prefetches demoted to L2 fills because the L1D MSHR
        /// was saturated at issue time.
        pub pf_demoted_mshr_full: u64,
        /// Prefetches issued to the hierarchy (after all checks).
        pub pf_issued: u64,
        /// L2-hosted prefetcher decisions accepted into the L2 PQ.
        pub l2_pf_enqueued: u64,
        /// L2-hosted prefetcher issues.
        pub l2_pf_issued: u64,
        /// Page walks performed (STLB misses).
        pub page_walks: u64,
    }
}

berti_stats::counter_group! {
    /// dTLB/STLB hit and miss counters, registrable as a stats group.
    pub struct TlbStats {
        /// dTLB hits.
        pub dtlb_hits: u64,
        /// dTLB misses.
        pub dtlb_misses: u64,
        /// STLB hits (dTLB misses that the STLB caught).
        pub stlb_hits: u64,
        /// STLB misses (page walks).
        pub stlb_misses: u64,
    }
}

/// A per-level prefetch queue plus its event-time issue cursor.
///
/// Issue pacing is one prefetch per elapsed cycle: the head may go at
/// `cursor.max(enqueued_at + 1)`, and every issue advances the cursor
/// one past the issue time. Both bounds are *absolute* event times, so
/// drain granularity does not matter — draining once up to `T` issues
/// exactly what per-cycle draining through `T` would, which is what
/// lets the engine skip quiescent stretches without changing results.
#[derive(Debug)]
struct PrefetchQueue {
    /// Storage reserved once for the level's `pq_entries`; the level
    /// checks that bound before every push, so enqueue/issue churn
    /// performs no heap traffic.
    entries: VecDeque<QueuedPrefetch>,
    /// Next cycle this queue may issue.
    cursor: Cycle,
    /// `check-invariants`: last issue time handed out by
    /// [`PrefetchQueue::pop_due`], to prove issue times stay strictly
    /// monotone (the PQ analogue of ISSUE 5's "monotone ready-times").
    #[cfg(feature = "check-invariants")]
    last_issue: Option<Cycle>,
}

impl PrefetchQueue {
    fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            cursor: Cycle::ZERO,
            #[cfg(feature = "check-invariants")]
            last_issue: None,
        }
    }

    /// Skip-ahead contract: the earliest cycle at or after `now` at
    /// which the head may issue; `None` when the queue is empty.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.entries
            .front()
            .map(|q| self.cursor.max(q.enqueued_at + 1).max(now))
    }

    /// Pops the head if its turn has come by `upto`, returning the
    /// entry with its issue time and advancing the cursor past it.
    fn pop_due(&mut self, upto: Cycle) -> Option<(QueuedPrefetch, Cycle)> {
        let q = *self.entries.front()?;
        let at = self.cursor.max(q.enqueued_at + 1);
        if at > upto {
            return None;
        }
        let _ = self.entries.pop_front();
        self.cursor = at + 1;
        #[cfg(feature = "check-invariants")]
        {
            if let Some(last) = self.last_issue {
                assert!(
                    at > last,
                    "prefetch queue issued out of order: {at:?} after {last:?}"
                );
            }
            self.last_issue = Some(at);
        }
        Some((q, at))
    }
}

/// One private cache level: the cache, the prefetcher it hosts (if any)
/// and that prefetcher's queue.
struct Level {
    cache: Cache,
    prefetcher: Option<Box<dyn Prefetcher>>,
    pq: PrefetchQueue,
    /// Scratch for the prefetcher's decisions, reused on every access.
    decisions: Vec<PrefetchDecision>,
    /// Which level this is (`L1` or `L2`): picks its flow counters.
    host: FillLevel,
}

impl Level {
    fn new(
        name: &'static str,
        geom: berti_types::CacheGeometry,
        prefetcher: Option<Box<dyn Prefetcher>>,
        host: FillLevel,
    ) -> Self {
        Self {
            cache: Cache::new(name, geom),
            prefetcher,
            pq: PrefetchQueue::new(geom.pq_entries),
            decisions: Vec::new(),
            host,
        }
    }

    /// The access notification: shows the hosted prefetcher a demand
    /// access `req` that `hit` or missed this level, and queues the
    /// decisions it returns.
    ///
    /// Most decisions name a line the level already holds (Berti
    /// predicts on every hit, Sec. III-C), so the presence check comes
    /// first and is a bit test: the decisions of one access fall in one
    /// or two pages, and each page's mask of resident lines is looked
    /// up once. The drops are counted in one addition at the end.
    fn notify(&mut self, flow: &mut FlowStats, req: Request, hit: Option<HitInfo>) {
        let Some(p) = self.prefetcher.as_mut() else {
            return;
        };
        debug_assert!(self.decisions.is_empty());
        p.on_access(
            &AccessEvent {
                ip: req.ip,
                line: VLine::new(req.line),
                at: req.at,
                kind: req.kind,
                hit: hit.is_some(),
                timely_prefetch_hit: hit.is_some_and(|h| h.timely_prefetch_hit),
                late_prefetch_hit: hit.is_some_and(|h| h.late_prefetch_hit),
                stored_latency: hit.map_or(0, |h| u64::from(h.stored_latency)),
                mshr_occupancy: self.cache.mshr_occupancy_fraction(req.at),
            },
            &mut self.decisions,
        );
        let mut present = 0;
        // No line's page is `u64::MAX`, so the first decision looks up.
        let (mut page, mut mask) = (u64::MAX, 0);
        for d in &self.decisions {
            // Hardware checks the cache and the PQ before allocating a
            // PQ entry; without this, repeated decisions for lines
            // already fetched would evict the useful frontier entries
            // from the 16-entry queue.
            if d.target.page().raw() != page {
                page = d.target.page().raw();
                mask = self.cache.page_mask(page);
            }
            if mask >> d.target.index_in_page() & 1 != 0
                || self.pq.entries.iter().any(|q| q.target == d.target)
            {
                present += 1;
                continue;
            }
            if self.pq.entries.len() >= self.cache.geometry().pq_entries {
                flow.pf_dropped_pq_full += 1;
                continue;
            }
            match self.host {
                FillLevel::L1 => flow.pf_enqueued += 1,
                FillLevel::L2 | FillLevel::Llc => flow.l2_pf_enqueued += 1,
            }
            self.pq.entries.push_back(QueuedPrefetch {
                target: d.target,
                fill_level: d.fill_level,
                enqueued_at: req.at,
                trigger_ip: req.ip,
            });
        }
        flow.pf_dropped_present += present;
        self.decisions.clear();
    }

    /// Serves `req` after this level's own lookup of it came out as
    /// `outcome`: a demand notifies the prefetcher, and a miss takes the
    /// miss path even when the MSHR is full.
    fn serve<B: Below>(
        &mut self,
        flow: &mut FlowStats,
        below: &mut B,
        req: Request,
        outcome: AccessOutcome,
    ) -> Cycle {
        let hit = match outcome {
            AccessOutcome::Hit(h) => Some(h),
            AccessOutcome::Miss | AccessOutcome::MshrFull => None,
        };
        if req.kind.is_demand() {
            self.notify(flow, req, hit);
        }
        match hit {
            Some(h) => h.ready_at,
            None => {
                let host = self.prefetcher.as_mut();
                fetch(&mut self.cache, host, flow, below, req, req.at)
            }
        }
    }
}

/// A private level over what lies below it: itself a [`Below`].
struct Over<'a, B> {
    level: &'a mut Level,
    below: &'a mut B,
}

impl<B: Below> Below for Over<'_, B> {
    fn read(&mut self, flow: &mut FlowStats, req: Request) -> Cycle {
        let outcome = self.level.cache.access(req.line, req.kind, req.at);
        self.level.serve(flow, self.below, req, outcome)
    }

    fn write(&mut self, line: u64, at: Cycle) {
        write_back(&mut self.level.cache, self.below, line, at);
    }
}

/// One core's private memory hierarchy plus hooks into the shared back
/// end.
pub struct Hierarchy {
    l1d: Level,
    l2: Level,
    dtlb: Tlb,
    stlb: Tlb,
    page_table: PageTable,
    walk_latency: u64,
    flow: FlowStats,
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("l1_prefetcher", &self.l1_prefetcher().name())
            .field("l2_prefetcher", &self.l2_prefetcher().map(|p| p.name()))
            .field("flow", &self.flow)
            .finish_non_exhaustive()
    }
}

impl Hierarchy {
    /// Builds a private hierarchy hosting `l1_prefetcher` at the L1D
    /// and, optionally, `l2_prefetcher` at the L2.
    pub fn new(
        cfg: &SystemConfig,
        l1_prefetcher: Box<dyn Prefetcher>,
        l2_prefetcher: Option<Box<dyn Prefetcher>>,
    ) -> Self {
        Self {
            l1d: Level::new("L1D", cfg.l1d, Some(l1_prefetcher), FillLevel::L1),
            l2: Level::new("L2", cfg.l2, l2_prefetcher, FillLevel::L2),
            dtlb: Tlb::new(
                cfg.tlb.dtlb_entries,
                cfg.tlb.dtlb_ways,
                cfg.tlb.dtlb_latency,
            ),
            stlb: Tlb::new(
                cfg.tlb.stlb_entries,
                cfg.tlb.stlb_ways,
                cfg.tlb.stlb_latency,
            ),
            page_table: PageTable::new(),
            walk_latency: cfg.tlb.walk_latency,
            flow: FlowStats::default(),
        }
    }

    /// The private L1D (statistics, probing).
    pub fn l1d(&self) -> &Cache {
        &self.l1d.cache
    }

    /// The private L2.
    pub fn l2(&self) -> &Cache {
        &self.l2.cache
    }

    /// Prefetch-flow counters.
    pub fn flow_stats(&self) -> &FlowStats {
        &self.flow
    }

    /// The hosted L1D prefetcher.
    pub fn l1_prefetcher(&self) -> &dyn Prefetcher {
        self.l1d
            .prefetcher
            .as_deref()
            .expect("the L1D always hosts a prefetcher")
    }

    /// The hosted L2 prefetcher, if any.
    pub fn l2_prefetcher(&self) -> Option<&dyn Prefetcher> {
        self.l2.prefetcher.as_deref()
    }

    /// TLB counters as a registrable stats group.
    pub fn tlb_counters(&self) -> TlbStats {
        TlbStats {
            dtlb_hits: self.dtlb.hits(),
            dtlb_misses: self.dtlb.misses(),
            stlb_hits: self.stlb.hits(),
            stlb_misses: self.stlb.misses(),
        }
    }

    /// Registers this hierarchy's counter groups (`"l1d"`, `"l2"`,
    /// `"tlb"`, `"flow"`) into `registry`.
    pub fn register_stats(&self, registry: &mut berti_stats::Registry) {
        registry.record("l1d", self.l1d.cache.stats());
        registry.record("l2", self.l2.cache.stats());
        registry.record("tlb", &self.tlb_counters());
        registry.record("flow", &self.flow);
    }

    /// Resets statistics at the end of warm-up (cache/TLB contents and
    /// prefetcher training state are deliberately kept warm).
    pub fn reset_stats(&mut self) {
        self.l1d.cache.reset_stats();
        self.l2.cache.reset_stats();
        self.dtlb.reset_stats();
        self.stlb.reset_stats();
        self.flow = FlowStats::default();
    }

    /// Translates `vpn`, paying dTLB/STLB/walk latency; returns the
    /// frame and the translation latency in cycles.
    fn translate(&mut self, vpn: Vpn, now: Cycle) -> (Ppn, u64) {
        if let Some(ppn) = self.dtlb.lookup(vpn, now) {
            return (ppn, self.dtlb.latency());
        }
        if let Some(ppn) = self.stlb.lookup(vpn, now) {
            self.dtlb.insert(vpn, ppn);
            return (ppn, self.dtlb.latency() + self.stlb.latency());
        }
        self.flow.page_walks += 1;
        let ppn = self.page_table.translate(vpn);
        self.dtlb.insert(vpn, ppn);
        self.stlb.insert(vpn, ppn);
        (
            ppn,
            self.dtlb.latency() + self.stlb.latency() + self.walk_latency,
        )
    }

    /// Physical line for `vline` within frame `ppn`.
    #[inline]
    fn phys_line(ppn: Ppn, vline: VLine) -> PLine {
        PLine::new(ppn.first_line().raw() + vline.index_in_page())
    }

    /// A demand access from the core at `now`.
    pub fn demand_access(
        &mut self,
        shared: &mut SharedMemory,
        req: DemandAccess,
        now: Cycle,
    ) -> DemandOutcome {
        debug_assert!(req.kind.is_demand());
        let vline = req.vaddr.line();
        let (ppn, xlat) = self.translate(req.vaddr.page(), now);
        let t0 = now + xlat;
        // Let queued prefetches whose (event-time) turn precedes this
        // access reach the caches first.
        self.tick(shared, t0);

        let outcome = self.l1d.cache.access(vline.raw(), req.kind, t0);
        if let AccessOutcome::MshrFull = outcome {
            return DemandOutcome::MshrFull;
        }
        let access = Request {
            line: vline.raw(),
            xlat: Self::phys_line(ppn, vline).raw(),
            kind: req.kind,
            ip: req.ip,
            at: t0,
        };
        let below = &mut Over {
            level: &mut self.l2,
            below: shared,
        };
        DemandOutcome::Done {
            ready_at: self.l1d.serve(&mut self.flow, below, access, outcome),
            l1_hit: matches!(outcome, AccessOutcome::Hit(_)),
        }
    }

    /// Advances the prefetch machinery to event time `now`: issues the
    /// queued prefetches whose turn has come, one per elapsed cycle per
    /// queue. The out-of-order core executes demand accesses at dispatch
    /// with *event-time* stamps that can run ahead of the wall clock;
    /// each demand access first calls this with its own stamp, so the
    /// queues drain against the same event clock and the
    /// demand/prefetch race stays faithful (a prefetch enqueued at
    /// event time T reaches the caches at T+1, before a demand stamped
    /// T+k).
    pub fn tick(&mut self, shared: &mut SharedMemory, now: Cycle) {
        while let Some((q, at)) = self.l1d.pq.pop_due(now) {
            self.issue(shared, FillLevel::L1, q, at);
        }
        while let Some((q, at)) = self.l2.pq.pop_due(now) {
            self.issue(shared, FillLevel::L2, q, at);
        }
    }

    /// Skip-ahead contract: the earliest cycle at or after `now` at
    /// which [`Hierarchy::tick`] will make progress (a queued
    /// prefetch's turn to issue), or `None` when both prefetch queues
    /// are empty and any tick would be a no-op.
    ///
    /// The engine may fast-forward from `now` to just before the
    /// returned cycle without ticking and observe byte-identical
    /// statistics; demand accesses in between re-establish the bound
    /// themselves (they drain the queues against their own event time).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match (self.l1d.pq.next_event(now), self.l2.pq.next_event(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pending entries in the L1D prefetch queue (diagnostics).
    pub fn l1_pq_len(&self) -> usize {
        self.l1d.pq.entries.len()
    }

    /// The PQ issue: sends prefetch `q`, popped at `at` from the queue
    /// of the level at `host`, down the chain to its fill level — unless
    /// the line is already there or that level's MSHR is full.
    fn issue(&mut self, shared: &mut SharedMemory, host: FillLevel, q: QueuedPrefetch, at: Cycle) {
        let line = q.target.raw();
        // L2 prefetchers already operate on physical lines.
        let mut pline = line;
        if host == FillLevel::L1 {
            // Translate through the STLB (Sec. III-B); drop on a miss.
            // The miss still triggers a page walk that installs the
            // translation (the program's arrays are mapped ahead of the
            // demand stream), so only the first prefetch into a page is
            // lost — without this an ascending stream could never
            // prefetch across pages at all, contradicting the paper's
            // cross-page results (Sec. IV-J).
            let vpn = q.target.page();
            let Some(ppn) = self.stlb.probe(vpn).or_else(|| self.dtlb.probe(vpn)) else {
                let ppn = self.page_table.translate(vpn);
                self.stlb.insert(vpn, ppn);
                self.flow.pf_dropped_stlb_miss += 1;
                return;
            };
            pline = Self::phys_line(ppn, q.target).raw();
        }
        // A level fills no level above itself.
        let fill = q.fill_level.max(host);
        let (target, addr) = match fill {
            FillLevel::L1 => (&self.l1d.cache, line),
            FillLevel::L2 => (&self.l2.cache, pline),
            FillLevel::Llc => (&shared.llc, pline),
        };
        if target.probe(addr) {
            self.flow.pf_dropped_present += 1;
            return;
        }
        let mshr_full = !target.mshr_has_free_entry(at);
        let lands = match fill {
            // MSHR saturated: demote this request to an L2 fill (Sec.
            // III-B: above the occupancy watermark, "prefetch requests
            // get filled till L2") instead of blocking the queue head.
            FillLevel::L1 if mshr_full => FillLevel::L2,
            // Below the L1D a full MSHR drops the prefetch, except that
            // an L2-hosted prefetch into the LLC never checks the LLC's.
            _ if mshr_full && !(host == FillLevel::L2 && fill == FillLevel::Llc) => {
                self.flow.pf_dropped_mshr_full += 1;
                return;
            }
            _ => fill,
        };
        // Each level between the host and the one the prefetch lands in
        // adds its lookup latency on the way down.
        let mut t = at;
        if host == FillLevel::L1 && lands > FillLevel::L1 {
            t += self.l1d.cache.latency();
        }
        if lands == FillLevel::Llc {
            t += self.l2.cache.latency();
        }
        let req = Request {
            line: if lands == FillLevel::L1 { line } else { pline },
            xlat: pline,
            kind: AccessKind::Prefetch,
            ip: q.trigger_ip,
            at: t,
        };
        let flow = &mut self.flow;
        let mut l2 = Over {
            level: &mut self.l2,
            below: shared,
        };
        let _ = match lands {
            // Berti measures prefetch latency from PQ insertion.
            FillLevel::L1 => {
                let l1d = &mut self.l1d;
                let pf = l1d.prefetcher.as_mut();
                fetch(&mut l1d.cache, pf, flow, &mut l2, req, q.enqueued_at)
            }
            FillLevel::L2 => l2.read(flow, req),
            FillLevel::Llc => l2.below.read(flow, req),
        };
        if lands != fill {
            flow.pf_demoted_mshr_full += 1;
        }
        match host {
            FillLevel::L1 => flow.pf_issued += 1,
            FillLevel::L2 | FillLevel::Llc => flow.l2_pf_issued += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::NullPrefetcher;
    use berti_types::Delta;

    fn system() -> (Hierarchy, SharedMemory) {
        let cfg = SystemConfig::default();
        (
            Hierarchy::new(&cfg, Box::new(NullPrefetcher), None),
            SharedMemory::new(&cfg, 1),
        )
    }

    fn load(ip: u64, vaddr: u64) -> DemandAccess {
        DemandAccess {
            ip: Ip::new(ip),
            vaddr: VAddr::new(vaddr),
            kind: AccessKind::Load,
        }
    }

    #[test]
    fn cold_miss_then_warm_hit() {
        let (mut h, mut s) = system();
        let miss = h.demand_access(&mut s, load(1, 0x1000), Cycle::new(0));
        let DemandOutcome::Done {
            ready_at: t_miss,
            l1_hit,
        } = miss
        else {
            panic!("unexpected stall");
        };
        assert!(!l1_hit);
        // Cold: walk + L1D + L2 + LLC + DRAM activation — hundreds of cycles.
        assert!(t_miss.raw() > 100, "cold miss too fast: {t_miss}");
        let hit = h.demand_access(&mut s, load(1, 0x1000), t_miss + 10);
        let DemandOutcome::Done { ready_at, l1_hit } = hit else {
            panic!("unexpected stall");
        };
        assert!(l1_hit);
        // dTLB (1) + L1D (5).
        assert_eq!(ready_at - (t_miss + 10), 6);
    }

    #[test]
    fn non_inclusive_fill_populates_l2() {
        let (mut h, mut s) = system();
        let DemandOutcome::Done { ready_at, .. } =
            h.demand_access(&mut s, load(1, 0x1000), Cycle::new(0))
        else {
            panic!()
        };
        // The physical line is in L2 and LLC as well.
        assert_eq!(h.l2().stats().load_misses, 1);
        assert_eq!(s.llc.stats().load_misses, 1);
        assert_eq!(s.dram.stats().reads, 1);
        // Re-access after eviction from L1D only would hit L2; emulate by
        // direct L2 access through another demand far in the future.
        let DemandOutcome::Done { ready_at: t2, .. } =
            h.demand_access(&mut s, load(1, 0x1000), ready_at + 100)
        else {
            panic!()
        };
        assert!(t2 > ready_at);
    }

    #[test]
    fn dirty_l1d_victims_are_written_back_into_the_l2() {
        // A one-line L2: every fill displaces the line before it, so each
        // L1D victim's write-back must allocate in the L2 again.
        let mut cfg = SystemConfig::default();
        cfg.l2.sets = 1;
        cfg.l2.ways = 1;
        let mut h = Hierarchy::new(&cfg, Box::new(NullPrefetcher), None);
        let mut s = SharedMemory::new(&cfg, 1);
        // Stores to one L1D set, four more than it has ways.
        let stride = cfg.l1d.sets as u64 * 64;
        for i in 0..cfg.l1d.ways as u64 + 4 {
            let store = DemandAccess {
                kind: AccessKind::Rfo,
                ..load(1, 0x10_0000 + i * stride)
            };
            let _ = h.demand_access(&mut s, store, Cycle::new(i * 2000));
        }
        let written = h.l1d().stats().writebacks_below;
        assert_eq!(written, 4, "every store-dirtied victim is written back");
        assert_eq!(h.l2().stats().wb_misses, written);
    }

    #[test]
    fn mshr_pressure_stalls_demands() {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(&cfg, Box::new(NullPrefetcher), None);
        let mut s = SharedMemory::new(&cfg, 1);
        let mut stalled = false;
        // Issue misses to distinct lines at the same cycle until the
        // 16-entry L1D MSHR fills.
        for i in 0..32 {
            match h.demand_access(&mut s, load(1, 0x10_0000 + i * 64), Cycle::new(0)) {
                DemandOutcome::Done { .. } => {}
                DemandOutcome::MshrFull => {
                    stalled = true;
                    break;
                }
            }
        }
        assert!(stalled, "L1D MSHR must eventually refuse new misses");
    }

    /// A prefetcher that, on every demand access, asks for the next
    /// `degree` lines.
    struct NextN {
        degree: i32,
        level: FillLevel,
    }
    impl Prefetcher for NextN {
        fn name(&self) -> &'static str {
            "nextn"
        }
        fn storage_bits(&self) -> u64 {
            0
        }
        fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchDecision>) {
            for d in 1..=self.degree {
                out.push(PrefetchDecision {
                    target: ev.line + Delta::new(d),
                    fill_level: self.level,
                });
            }
        }
    }

    #[test]
    fn l1_prefetch_turns_future_miss_into_hit() {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(
            &cfg,
            Box::new(NextN {
                degree: 1,
                level: FillLevel::L1,
            }),
            None,
        );
        let mut s = SharedMemory::new(&cfg, 1);
        let DemandOutcome::Done { ready_at, .. } =
            h.demand_access(&mut s, load(1, 0x4000), Cycle::new(0))
        else {
            panic!()
        };
        // Let the PQ issue and the prefetch land.
        let mut now = Cycle::new(1);
        for _ in 0..3000 {
            h.tick(&mut s, now);
            now += 1;
        }
        assert!(now > ready_at);
        let DemandOutcome::Done { l1_hit, .. } = h.demand_access(&mut s, load(1, 0x4040), now)
        else {
            panic!()
        };
        assert!(l1_hit, "prefetched next line should hit");
        assert_eq!(h.l1d().stats().pf_useful_timely, 1);
        assert_eq!(h.flow_stats().pf_issued, 1);
    }

    #[test]
    fn l2_fill_level_leaves_l1_cold_but_l2_warm() {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(
            &cfg,
            Box::new(NextN {
                degree: 1,
                level: FillLevel::L2,
            }),
            None,
        );
        let mut s = SharedMemory::new(&cfg, 1);
        let _ = h.demand_access(&mut s, load(1, 0x4000), Cycle::new(0));
        let mut now = Cycle::new(1);
        for _ in 0..3000 {
            h.tick(&mut s, now);
            now += 1;
        }
        let DemandOutcome::Done { l1_hit, ready_at } =
            h.demand_access(&mut s, load(1, 0x4040), now)
        else {
            panic!()
        };
        assert!(!l1_hit, "L2-level prefetch must not fill L1D");
        // But it is an L2 hit: much faster than DRAM.
        assert!(ready_at - now < 60, "expected L2-hit latency");
        assert_eq!(h.l2().stats().pf_fills, 1);
    }

    #[test]
    fn l2_hosted_prefetches_fill_their_level_and_leave_the_l1d_cold() {
        for level in [FillLevel::L2, FillLevel::Llc] {
            let cfg = SystemConfig::default();
            let mut h = Hierarchy::new(
                &cfg,
                Box::new(NullPrefetcher),
                Some(Box::new(NextN { degree: 1, level })),
            );
            let mut s = SharedMemory::new(&cfg, 1);
            let _ = h.demand_access(&mut s, load(1, 0x4000), Cycle::new(0));
            let mut now = Cycle::new(1);
            for _ in 0..3000 {
                h.tick(&mut s, now);
                now += 1;
            }
            let flow = h.flow_stats();
            assert_eq!((flow.l2_pf_enqueued, flow.l2_pf_issued), (1, 1), "{level}");
            assert_eq!((flow.pf_enqueued, flow.pf_issued), (0, 0), "{level}");
            // The L2 prefetcher trains on physical lines: its target is
            // the physical successor of the demanded line.
            let vline = VAddr::new(0x4040).line();
            let ppn = h
                .dtlb
                .probe(vline.page())
                .expect("translated by the demand");
            let target = Hierarchy::phys_line(ppn, vline).raw();
            assert!(!h.l1d().probe(vline.raw()), "{level}: L1D must stay cold");
            assert_eq!(h.l1d().stats().pf_fills, 0, "{level}");
            let in_l2 = level == FillLevel::L2;
            assert_eq!(h.l2().probe(target), in_l2, "{level}");
            assert_eq!(h.l2().stats().pf_fills, u64::from(in_l2), "{level}");
            assert!(s.llc.probe(target), "{level}: every prefetch fills the LLC");
            assert_eq!(s.llc.stats().pf_fills, 1, "{level}");
            let DemandOutcome::Done { l1_hit, .. } = h.demand_access(&mut s, load(1, 0x4040), now)
            else {
                panic!()
            };
            assert!(!l1_hit, "{level}");
        }
    }

    #[test]
    fn cross_page_prefetch_dropped_without_translation() {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(
            &cfg,
            Box::new(NextN {
                degree: 1,
                level: FillLevel::L1,
            }),
            None,
        );
        let mut s = SharedMemory::new(&cfg, 1);
        // Last line of page 0x4: the next line is in an untouched page.
        let _ = h.demand_access(&mut s, load(1, 0x4FC0), Cycle::new(0));
        for t in 1..100_000u64 {
            h.tick(&mut s, Cycle::new(t));
        }
        assert!(
            h.flow_stats().pf_dropped_stlb_miss > 0,
            "prefetches into untouched pages must be dropped at the STLB"
        );
    }

    #[test]
    fn pq_capacity_drops_excess_decisions() {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(
            &cfg,
            Box::new(NextN {
                degree: 40, // more than the 16-entry PQ
                level: FillLevel::L1,
            }),
            None,
        );
        let mut s = SharedMemory::new(&cfg, 1);
        let _ = h.demand_access(&mut s, load(1, 0x4000), Cycle::new(0));
        assert!(h.flow_stats().pf_dropped_pq_full > 0);
        assert!(h.l1_pq_len() <= cfg.l1d.pq_entries);
    }

    #[test]
    fn duplicate_prefetch_dropped_as_present() {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(
            &cfg,
            Box::new(NextN {
                degree: 1,
                level: FillLevel::L1,
            }),
            None,
        );
        let mut s = SharedMemory::new(&cfg, 1);
        let _ = h.demand_access(&mut s, load(1, 0x4000), Cycle::new(0));
        let mut now = Cycle::new(1);
        for _ in 0..3000 {
            h.tick(&mut s, now);
            now += 1;
        }
        // Same access again re-requests the same target, now present.
        let _ = h.demand_access(&mut s, load(1, 0x4000), now);
        for _ in 0..3000 {
            h.tick(&mut s, now);
            now += 1;
        }
        assert!(h.flow_stats().pf_dropped_present >= 1);
    }

    #[test]
    fn page_walks_counted_once_per_page() {
        let (mut h, mut s) = system();
        let _ = h.demand_access(&mut s, load(1, 0x1000), Cycle::new(0));
        let _ = h.demand_access(&mut s, load(1, 0x1040), Cycle::new(1000));
        let _ = h.demand_access(&mut s, load(1, 0x2000), Cycle::new(2000));
        assert_eq!(h.flow_stats().page_walks, 2);
        let tlb = h.tlb_counters();
        assert_eq!(tlb.dtlb_hits, 1);
        assert_eq!(tlb.dtlb_misses, 2);
        assert_eq!(tlb.stlb_misses, 2);
    }
}
