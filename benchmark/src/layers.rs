//! The per-layer budget, measured from outside: every number here is a
//! timed call into a public item of one crate (or a round trip to one
//! of the release binaries). In-program tracing is a later issue.
//!
//! Host time unless the name starts with `model.`. Micro-timings batch
//! many operations per timed block and take the p10 over the blocks;
//! operations that take milliseconds are their own block.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::Instant;

use berti_core::{Berti, BertiConfig, DeltaTable, HistoryTable};
use berti_cpu::{Core, DataPort, MemOpKind, PortResponse};
use berti_harness::{execute_spec, run_campaign, Campaign, Event, EventSink, JobSpec, ResultCache};
use berti_mem::{
    AccessEvent, Cache, DemandAccess, Dram, FillEvent, Hierarchy, Mshr, NullPrefetcher,
    PrefetchDecision, Prefetcher, SharedMemory, Tlb,
};
use berti_prefetchers::{
    BestOffset, Bingo, IpStride, Ipcp, Misb, Mlop, NextLine, Sms, SppPpf, StreamPrefetcher, Vldp,
};
use berti_serve::http::Request;
use berti_serve::proto::{self, WorkerReply, WorkerRequest, PROTO_VERSION};
use berti_sim::{
    simulate, simulate_instrumented, simulate_multicore_with_engine, simulate_with_engine, Engine,
    PrefetcherChoice, Report, ReportMeta, Sampling, SimOptions,
};
use berti_stats::Registry;
use berti_traces::ingest::{decode_btrc, decode_champsim, encode_btrc, MmapBtrc};
use berti_traces::{Trace, TraceRegistry};
use berti_types::{AccessKind, Cycle, Delta, FillLevel, Instr, Ip, Ppn, SystemConfig, VAddr, Vpn};

use crate::checks::Ops;
use crate::estimator::{median, p10, time_blocks};
use crate::fixtures::{self, FIXTURES};
use crate::procs;
use crate::spans::Tracer;
use crate::workloads::{in_process_opts, traces_grid, CampaignDaemon, Ctx, Workload};

/// How much to measure: `--smoke` only proves every path runs.
#[derive(Clone, Copy)]
struct Effort {
    /// Timed blocks per micro-timing.
    blocks: usize,
    /// Operations per block for nanosecond-scale operations.
    ops: usize,
    /// Samples of millisecond-scale operations.
    samples: usize,
    /// Whether to run the four multi-second builtin generators.
    generators: bool,
}

impl Effort {
    fn of(ctx: &Ctx) -> Effort {
        if ctx.smoke {
            Effort {
                blocks: 3,
                ops: 500,
                samples: 2,
                generators: false,
            }
        } else {
            Effort {
                blocks: 30,
                ops: 10_000,
                samples: 3,
                generators: true,
            }
        }
    }

    /// Blocks of `ops` operations that each take microseconds.
    fn micros(&self, ops: usize, block: impl FnMut()) -> f64 {
        time_blocks(self.blocks, ops, block) / 1e3
    }
}

type Out = Vec<(String, f64)>;

fn put(out: &mut Out, name: impl Into<String>, value: f64) {
    out.push((name.into(), value));
}

fn timings_ms(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// p10 of `samples` timings of `f`, in milliseconds.
fn sample_ms(samples: usize, f: impl FnMut()) -> f64 {
    p10(&timings_ms(samples, f))
}

/// Runs every layer's measurements. Expects the fixtures of `ctx.seed`
/// in `ctx.fixture_dir()`.
pub fn run(ctx: &Ctx, ops: &mut Ops) -> Result<Out, String> {
    let e = Effort::of(ctx);
    let dir = ctx.fixture_dir();
    fixtures::write_all(&dir, ctx.seed, ctx.sizes.fixture_instrs).map_err(|e| e.to_string())?;
    let instrs: Vec<Vec<Instr>> = FIXTURES
        .iter()
        .map(|n| fixtures::generate(n, ctx.seed, ctx.sizes.fixture_instrs))
        .collect();
    let mut out = Out::new();
    traces(ctx, e, &dir, &instrs, ops, &mut out)?;
    cpu(e, &instrs, &mut out);
    mem(e, &mut out);
    let events = record_events(&instrs);
    core(e, &events, &mut out);
    prefetchers(e, &events, &mut out);
    let report = sim(ctx, e, &instrs, &dir, &mut out)?;
    stats(e, &report, &mut out);
    // The grid the daemon workload submits: 16 cells of ~10 ms.
    let grid = traces_grid(&dir, ctx.sizes.daemon)?;
    harness(ctx, e, &dir, &grid, &report, &mut out)?;
    serve(ctx, e, &dir, &grid, ops, &mut out)?;
    Ok(out)
}

// ------------------------------------------------------------------ traces

/// A ChampSim `input_instr` record for `i` (loads as source memory, the
/// store as destination memory, a taken branch for mispredicts).
fn champsim_record(i: &Instr) -> [u8; 64] {
    let mut r = [0u8; 64];
    r[0..8].copy_from_slice(&i.ip.raw().to_le_bytes());
    r[8] = u8::from(i.mispredicted_branch);
    r[9] = u8::from(i.mispredicted_branch);
    if let Some(s) = i.store {
        r[16..24].copy_from_slice(&s.raw().to_le_bytes());
    }
    for (k, l) in i.loads.iter().flatten().enumerate() {
        r[32 + 8 * k..40 + 8 * k].copy_from_slice(&l.raw().to_le_bytes());
    }
    r
}

fn traces(
    ctx: &Ctx,
    e: Effort,
    dir: &Path,
    instrs: &[Vec<Instr>],
    ops: &mut Ops,
    out: &mut Out,
) -> Result<(), String> {
    let n = (2 * e.ops).min(instrs[0].len());
    put(
        out,
        "traces.builder.gen_ns_per_instr",
        time_blocks(e.blocks, n, || {
            black_box(fixtures::generate("t_stride", black_box(ctx.seed), n));
        }),
    );
    for (metric, workload, heavy) in [
        ("spec", "lbm-like", false),
        ("gap_kron", "bfs-kron", true),
        ("gap_urand", "bfs-urand", true),
        ("cloud", "cassandra-like", false),
    ] {
        // The two graph generators take ~2.5 s each: one sample.
        let ms = if !e.generators {
            0.0
        } else {
            let w = berti_traces::workload_by_name(workload).expect("builtin workload");
            sample_ms(if heavy { 1 } else { e.samples }, || {
                berti_traces::cache::clear();
                black_box(w.trace().len());
            })
        };
        put(out, format!("traces.gen.{metric}_ms"), ms);
    }
    berti_traces::cache::clear();

    let slice = &instrs[0][..n];
    let bytes = encode_btrc(slice);
    put(
        out,
        "traces.btrc.encode_ns_per_instr",
        time_blocks(e.blocks, n, || {
            black_box(encode_btrc(black_box(slice)));
        }),
    );
    put(
        out,
        "traces.btrc.decode_ns_per_instr",
        time_blocks(e.blocks, n, || {
            black_box(decode_btrc(black_box(&bytes)).expect("decodes"));
        }),
    );
    let file = dir.join("t_stride.btrc");
    put(
        out,
        "traces.mmap.open_us",
        e.micros(20, || {
            for _ in 0..20 {
                black_box(MmapBtrc::open(black_box(&file)).expect("maps"));
            }
        }),
    );
    let mut mem_trace = Trace::new("mem", instrs[0].clone());
    put(
        out,
        "traces.cursor.mem_ns_per_instr",
        time_blocks(e.blocks, 2 * e.ops, || {
            for _ in 0..2 * e.ops {
                black_box(mem_trace.next_instr());
            }
        }),
    );
    let mut mmap_trace = fixtures::discover(dir)?[0]
        .try_trace()
        .map_err(|e| e.to_string())?;
    put(
        out,
        "traces.cursor.mmap_ns_per_instr",
        time_blocks(e.blocks, 2 * e.ops, || {
            for _ in 0..2 * e.ops {
                black_box(mmap_trace.next_instr());
            }
        }),
    );
    let champsim: Vec<u8> = slice.iter().flat_map(champsim_record).collect();
    put(
        out,
        "traces.champsim.decode_ns_per_record",
        time_blocks(e.blocks, n, || {
            black_box(decode_champsim(black_box(&champsim)).expect("decodes"));
        }),
    );
    // The same bytes through the real `btrc convert`: the program's
    // ChampSim ingest must agree with the library decode timed above.
    let (raw, converted) = (
        ctx.tmp.join("layers.champsim"),
        ctx.tmp.join("layers-converted.btrc"),
    );
    std::fs::write(&raw, &champsim).map_err(|e| e.to_string())?;
    let status = Command::new(&ctx.bins.btrc)
        .arg("convert")
        .args([&raw, &converted])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning btrc: {e}"))?;
    let expected = encode_btrc(&decode_champsim(&champsim).map_err(|e| e.to_string())?);
    ops.check(
        1,
        status.success() && std::fs::read(&converted).ok() == Some(expected),
        || "`btrc convert` output differs from the library's ChampSim decode".to_string(),
    );
    put(
        out,
        "traces.registry.discover_us",
        e.micros(10, || {
            for _ in 0..10 {
                let mut r = TraceRegistry::empty();
                black_box(r.discover(black_box(dir)).expect("scans"));
            }
        }),
    );
    berti_traces::cache::open_file(&file).map_err(|e| e.to_string())?;
    put(
        out,
        "traces.cache.hit_us",
        e.micros(100, || {
            for _ in 0..100 {
                black_box(
                    berti_traces::cache::open_file(black_box(&file))
                        .expect("hits")
                        .len(),
                );
            }
        }),
    );
    Ok(())
}

// --------------------------------------------------------------------- cpu

/// A memory system that always answers after an L1D hit latency: what
/// is left is the core model itself.
struct PerfectPort {
    latency: u64,
}

impl DataPort for PerfectPort {
    fn demand(&mut self, _ip: Ip, _addr: VAddr, _kind: MemOpKind, at: Cycle) -> PortResponse {
        PortResponse::Ready(at + self.latency)
    }
}

fn cpu(e: Effort, instrs: &[Vec<Instr>], out: &mut Out) {
    let cfg = SystemConfig::default();
    for (name, fixture) in FIXTURES.iter().zip(instrs) {
        let mut trace = Trace::new(*name, fixture.clone());
        let mut core = Core::new(cfg.core);
        let mut port = PerfectPort {
            latency: cfg.l1d.latency,
        };
        let n = 2 * e.ops as u64;
        let ns = time_blocks(e.blocks, n as usize, || {
            let mut retired = 0;
            while retired < n {
                retired += core.cycle(&mut port, || Some(trace.next_instr()));
            }
            black_box(core.now());
        });
        put(
            out,
            format!("cpu.core.perfect_port.{name}.ns_per_instr"),
            ns,
        );
    }
}

// --------------------------------------------------------------------- mem

fn mem(e: Effort, out: &mut Out) {
    let cfg = SystemConfig::default();
    let n = e.ops;
    let lines = (cfg.l1d.sets * cfg.l1d.ways) as u64;

    let mut cache = Cache::new("L1D", cfg.l1d);
    for a in 0..lines {
        cache.fill(
            a,
            AccessKind::Load,
            Cycle::ZERO,
            Cycle::ZERO,
            0,
            Ip::new(1),
            a,
        );
    }
    let mut now = 1u64;
    put(
        out,
        "mem.cache.access_hit_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                now += 1;
                black_box(cache.access(black_box(i % lines), AccessKind::Load, Cycle::new(now)));
            }
        }),
    );
    put(
        out,
        "mem.cache.access_miss_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                now += 1;
                black_box(cache.access(black_box(lines + i), AccessKind::Load, Cycle::new(now)));
            }
        }),
    );
    let mut next = lines;
    put(
        out,
        "mem.cache.fill_evict_ns",
        time_blocks(e.blocks, n, || {
            for _ in 0..n {
                now += 1;
                next += 1;
                let at = Cycle::new(now);
                black_box(cache.fill(
                    black_box(next),
                    AccessKind::Load,
                    at,
                    at,
                    40,
                    Ip::new(1),
                    next,
                ));
            }
        }),
    );

    // Entries live 40 cycles and one is allocated every 4: the MSHR
    // holds ~10 of its 16 entries, as under a steady miss stream.
    let mut mshr = Mshr::new(cfg.l1d.mshr_entries);
    put(
        out,
        "mem.mshr.allocate_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                now += 4;
                black_box(mshr.allocate(black_box(i), Cycle::new(now), Cycle::new(now + 40)));
            }
        }),
    );
    put(
        out,
        "mem.mshr.occupancy_ns",
        time_blocks(e.blocks, n, || {
            for _ in 0..n {
                black_box(mshr.occupancy(black_box(Cycle::new(now))));
            }
        }),
    );

    let mut tlb = Tlb::new(
        cfg.tlb.dtlb_entries,
        cfg.tlb.dtlb_ways,
        cfg.tlb.dtlb_latency,
    );
    let pages = cfg.tlb.dtlb_entries as u64;
    for p in 0..pages {
        tlb.insert(Vpn::new(p), Ppn::new(p));
    }
    put(
        out,
        "mem.tlb.lookup_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                black_box(tlb.lookup(Vpn::new(black_box(i % pages)), Cycle::new(now)));
            }
        }),
    );

    // 64 lines per row, rows rotate across the banks: lines 0..64 stay
    // in one open row; multiples of 64 * banks alternate rows of bank 0.
    let mut dram = Dram::new(cfg.dram);
    let lines_per_row = cfg.dram.row_buffer_bytes / 64;
    let bank_stride = lines_per_row * cfg.dram.banks as u64;
    put(
        out,
        "mem.dram.read_row_hit_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                now += 200;
                black_box(dram.read(black_box(i % lines_per_row), Cycle::new(now)));
            }
        }),
    );
    put(
        out,
        "mem.dram.read_row_conflict_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                now += 200;
                black_box(dram.read(black_box((i % 2 + 1) * bank_stride), Cycle::new(now)));
            }
        }),
    );
    put(
        out,
        "mem.dram.write_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                now += 200;
                dram.write(black_box(i), Cycle::new(now));
            }
        }),
    );

    let mut shared = SharedMemory::new(&cfg, 1);
    let mut hier = Hierarchy::new(&cfg, Box::new(NullPrefetcher), None);
    let demand = |hier: &mut Hierarchy, shared: &mut SharedMemory, line: u64, at: u64| {
        hier.demand_access(
            shared,
            DemandAccess {
                ip: Ip::new(0x40_0000),
                vaddr: VAddr::new(0x1_0000_0000 + line * 64),
                kind: AccessKind::Load,
            },
            Cycle::new(at),
        )
    };
    for l in 0..256 {
        now += 400;
        demand(&mut hier, &mut shared, l, now);
    }
    now += 1000;
    put(
        out,
        "mem.hierarchy.demand_hit_ns",
        time_blocks(e.blocks, n, || {
            for i in 0..n as u64 {
                now += 1;
                black_box(demand(&mut hier, &mut shared, black_box(i % 256), now));
            }
        }),
    );
    let mut fresh = 1u64 << 20;
    put(
        out,
        "mem.hierarchy.demand_miss_ns",
        time_blocks(e.blocks, n, || {
            for _ in 0..n {
                now += 400;
                fresh += 1;
                black_box(demand(&mut hier, &mut shared, black_box(fresh), now));
            }
        }),
    );
    put(
        out,
        "mem.hierarchy.tick_ns",
        time_blocks(e.blocks, n, || {
            for _ in 0..n {
                now += 1;
                hier.tick(&mut shared, black_box(Cycle::new(now)));
            }
        }),
    );
}

// ---------------------------------------------------- core and prefetchers

/// The training events an L1D prefetcher sees, recorded once.
struct Events {
    access: Vec<AccessEvent>,
    fill: Vec<FillEvent>,
}

/// Forwards to Berti and records what the hierarchy showed it: the
/// public [`Prefetcher`] trait, as `examples/custom_prefetcher.rs` uses
/// it.
struct Recording {
    inner: Berti,
    log: Rc<RefCell<Events>>,
}

impl Prefetcher for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchDecision>) {
        self.log.borrow_mut().access.push(*ev);
        self.inner.on_access(ev, out);
    }
    fn on_fill(&mut self, ev: &FillEvent) {
        self.log.borrow_mut().fill.push(*ev);
        self.inner.on_fill(ev);
    }
}

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
        let req = DemandAccess {
            ip,
            vaddr: addr,
            kind,
        };
        match self.hier.demand_access(self.shared, req, at) {
            berti_mem::DemandOutcome::Done { ready_at, .. } => PortResponse::Ready(ready_at),
            berti_mem::DemandOutcome::MshrFull => PortResponse::Stall,
        }
    }
}

/// Drives `Core` + `Hierarchy` over the stride and delta fixtures with
/// the recording wrapper in the L1D prefetcher slot. The streams are
/// replayed later in tight timed loops, so no per-call timer sits in
/// any prefetcher number.
fn record_events(instrs: &[Vec<Instr>]) -> Events {
    let cfg = SystemConfig::default();
    let log = Rc::new(RefCell::new(Events {
        access: Vec::new(),
        fill: Vec::new(),
    }));
    for fixture in &instrs[..2] {
        let recorder = Recording {
            inner: Berti::new(BertiConfig::default()),
            log: Rc::clone(&log),
        };
        let mut shared = SharedMemory::new(&cfg, 1);
        let mut hier = Hierarchy::new(&cfg, Box::new(recorder), None);
        let mut core = Core::new(cfg.core);
        let mut trace = Trace::new("record", fixture.clone());
        let budget = fixture.len().min(150_000) as u64;
        let mut retired = 0;
        while retired < budget {
            let now = core.now();
            hier.tick(&mut shared, now);
            let mut port = Port {
                hier: &mut hier,
                shared: &mut shared,
            };
            retired += core.cycle(&mut port, || Some(trace.next_instr()));
        }
    }
    Rc::try_unwrap(log)
        .ok()
        .expect("hierarchies dropped")
        .into_inner()
}

/// p10 ns per event of replaying the whole recorded stream.
fn replay<E>(e: Effort, events: &[E], mut each: impl FnMut(&E)) -> f64 {
    time_blocks(e.blocks.min(10), events.len(), || {
        for ev in events {
            each(black_box(ev));
        }
    })
}

fn core(e: Effort, events: &Events, out: &mut Out) {
    let cfg = BertiConfig::default();
    let mut berti = Berti::new(cfg);
    let mut decisions = Vec::new();
    let mut made = 0usize;
    let mut seen = 0usize;
    let ns = replay(e, &events.access, |ev| {
        decisions.clear();
        berti.on_access(ev, &mut decisions);
        made += decisions.len();
        seen += 1;
    });
    put(out, "core.berti.on_access_ns", ns);
    put(
        out,
        "core.berti.on_fill_ns",
        replay(e, &events.fill, |ev| berti.on_fill(ev)),
    );
    put(
        out,
        "core.berti.decisions_per_access",
        made as f64 / seen.max(1) as f64,
    );

    let mut history = HistoryTable::new(cfg.history_sets, cfg.history_ways, cfg.timestamp_bits);
    put(
        out,
        "core.history.insert_ns",
        replay(e, &events.access, |ev| {
            history.insert(ev.ip, ev.line, ev.at)
        }),
    );
    let mut hits = Vec::new();
    put(
        out,
        "core.history.search_timely_ns",
        replay(e, &events.access, |ev| {
            history.search_timely_into(
                ev.ip,
                ev.line,
                ev.at,
                150,
                cfg.max_timely_deltas_per_search,
                &mut hits,
            );
            black_box(hits.len());
        }),
    );

    let mut deltas = DeltaTable::new(&cfg);
    let found = [Delta::new(1), Delta::new(3), Delta::new(-2), Delta::new(6)];
    put(
        out,
        "core.deltas.record_search_ns",
        replay(e, &events.access, |ev| {
            let k = 1 + (ev.line.raw() % 4) as usize;
            deltas.record_search(ev.ip, &found[..k]);
        }),
    );
    let mut learned = Vec::new();
    put(
        out,
        "core.deltas.prefetch_deltas_ns",
        replay(e, &events.access, |ev| {
            learned.clear();
            deltas.prefetch_deltas(ev.ip, &mut learned);
            black_box(learned.len());
        }),
    );
}

fn prefetchers(e: Effort, events: &Events, out: &mut Out) {
    // L2-hosted designs train on the same line arithmetic (the trait
    // reinterprets the line as physical), so one stream serves all.
    let all: Vec<(&str, Box<dyn Prefetcher>)> = vec![
        ("ip_stride", Box::new(IpStride::default())),
        ("next_line", Box::new(NextLine::default())),
        ("stream", Box::new(StreamPrefetcher::default())),
        ("bop", Box::new(BestOffset::new(FillLevel::L1))),
        ("mlop", Box::new(Mlop::new(FillLevel::L1))),
        ("ipcp", Box::new(Ipcp::new(FillLevel::L1))),
        ("vldp", Box::new(Vldp::new(FillLevel::L1))),
        ("spp", Box::new(SppPpf::build())),
        ("bingo", Box::new(Bingo::new(FillLevel::L2))),
        ("misb", Box::new(Misb::new(FillLevel::L2))),
        ("sms", Box::new(Sms::new(FillLevel::L2))),
    ];
    let mut fills = Out::new();
    let mut decisions = Vec::new();
    for (name, mut p) in all {
        let ns = replay(e, &events.access, |ev| {
            decisions.clear();
            p.on_access(ev, &mut decisions);
            black_box(decisions.len());
        });
        put(out, format!("prefetchers.{name}.on_access_ns"), ns);
        if ["bop", "mlop", "spp", "bingo"].contains(&name) {
            let ns = replay(e, &events.fill, |ev| p.on_fill(ev));
            put(&mut fills, format!("prefetchers.{name}.on_fill_ns"), ns);
        }
    }
    out.extend(fills);
}

// --------------------------------------------------------------------- sim

/// ns per simulated instruction (warm-up + measured) of `f`, p10.
fn ns_per_instr(samples: usize, opts: &SimOptions, cores: u64, mut f: impl FnMut()) -> f64 {
    let instrs = cores * (opts.warmup_instructions + opts.sim_instructions);
    sample_ms(samples, &mut f) * 1e6 / instrs as f64
}

/// Returns the hot-length `t_stride`/berti report, for the layers
/// that need a real report to serialise, store and diff.
fn sim(
    ctx: &Ctx,
    e: Effort,
    instrs: &[Vec<Instr>],
    dir: &Path,
    out: &mut Out,
) -> Result<Report, String> {
    let cfg = SystemConfig::default();
    let hot = ctx.sizes.hot;
    let mut traces: Vec<Trace> = FIXTURES
        .iter()
        .zip(instrs)
        .map(|(n, i)| Trace::new(*n, i.clone()))
        .collect();
    let mut model = Out::new();
    let mut stride_berti = None;
    for (name, trace) in FIXTURES.iter().zip(traces.iter_mut()) {
        let mut pair = Vec::new();
        for l1 in [
            PrefetcherChoice::None,
            PrefetcherChoice::IpStride,
            PrefetcherChoice::Berti,
        ] {
            let mut report = None;
            let ns = ns_per_instr(e.samples, &hot, 1, || {
                report = Some(simulate(&cfg, l1.clone(), trace, &hot));
            });
            put(
                out,
                format!("sim.cell.{name}.{}.ns_per_instr", l1.name()),
                ns,
            );
            if l1 != PrefetcherChoice::None {
                pair.push(report.expect("simulated"));
            }
        }
        let (base, berti) = (&pair[0], &pair[1]);
        put(
            &mut model,
            format!("model.{name}.ip-stride.ipc"),
            base.ipc(),
        );
        put(&mut model, format!("model.{name}.berti.ipc"), berti.ipc());
        put(
            &mut model,
            format!("model.{name}.berti.l1d_mpki"),
            berti.l1d_mpki(),
        );
        put(
            &mut model,
            format!("model.{name}.berti.l1d_accuracy"),
            berti.l1d_accuracy().unwrap_or(0.0),
        );
        put(
            &mut model,
            format!("model.{name}.berti.l1d_late_fraction"),
            berti.l1d_late_fraction().unwrap_or(0.0),
        );
        stride_berti.get_or_insert(pair.swap_remove(1));
    }

    let chase = &mut traces[2];
    let short = ctx.sizes.daemon;
    for (label, engine) in [("naive", Engine::Naive), ("skip_ahead", Engine::SkipAhead)] {
        let ns = ns_per_instr(e.samples, &short, 1, || {
            black_box(simulate_with_engine(
                &cfg,
                PrefetcherChoice::None,
                None,
                chase,
                &short,
                engine,
            ));
        });
        put(out, format!("sim.engine.{label}.t_chase.ns_per_instr"), ns);
    }
    let mix = fixtures::discover(dir)?;
    let mc4 = ctx.sizes.mc4;
    for (label, engine) in [("naive", Engine::Naive), ("skip_ahead", Engine::SkipAhead)] {
        let ns = ns_per_instr(e.samples.min(2), &mc4, 4, || {
            black_box(simulate_multicore_with_engine(
                &cfg,
                PrefetcherChoice::Berti,
                None,
                &mix,
                &mc4,
                engine,
            ));
        });
        put(out, format!("sim.mc4.{label}.ns_per_instr"), ns);
    }

    let report = &stride_berti.expect("fixtures simulated");
    let registry = registry_of(report);
    let meta = || ReportMeta {
        workload: report.workload.clone(),
        l1_prefetcher: report.l1_prefetcher.clone(),
        l2_prefetcher: None,
        prefetcher_storage_bits: report.prefetcher_storage_bits,
    };
    put(
        out,
        "sim.report.from_registry_us",
        e.micros(200, || {
            for _ in 0..200 {
                black_box(Report::from_registry(meta(), black_box(&registry)));
            }
        }),
    );
    let json = serde::json::to_string(report);
    put(
        out,
        "sim.report.to_json_us",
        e.micros(50, || {
            for _ in 0..50 {
                black_box(serde::json::to_string(black_box(report)));
            }
        }),
    );
    put(
        out,
        "sim.report.from_json_us",
        e.micros(50, || {
            for _ in 0..50 {
                black_box(serde::json::from_str::<Report>(black_box(&json)).expect("parses"));
            }
        }),
    );

    let stride = &mut traces[0];
    let plain = sample_ms(e.samples + 2, || {
        black_box(simulate(&cfg, PrefetcherChoice::Berti, stride, &hot));
    });
    let sampled = sample_ms(e.samples + 2, || {
        let mut sink = |s| {
            black_box(s);
        };
        black_box(simulate_instrumented(
            &cfg,
            PrefetcherChoice::Berti,
            None,
            stride,
            &hot,
            Engine::default(),
            Some(Sampling {
                interval: 10_000,
                sink: &mut sink,
            }),
        ));
    });
    put(
        out,
        "sim.sampler.interval_overhead_pct",
        (sampled - plain) / plain * 100.0,
    );
    out.extend(model);
    Ok(report.clone())
}

fn registry_of(r: &Report) -> Registry {
    let mut reg = Registry::new();
    reg.record("core", &r.core);
    reg.record("l1d", &r.l1d);
    reg.record("l2", &r.l2);
    reg.record("llc", &r.llc);
    reg.record("dram", &r.dram);
    reg.record("flow", &r.flow);
    reg
}

// ------------------------------------------------------------------- stats

fn stats(e: Effort, report: &Report, out: &mut Out) {
    let mut reg = registry_of(report);
    let earlier = Registry::new();
    put(
        out,
        "stats.registry.record_ns",
        time_blocks(e.blocks, e.ops, || {
            for _ in 0..e.ops {
                reg.record("l1d", black_box(&report.l1d));
            }
        }),
    );
    put(
        out,
        "stats.registry.delta_from_ns",
        time_blocks(e.blocks, e.ops / 10, || {
            for _ in 0..e.ops / 10 {
                black_box(reg.delta_from(black_box(&earlier)));
            }
        }),
    );
}

// ----------------------------------------------------------------- harness

fn harness(
    ctx: &Ctx,
    e: Effort,
    dir: &Path,
    campaign: &Campaign,
    report: &Report,
    out: &mut Out,
) -> Result<(), String> {
    let reg = TraceRegistry::with_trace_dir(dir).map_err(|e| e.to_string())?;
    let spec: &JobSpec = &campaign.cells[0];
    put(
        out,
        "harness.spec.key_us",
        e.micros(50, || {
            for _ in 0..50 {
                black_box(black_box(spec).key());
            }
        }),
    );

    let cache_dir = ctx.tmp.join("cache-layers");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = ResultCache::open(&cache_dir).map_err(|e| e.to_string())?;
    put(
        out,
        "harness.cache.store_us",
        e.micros(20, || {
            for _ in 0..20 {
                cache
                    .store(black_box(spec), black_box(report))
                    .expect("stores");
            }
        }),
    );
    put(
        out,
        "harness.cache.lookup_hit_us",
        e.micros(20, || {
            for _ in 0..20 {
                black_box(cache.lookup(black_box(spec)).expect("hits"));
            }
        }),
    );
    let absent = &campaign.cells[1];
    put(
        out,
        "harness.cache.lookup_miss_us",
        e.micros(50, || {
            for _ in 0..50 {
                black_box(cache.lookup(black_box(absent)).is_none());
            }
        }),
    );

    // Direct simulate() of every cell of the grid: what the harness
    // paths are overhead on top of.
    let mut direct_ms = Vec::new();
    for cell in &campaign.cells {
        let mut trace = reg
            .get(&cell.workload)
            .expect("cell names a fixture")
            .try_trace()
            .map_err(|e| e.to_string())?;
        direct_ms.push(sample_ms(e.samples, || {
            black_box(simulate(
                &cell.config,
                cell.l1.clone(),
                &mut trace,
                &cell.opts,
            ));
        }));
    }
    let via_execute = sample_ms(e.samples + 2, || {
        black_box(execute_spec(spec, Some(dir), None, &mut |_| {}).expect("executes"));
    });
    put(
        out,
        "harness.execute_spec.overhead_us",
        (via_execute - direct_ms[0]) * 1e3,
    );

    let cells = campaign.cells.len() as f64;
    let direct_total: f64 = direct_ms.iter().sum();
    let cold = sample_ms(e.samples, || {
        cache.clear().expect("clears");
        black_box(run_campaign(
            campaign,
            &in_process_opts(&cache_dir, Some(dir), 1),
        ));
    });
    put(
        out,
        "harness.pool.cold_overhead_us_per_cell",
        (cold - direct_total) * 1e3 / cells,
    );
    let mut result = None;
    let warm = sample_ms(e.samples + 2, || {
        result = Some(run_campaign(
            campaign,
            &in_process_opts(&cache_dir, Some(dir), 1),
        ));
    });
    put(out, "harness.pool.warm_us_per_cell", warm * 1e3 / cells);
    let result = result.expect("ran");
    if result.cache_hits() != campaign.cells.len() {
        return Err("layers: warm run_campaign missed the cache".to_string());
    }

    let events_path = ctx.tmp.join("layers-events.jsonl");
    let mut sink = EventSink::new(Some(&events_path), false, 1);
    let event = Event::JobFinished {
        key: spec.key(),
        workload: spec.workload.clone(),
        label: spec.label(),
        wall_ms: 12,
        instructions: 60_000,
        mips: 5.0,
        ipc: 1.25,
    };
    put(
        out,
        "harness.events.record_us",
        e.micros(200, || {
            for _ in 0..200 {
                sink.record(black_box(&event));
            }
        }),
    );
    sink.finish();
    put(
        out,
        "harness.result.aggregated_json_us",
        e.micros(5, || {
            for _ in 0..5 {
                black_box(black_box(&result).aggregated_json());
            }
        }),
    );
    put(
        out,
        "harness.cli.start_ms",
        sample_ms(e.samples + 2, || {
            let run = procs::run_cli(&ctx.bins.campaign, &["list"]).expect("campaign list runs");
            assert!(run.success, "campaign list failed");
        }),
    );
    Ok(())
}

// ------------------------------------------------------------------- serve

fn serve(
    ctx: &Ctx,
    e: Effort,
    dir: &Path,
    campaign: &Campaign,
    ops: &mut Ops,
    out: &mut Out,
) -> Result<(), String> {
    // t_hot / berti: the cheapest cell, so the pipe overhead stands out.
    let spec = campaign
        .cells
        .iter()
        .find(|c| c.workload == "t_hot" && c.l1 == PrefetcherChoice::Berti)
        .expect("grid has t_hot/berti")
        .clone();
    let trace_dir = dir.display().to_string();
    let request = WorkerRequest {
        v: PROTO_VERSION,
        spec: spec.clone(),
        interval: None,
        trace_dir: Some(trace_dir.clone()),
    };
    let request_json = serde::json::to_string(&request);
    put(
        out,
        "serve.proto.request_encode_us",
        e.micros(50, || {
            for _ in 0..50 {
                black_box(serde::json::to_string(black_box(&request)));
            }
        }),
    );
    let in_process = execute_spec(&spec, Some(dir), None, &mut |_| {})?;
    let reply_json = serde::json::to_string(&WorkerReply {
        kind: "done".to_string(),
        report: Some(in_process.clone()),
        error: None,
        event_json: None,
    });
    put(
        out,
        "serve.proto.reply_decode_us",
        e.micros(50, || {
            for _ in 0..50 {
                black_box(
                    serde::json::from_str::<WorkerReply>(black_box(&reply_json)).expect("parses"),
                );
            }
        }),
    );
    let mut pipe = Vec::with_capacity(reply_json.len() + 4);
    put(
        out,
        "serve.proto.frame_roundtrip_us",
        e.micros(200, || {
            for _ in 0..200 {
                pipe.clear();
                proto::write_frame(&mut pipe, black_box(&reply_json)).expect("writes");
                black_box(proto::read_frame(&mut &pipe[..]).expect("reads"));
            }
        }),
    );

    // A worker process, spoken to as the scheduler does.
    let mut spawn_ms = Vec::new();
    let mut cell_ms = Vec::new();
    for _ in 0..e.samples + 2 {
        let t = Instant::now();
        let mut child = Command::new(&ctx.bins.serve)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning a worker: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let hello = proto::read_frame(&mut stdout).map_err(|e| e.to_string())?;
        spawn_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ops.check(
            1,
            hello.is_some_and(|h| h.contains(&format!("\"v\":{PROTO_VERSION}"))),
            || "worker sent no v3 hello".to_string(),
        );
        for _ in 0..e.samples + 2 {
            let t = Instant::now();
            proto::write_frame(&mut stdin, &request_json).map_err(|e| e.to_string())?;
            let frame = proto::read_frame(&mut stdout)
                .map_err(|e| e.to_string())?
                .unwrap_or_default();
            cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let same = serde::json::from_str::<WorkerReply>(&frame)
                .ok()
                .and_then(|r| r.report)
                .is_some_and(|r| serde::json::to_string(&r) == serde::json::to_string(&in_process));
            ops.check(1, same, || {
                "worker report differs from execute_spec".to_string()
            });
        }
        drop(stdin);
        let _ = child.wait();
    }
    put(out, "serve.worker.spawn_hello_ms", p10(&spawn_ms));
    let direct = sample_ms(e.samples + 2, || {
        black_box(execute_spec(&spec, Some(dir), None, &mut |_| {}).expect("executes"));
    });
    put(
        out,
        "serve.worker.cell_overhead_us",
        (p10(&cell_ms) - direct) * 1e3,
    );

    let raw = format!(
        "POST /campaigns?interval=1000 HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        request_json.len(),
        request_json
    );
    put(
        out,
        "serve.http.parse_request_us",
        e.micros(200, || {
            for _ in 0..200 {
                let mut r = BufReader::new(black_box(raw.as_bytes()));
                black_box(Request::read(&mut r).expect("parses"));
            }
        }),
    );

    // A daemon of its own (the workload's, if any, has been drained).
    let mut off = Tracer::new(false);
    let daemon = CampaignDaemon::setup(ctx, ops)?;
    put(out, "serve.daemon.boot_ms", daemon.boot_s() * 1e3);
    let addr = daemon.addr().to_string();
    // Latencies through the daemon are set by the 50 ms sleeps of its
    // accept and dispatch loops, not by work: a request either waits
    // one out or slips in before it starts. The median is the typical
    // request; a lower decile would report only the lucky ones.
    let get_ms = |path: &str, ops: &mut Ops| {
        median(&timings_ms(10, || {
            let r = procs::http(&addr, "GET", path, None);
            ops.check(1, matches!(r, Ok((200, _))), || {
                format!("GET {path} failed")
            });
        }))
    };
    put(out, "serve.http.healthz_ms", get_ms("/healthz", ops));
    put(out, "serve.http.metrics_ms", get_ms("/metrics", ops));
    let (mut ack, mut result_get, mut first, mut sched) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let cells = daemon.cells_per_submit() as f64;
    let mut last_events = 0;
    for _ in 0..(e.samples + 2) {
        daemon.clear_store()?;
        for warm in [false, true] {
            let s = daemon.checked_submit(warm, &mut off, ops)?;
            ack.push(s.ack_s * 1e3);
            result_get.push(s.result_get_s * 1e3);
            first.push((s.first_event_s - s.ack_s) * 1e3);
            if !warm {
                sched.push((s.round_s * 1e3 - s.cell_wall_ms as f64 / 2.0) / cells);
            }
            last_events = s.events;
        }
    }
    put(out, "serve.http.submit_ack_ms", median(&ack));
    put(out, "serve.http.result_get_ms", median(&result_get));
    put(out, "serve.sse.first_event_ms", median(&first));
    // Replay of a finished campaign's whole event log.
    let listing = procs::http(&addr, "GET", "/campaigns", None)
        .map_err(|e| e.to_string())?
        .1;
    let last_id = serde::json::parse(&listing)
        .ok()
        .and_then(|v| {
            let all = v.get("campaigns")?.as_array()?;
            Some(all.last()?.get("id")?.as_str()?.to_string())
        })
        .ok_or("GET /campaigns lists no campaign")?;
    let replay_s = sample_ms(5, || {
        let mut n = 0;
        let end = procs::sse_follow(
            &addr,
            &format!("/campaigns/{last_id}/events?offset=0"),
            |_, _| n += 1,
        );
        ops.check(1, end.is_ok() && n == last_events, || {
            format!("SSE replay returned {n} of {last_events} events")
        });
    }) / 1e3;
    put(
        out,
        "serve.sse.replay_events_per_s",
        last_events as f64 / replay_s,
    );
    put(out, "serve.sched.overhead_ms_per_cell", median(&sched));

    let metrics = procs::http(&addr, "GET", "/metrics", None)
        .map_err(|e| e.to_string())?
        .1;
    let metrics = serde::json::parse(&metrics).map_err(|e| e.to_string())?;
    let counter = |group: &str, name: &str| {
        metrics
            .get(group)
            .and_then(|g| g.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as f64
    };
    let spawns = counter("serve", "worker_spawns");
    let retries = counter("scheduler", "cell_retries");
    put(out, "serve.daemon.drain_ms", daemon.drain()? * 1e3);
    put(out, "serve.metrics.worker_spawns", spawns);
    put(out, "serve.metrics.cell_retries", retries);
    Ok(())
}
