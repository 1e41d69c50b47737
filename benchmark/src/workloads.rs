//! The four workloads. Each implements [`Workload`]: `setup` builds
//! everything up to and including a discarded first round, `round` runs
//! one measured round (one cold part, then [`WARM_RERUNS`] all-cache-hit
//! resubmits) and checks every output it produces.
//!
//! Closed loop, one client. The in-process workloads run on one thread;
//! the two campaign workloads pin `--jobs 2` / `--workers 2` (this host
//! has 2 vCPUs).

use std::path::{Path, PathBuf};
use std::time::Instant;

use berti_harness::{registry, run_campaign, Campaign, CampaignResult, ResultCache, RunOptions};
use berti_sim::{
    geometric_mean, simulate, simulate_multicore, MultiCoreReport, PrefetcherChoice, Report,
    SimOptions,
};
use berti_traces::{Trace, TraceRegistry, WorkloadDef};
use berti_types::SystemConfig;

use crate::checks::{self, Ops};
use crate::fixtures::{self, FIXTURES};
use crate::procs::{self, Bins, Daemon};
use crate::spans::Tracer;

/// All-cache-hit resubmits after each cold part.
pub const WARM_RERUNS: usize = 5;

/// Workload names and why each exists (recorded in BENCHMARK.json).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cell_hot",
        "in-process simulate() of 4 seeded traces x {none, ip-stride, berti}: cpu/mem/core/prefetchers/sim do all the work, so hot-loop changes must show here",
    ),
    (
        "cell_mc4",
        "in-process 4-core mix x {ip-stride, berti}: the same layers through shared LLC/DRAM and partial quiescence, so a single-core gain that costs multicore shows",
    ),
    (
        "campaign_cli",
        "the real `campaign run quick --jobs 2` cold, then warm reruns: trace generators do ~85% of the work, then pool, store write/read and process start",
    ),
    (
        "campaign_daemon",
        "a real berti-serve with 2 process workers running 16 tiny mmap'd cells per submit: http, sched, proto, pipes and store dominate, sim does little",
    ),
];

/// Lengths of everything; `--smoke` shrinks them so every workload and
/// every check runs in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub fixture_instrs: usize,
    pub hot: SimOptions,
    pub mc4: SimOptions,
    pub daemon: SimOptions,
    /// `None` = the CLI's default lengths (100 k + 400 k), what a user
    /// who types the README quick-start gets.
    pub cli: Option<SimOptions>,
}

fn opts(warmup: u64, instr: u64) -> SimOptions {
    SimOptions {
        warmup_instructions: warmup,
        sim_instructions: instr,
        ..SimOptions::default()
    }
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            fixture_instrs: fixtures::FULL_INSTRS,
            hot: opts(50_000, 250_000),
            mc4: opts(5_000, 20_000),
            daemon: opts(10_000, 50_000),
            cli: None,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            fixture_instrs: 40_000,
            hot: opts(5_000, 20_000),
            mc4: opts(2_000, 8_000),
            daemon: opts(1_000, 4_000),
            cli: Some(opts(2_000, 8_000)),
        }
    }
}

/// Everything a workload needs from the invocation.
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    /// `--smoke`: one round, tiny cells; proves every path and check.
    pub smoke: bool,
    pub bins: Bins,
    /// Scratch directory of this run (inside `benchmark/out/`).
    pub tmp: PathBuf,
    /// `--bless`: rewrite the golden file instead of checking it.
    pub bless: bool,
}

impl Ctx {
    pub fn fixture_dir(&self) -> PathBuf {
        self.tmp.join("fixtures")
    }
}

/// Times of one measured round, in seconds.
pub struct Round {
    /// Cold part, one entry per cell kind (the estimator takes p10 per
    /// kind and sums); a single entry when the round is one operation.
    pub cold: Vec<f64>,
    /// Each all-cache-hit resubmit.
    pub warm: Vec<f64>,
    /// Round submitted → first progress visible to the caller.
    pub first_event: Vec<f64>,
}

/// Simulated results of the workload's cells (exact for a given seed).
pub struct Model {
    pub berti_speedup: f64,
    pub berti_l1d_accuracy: f64,
}

pub trait Workload: Sized {
    fn setup(ctx: &Ctx, ops: &mut Ops) -> Result<Self, String>;
    fn round(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Round, String>;
    /// Cells in the cold part and in one warm resubmit.
    fn cells(&self) -> (u64, u64);
    /// Simulated instructions (warm-up + measured, all cells and cores)
    /// of the cold part.
    fn instructions(&self) -> u64;
    fn model(&self) -> Model;
    fn peak_rss_mib(&self) -> f64;
    /// Whether the round times are set by the program's poll quanta
    /// rather than by work (see [`CampaignDaemon`]): the estimator is
    /// then the median, not the lower decile.
    fn is_quantised(&self) -> bool {
        false
    }
    fn teardown(self, ops: &mut Ops);
}

fn useful_and_filled(reports: &[&Report]) -> (u64, u64) {
    reports.iter().fold((0, 0), |(u, f), r| {
        (
            u + r.l1d.pf_useful_timely + r.l1d.pf_useful_late,
            f + r.l1d.pf_fills,
        )
    })
}

/// Geomean IPC(berti) / IPC(ip-stride) over the workloads of a
/// single-core campaign result, and useful / filled over its berti
/// cells.
fn model_of(result: &CampaignResult) -> Model {
    let berti = result.reports_for_label("berti");
    let ratios: Vec<f64> = berti
        .iter()
        .filter_map(|b| {
            result
                .report(&b.workload, "ip-stride")
                .map(|base| b.speedup_over(base))
        })
        .collect();
    let (useful, filled) = useful_and_filled(&berti);
    Model {
        berti_speedup: geometric_mean(&ratios),
        berti_l1d_accuracy: useful as f64 / filled.max(1) as f64,
    }
}

/// Options of an in-process `run_campaign`: quiet, cached in `cache`.
pub fn in_process_opts(cache: &Path, trace_dir: Option<&Path>, jobs: usize) -> RunOptions {
    RunOptions {
        jobs,
        cache_dir: Some(cache.to_path_buf()),
        events_path: None,
        progress: false,
        interval: None,
        trace_dir: trace_dir.map(Path::to_path_buf),
    }
}

/// The builtin `traces` grid (every fixture × {ip-stride, mlop, ipcp,
/// berti}) over the files of `dir`: what `campaign run traces
/// --trace-dir` and the daemon's `{"builtin":"traces"}` build.
pub fn traces_grid(dir: &Path, opts: SimOptions) -> Result<Campaign, String> {
    let reg = TraceRegistry::with_trace_dir(dir).map_err(|e| e.to_string())?;
    Ok(registry::trace_campaign("traces", &reg, opts).expect("`traces` is a trace-dir campaign"))
}

/// The in-process warm resubmit shared by the two cell workloads: a
/// `run_campaign` whose every cell is a cache hit, checked against the
/// cold aggregate.
struct WarmCampaign {
    campaign: Campaign,
    opts: RunOptions,
    cold: CampaignResult,
    cold_aggregate: String,
}

impl WarmCampaign {
    fn cold_run(campaign: Campaign, opts: RunOptions, ops: &mut Ops) -> WarmCampaign {
        let cold = run_campaign(&campaign, &opts);
        let n = campaign.cells.len() as u64;
        ops.check(n, cold.failed() == 0 && cold.cache_hits() == 0, || {
            format!(
                "{}: cold in-process run failed or hit a cache",
                campaign.name
            )
        });
        checks::campaign_identities(&cold, ops);
        let cold_aggregate = cold.aggregated_json();
        WarmCampaign {
            campaign,
            opts,
            cold,
            cold_aggregate,
        }
    }

    fn warm_run(&self, tracer: &mut Tracer, ops: &mut Ops) -> f64 {
        let span = tracer.enter("harness.run_campaign.warm");
        let t = Instant::now();
        let r = run_campaign(&self.campaign, &self.opts);
        let dt = t.elapsed().as_secs_f64();
        tracer.exit(span);
        let span = tracer.enter("check.aggregate");
        let n = self.campaign.cells.len();
        ops.check(
            n as u64,
            r.cache_hits() == n && r.aggregated_json() == self.cold_aggregate,
            || format!("{}: warm aggregate differs from cold", self.campaign.name),
        );
        tracer.exit(span);
        dt
    }
}

// ---------------------------------------------------------------- cell_hot

pub struct CellHot {
    cfg: SystemConfig,
    traces: Vec<Trace>,
    /// Sweep order: configuration-major, as the harness grid builds it.
    cells: Vec<(usize, PrefetcherChoice)>,
    reference: Vec<String>,
    warm: WarmCampaign,
}

impl Workload for CellHot {
    fn setup(ctx: &Ctx, ops: &mut Ops) -> Result<Self, String> {
        let dir = ctx.fixture_dir();
        fixtures::write_all(&dir, ctx.seed, ctx.sizes.fixture_instrs).map_err(|e| e.to_string())?;
        let defs = fixtures::discover(&dir)?;
        let traces = defs
            .iter()
            .map(|w| w.try_trace().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let campaign = Campaign::grid("cell_hot")
            .workloads(&defs)
            .l1(PrefetcherChoice::None)
            .l1(PrefetcherChoice::IpStride)
            .l1(PrefetcherChoice::Berti)
            .opts(ctx.sizes.hot)
            .build();
        let cells = campaign
            .cells
            .iter()
            .map(|c| {
                let w = FIXTURES
                    .iter()
                    .position(|n| *n == c.workload)
                    .expect("grid cell names a fixture");
                (w, c.l1.clone())
            })
            .collect();
        // The discarded first round: the same 12 cells through the
        // harness, which also gives the reference report of every cell
        // and fills the cache the warm resubmits read.
        let cache = ctx.tmp.join("cache-hot");
        let _ = std::fs::remove_dir_all(&cache);
        let warm = WarmCampaign::cold_run(campaign, in_process_opts(&cache, Some(&dir), 1), ops);
        let reference = warm
            .cold
            .jobs
            .iter()
            .map(|j| match &j.outcome {
                berti_harness::JobOutcome::Done { report, .. } => serde::json::to_string(report),
                berti_harness::JobOutcome::Failed { error, .. } => format!("failed: {error}"),
            })
            .collect();
        checks::fixture_expectations(&warm.cold, ops);
        checks::golden(ctx, "cell_hot", &warm.cold, ops)?;
        Ok(CellHot {
            cfg: SystemConfig::default(),
            traces,
            cells,
            reference,
            warm,
        })
    }

    fn round(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Round, String> {
        let mut cold = Vec::with_capacity(self.cells.len());
        let round = tracer.enter("round");
        let sweep = tracer.enter("sweep");
        for (i, (w, l1)) in self.cells.iter().enumerate() {
            let cell = tracer.enter("cell");
            let span = tracer.enter("sim.simulate");
            let t = Instant::now();
            let report = simulate(
                &self.cfg,
                l1.clone(),
                &mut self.traces[*w],
                &self.warm.campaign.cells[i].opts,
            );
            cold.push(t.elapsed().as_secs_f64());
            tracer.exit(span);
            let span = tracer.enter("sim.report.to_json");
            let json = serde::json::to_string(&report);
            tracer.exit(span);
            let span = tracer.enter("check.report");
            ops.check(1, json == self.reference[i], || {
                format!(
                    "cell_hot: {}/{} differs from the harness report",
                    FIXTURES[*w],
                    l1.name()
                )
            });
            tracer.exit(span);
            tracer.exit(cell);
        }
        tracer.exit(sweep);
        let warm = (0..WARM_RERUNS)
            .map(|_| self.warm.warm_run(tracer, ops))
            .collect();
        tracer.exit(round);
        let first_event = vec![cold[0]];
        Ok(Round {
            cold,
            warm,
            first_event,
        })
    }

    fn cells(&self) -> (u64, u64) {
        let n = self.cells.len() as u64;
        (n, n)
    }

    fn instructions(&self) -> u64 {
        let o = self.warm.campaign.cells[0].opts;
        self.cells.len() as u64 * (o.warmup_instructions + o.sim_instructions)
    }

    fn model(&self) -> Model {
        model_of(&self.warm.cold)
    }

    fn peak_rss_mib(&self) -> f64 {
        procs::self_peak_rss_mib()
    }

    fn teardown(self, _ops: &mut Ops) {}
}

// ---------------------------------------------------------------- cell_mc4

pub struct CellMc4 {
    cfg: SystemConfig,
    opts: SimOptions,
    mix: Vec<WorkloadDef>,
    /// Per configuration, the per-core report JSON of the first round.
    reference: Vec<(PrefetcherChoice, MultiCoreReport, Vec<String>)>,
    warm: WarmCampaign,
}

fn core_jsons(r: &MultiCoreReport) -> Vec<String> {
    r.cores.iter().map(serde::json::to_string).collect()
}

impl Workload for CellMc4 {
    fn setup(ctx: &Ctx, ops: &mut Ops) -> Result<Self, String> {
        let dir = ctx.fixture_dir();
        fixtures::write_all(&dir, ctx.seed, ctx.sizes.fixture_instrs).map_err(|e| e.to_string())?;
        let mix = fixtures::discover(&dir)?;
        let cfg = SystemConfig::default();
        let opts = ctx.sizes.mc4;
        // Discarded first round; its reports are the reference every
        // measured round must reproduce byte for byte.
        let reference: Vec<_> = [PrefetcherChoice::IpStride, PrefetcherChoice::Berti]
            .into_iter()
            .map(|l1| {
                let r = simulate_multicore(&cfg, l1.clone(), None, &mix, &opts);
                for core in &r.cores {
                    checks::counter_identities(core, &cfg, &opts, ops);
                }
                ops.ok(1);
                let jsons = core_jsons(&r);
                (l1, r, jsons)
            })
            .collect();
        // The single-core grid over the same traces and lengths, for
        // the in-process all-cache-hit resubmit.
        let campaign = Campaign::grid("cell_mc4_single")
            .workloads(&mix)
            .l1(PrefetcherChoice::IpStride)
            .l1(PrefetcherChoice::Berti)
            .opts(opts)
            .build();
        let cache = ctx.tmp.join("cache-mc4");
        let _ = std::fs::remove_dir_all(&cache);
        let warm = WarmCampaign::cold_run(campaign, in_process_opts(&cache, Some(&dir), 1), ops);
        checks::golden_mc4(ctx, &reference, ops)?;
        Ok(CellMc4 {
            cfg,
            opts,
            mix,
            reference,
            warm,
        })
    }

    fn round(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Round, String> {
        let mut cold = Vec::with_capacity(2);
        let round = tracer.enter("round");
        for (l1, _, jsons) in &self.reference {
            let cell = tracer.enter("cell");
            let span = tracer.enter("sim.simulate_multicore");
            let t = Instant::now();
            let r = simulate_multicore(&self.cfg, l1.clone(), None, &self.mix, &self.opts);
            cold.push(t.elapsed().as_secs_f64());
            tracer.exit(span);
            let span = tracer.enter("sim.report.to_json");
            let got = core_jsons(&r);
            tracer.exit(span);
            let span = tracer.enter("check.report");
            ops.check(1, got == *jsons, || {
                format!("cell_mc4: {} mix differs from the first round", l1.name())
            });
            tracer.exit(span);
            tracer.exit(cell);
        }
        let warm = (0..WARM_RERUNS)
            .map(|_| self.warm.warm_run(tracer, ops))
            .collect();
        tracer.exit(round);
        let first_event = vec![cold[0]];
        Ok(Round {
            cold,
            warm,
            first_event,
        })
    }

    fn cells(&self) -> (u64, u64) {
        (2, self.warm.campaign.cells.len() as u64)
    }

    fn instructions(&self) -> u64 {
        2 * self.mix.len() as u64 * (self.opts.warmup_instructions + self.opts.sim_instructions)
    }

    fn model(&self) -> Model {
        let base = &self.reference[0].1;
        let berti = &self.reference[1].1;
        let cores: Vec<&Report> = berti.cores.iter().collect();
        let (useful, filled) = useful_and_filled(&cores);
        Model {
            berti_speedup: berti.speedup_over(base),
            berti_l1d_accuracy: useful as f64 / filled.max(1) as f64,
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        procs::self_peak_rss_mib()
    }

    fn teardown(self, _ops: &mut Ops) {}
}

// ------------------------------------------------------------ campaign_cli

pub struct CampaignCli {
    bins: Bins,
    tmp: PathBuf,
    lengths: Vec<String>,
    opts: SimOptions,
    reference: CampaignResult,
    reference_aggregate: String,
    rounds: u64,
}

impl CampaignCli {
    fn args<'a>(&'a self, cache: &'a str, out: &'a str, events: &'a str) -> Vec<&'a str> {
        let mut a = vec![
            "run", "quick", "--jobs", "2", "--cache", cache, "--out", out, "--events", events,
        ];
        a.extend(self.lengths.iter().map(String::as_str));
        a
    }
}

impl Workload for CampaignCli {
    fn setup(ctx: &Ctx, ops: &mut Ops) -> Result<Self, String> {
        // The seed does not reach this workload: the builtin generators
        // are fixed-seed inside the program. Stated, deliberate.
        let list = procs::run_cli(&ctx.bins.campaign, &["list"]).map_err(|e| e.to_string())?;
        ops.check(1, list.success, || "`campaign list` failed".to_string());
        let (opts, lengths) = match ctx.sizes.cli {
            None => (opts(100_000, 400_000), Vec::new()),
            Some(o) => (
                o,
                vec![
                    "--warmup".to_string(),
                    o.warmup_instructions.to_string(),
                    "--instr".to_string(),
                    o.sim_instructions.to_string(),
                ],
            ),
        };
        // In-process reference for `quick`, from a cold trace cache and
        // a cold result cache: the same work the CLI child does, so it
        // doubles as the discarded first round.
        berti_traces::cache::clear();
        let campaign = registry::builtin("quick", opts).expect("quick is builtin");
        let cache = ctx.tmp.join("cache-cli-ref");
        let _ = std::fs::remove_dir_all(&cache);
        let reference = run_campaign(&campaign, &in_process_opts(&cache, None, 2));
        ops.check(campaign.cells.len() as u64, reference.failed() == 0, || {
            "in-process `quick` reference failed".to_string()
        });
        checks::campaign_identities(&reference, ops);
        let reference_aggregate = reference.aggregated_json();
        Ok(CampaignCli {
            bins: ctx.bins.clone(),
            tmp: ctx.tmp.clone(),
            lengths,
            opts,
            reference,
            reference_aggregate,
            rounds: 0,
        })
    }

    fn round(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Round, String> {
        self.rounds += 1;
        let cache = self.tmp.join(format!("cache-cli-{}", self.rounds));
        let out = self.tmp.join("cli-out.json");
        let events = self.tmp.join("cli-events.jsonl");
        let (cache_s, out_s, events_s) = (
            cache.display().to_string(),
            out.display().to_string(),
            events.display().to_string(),
        );
        let args = self.args(&cache_s, &out_s, &events_s);
        let cells = self.reference.jobs.len() as u64;
        let round = tracer.enter("round");
        let mut times = Vec::with_capacity(1 + WARM_RERUNS);
        let mut first_event = Vec::new();
        for i in 0..=WARM_RERUNS {
            let _ = std::fs::remove_file(&out);
            let span = tracer.enter(if i == 0 { "cli.cold" } else { "cli.warm" });
            let child = tracer.enter("cli.spawn_to_exit");
            let run = procs::run_cli(&self.bins.campaign, &args).map_err(|e| e.to_string())?;
            tracer.exit(child);
            let child = tracer.enter("cli.read_aggregate");
            let aggregate = std::fs::read_to_string(&out).unwrap_or_default();
            tracer.exit(child);
            tracer.exit(span);
            times.push(run.wall_s);
            first_event.extend(run.first_output_s);
            let span = tracer.enter("check.aggregate");
            ops.check(
                cells,
                run.success && aggregate == self.reference_aggregate,
                || {
                    format!(
                        "campaign_cli: run {i} of round {} differs from the in-process aggregate",
                        self.rounds
                    )
                },
            );
            let cached = std::fs::read_to_string(&events)
                .unwrap_or_default()
                .matches("\"job_cache_hit\"")
                .count() as u64;
            ops.check(1, cached == if i == 0 { 0 } else { cells }, || {
                format!("campaign_cli: run {i} saw {cached} cache hits")
            });
            tracer.exit(span);
        }
        tracer.exit(round);
        let _ = std::fs::remove_dir_all(&cache);
        let warm = times.split_off(1);
        Ok(Round {
            cold: times,
            warm,
            first_event,
        })
    }

    fn cells(&self) -> (u64, u64) {
        let n = self.reference.jobs.len() as u64;
        (n, n)
    }

    fn instructions(&self) -> u64 {
        self.reference.jobs.len() as u64
            * (self.opts.warmup_instructions + self.opts.sim_instructions)
    }

    fn model(&self) -> Model {
        model_of(&self.reference)
    }

    fn peak_rss_mib(&self) -> f64 {
        procs::reaped_children_peak_rss_mib()
    }

    fn teardown(self, _ops: &mut Ops) {}
}

// --------------------------------------------------------- campaign_daemon

pub struct CampaignDaemon {
    daemon: Daemon,
    store: PathBuf,
    body: String,
    reference: CampaignResult,
    reference_aggregate: String,
    peak_rss_mib: f64,
}

/// What one submit through the daemon produced.
pub struct Submit {
    pub round_s: f64,
    pub ack_s: f64,
    pub first_event_s: f64,
    pub result_get_s: f64,
    pub aggregate: String,
    pub cache_hits: u64,
    pub failed_cells: u64,
    /// Σ `job_finished.wall_ms`.
    pub cell_wall_ms: u64,
    pub events: u64,
}

/// POST the campaign, follow its SSE stream to the end, GET the result.
/// Every HTTP exchange is an operation; the cells are accounted by the
/// caller once the aggregate is checked.
pub fn submit(
    addr: &str,
    body: &str,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Result<Submit, String> {
    let t0 = Instant::now();
    let span = tracer.enter("http.post");
    let (status, ack) =
        procs::http(addr, "POST", "/campaigns", Some(body)).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let ack_s = t0.elapsed().as_secs_f64();
    ops.check(1, status == 202, || {
        format!("POST /campaigns -> {status}: {ack}")
    });
    let id = serde::json::parse(&ack)
        .ok()
        .and_then(|v| v.get("id").and_then(|i| i.as_str()).map(str::to_string))
        .ok_or_else(|| format!("POST /campaigns returned no id: {ack}"))?;

    let mut first_event_at = None;
    let mut started: Vec<(String, Instant)> = Vec::new();
    let mut cells: Vec<(Instant, Instant)> = Vec::new();
    let (mut cache_hits, mut failed_cells, mut cell_wall_ms, mut events) = (0, 0, 0, 0);
    let stream = tracer.enter("sse.stream");
    let end = procs::sse_follow(addr, &format!("/campaigns/{id}/events"), |data, at| {
        first_event_at.get_or_insert(at);
        events += 1;
        let Ok(v) = serde::json::parse(data) else {
            return;
        };
        let key = || {
            v.get("key")
                .and_then(|k| k.as_str())
                .unwrap_or("")
                .to_string()
        };
        match v.get("event").and_then(|e| e.as_str()) {
            Some("job_started") => started.push((key(), at)),
            Some("job_finished") => {
                cell_wall_ms += v.get("wall_ms").and_then(|w| w.as_u64()).unwrap_or(0);
                let k = key();
                if let Some(i) = started.iter().position(|(s, _)| *s == k) {
                    cells.push((started.swap_remove(i).1, at));
                }
            }
            Some("campaign_finished") => {
                cache_hits = v.get("cache_hits").and_then(|c| c.as_u64()).unwrap_or(0);
                failed_cells = v.get("failed").and_then(|c| c.as_u64()).unwrap_or(0);
            }
            _ => {}
        }
    })
    .map_err(|e| e.to_string())?;
    let stream_end = Instant::now();
    // Spans observed from outside: the wait for the first event, and
    // one span per cell between its two events' arrival times.
    tracer.add(
        "sse.first_event",
        t0 + std::time::Duration::from_secs_f64(ack_s),
        first_event_at.unwrap_or(stream_end),
        stream,
    );
    for (a, b) in &cells {
        tracer.add("daemon.cell", *a, *b, stream);
    }
    tracer.exit(stream);
    ops.check(1, end == "done", || format!("campaign {id} ended `{end}`"));

    let t = Instant::now();
    let span = tracer.enter("http.result");
    let (status, aggregate) = procs::http(addr, "GET", &format!("/campaigns/{id}/result"), None)
        .map_err(|e| e.to_string())?;
    tracer.exit(span);
    ops.check(1, status == 200, || format!("GET result -> {status}"));
    Ok(Submit {
        round_s: t0.elapsed().as_secs_f64(),
        ack_s,
        first_event_s: first_event_at.map_or(f64::NAN, |at| (at - t0).as_secs_f64()),
        result_get_s: t.elapsed().as_secs_f64(),
        aggregate,
        cache_hits,
        failed_cells,
        cell_wall_ms,
        events,
    })
}

impl CampaignDaemon {
    pub fn addr(&self) -> &str {
        &self.daemon.addr
    }

    pub fn boot_s(&self) -> f64 {
        self.daemon.boot_s
    }

    pub fn cells_per_submit(&self) -> u64 {
        self.reference.jobs.len() as u64
    }

    pub fn clear_store(&self) -> Result<(), String> {
        ResultCache::open(&self.store)
            .and_then(|c| c.clear())
            .map(|_| ())
            .map_err(|e| format!("clearing the daemon store: {e}"))
    }

    /// One submit, with the aggregate and cache-hit count checked.
    pub fn checked_submit(
        &self,
        warm: bool,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Result<Submit, String> {
        let span = tracer.enter(if warm { "daemon.warm" } else { "daemon.cold" });
        let s = submit(&self.daemon.addr, &self.body, tracer, ops);
        tracer.exit(span);
        let s = s?;
        let cells = self.cells_per_submit();
        let span = tracer.enter("check.aggregate");
        ops.check(
            cells,
            s.failed_cells == 0 && s.aggregate == self.reference_aggregate,
            || "campaign_daemon: aggregate differs from the in-process / CLI aggregate".to_string(),
        );
        ops.check(1, s.cache_hits == if warm { cells } else { 0 }, || {
            format!(
                "campaign_daemon: {} cache hits on a {} submit",
                s.cache_hits,
                if warm { "warm" } else { "cold" }
            )
        });
        tracer.exit(span);
        Ok(s)
    }

    /// SIGTERM and wait for the drain; returns the drain time.
    pub fn drain(self) -> Result<f64, String> {
        self.daemon.drain()
    }
}

impl Workload for CampaignDaemon {
    fn setup(ctx: &Ctx, ops: &mut Ops) -> Result<Self, String> {
        let dir = ctx.fixture_dir();
        fixtures::write_all(&dir, ctx.seed, ctx.sizes.fixture_instrs).map_err(|e| e.to_string())?;
        let store = ctx.tmp.join("daemon-store");
        let _ = std::fs::remove_dir_all(&store);
        let daemon = Daemon::boot(&ctx.bins.serve, &store, &dir, &ctx.tmp)?;
        ops.ok(1); // /healthz

        // Reference 1: the `traces` grid in process.
        let o = ctx.sizes.daemon;
        let campaign = traces_grid(&dir, o)?;
        let cache = ctx.tmp.join("cache-daemon-ref");
        let _ = std::fs::remove_dir_all(&cache);
        let reference = run_campaign(&campaign, &in_process_opts(&cache, Some(&dir), 2));
        let cells = campaign.cells.len() as u64;
        ops.check(cells, reference.failed() == 0, || {
            "in-process `traces` reference failed".to_string()
        });
        checks::campaign_identities(&reference, ops);
        let reference_aggregate = reference.aggregated_json();
        checks::golden(ctx, "campaign_daemon", &reference, ops)?;

        // Reference 2: the same grid through the CLI, byte for byte.
        let cli_cache = ctx.tmp.join("cache-daemon-cli");
        let _ = std::fs::remove_dir_all(&cli_cache);
        let cli_out = ctx.tmp.join("daemon-cli-out.json");
        let (warmup, instr) = (
            o.warmup_instructions.to_string(),
            o.sim_instructions.to_string(),
        );
        let run = procs::run_cli(
            &ctx.bins.campaign,
            &[
                "run",
                "traces",
                "--quiet",
                "--jobs",
                "2",
                "--trace-dir",
                &dir.display().to_string(),
                "--warmup",
                &warmup,
                "--instr",
                &instr,
                "--cache",
                &cli_cache.display().to_string(),
                "--out",
                &cli_out.display().to_string(),
            ],
        )
        .map_err(|e| e.to_string())?;
        let cli_aggregate = std::fs::read_to_string(&cli_out).unwrap_or_default();
        ops.check(
            cells,
            run.success && cli_aggregate == reference_aggregate,
            || "CLI `traces` aggregate differs from the in-process aggregate".to_string(),
        );

        let body = format!(
            "{{\"builtin\":\"traces\",\"warmup\":{},\"instr\":{}}}",
            o.warmup_instructions, o.sim_instructions
        );
        let w = CampaignDaemon {
            daemon,
            store,
            body,
            reference,
            reference_aggregate,
            peak_rss_mib: 0.0,
        };
        // Discarded first round: spawns the two workers, maps the
        // fixtures in them, and proves daemon ≡ CLI ≡ in-process.
        let mut off = Tracer::new(false);
        w.clear_store()?;
        w.checked_submit(false, &mut off, ops)?;
        w.checked_submit(true, &mut off, ops)?;
        Ok(w)
    }

    fn round(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Round, String> {
        let round = tracer.enter("round");
        let span = tracer.enter("store.clear");
        self.clear_store()?;
        tracer.exit(span);
        let cold = self.checked_submit(false, tracer, ops)?;
        let mut warm = Vec::with_capacity(WARM_RERUNS);
        let mut first_event = vec![cold.first_event_s];
        for _ in 0..WARM_RERUNS {
            let s = self.checked_submit(true, tracer, ops)?;
            warm.push(s.round_s);
            first_event.push(s.first_event_s);
        }
        tracer.exit(round);
        self.peak_rss_mib = procs::tree_peak_rss_mib(self.daemon.pid());
        Ok(Round {
            cold: vec![cold.round_s],
            warm,
            first_event,
        })
    }

    fn cells(&self) -> (u64, u64) {
        let n = self.cells_per_submit();
        (n, n)
    }

    fn instructions(&self) -> u64 {
        self.reference
            .jobs
            .iter()
            .map(|j| j.spec.opts.warmup_instructions + j.spec.opts.sim_instructions)
            .sum()
    }

    fn model(&self) -> Model {
        model_of(&self.reference)
    }

    fn peak_rss_mib(&self) -> f64 {
        self.peak_rss_mib
    }

    /// Every exchange with the daemon waits out one 50 ms sleep of its
    /// accept or dispatch loop, except the few that slip in just before
    /// a sleep starts: a warm resubmit is ~150 ms with some at ~100 ms,
    /// a cold round ~200 ms with some at ~150 ms. A lower decile flips
    /// between the two values with the share of lucky rounds (seen: one
    /// run in twenty reporting 6.3 instead of 4.8 MIPS); the median
    /// does not.
    fn is_quantised(&self) -> bool {
        true
    }

    fn teardown(self, ops: &mut Ops) {
        let drained = self.drain();
        ops.check(1, drained.is_ok(), || format!("daemon drain: {drained:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two in-process workloads at `--smoke` size, seed 1: set-up,
    /// one traced round, every check including the golden file. (The
    /// campaign workloads need the release binaries; `run.sh --smoke`
    /// covers all four.)
    #[test]
    fn in_process_workloads_pass_every_check_at_smoke_size() {
        let tmp = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}", std::process::id()));
        let missing = PathBuf::from("/nonexistent");
        let ctx = Ctx {
            seed: 1,
            sizes: Sizes::smoke(),
            smoke: true,
            bins: Bins {
                campaign: missing.clone(),
                serve: missing.clone(),
                btrc: missing,
            },
            tmp: tmp.clone(),
            bless: false,
        };
        fn drive<W: Workload>(ctx: &Ctx) {
            let mut ops = Ops::default();
            let mut tracer = Tracer::new(true);
            let mut w = W::setup(ctx, &mut ops).expect("sets up");
            let round = w.round(&mut tracer, &mut ops).expect("runs");
            assert!(round.cold.iter().all(|t| *t > 0.0));
            assert_eq!(round.warm.len(), WARM_RERUNS);
            let model = w.model();
            assert!(model.berti_speedup > 1.0 && model.berti_l1d_accuracy > 0.5);
            assert!(w.instructions() > 0 && w.peak_rss_mib() > 0.0);
            w.teardown(&mut ops);
            assert_eq!(ops.failed, 0, "{:?}", ops.errors);
            assert!(ops.attempted > 0);
            assert!(crate::spans::root_coverage(tracer.spans()) >= 0.95);
        }
        drive::<CellHot>(&ctx);
        drive::<CellMc4>(&ctx);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
