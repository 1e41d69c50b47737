//! The byte-identity matrix: every way into the one simulation driver
//! (`run` in `crates/sim/src/runner.rs`) produces **byte-identical**
//! serialized reports for the same simulated system.
//!
//! A row is one simulated system: an input (a builtin workload, a slice
//! of one, or a 2-core mix) × L1D prefetcher × optional L2 prefetcher ×
//! phase budget. Its columns are the ways into `run`, each under the
//! naive and the skip-ahead engine:
//!
//! - [`Way::Direct`]: `simulate_with_engine`, or
//!   `simulate_multicore_with_engine` for a mix;
//! - [`Way::OneSlot`]: a one-workload `simulate_multicore_with_engine`
//!   (single-core *is* a one-slot mix, so the two must not be able to
//!   tell each other apart);
//! - [`Way::Sampled`]: `simulate_instrumented` with the interval
//!   sampler on, which only reads counters;
//! - [`Way::Streamed`]: a slice row's instructions streamed through the
//!   record cursor from a written `.btrc` file, against the same slice
//!   replayed from memory. The slice is shorter than a third of the
//!   run, so the cursor wraps several times;
//! - [`Way::Campaign`]: `run_campaign`, cold with one worker, then warm
//!   from its result cache with two (or the other way round, see
//!   [`check_with_jobs`]). A campaign runs its cells under
//!   `Engine::default()` (skip-ahead) only.
//!
//! Each cell is simulated once. A row does not run every column: the
//! columns rotate across rows, and every cell of a row must equal the
//! row's reference bytes — its checked-in fixture where one exists,
//! otherwise its naive `Direct` cell. Skip-ahead and partial quiescence
//! are pure scheduling (DESIGN.md §6), streaming is pure replay
//! plumbing, and sampling and the result cache only observe, so any
//! difference is a bug.
//!
//! This module is the table's machinery; its rows are split across four
//! test binaries, each row in exactly one test: `soa_layout_golden.rs`
//! (the fixture rows), `driver_matrix.rs` (three workloads × none,
//! IP-stride and Berti, whole, sliced and 2-core, and a 4-core mix
//! under IP-stride and Berti), `differential.rs`
//! (the every-prefetcher sweeps and a 2-core pair) and `determinism.rs`
//! (repeat runs and the campaign's worker count and cache temperature).
//!
//! The fixtures under `tests/fixtures/soa_golden/` were blessed before
//! the SoA cache layout and the arena queues; the `berti-page` rows
//! before the per-page prefetcher became `Berti<PerPage>`; the
//! L2-hosted (`<l1>+<l2>`) rows before the hierarchy's three cache
//! levels became one level type over a chain. They pin those rewrites
//! and every later one. Regenerate them only for a reviewed *semantic*
//! change: `BLESS_SOA_GOLDEN=1 cargo test -p berti-oracle --test soa_layout_golden`.
//!
//! Built with `--features check-invariants` (the CI oracle job), every
//! cell also runs with the assertion-grade checkers armed through the
//! whole stack: MSHR capacity, queue monotonicity, fill/miss pairing,
//! non-inclusive writebacks, delta-table watermarks, history FIFO order
//! and skip-ahead event safety.

// Each test binary compiles its own copy and uses part of it.
#![allow(dead_code)]

use std::path::PathBuf;

use berti_harness::{run_campaign, Campaign, JobOutcome, JobSpec, RunOptions};
use berti_sim::{
    simulate_instrumented, simulate_multicore_with_engine, simulate_with_engine, IntervalSample,
    Report, Sampling, SimOptions,
};
pub use berti_sim::{Engine, L2PrefetcherChoice, PrefetcherChoice};
use berti_traces::ingest::{open_streaming, workload_from_file, write_btrc};
use berti_traces::{Trace, WorkloadDef};
use berti_types::{Instr, SystemConfig};

#[path = "../../../traces/tests/common/mod.rs"]
mod common;
pub use common::TempPath;

/// Instructions in a slice row.
pub const SLICE: usize = 20_000;

/// The fixture rows' budget (warm-up, measured instructions); the
/// [`WORKLOADS`] rows use it too.
pub const FIXTURE: (u64, u64) = (10_000, 60_000);
/// The 2-core mixes' budget, with or without a fixture.
pub const MIX: (u64, u64) = (5_000, 30_000);
/// The every-prefetcher sweeps' budget.
pub const SWEEP: (u64, u64) = (2_000, 8_000);

/// The columns rows rotate through. A row without a fixture already
/// has its naive `Direct` cell as the reference, so it takes its naive
/// cell from the first two only.
pub const NAIVE_WAYS: [Way; 3] = [Way::OneSlot, Way::Sampled, Way::Direct];
pub const SKIP_WAYS: [Way; 4] = [Way::Direct, Way::OneSlot, Way::Sampled, Way::Campaign];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Way {
    Direct,
    OneSlot,
    Sampled,
    Streamed,
    Campaign,
}

pub enum Input {
    Workload(WorkloadDef),
    /// The first [`SLICE`] instructions of a workload.
    Slice(WorkloadDef),
    Mix(Vec<WorkloadDef>),
}

pub struct Row {
    input: Input,
    l1: PrefetcherChoice,
    l2: Option<L2PrefetcherChoice>,
    opts: SimOptions,
    /// File stem under `tests/fixtures/soa_golden/`: the cell under
    /// engine `e` must equal `<stem>-<e>.json` (`<stem>-<e>-core<i>.json`
    /// for a mix). Without one, the reference is the naive `Direct`
    /// cell.
    fixture: Option<String>,
    cells: Vec<(Way, Engine)>,
}

impl Row {
    pub fn new(input: Input, l1: PrefetcherChoice, (warmup, sim): (u64, u64)) -> Self {
        Row {
            input,
            l1,
            l2: None,
            opts: SimOptions {
                warmup_instructions: warmup,
                sim_instructions: sim,
                ..SimOptions::default()
            },
            fixture: None,
            cells: Vec::new(),
        }
    }

    pub fn workload(name: &str, l1: PrefetcherChoice, budget: (u64, u64)) -> Self {
        Row::new(Input::Workload(workload(name)), l1, budget)
    }

    pub fn l2(mut self, l2: L2PrefetcherChoice) -> Self {
        self.l2 = Some(l2);
        self
    }

    pub fn fixture(mut self, stem: String) -> Self {
        self.fixture = Some(stem);
        self
    }

    pub fn cell(mut self, way: Way, engine: Engine) -> Self {
        self.cells.push((way, engine));
        self
    }

    /// Adds the `i`-th row's naive and skip-ahead cells, so that
    /// consecutive rows cover different columns.
    pub fn rotated(self, i: usize) -> Self {
        let naive = NAIVE_WAYS[i % if self.fixture.is_some() { 3 } else { 2 }];
        self.cell(naive, Engine::Naive)
            .cell(SKIP_WAYS[i % 4], Engine::SkipAhead)
    }

    fn name(&self) -> String {
        let input = match &self.input {
            Input::Workload(w) => w.name.clone(),
            Input::Slice(w) => format!("{}[..{SLICE}]", w.name),
            Input::Mix(ws) => ws
                .iter()
                .map(|w| w.name.as_str())
                .collect::<Vec<_>>()
                .join("|"),
        };
        let l2 = self
            .l2
            .map_or(String::new(), |l2| format!("+{}", l2.name()));
        let o = &self.opts;
        let (warm, sim) = (o.warmup_instructions, o.sim_instructions);
        format!("{input} {}{l2} {warm}+{sim}", self.l1.name())
    }

    fn whole(&self) -> &WorkloadDef {
        match &self.input {
            Input::Workload(w) => w,
            _ => panic!("{}: only a whole workload has this column", self.name()),
        }
    }

    fn cores(&self) -> usize {
        match &self.input {
            Input::Mix(mix) => mix.len(),
            _ => 1,
        }
    }

    fn spec(&self) -> JobSpec {
        JobSpec {
            workload: self.whole().name.clone(),
            l1: self.l1.clone(),
            l2: self.l2,
            opts: self.opts,
            config: SystemConfig::default(),
        }
    }

    /// Simulates one cell of any column but [`Way::Campaign`].
    fn simulate(&self, way: Way, engine: Engine) -> Vec<String> {
        let cfg = SystemConfig::default();
        let (l1, l2, opts) = (&self.l1, self.l2, &self.opts);
        let single = |mut trace: Trace| {
            vec![simulate_with_engine(
                &cfg,
                l1.clone(),
                l2,
                &mut trace,
                opts,
                engine,
            )]
        };
        let reports = match (way, &self.input) {
            (Way::Direct, Input::Workload(w)) => single(w.trace()),
            (Way::Direct, Input::Slice(w)) => single(Trace::new(w.name.clone(), slice(w))),
            (Way::Direct, Input::Mix(mix)) => {
                simulate_multicore_with_engine(&cfg, l1.clone(), l2, mix, opts, engine).cores
            }
            (Way::OneSlot, _) => {
                let lone = std::slice::from_ref(self.whole());
                simulate_multicore_with_engine(&cfg, l1.clone(), l2, lone, opts, engine).cores
            }
            (Way::Sampled, _) => vec![self.sampled(engine)],
            (Way::Streamed, Input::Slice(w)) => {
                assert!(SLICE as u64 * 3 < opts.warmup_instructions + opts.sim_instructions);
                let path = TempPath::new(&format!("matrix-{}-{}.btrc", w.name, l1.name()));
                write_btrc(&path, &slice(w)).expect("writes");
                let stream = open_streaming(&path).expect("opens");
                single(Trace::from_stream(w.name.clone(), stream).expect("primes"))
            }
            (way, _) => panic!("{}: no {way:?} cell for this input", self.name()),
        };
        assert_eq!(
            reports.len(),
            self.cores(),
            "{}: a report a core",
            self.name()
        );
        for r in &reports {
            assert!(
                r.instructions >= opts.sim_instructions && r.cycles > 0,
                "{}: the cell simulated its budget",
                self.name()
            );
        }
        reports.iter().map(serde::json::to_string).collect()
    }

    fn sampled(&self, engine: Engine) -> Report {
        let mut samples: Vec<IntervalSample> = Vec::new();
        let mut sink = |s| samples.push(s);
        let report = simulate_instrumented(
            &SystemConfig::default(),
            self.l1.clone(),
            self.l2,
            &mut self.whole().trace(),
            &self.opts,
            engine,
            Some(Sampling {
                interval: self.opts.sim_instructions / 4,
                sink: &mut sink,
            }),
        );
        assert!(samples.len() >= 3, "got {} samples", samples.len());
        let last = samples.last().expect("sampled");
        assert!(last.instructions <= report.instructions && last.ipc > 0.0);
        // Cumulative columns are monotone.
        for pair in samples.windows(2) {
            assert!(pair[1].instructions > pair[0].instructions);
            assert!(pair[1].cycles >= pair[0].cycles);
        }
        report
    }

    /// The fixture bytes of the row's cell under `engine`, first
    /// overwritten with `bless` when that is given.
    fn fixture_bytes(&self, stem: &str, engine: Engine, bless: Option<&[String]>) -> Vec<String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/soa_golden");
        let engine = match engine {
            Engine::Naive => "naive",
            Engine::SkipAhead => "skip",
        };
        let paths: Vec<PathBuf> = match &self.input {
            Input::Mix(mix) => (0..mix.len())
                .map(|core| dir.join(format!("{stem}-{engine}-core{core}.json")))
                .collect(),
            _ => vec![dir.join(format!("{stem}-{engine}.json"))],
        };
        for (path, bytes) in paths.iter().zip(bless.unwrap_or_default()) {
            std::fs::write(path, bytes).expect("writable fixture");
        }
        let read = |p: &PathBuf| {
            std::fs::read_to_string(p)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", p.display()))
        };
        paths.iter().map(read).collect()
    }
}

/// The first [`SLICE`] instructions of `w`.
fn slice(w: &WorkloadDef) -> Vec<Instr> {
    let mut trace = w.trace();
    (0..SLICE).map(|_| trace.next_instr()).collect()
}

/// `instrs` written to a temp `.btrc` file, as a file-backed workload
/// replayed through the record cursor (the form the benchmark's
/// fixtures take). The file lives as long as the returned path.
pub fn file_workload(name: &str, instrs: &[Instr]) -> (WorkloadDef, TempPath) {
    let path = TempPath::new(&format!("matrix-{name}.btrc"));
    write_btrc(&path, instrs).expect("writes");
    (workload_from_file(name, path.to_path_buf()), path)
}

pub fn workload(name: &str) -> WorkloadDef {
    berti_traces::memory_intensive_suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} exists"))
}

/// Runs the rows' campaign cells as one campaign: cold with `cold`
/// workers into a fresh result cache, then warm with `warm`, every cell
/// a cache hit. Returns each cell's cold and warm report, in row order.
fn campaign_cells(group: &str, rows: &[Row], [cold, warm]: [usize; 2]) -> Vec<[String; 2]> {
    let cells: Vec<JobSpec> = rows
        .iter()
        .flat_map(|row| row.cells.iter().map(move |cell| (row, cell)))
        .filter(|(_, (way, _))| *way == Way::Campaign)
        .map(|(row, &(_, engine))| {
            assert_eq!(
                engine,
                Engine::default(),
                "a campaign runs the default engine"
            );
            row.spec()
        })
        .collect();
    if cells.is_empty() {
        return Vec::new();
    }
    let n = cells.len();
    let campaign = Campaign {
        name: format!("matrix-{group}"),
        cells,
    };
    let cache = TempPath::new(&format!("matrix-{group}"));
    let run = |jobs| {
        let opts = RunOptions {
            jobs,
            cache_dir: Some(cache.to_path_buf()),
            events_path: None,
            progress: false,
            interval: None,
            trace_dir: None,
        };
        run_campaign(&campaign, &opts)
    };
    let (cold, warm) = (run(cold), run(warm));
    assert_eq!(
        (cold.completed(), cold.cache_hits()),
        (n, 0),
        "cold simulates"
    );
    assert_eq!(
        (warm.completed(), warm.cache_hits()),
        (n, n),
        "warm replays"
    );
    assert_eq!(
        cold.aggregated_json(),
        warm.aggregated_json(),
        "cache replay and worker count change no byte of the aggregate"
    );
    let report = |outcome: &JobOutcome| match outcome {
        JobOutcome::Done { report, .. } => serde::json::to_string(report),
        JobOutcome::Failed { error, .. } => panic!("campaign cell failed: {error}"),
    };
    cold.jobs
        .iter()
        .zip(&warm.jobs)
        .map(|(c, w)| [report(&c.outcome), report(&w.outcome)])
        .collect()
}

/// Checks every cell of every row against its row's reference; the
/// campaign cells run cold with one worker, then warm with two.
pub fn check(group: &str, rows: &[Row]) {
    check_with_jobs(group, rows, [1, 2]);
}

/// [`check`], with the campaign cells run cold with `jobs[0]` workers
/// and warm with `jobs[1]`.
pub fn check_with_jobs(group: &str, rows: &[Row], jobs: [usize; 2]) {
    let mut campaign = campaign_cells(group, rows, jobs).into_iter();
    let bless = std::env::var_os("BLESS_SOA_GOLDEN").is_some();
    for row in rows {
        let reference = row
            .fixture
            .is_none()
            .then(|| row.simulate(Way::Direct, Engine::Naive));
        for &(way, engine) in &row.cells {
            let got: Vec<Vec<String>> = match way {
                Way::Campaign => {
                    let [cold, warm] = campaign.next().expect("a report a campaign cell");
                    vec![vec![cold], vec![warm]]
                }
                _ => vec![row.simulate(way, engine)],
            };
            let expected = match (&reference, &row.fixture) {
                (Some(reference), _) => reference.clone(),
                (None, Some(stem)) => {
                    row.fixture_bytes(stem, engine, bless.then(|| got[0].as_slice()))
                }
                (None, None) => unreachable!("a row without a fixture has a reference"),
            };
            for got in got {
                assert!(
                    got == expected,
                    "{}: the {way:?} cell under {engine:?} differs from the row's reference",
                    row.name()
                );
            }
        }
    }
}
