//! Runs one workload — set-up, measured rounds, checks — and turns the
//! rounds into the metrics of the catalogue.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use serde::Value;

use crate::catalog::{self, END_TO_END};
use crate::checks::Ops;
use crate::estimator::{median, p10, Summary};
use crate::layers;
use crate::procs::Bins;
use crate::spans::{self, Tracer};
use crate::workloads::{
    CampaignCli, CampaignDaemon, CellHot, CellMc4, Ctx, Round, Sizes, Workload, WORKLOADS,
};
use crate::Args;

/// Set-up is repeated and its median reported, so that work moved into
/// set-up shows and one slow start does not.
const SETUP_REPS: usize = 3;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where span files and selfcheck tables go.
pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

/// The scratch directory of this run: `$BENCH_TMP` when `run.sh` made
/// one (it removes it on exit, whatever happens to this process),
/// otherwise a directory of our own under `benchmark/out/`.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let parent = std::env::var_os("BENCH_TMP").map_or_else(out_dir, PathBuf::from);
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The measured rounds of one pass.
struct Pass {
    rounds: Vec<Round>,
}

impl Pass {
    fn measure<W: Workload>(
        w: &mut W,
        seconds: f64,
        max_rounds: usize,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Result<Pass, String> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty()
            || (start.elapsed().as_secs_f64() < seconds && rounds.len() < max_rounds)
        {
            tracer.set_round(rounds.len() as u64);
            rounds.push(w.round(tracer, ops)?);
        }
        Ok(Pass { rounds })
    }

    /// Seconds of a cold round: the estimate per cell kind, summed.
    fn cold_s(&self, estimate: fn(&[f64]) -> f64) -> f64 {
        let kinds = self.rounds[0].cold.len();
        (0..kinds)
            .map(|k| estimate(&self.rounds.iter().map(|r| r.cold[k]).collect::<Vec<_>>()))
            .sum()
    }

    /// Whole cold rounds, for the printed summary.
    fn cold_totals(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.cold.iter().sum()).collect()
    }

    fn warm(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.warm.iter().copied())
            .collect()
    }

    fn first_event(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.first_event.iter().copied())
            .filter(|x| x.is_finite())
            .collect()
    }
}

/// One workload's result: every metric by name, plus what is printed
/// beside them.
pub struct Outcome {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
    pub ops: Ops,
    notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The contract's result object.
    fn result_json(&self, info: &[Info]) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                let unit = info.iter().find(|m| m.name == *name).map_or("", |m| m.unit);
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(v)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        serde::json::to_string(&Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::U64(self.ops.attempted.max(1)),
            ),
            ("failed".to_string(), Value::U64(self.ops.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
    }
}

fn summary_note(label: &str, unit: &str, scale: f64, samples: &[f64]) -> String {
    let s = Summary::of(samples);
    format!(
        "  {label:<22} n={:<4} min {:.4}  p10 {:.4}  median {:.4}  p90 {:.4} {unit}",
        s.n,
        s.min * scale,
        s.p10 * scale,
        s.median * scale,
        s.p90 * scale
    )
}

/// The host-time estimator of a workload: the lower decile, or the
/// median where poll quanta set the times.
fn estimator_of<W: Workload>(w: &W) -> fn(&[f64]) -> f64 {
    if w.is_quantised() {
        median
    } else {
        p10
    }
}

fn end_to_end<W: Workload>(w: &W, pass: &Pass, setup_s: f64) -> Vec<(String, f64)> {
    let (cold_cells, warm_cells) = w.cells();
    let estimate = estimator_of(w);
    let cold = pass.cold_s(estimate);
    let model = w.model();
    let values = [
        ("setup_s", setup_s),
        ("sim_mips", w.instructions() as f64 / cold / 1e6),
        ("cells_per_s", cold_cells as f64 / cold),
        (
            "warm_cells_per_s",
            warm_cells as f64 / estimate(&pass.warm()),
        ),
        ("first_event_ms", estimate(&pass.first_event()) * 1e3),
        ("peak_rss_mib", w.peak_rss_mib()),
        ("berti_speedup", model.berti_speedup),
        ("berti_l1d_accuracy", model.berti_l1d_accuracy),
    ];
    debug_assert_eq!(values.len(), END_TO_END.len());
    values.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

fn run_workload<W: Workload>(ctx: &Ctx, args: &Args, name: &str) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut notes = Vec::new();

    // Set-up, repeated; the last instance is the one measured.
    let reps = if args.trace || ctx.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut setups = Vec::with_capacity(reps);
    let mut instance: Option<W> = None;
    for _ in 0..reps {
        if let Some(previous) = instance.take() {
            previous.teardown(&mut ops);
        }
        let t = Instant::now();
        instance = Some(W::setup(ctx, &mut ops)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = instance.expect("set up at least once");
    let setup_s = median(&setups);
    notes.push(summary_note("setup", "s", 1.0, &setups));

    let max_rounds = if ctx.smoke { 1 } else { usize::MAX };
    let mut off = Tracer::new(false);
    let metrics = if !args.trace {
        let pass = Pass::measure(&mut w, args.seconds, max_rounds, &mut off, &mut ops)?;
        notes.push(summary_note("cold round", "s", 1.0, &pass.cold_totals()));
        notes.push(summary_note("warm resubmit", "ms", 1e3, &pass.warm()));
        notes.push(summary_note("first event", "ms", 1e3, &pass.first_event()));
        let metrics = end_to_end(&w, &pass, setup_s);
        w.teardown(&mut ops);
        metrics
    } else {
        // A quarter of the rounds untraced, a quarter traced; `--smoke`
        // runs its single round traced.
        let quarter = args.seconds / 4.0;
        let mut tracer = Tracer::new(true);
        let (plain, traced) = if ctx.smoke {
            (None, Pass::measure(&mut w, 0.0, 1, &mut tracer, &mut ops)?)
        } else {
            let plain = Pass::measure(&mut w, quarter, max_rounds, &mut off, &mut ops)?;
            (
                Some(plain),
                Pass::measure(&mut w, quarter, max_rounds, &mut tracer, &mut ops)?,
            )
        };
        let reference = plain.as_ref().unwrap_or(&traced);
        notes.push(summary_note(
            "cold round (untraced)",
            "s",
            1.0,
            &reference.cold_totals(),
        ));
        notes.push(summary_note(
            "cold round (traced)",
            "s",
            1.0,
            &traced.cold_totals(),
        ));
        for (n, v) in end_to_end(&w, reference, setup_s) {
            notes.push(format!(
                "  {n:<22} {v:.6} (untraced quarter pass; not a result of this run)"
            ));
        }
        let estimate = estimator_of(&w);
        w.teardown(&mut ops);

        let file = out_dir().join(format!("trace-{name}.json"));
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&file, tracer.to_json(name))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let coverage = spans::root_coverage(tracer.spans());
        notes.push(format!(
            "  {} spans -> {} (children cover {:.1} % of the rounds)",
            tracer.spans().len(),
            file.display(),
            coverage * 100.0
        ));
        for t in spans::totals_by_name(tracer.spans()) {
            notes.push(format!(
                "    {:<28} x{:<5} total {:>10.3} ms  self {:>10.3} ms",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        if coverage < 0.95 {
            ops.violation(format!(
                "{name}: spans cover only {:.1} % of the rounds",
                coverage * 100.0
            ));
        }

        let mut metrics = if args.layers {
            layers::run(ctx, &mut ops)?
        } else {
            Vec::new()
        };
        let plain_s = reference.cold_s(estimate);
        let overhead = (traced.cold_s(estimate) - plain_s) / plain_s * 100.0;
        metrics.push(("bench.trace_overhead_pct".to_string(), overhead));
        metrics.push((
            "bench.host.slow_mode_share".to_string(),
            Summary::slow_share(&reference.cold_totals()),
        ));
        metrics.push(("bench.rounds".to_string(), reference.rounds.len() as f64));
        if args.layers {
            // Exactly the catalogue's names, in its order.
            let mut ordered = Vec::with_capacity(metrics.len());
            for m in catalog::per_layer() {
                match metrics.iter().find(|(n, _)| *n == m.name) {
                    Some(found) => ordered.push(found.clone()),
                    None => return Err(format!("layer suite produced no `{}`", m.name)),
                }
            }
            if ordered.len() != metrics.len() {
                return Err("layer suite produced metrics outside the catalogue".to_string());
            }
            metrics = ordered;
        }
        metrics
    };
    Ok(Outcome {
        workload: name.to_string(),
        metrics,
        ops,
        notes,
    })
}

/// Unit, direction and bound (end-to-end only) of every metric.
struct Info {
    name: String,
    unit: &'static str,
    better: catalog::Better,
    bound: Option<f64>,
}

fn catalogue() -> Vec<Info> {
    let e2e = END_TO_END.iter().map(|m| Info {
        name: m.name.to_string(),
        unit: m.unit,
        better: m.better,
        bound: Some(m.bound),
    });
    let layers = catalog::per_layer().into_iter().map(|m| Info {
        name: m.name,
        unit: m.unit,
        better: m.better,
        bound: None,
    });
    e2e.chain(layers).collect()
}

fn print_outcome(o: &Outcome, args: &Args, info: &[Info]) {
    println!(
        "== {} (seed {}, {} s{}{}) ==",
        o.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        if args.smoke { ", smoke" } else { "" }
    );
    for n in &o.notes {
        println!("{n}");
    }
    for (name, v) in &o.metrics {
        let m = info.iter().find(|m| m.name == *name).expect("catalogued");
        let bound = m.bound.map_or("no bound".to_string(), |b| {
            format!("bound {:.0} %", b * 100.0)
        });
        println!(
            "  {name:<46} {v:>16.6} {:<6} {} is better, {bound}",
            m.unit,
            m.better.as_str()
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}  failed_share {}  correct {}",
        o.ops.attempted,
        o.ops.failed,
        o.ops.failed as f64 / o.ops.attempted.max(1) as f64,
        o.correct()
    );
    for e in &o.ops.errors {
        println!("  CHECK FAILED: {e}");
    }
}

/// `benchmark run --workload W ...`: the contract form. Prints the
/// result object as the last line of standard output.
pub fn run(args: &Args) -> Result<bool, String> {
    catalog::validate()?;
    let name = args.workload.as_deref().expect("run has a workload");
    if !WORKLOADS.iter().any(|w| w.0 == name) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "no workload `{name}` (known: {})",
            known.join(", ")
        ));
    }
    let scratch = Scratch::new()?;
    let ctx = Ctx {
        seed: args.seed,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        smoke: args.smoke,
        bins: Bins::locate()?,
        tmp: scratch.dir.clone(),
        bless: args.bless,
    };
    let outcome = match name {
        "cell_hot" => run_workload::<CellHot>(&ctx, args, name),
        "cell_mc4" => run_workload::<CellMc4>(&ctx, args, name),
        "campaign_cli" => run_workload::<CampaignCli>(&ctx, args, name),
        "campaign_daemon" => run_workload::<CampaignDaemon>(&ctx, args, name),
        _ => unreachable!("checked against WORKLOADS"),
    }?;
    let info = catalogue();
    print_outcome(&outcome, args, &info);
    println!("{}", outcome.result_json(&info));
    Ok(true)
}

/// Spawns this executable for one workload; returns its result object.
pub fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    extra: &[&str],
    echo: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(extra)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.trim_end().lines().last().unwrap_or("");
    if echo {
        let shown = stdout.trim_end().strip_suffix(last).unwrap_or(&stdout);
        print!("{shown}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    serde::json::parse(last).map_err(|e| format!("{workload}: no result object ({e})"))
}

/// `benchmark all`: every workload, each in a process of its own (peak
/// memory is per process), untraced and — with `--traced` — traced.
/// `--smoke` runs one traced round per workload and the layer suite
/// once.
pub fn all(args: &Args) -> Result<bool, String> {
    catalog::validate()?;
    let mut good = true;
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        let layers = if i == 0 { "1" } else { "0" };
        let passes = if args.smoke {
            vec![vec!["--trace", "1", "--smoke", "--layers", layers]]
        } else if args.trace {
            vec![vec!["--trace", "0"], vec!["--trace", "1"]]
        } else {
            vec![vec!["--trace", "0"]]
        };
        for mut extra in passes {
            if args.bless {
                extra.push("--bless");
            }
            let result = spawn_run(name, args.seed, args.seconds, &extra, true)?;
            good &= result.get("correct").and_then(Value::as_bool) == Some(true);
        }
    }
    println!(
        "{}",
        if good {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(good)
}
