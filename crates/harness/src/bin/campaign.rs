//! `campaign` — run, inspect, and clean experiment campaigns.
//!
//! ```text
//! campaign list [--trace-dir DIR]
//! campaign run <name> [--jobs N] [--cache DIR] [--no-cache]
//!                     [--events FILE] [--out FILE] [--interval N]
//!                     [--warmup N] [--instr N] [--trace-dir DIR] [--quiet]
//! campaign status <name> [--cache DIR] [--warmup N] [--instr N]
//! campaign clean [--cache DIR]
//! ```
//!
//! `run` executes a built-in campaign on the worker pool, prints a
//! per-cell summary table, and exits nonzero if any cell failed.
//! With `--trace-dir`, trace files discovered in the directory join
//! the workload registry and the trace-dir campaigns (`traces`,
//! `quick-traces`) become runnable. `list` shows every campaign and
//! every workload with its source (builtin suite or trace file path).
//! `status` shows how many of a campaign's cells are already cached.
//! The default cache directory is `results/cache/`; phase lengths
//! default to `BERTI_WARMUP` / `BERTI_INSTR` (or the harness
//! defaults), so `status` agrees with what `run` would execute.

use std::path::PathBuf;
use std::process::ExitCode;

use berti_harness::{registry, run_campaign, JobOutcome, RunOptions};
use berti_sim::SimOptions;
use berti_traces::TraceRegistry;

fn usage() -> ! {
    eprintln!(
        "usage: campaign <command> [options]\n\
         \n\
         commands:\n\
         \x20 list                     list built-in campaigns\n\
         \x20 run <name>               execute a campaign\n\
         \x20 status <name>            show cached/total cells for a campaign\n\
         \x20 clean                    delete all cached results\n\
         \n\
         options (run/status):\n\
         \x20 --jobs <N>               worker threads (default: available parallelism)\n\
         \x20 --cache <DIR>            result-cache directory (default: results/cache)\n\
         \x20 --no-cache               run without reading or writing the cache\n\
         \x20 --events <FILE>          append JSONL events to FILE\n\
         \x20 --interval <N>           emit a job_interval event every N measured\n\
         \x20                          instructions (needs --events to be captured)\n\
         \x20 --out <FILE>             write deterministic aggregated JSON to FILE\n\
         \x20 --warmup <N>             warm-up instructions (default: $BERTI_WARMUP or 100000)\n\
         \x20 --instr <N>              measured instructions (default: $BERTI_INSTR or 400000)\n\
         \x20 --trace-dir <DIR>        register trace files (.btrc, .champsimtrace[.xz|.gz])\n\
         \x20                          as workloads; enables the trace-dir campaigns\n\
         \x20 --quiet                  no stderr progress line"
    );
    std::process::exit(2)
}

struct Args {
    command: String,
    name: Option<String>,
    jobs: usize,
    cache_dir: PathBuf,
    no_cache: bool,
    events: Option<PathBuf>,
    out: Option<PathBuf>,
    interval: Option<u64>,
    warmup: Option<u64>,
    instr: Option<u64>,
    trace_dir: Option<PathBuf>,
    quiet: bool,
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2)
    })
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let mut parsed = Args {
        command,
        name: None,
        jobs: 0,
        cache_dir: PathBuf::from("results/cache"),
        no_cache: false,
        events: None,
        out: None,
        interval: None,
        warmup: None,
        instr: None,
        trace_dir: None,
        quiet: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                parsed.jobs = value(&mut args, "--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("error: --jobs needs a number");
                    std::process::exit(2)
                })
            }
            "--cache" => parsed.cache_dir = PathBuf::from(value(&mut args, "--cache")),
            "--no-cache" => parsed.no_cache = true,
            "--events" => parsed.events = Some(PathBuf::from(value(&mut args, "--events"))),
            "--out" => parsed.out = Some(PathBuf::from(value(&mut args, "--out"))),
            "--interval" => {
                parsed.interval =
                    Some(value(&mut args, "--interval").parse().unwrap_or_else(|_| {
                        eprintln!("error: --interval needs a number");
                        std::process::exit(2)
                    }))
            }
            "--warmup" => parsed.warmup = value(&mut args, "--warmup").parse().ok(),
            "--instr" => parsed.instr = value(&mut args, "--instr").parse().ok(),
            "--trace-dir" => {
                parsed.trace_dir = Some(PathBuf::from(value(&mut args, "--trace-dir")))
            }
            "--quiet" => parsed.quiet = true,
            _ if parsed.name.is_none() && !a.starts_with('-') => parsed.name = Some(a),
            _ => {
                eprintln!("error: unknown argument `{a}`");
                usage()
            }
        }
    }
    parsed
}

fn sim_options(args: &Args) -> SimOptions {
    let (env, _) = berti_harness::env_options();
    SimOptions {
        warmup_instructions: args.warmup.unwrap_or(env.warmup_instructions),
        sim_instructions: args.instr.unwrap_or(env.sim_instructions),
        ..env
    }
}

fn registry_or_exit(args: &Args) -> TraceRegistry {
    berti_harness::build_registry(args.trace_dir.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn campaign_or_exit(args: &Args, reg: &TraceRegistry) -> berti_harness::Campaign {
    let Some(name) = &args.name else {
        eprintln!("error: `{}` needs a campaign name", args.command);
        usage()
    };
    if let Some(c) = registry::builtin(name, sim_options(args)) {
        return c;
    }
    if let Some(c) = registry::trace_campaign(name, reg, sim_options(args)) {
        if c.cells.is_empty() {
            eprintln!(
                "error: campaign `{name}` runs over trace files — pass --trace-dir with \
                 .btrc/.champsimtrace files in it"
            );
            std::process::exit(2)
        }
        return c;
    }
    eprintln!("error: no campaign `{name}` (try `campaign list`)");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.command.as_str() {
        "list" => {
            let reg = registry_or_exit(&args);
            println!("built-in campaigns:");
            for (name, desc) in registry::builtin_campaigns() {
                let cells = registry::builtin(name, SimOptions::default())
                    .map(|c| c.cells.len())
                    .unwrap_or(0);
                println!("  {name:<12} {desc} [{cells} cells]");
            }
            println!("\ntrace-dir campaigns (need --trace-dir):");
            for (name, desc) in registry::trace_campaigns() {
                let cells = registry::trace_campaign(name, &reg, SimOptions::default())
                    .map(|c| c.cells.len())
                    .unwrap_or(0);
                println!("  {name:<12} {desc} [{cells} cells]");
            }
            println!("\nworkloads:");
            for w in reg.workloads() {
                println!("  {:<24} {}", w.name, w.source_desc());
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let campaign = campaign_or_exit(&args, &registry_or_exit(&args));
            let opts = RunOptions {
                jobs: args.jobs,
                cache_dir: (!args.no_cache).then(|| args.cache_dir.clone()),
                events_path: args.events.clone(),
                progress: !args.quiet,
                interval: args.interval,
                trace_dir: args.trace_dir.clone(),
            };
            let result = run_campaign(&campaign, &opts);
            println!(
                "{:<16} {:<16} {:>8} {:>9} {:>7}",
                "workload", "config", "ipc", "l1d-mpki", "cached"
            );
            for job in &result.jobs {
                match &job.outcome {
                    JobOutcome::Done { report, cached } => println!(
                        "{:<16} {:<16} {:>8.3} {:>9.2} {:>7}",
                        job.spec.workload,
                        job.spec.label(),
                        report.ipc(),
                        report.l1d_mpki(),
                        if *cached { "yes" } else { "no" }
                    ),
                    JobOutcome::Failed { error, attempts } => println!(
                        "{:<16} {:<16} FAILED after {attempts} attempts: {error}",
                        job.spec.workload,
                        job.spec.label(),
                    ),
                }
            }
            println!(
                "\n{}: {} cells, {} completed ({} cached), {} failed, {:.1}s",
                result.name,
                result.jobs.len(),
                result.completed(),
                result.cache_hits(),
                result.failed(),
                result.wall_ms as f64 / 1000.0
            );
            if let Some(out) = &args.out {
                if let Some(parent) = out.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                match std::fs::write(out, result.aggregated_json()) {
                    Ok(()) => println!("aggregated results written to {}", out.display()),
                    Err(e) => {
                        eprintln!("error: writing {}: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            if result.failed() > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "status" => {
            let campaign = campaign_or_exit(&args, &registry_or_exit(&args));
            let cache = berti_harness::ResultCache::open(&args.cache_dir).unwrap_or_else(|e| {
                eprintln!("error: opening cache {}: {e}", args.cache_dir.display());
                std::process::exit(1)
            });
            let cached = campaign
                .cells
                .iter()
                .filter(|s| cache.lookup(s).is_some())
                .count();
            println!(
                "{}: {}/{} cells cached in {}",
                campaign.name,
                cached,
                campaign.cells.len(),
                cache.dir().display()
            );
            ExitCode::SUCCESS
        }
        "clean" => {
            match berti_harness::ResultCache::open(&args.cache_dir).and_then(|c| c.clear()) {
                Ok(removed) => {
                    println!(
                        "removed {removed} cached results from {}",
                        args.cache_dir.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: cleaning {}: {e}", args.cache_dir.display());
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
