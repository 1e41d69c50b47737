//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! benchmark [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
//! benchmark all [--seed N] [--seconds S] [--traced] [--smoke] [--bless]
//! benchmark selfcheck [--runs N] [--seed N] [--seconds S]
//! benchmark describe [--markdown]
//! ```
//!
//! `run` is the contract form: one workload, one result object as the
//! last line of standard output. `benchmark/run.sh` builds everything
//! and forwards its arguments here.

mod catalog;
mod checks;
mod estimator;
mod fixtures;
mod layers;
mod procs;
mod runner;
mod selfcheck;
mod spans;
mod workloads;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub command: String,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub bless: bool,
    /// `--layers 0` skips the per-layer suite of a traced run (`all
    /// --smoke` runs it once, not once per workload).
    pub layers: bool,
    pub runs: usize,
    pub markdown: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: "run".to_string(),
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        bless: false,
        layers: true,
        runs: 1,
        markdown: false,
    };
    let mut it = argv.iter();
    let mut first = true;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, v: String| {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag} needs a non-negative number, got `{v}`"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                // Any integer is a seed; negative ones wrap.
                let v = value("--seed")?;
                a.seed = v
                    .parse::<u64>()
                    .or_else(|_| v.parse::<i64>().map(|n| n as u64))
                    .map_err(|_| format!("--seed needs an integer, got `{v}`"))?;
            }
            "--seconds" => a.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => a.trace = number("--trace", value("--trace")?)? != 0.0,
            "--layers" => a.layers = number("--layers", value("--layers")?)? != 0.0,
            "--runs" => a.runs = (number("--runs", value("--runs")?)? as usize).max(1),
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            "--markdown" => a.markdown = true,
            cmd if first && !cmd.starts_with('-') => a.command = cmd.to_string(),
            other => return Err(format!("unknown argument `{other}`")),
        }
        first = false;
    }
    if a.command == "run" && a.workload.is_none() {
        a.command = "all".to_string();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match args.command.as_str() {
        "run" => runner::run(&args),
        "all" => runner::all(&args),
        "selfcheck" => selfcheck::run(&args),
        "describe" => {
            print!(
                "{}",
                if args.markdown {
                    catalog::markdown()
                } else {
                    catalog::benchmark_json()
                }
            );
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
