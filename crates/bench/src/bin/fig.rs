//! `fig` — regenerates the paper's tables and figures.
//!
//! ```text
//! fig list                         the ids of the figure table
//! fig <id>...                      print those rows
//! fig all                          print every paper row, in paper order
//! fig fig_real_traces --trace-dir DIR [--out results.json]
//! ```
//!
//! More than one row prints each behind an `== <id> ==` line. Run
//! lengths and the campaign engine follow the `BERTI_*` environment
//! variables (see `berti_harness::env_options`).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use berti_bench::{Figure, Run, FIGURES};

fn usage(msg: &str) -> ExitCode {
    eprintln!("fig: {msg}");
    eprintln!("usage: fig list | all | <id>... [--trace-dir DIR] [--out results.json]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut figures: Vec<&Figure> = Vec::new();
    let mut trace_dir: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut stdout = std::io::stdout().lock();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-dir" => trace_dir = args.next().map(PathBuf::from),
            "--out" => json_out = args.next().map(PathBuf::from),
            "list" => {
                for f in FIGURES {
                    let _ = writeln!(stdout, "{}", f.id);
                }
                return ExitCode::SUCCESS;
            }
            "all" => figures.extend(FIGURES.iter().filter(|f| matches!(f.run, Run::Paper(_)))),
            id => match Figure::by_id(id) {
                Some(f) => figures.push(f),
                None => return usage(&format!("no figure `{id}` (try `fig list`)")),
            },
        }
    }
    if figures.is_empty() {
        return usage("name at least one figure");
    }
    if trace_dir.is_none() && figures.iter().any(|f| matches!(f.run, Run::Traces(_))) {
        return usage("--trace-dir is required");
    }

    let (sim, run) = berti_harness::env_options();
    for f in &figures {
        let printed = f
            .render(sim, &run, trace_dir.as_deref(), json_out.as_deref())
            .and_then(|text| {
                if figures.len() > 1 {
                    writeln!(stdout, "== {} ==", f.id)?;
                }
                stdout.write_all(text.as_bytes())
            });
        if let Err(e) = printed {
            eprintln!("fig: {}: {e}", f.id);
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
