//! `benchmark selfcheck`: the A/A test. Runs the whole benchmark as two
//! independent sets on the same build and judges them by the rule a
//! later change is judged by: for every workload × end-to-end metric,
//! set B's median may not be worse than set A's by more than the
//! metric's bound, and (given enough runs to have quartiles) the
//! quartile spread of each set must stay within the bound. What it
//! measures is the benchmark's own noise floor.

use serde::Value;

use crate::catalog::END_TO_END;
use crate::estimator::{median, quartile_spread};
use crate::runner::{out_dir, spawn_run};
use crate::workloads::WORKLOADS;
use crate::Args;

/// Runs per set below which a quartile spread means nothing.
const MIN_RUNS_FOR_SPREAD: usize = 4;

struct Cell {
    workload: &'static str,
    metric: &'static str,
    a: Vec<f64>,
    b: Vec<f64>,
}

fn metric_of(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result has no `{name}`"))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let mut cells: Vec<Cell> = WORKLOADS
        .iter()
        .flat_map(|(w, _)| {
            END_TO_END.iter().map(move |m| Cell {
                workload: w,
                metric: m.name,
                a: Vec::new(),
                b: Vec::new(),
            })
        })
        .collect();
    let mut good = true;
    for set in 0..2 {
        for (workload, _) in WORKLOADS {
            for run in 0..args.runs {
                let seed = args.seed + run as u64;
                eprintln!("selfcheck: set {} {workload} seed {seed}", ["A", "B"][set]);
                let result = spawn_run(workload, seed, args.seconds, &["--trace", "0"], false)?;
                if result.get("correct").and_then(Value::as_bool) != Some(true) {
                    println!("BREACH {workload} seed {seed}: output checks failed");
                    good = false;
                }
                for c in cells.iter_mut().filter(|c| c.workload == workload) {
                    let v = metric_of(&result, c.metric)?;
                    if set == 0 { &mut c.a } else { &mut c.b }.push(v);
                }
            }
        }
    }

    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "spread A", "spread B", "bound"
    );
    let mut rows = Vec::new();
    for c in &cells {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == c.metric)
            .expect("catalogued");
        let (ma, mb) = (median(&c.a), median(&c.b));
        let worse = m.better.worsening(ma, mb);
        let spreads = (args.runs >= MIN_RUNS_FOR_SPREAD)
            .then(|| (quartile_spread(&c.a), quartile_spread(&c.b)));
        let spread_ok =
            c.metric == "setup_s" || spreads.is_none_or(|(sa, sb)| sa <= m.bound && sb <= m.bound);
        let pass = worse <= m.bound && spread_ok;
        good &= pass;
        let pct = |x: f64| format!("{:+.2} %", x * 100.0);
        let (sa, sb) = spreads.map_or(("-".to_string(), "-".to_string()), |(a, b)| {
            (pct(a), pct(b))
        });
        println!(
            "{:<16} {:<20} {:>14.6} {:>14.6} {:>9} {:>9} {:>9} {:>6.0}%  {}",
            c.workload,
            c.metric,
            ma,
            mb,
            pct(worse),
            sa,
            sb,
            m.bound * 100.0,
            if pass { "ok" } else { "BREACH" }
        );
        rows.push(Value::Object(vec![
            ("workload".to_string(), Value::Str(c.workload.to_string())),
            ("metric".to_string(), Value::Str(c.metric.to_string())),
            (
                "a".to_string(),
                Value::Array(c.a.iter().map(|v| Value::F64(*v)).collect()),
            ),
            (
                "b".to_string(),
                Value::Array(c.b.iter().map(|v| Value::F64(*v)).collect()),
            ),
            ("a_median".to_string(), Value::F64(ma)),
            ("b_median".to_string(), Value::F64(mb)),
            ("b_worse_than_a".to_string(), Value::F64(worse)),
            (
                "spread".to_string(),
                spreads.map_or(Value::Null, |(a, b)| {
                    Value::Array(vec![Value::F64(a), Value::F64(b)])
                }),
            ),
            ("bound".to_string(), Value::F64(m.bound)),
            ("ok".to_string(), Value::Bool(pass)),
        ]));
    }
    let doc = Value::Object(vec![
        ("runs_per_set".to_string(), Value::U64(args.runs as u64)),
        ("first_seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::F64(args.seconds)),
        ("rows".to_string(), Value::Array(rows)),
    ]);
    let path = out_dir().join("selfcheck.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let mut text = serde::json::to_string_pretty(&doc);
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} — table written to {}",
        if good { "A/A passed" } else { "A/A BREACHED" },
        path.display()
    );
    Ok(good)
}
