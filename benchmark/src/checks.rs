//! Output checks: operation accounting, counter identities, the
//! fixtures' designed behaviour, and the seed-1 golden file.
//!
//! The model is unvalidated against hardware (the repository holds no
//! hardware reference and its traces are synthetic stand-ins), so these
//! checks gate *model identity* — the same inputs give the same
//! simulated statistics — not fidelity.

use std::path::PathBuf;

use berti_harness::{CampaignResult, JobOutcome};
use berti_sim::{MultiCoreReport, PrefetcherChoice, Report, SimOptions};
use berti_types::SystemConfig;
use serde::Value;

use crate::workloads::Ctx;

/// Attempted and failed operations. An operation is a cell or an HTTP
/// request; a cell whose checked output is wrong is failed.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Ops {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Accounts `n` operations, all failed unless `good`.
    pub fn check(&mut self, n: u64, good: bool, why: impl FnOnce() -> String) {
        self.attempted += n;
        if !good {
            self.failed += n;
            self.fail_note(why());
        }
    }

    /// A wrong output that is not itself an operation (a violated
    /// identity inside a cell already counted).
    pub fn violation(&mut self, why: String) {
        self.failed += 1;
        self.attempted += 1;
        self.fail_note(why);
    }

    fn fail_note(&mut self, why: String) {
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// Conservation laws every report of this simulator obeys (verified on
/// every fixture × prefetcher before being written down):
///
/// - the measured phase retires its budget, overshooting by less than
///   one retire group, unless the phase's cycle ceiling cut it short;
/// - every load/store the core issued is an L1D demand hit or miss;
/// - the L2 sees no more demand accesses than the L1D sent down;
/// - every DRAM read is an LLC demand or prefetch miss;
/// - L1D prefetches: useful ≤ filled ≤ issued ≤ enqueued, where
///   "useful ≤ filled" holds up to the lines prefetched during warm-up
///   and first touched after the counters were reset (at most one L1D
///   of them).
pub fn counter_identities(r: &Report, cfg: &SystemConfig, opts: &SimOptions, ops: &mut Ops) {
    let id = format!("{}/{}", r.workload, r.l1_prefetcher);
    let mut must = |good: bool, what: &str| {
        if !good {
            ops.violation(format!("{id}: {what}"));
        }
    };
    let budget = opts.sim_instructions;
    must(
        (r.instructions >= budget && r.instructions < budget + cfg.core.retire_width as u64)
            || r.cycles >= budget.saturating_mul(opts.max_cpi),
        "measured instructions are neither the budget nor cut by the cycle ceiling",
    );
    must(
        r.l1d.demand_accesses() == r.core.loads + r.core.stores,
        "L1D demand hits + misses != loads + stores issued",
    );
    must(
        r.l2.demand_accesses() <= r.l1d.demand_reads_below,
        "L2 demand accesses exceed L1D demand reads sent below",
    );
    // In a multi-core run LLC and DRAM counters are whole-system, so
    // the law still holds per report.
    must(
        r.dram.reads == r.llc.demand_reads_below + r.llc.pf_reads_below,
        "DRAM reads != LLC demand + prefetch reads sent below",
    );
    let useful = r.l1d.pf_useful_timely + r.l1d.pf_useful_late;
    let l1d_lines = (cfg.l1d.sets * cfg.l1d.ways) as u64;
    must(
        useful <= r.l1d.pf_fills + l1d_lines,
        "useful L1D prefetches exceed fills",
    );
    must(
        r.l1d.pf_fills <= r.flow.pf_issued + cfg.l1d.pq_entries as u64,
        "L1D prefetch fills exceed issues",
    );
    must(
        r.flow.pf_issued <= r.flow.pf_enqueued + cfg.l1d.pq_entries as u64,
        "prefetch issues exceed enqueues",
    );
}

/// [`counter_identities`] on every completed cell of a campaign.
pub fn campaign_identities(result: &CampaignResult, ops: &mut Ops) {
    for job in &result.jobs {
        if let JobOutcome::Done { report, .. } = &job.outcome {
            counter_identities(report, &job.spec.config, &job.spec.opts, ops);
        }
    }
}

/// What each fixture was built to show, on any seed: `t_delta` is the
/// paper's motivating case, so Berti must beat IP-stride there;
/// `t_chase` offers nothing to prefetch, so the two stay within 2 %;
/// `t_hot` fits the L1D, so nothing misses after warm-up.
pub fn fixture_expectations(hot: &CampaignResult, ops: &mut Ops) {
    let speedup = |w: &str| match (hot.report(w, "berti"), hot.report(w, "ip-stride")) {
        (Some(b), Some(i)) => b.speedup_over(i),
        _ => f64::NAN,
    };
    let delta = speedup("t_delta");
    if delta.is_nan() || delta <= 1.0 {
        ops.violation(format!("t_delta: berti speed-up {delta} is not above 1"));
    }
    let chase = speedup("t_chase");
    if chase.is_nan() || (chase - 1.0).abs() > 0.02 {
        ops.violation(format!("t_chase: berti speed-up {chase} strays from 1"));
    }
    for label in ["none", "ip-stride", "berti"] {
        let misses = hot.report("t_hot", label).map(|r| r.l1d.demand_misses());
        if misses != Some(0) {
            ops.violation(format!(
                "t_hot/{label}: {misses:?} L1D misses after warm-up"
            ));
        }
    }
}

/// The named fields the golden file pins per cell. Named fields, not
/// report bytes, so adding report fields later does not break it.
fn golden_fields(r: &Report) -> Vec<(&'static str, u64)> {
    vec![
        ("instructions", r.instructions),
        ("cycles", r.cycles),
        ("l1d_demand_misses", r.l1d.demand_misses()),
        ("l2_demand_misses", r.l2.demand_misses()),
        ("llc_demand_misses", r.llc.demand_misses()),
        ("l1d_pf_issued", r.flow.pf_issued),
        ("l1d_pf_filled", r.l1d.pf_fills),
        (
            "l1d_pf_useful",
            r.l1d.pf_useful_timely + r.l1d.pf_useful_late,
        ),
        ("l1d_pf_late", r.l1d.pf_useful_late),
        ("dram_reads", r.dram.reads),
    ]
}

type Entries = Vec<(String, Vec<(&'static str, u64)>)>;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/seed1.json")
}

/// Checks (or, with `--bless`, rewrites) the `workload` entries of the
/// golden file. Only seed 1 is pinned; full and `--smoke` lengths have
/// a section each.
fn golden_check(ctx: &Ctx, workload: &str, entries: Entries, ops: &mut Ops) -> Result<(), String> {
    if ctx.seed != 1 {
        return Ok(());
    }
    let section = if ctx.smoke { "smoke" } else { "full" };
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|_| "{}".to_string());
    let root = serde::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let prefix = format!("{workload}/");
    if ctx.bless {
        let mut sections: Vec<(String, Value)> = ["full", "smoke"]
            .iter()
            .map(|s| {
                let kept = root
                    .get(s)
                    .and_then(Value::as_object)
                    .unwrap_or(&[])
                    .to_vec();
                (s.to_string(), Value::Object(kept))
            })
            .collect();
        let target = sections
            .iter_mut()
            .find(|(s, _)| s == section)
            .expect("section listed");
        let Value::Object(cells) = &mut target.1 else {
            unreachable!("sections are objects")
        };
        cells.retain(|(k, _)| !k.starts_with(&prefix));
        cells.extend(entries.into_iter().map(|(k, fields)| {
            let fields = fields
                .into_iter()
                .map(|(n, v)| (n.to_string(), Value::U64(v)))
                .collect();
            (k, Value::Object(fields))
        }));
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = vec![("seed".to_string(), Value::U64(1))];
        out.extend(sections);
        let mut s = serde::json::to_string_pretty(&Value::Object(out));
        s.push('\n');
        std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "blessed the {section} cells of {workload} into {}",
            path.display()
        );
        return Ok(());
    }
    let pinned = root.get(section);
    for (key, fields) in entries {
        let cell = pinned.and_then(|s| s.get(&key));
        let wrong: Vec<String> = fields
            .iter()
            .filter(|(n, v)| cell.and_then(|c| c.get(n)).and_then(Value::as_u64) != Some(*v))
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        if !wrong.is_empty() {
            ops.violation(format!("golden {section}/{key}: got {}", wrong.join(" ")));
        }
    }
    Ok(())
}

/// Golden check of every cell of a single-core campaign result.
pub fn golden(
    ctx: &Ctx,
    workload: &str,
    result: &CampaignResult,
    ops: &mut Ops,
) -> Result<(), String> {
    let entries = result
        .jobs
        .iter()
        .filter_map(|j| match &j.outcome {
            JobOutcome::Done { report, .. } => Some((
                format!("{workload}/{}/{}", j.spec.workload, j.spec.label()),
                golden_fields(report),
            )),
            JobOutcome::Failed { .. } => None,
        })
        .collect();
    golden_check(ctx, workload, entries, ops)
}

/// Golden check of the per-core reports of the 4-core mixes.
pub fn golden_mc4(
    ctx: &Ctx,
    mixes: &[(PrefetcherChoice, MultiCoreReport, Vec<String>)],
    ops: &mut Ops,
) -> Result<(), String> {
    let entries = mixes
        .iter()
        .flat_map(|(l1, r, _)| {
            r.cores.iter().enumerate().map(move |(i, core)| {
                (
                    format!("cell_mc4/{}/core{i}-{}", l1.name(), core.workload),
                    golden_fields(core),
                )
            })
        })
        .collect();
    golden_check(ctx, "cell_mc4", entries, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_harness::{run_campaign_with, Campaign, RunOptions};
    use berti_traces::Trace;

    #[test]
    fn seed_one_fixtures_behave_as_designed() {
        let opts = SimOptions {
            warmup_instructions: 20_000,
            sim_instructions: 60_000,
            ..SimOptions::default()
        };
        let mut grid = Campaign::grid("seed1").opts(opts);
        for name in crate::fixtures::FIXTURES {
            grid = grid.workload(name);
        }
        let campaign = grid
            .l1(PrefetcherChoice::None)
            .l1(PrefetcherChoice::IpStride)
            .l1(PrefetcherChoice::Berti)
            .build();
        let run = RunOptions {
            jobs: 2,
            cache_dir: None,
            ..RunOptions::default()
        };
        let result = run_campaign_with(&campaign, &run, |spec| {
            let instrs = crate::fixtures::generate(&spec.workload, 1, 100_000);
            let mut trace = Trace::new(spec.workload.as_str(), instrs);
            berti_sim::simulate(&spec.config, spec.l1.clone(), &mut trace, &spec.opts)
        });
        assert_eq!(result.failed(), 0);
        let mut ops = Ops::default();
        fixture_expectations(&result, &mut ops);
        campaign_identities(&result, &mut ops);
        assert_eq!(ops.failed, 0, "{:?}", ops.errors);
        // And the checks do bite: a report from another cell breaks them.
        let mut wrong = result.report("t_delta", "berti").expect("ran").clone();
        wrong.dram.reads += 1;
        counter_identities(&wrong, &campaign.cells[0].config, &opts, &mut ops);
        assert_eq!(ops.failed, 1);
    }

    #[test]
    fn ops_count_failures_and_keep_the_first_messages() {
        let mut ops = Ops::default();
        ops.ok(3);
        ops.check(2, true, || unreachable!());
        ops.check(4, false, || "bad".to_string());
        ops.violation("worse".to_string());
        assert_eq!((ops.attempted, ops.failed), (10, 5));
        assert_eq!(ops.errors, ["bad", "worse"]);
    }
}
