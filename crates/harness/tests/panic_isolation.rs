//! Panic isolation: a cell that panics is retried once and reported
//! failed, without taking down its siblings or the campaign.

use std::sync::atomic::{AtomicU32, Ordering};

use berti_harness::{Campaign, JobOutcome, JobSpec, RunOptions};
use berti_sim::{PrefetcherChoice, Report};

#[path = "../../traces/tests/common/mod.rs"]
mod common;
use common::TempPath;

fn campaign(workloads: &[&str]) -> Campaign {
    let mut c = Campaign::grid("panic-test");
    for w in workloads {
        c = c.workload(*w);
    }
    c.l1(PrefetcherChoice::Berti).build()
}

/// A synthetic report — the executor under test never simulates.
fn fake_report(spec: &JobSpec) -> Report {
    Report {
        workload: spec.workload.clone(),
        l1_prefetcher: spec.l1.name().to_string(),
        l2_prefetcher: None,
        prefetcher_storage_bits: 0,
        instructions: 1_000,
        cycles: 500,
        core: Default::default(),
        l1d: Default::default(),
        l2: Default::default(),
        llc: Default::default(),
        dram: Default::default(),
        flow: Default::default(),
        counts: Default::default(),
        energy: Default::default(),
    }
}

fn no_cache(jobs: usize) -> RunOptions {
    RunOptions {
        jobs,
        cache_dir: None,
        events_path: None,
        progress: false,
        ..RunOptions::default()
    }
}

#[test]
fn persistent_panic_is_retried_once_then_failed_without_killing_siblings() {
    let c = campaign(&["good-1", "always-bad", "good-2", "good-3"]);
    let attempts = AtomicU32::new(0);
    let result = berti_harness::run_campaign_with(&c, &no_cache(4), |spec| {
        if spec.workload == "always-bad" {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("synthetic failure in {}", spec.workload);
        }
        fake_report(spec)
    });

    assert_eq!(result.jobs.len(), 4);
    assert_eq!(result.completed(), 3, "siblings all complete");
    assert_eq!(result.failed(), 1);
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        2,
        "the panicking cell gets exactly one retry"
    );

    let bad = result
        .jobs
        .iter()
        .find(|j| j.spec.workload == "always-bad")
        .unwrap();
    match &bad.outcome {
        JobOutcome::Failed { error, attempts } => {
            assert_eq!(*attempts, 2);
            assert!(
                error.contains("synthetic failure in always-bad"),
                "panic message is captured, got: {error}"
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    for j in result
        .jobs
        .iter()
        .filter(|j| j.spec.workload != "always-bad")
    {
        assert!(matches!(j.outcome, JobOutcome::Done { cached: false, .. }));
    }
}

#[test]
fn transient_panic_succeeds_on_the_retry() {
    let c = campaign(&["flaky"]);
    let attempts = AtomicU32::new(0);
    let result = berti_harness::run_campaign_with(&c, &no_cache(1), |spec| {
        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient failure");
        }
        fake_report(spec)
    });
    assert_eq!(result.completed(), 1);
    assert_eq!(result.failed(), 0);
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
}

#[test]
fn failed_cells_appear_in_events_and_aggregate() {
    let c = campaign(&["good-1", "always-bad"]);
    let events_dir = TempPath::new("harness-panic");
    let events = events_dir.join("events.jsonl");
    let opts = RunOptions {
        jobs: 2,
        cache_dir: None,
        events_path: Some(events.clone()),
        progress: false,
        ..RunOptions::default()
    };
    let result = berti_harness::run_campaign_with(&c, &opts, |spec| {
        if spec.workload == "always-bad" {
            panic!("synthetic failure");
        }
        fake_report(spec)
    });
    assert_eq!(result.failed(), 1);

    let text = std::fs::read_to_string(&events).expect("event stream exists");
    let failures: Vec<serde::Value> = text
        .lines()
        .map(|l| serde::json::parse(l).expect("valid JSONL"))
        .filter(|v| v.get("event").and_then(|e| e.as_str()) == Some("job_failed"))
        .collect();
    assert_eq!(failures.len(), 2, "one event per attempt:\n{text}");
    assert_eq!(failures[0].get("attempt").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        failures[0].get("will_retry").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(failures[1].get("attempt").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        failures[1].get("will_retry").and_then(|v| v.as_bool()),
        Some(false)
    );

    // The aggregate records the failure instead of dropping the cell.
    let agg = serde::json::parse(&result.aggregated_json()).expect("aggregate parses");
    let cells = agg.get("cells").and_then(|c| c.as_array()).unwrap();
    assert_eq!(cells.len(), 2);
    assert!(cells.iter().any(|c| c.get("error").is_some()));
}

#[test]
fn invalid_config_cell_fails_its_one_job_without_running_or_retrying() {
    let mut bad = berti_types::SystemConfig::default();
    bad.l1d.mshr_entries = 0; // a zero-entry MSHR stalls every miss forever
    let c = Campaign::grid("bad-grid-cell")
        .workload("rejected")
        .workload("fine")
        .l1(PrefetcherChoice::Berti)
        .build();
    let mut c = c;
    c.cells[0].config = bad;

    let runs = AtomicU32::new(0);
    let result = berti_harness::run_campaign_with(&c, &no_cache(2), |spec| {
        runs.fetch_add(1, Ordering::SeqCst);
        fake_report(spec)
    });

    assert_eq!(runs.load(Ordering::SeqCst), 1, "only the valid cell runs");
    assert_eq!(result.completed(), 1);
    match &result.jobs[0].outcome {
        JobOutcome::Failed { error, attempts } => {
            assert_eq!(*attempts, 1, "validation failures are never retried");
            assert!(
                error.contains("mshr_entries"),
                "diagnostic names the field: {error}"
            );
        }
        other => panic!("expected a validation failure, got {other:?}"),
    }
}
