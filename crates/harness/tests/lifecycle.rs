//! The cell lifecycle, pinned: `run_cell` driven with a scripted
//! attempt closure and an in-memory `ResultStore`, one table row per
//! path through precheck → store → attempt → classify → retry →
//! publish. Each row fixes the exact event sequence, the `JobResult`,
//! how many attempts ran, and whether the store gained an entry — for
//! every front end at once, because the CLI pool and the `berti-serve`
//! scheduler both run this function and only plug in the attempt.

use std::collections::BTreeMap;
use std::sync::Mutex;

use berti_harness::{
    build_registry, run_cell, Attempt, CachedResult, Campaign, Event, JobOutcome, JobSpec,
    ResultStore, RunOptions, MAX_ATTEMPTS,
};
use berti_sim::{PrefetcherChoice, Report, SimOptions};
use berti_traces::TraceRegistry;
use berti_types::SystemConfig;

#[derive(Default)]
struct MemStore(Mutex<BTreeMap<String, CachedResult>>);

impl ResultStore for MemStore {
    fn get(&self, key: &str) -> Option<CachedResult> {
        self.0.lock().expect("store poisoned").get(key).cloned()
    }

    fn put(&self, key: &str, entry: &CachedResult) -> std::io::Result<()> {
        let mut entries = self.0.lock().expect("store poisoned");
        entries.insert(key.to_string(), entry.clone());
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.0
            .lock()
            .expect("store poisoned")
            .keys()
            .cloned()
            .collect()
    }

    fn clear(&self) -> std::io::Result<usize> {
        let mut entries = self.0.lock().expect("store poisoned");
        let n = entries.len();
        entries.clear();
        Ok(n)
    }
}

fn spec(workload: &str) -> JobSpec {
    JobSpec {
        workload: workload.to_string(),
        l1: PrefetcherChoice::Berti,
        l2: None,
        opts: SimOptions::default(),
        config: SystemConfig::default(),
    }
}

/// A synthetic report — the scripted attempts never simulate.
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

/// The part of an event the lifecycle decides (wall-clock fields of
/// `job_finished` are not pinned).
fn shape(event: &Event) -> String {
    match event {
        Event::JobStarted { .. } => "started".to_string(),
        Event::JobCacheHit { .. } => "cache_hit".to_string(),
        Event::JobFinished { .. } => "finished".to_string(),
        Event::JobFailed {
            attempt,
            will_retry,
            ..
        } => format!("failed({attempt}, will_retry={will_retry})"),
        other => format!("unexpected {other:?}"),
    }
}

/// What one scripted attempt answers.
#[derive(Clone, Copy)]
enum Step {
    Report,
    Fatal,
    Retryable,
}

enum Expect {
    Done {
        cached: bool,
    },
    Failed {
        attempts: u32,
        error_has: &'static str,
    },
}

struct Case {
    name: &'static str,
    spec: JobSpec,
    registry: Result<TraceRegistry, String>,
    prefilled: bool,
    script: &'static [Step],
    events: &'static [&'static str],
    expect: Expect,
    stored_after: bool,
}

#[test]
fn every_path_through_the_lifecycle_is_pinned() {
    assert_eq!(MAX_ATTEMPTS, 2, "the table below scripts two attempts");
    let builtin = || Ok(TraceRegistry::builtin());
    let mut rejected = spec("lbm-like");
    rejected.config.l1d.mshr_entries = 0;
    let missing_dir = std::env::temp_dir().join("berti-lifecycle-no-such-trace-dir");

    let cases = [
        Case {
            name: "rejected options",
            spec: rejected,
            registry: builtin(),
            prefilled: false,
            script: &[],
            events: &["failed(1, will_retry=false)"],
            expect: Expect::Failed {
                attempts: 1,
                error_has: "mshr_entries",
            },
            stored_after: false,
        },
        Case {
            name: "unknown workload",
            spec: spec("lbm-lik"),
            registry: builtin(),
            prefilled: false,
            script: &[],
            events: &["failed(1, will_retry=false)"],
            expect: Expect::Failed {
                attempts: 1,
                error_has: "unknown workload `lbm-lik` — did you mean lbm-like",
            },
            stored_after: false,
        },
        Case {
            name: "unreadable trace dir rejects every cell",
            spec: spec("lbm-like"),
            registry: build_registry(Some(&missing_dir)),
            prefilled: false,
            script: &[],
            events: &["failed(1, will_retry=false)"],
            expect: Expect::Failed {
                attempts: 1,
                error_has: "berti-lifecycle-no-such-trace-dir",
            },
            stored_after: false,
        },
        Case {
            name: "store hit",
            spec: spec("lbm-like"),
            registry: builtin(),
            prefilled: true,
            script: &[],
            events: &["cache_hit"],
            expect: Expect::Done { cached: true },
            stored_after: true,
        },
        Case {
            name: "first-try success",
            spec: spec("lbm-like"),
            registry: builtin(),
            prefilled: false,
            script: &[Step::Report],
            events: &["started", "finished"],
            expect: Expect::Done { cached: false },
            stored_after: true,
        },
        Case {
            name: "fatal",
            spec: spec("lbm-like"),
            registry: builtin(),
            prefilled: false,
            script: &[Step::Fatal],
            events: &["started", "failed(1, will_retry=false)"],
            expect: Expect::Failed {
                attempts: 1,
                error_has: "scripted fatal",
            },
            stored_after: false,
        },
        Case {
            name: "retry then success",
            spec: spec("lbm-like"),
            registry: builtin(),
            prefilled: false,
            script: &[Step::Retryable, Step::Report],
            events: &["started", "failed(1, will_retry=true)", "finished"],
            expect: Expect::Done { cached: false },
            stored_after: true,
        },
        Case {
            name: "retries exhausted",
            spec: spec("lbm-like"),
            registry: builtin(),
            prefilled: false,
            script: &[Step::Retryable, Step::Retryable],
            events: &[
                "started",
                "failed(1, will_retry=true)",
                "failed(2, will_retry=false)",
            ],
            expect: Expect::Failed {
                attempts: 2,
                error_has: "scripted retryable 2",
            },
            stored_after: false,
        },
    ];

    for case in cases {
        let name = case.name;
        let store = MemStore::default();
        if case.prefilled {
            store
                .store(&case.spec, &fake_report(&case.spec))
                .expect("prefills");
        }
        let mut events = Vec::new();
        let mut ran = Vec::new();
        let result = run_cell(
            &case.spec,
            Some(&case.registry),
            Some(&store),
            |e| events.push(shape(&e)),
            |attempt| {
                ran.push(attempt);
                let step = case.script.get(ran.len() - 1);
                match step.unwrap_or_else(|| panic!("{name}: unscripted attempt {attempt}")) {
                    Step::Report => Attempt::Report(fake_report(&case.spec)),
                    Step::Fatal => Attempt::Fatal("scripted fatal".to_string()),
                    Step::Retryable => Attempt::Retryable(format!("scripted retryable {attempt}")),
                }
            },
        );

        assert_eq!(events, case.events, "{name}: event sequence");
        let numbered: Vec<u32> = (1..=case.script.len() as u32).collect();
        assert_eq!(ran, numbered, "{name}: attempts run, numbered from 1");
        assert_eq!(result.key, case.spec.key(), "{name}: key");
        assert_eq!(result.spec, case.spec, "{name}: spec");
        match (&result.outcome, &case.expect) {
            (JobOutcome::Done { report, cached }, Expect::Done { cached: want }) => {
                assert_eq!(cached, want, "{name}: cached flag");
                assert_eq!(report.workload, case.spec.workload, "{name}: report");
            }
            (
                JobOutcome::Failed { error, attempts },
                Expect::Failed {
                    attempts: want,
                    error_has,
                },
            ) => {
                assert_eq!(attempts, want, "{name}: attempts");
                assert!(error.contains(error_has), "{name}: error was `{error}`");
            }
            (other, _) => panic!("{name}: unexpected outcome {other:?}"),
        }
        let stored = store.list() == vec![case.spec.key()];
        assert_eq!(stored, case.stored_after, "{name}: store after the cell");
        assert!(store.list().len() <= 1, "{name}: at most this cell's entry");
    }
}

fn small_campaign() -> Campaign {
    Campaign::grid("determinism-test")
        .workload("lbm-like")
        .workload("roms-like")
        .l1(PrefetcherChoice::IpStride)
        .l1(PrefetcherChoice::Berti)
        .opts(SimOptions {
            warmup_instructions: 500,
            sim_instructions: 2_000,
            ..SimOptions::default()
        })
        .build()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("berti-harness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn events_stream_is_written_as_jsonl() {
    let campaign = small_campaign();
    let cache = temp_dir("det-events-cache");
    let events = temp_dir("det-events").join("events.jsonl");
    let opts = RunOptions {
        jobs: 2,
        cache_dir: Some(cache.clone()),
        events_path: Some(events.clone()),
        progress: false,
        ..RunOptions::default()
    };
    let result = berti_harness::run_campaign(&campaign, &opts);
    assert_eq!(result.completed(), 4);

    let text = std::fs::read_to_string(&events).expect("event stream exists");
    let lines: Vec<&str> = text.lines().collect();
    // campaign_started + 4×(job_started + job_finished) + campaign_finished
    assert_eq!(lines.len(), 10, "unexpected event count:\n{text}");
    let mut tags = Vec::new();
    for line in &lines {
        let v = serde::json::parse(line).expect("each line is one JSON object");
        tags.push(
            v.get("event")
                .and_then(|e| e.as_str())
                .expect("tagged event")
                .to_string(),
        );
    }
    assert_eq!(tags[0], "campaign_started");
    assert_eq!(tags[lines.len() - 1], "campaign_finished");
    assert_eq!(tags.iter().filter(|t| *t == "job_finished").count(), 4);
    let last = serde::json::parse(lines[lines.len() - 1]).unwrap();
    assert_eq!(last.get("completed").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(last.get("failed").and_then(|v| v.as_u64()), Some(0));

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(events.parent().unwrap());
}
