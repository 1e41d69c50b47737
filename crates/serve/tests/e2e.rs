//! End-to-end tests: a real `berti-serve` daemon process, real worker
//! processes, real sockets.
//!
//! Each test boots the compiled binary on an ephemeral port with its
//! own store directory, drives it over hand-rolled HTTP, and asserts
//! the daemon-side invariants the subsystem promises:
//!
//! - a daemon campaign's aggregated result is **byte-identical** to a
//!   one-shot `run_campaign` of the same spec against the same cache,
//! - live and late SSE watchers both receive the complete stream
//!   (replay-from-offset covers the late joiner),
//! - a dying worker process fails exactly one cell, which succeeds on
//!   retry,
//! - SIGTERM drains in-flight cells into the store and exits 0, with
//!   or without a reader on the daemon's stdout, wakes an idle daemon
//!   and ends live SSE tails,
//! - a warm lockstep client waits on work, not on the daemon's timers,
//! - only the newest finished campaigns stay servable.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use berti_harness::{registry, run_campaign, Campaign, RunOptions};
use berti_serve::state::RETAINED_CAMPAIGNS;
use berti_sim::{PrefetcherChoice, SimOptions};
use berti_traces::ingest::{decode_records, write_btrc};
use berti_types::RECORD_BYTES;

#[path = "../../traces/tests/common/mod.rs"]
mod common;
use common::TempPath;

/// How long a test waits for the daemon to reach a state before
/// giving up (debug-build cells are slow; CI is slower).
const DEADLINE: Duration = Duration::from_secs(120);

fn tiny_opts() -> SimOptions {
    SimOptions {
        warmup_instructions: 1_000,
        sim_instructions: 2_000,
        ..SimOptions::default()
    }
}

/// A running daemon process bound to an ephemeral port.
struct DaemonProc {
    child: Child,
    addr: String,
    /// The read end of the daemon's stdout; `None` once a test closed it.
    stdout: Option<BufReader<ChildStdout>>,
}

impl DaemonProc {
    fn start(store: &Path, envs: &[(&str, &str)], extra_args: &[&str]) -> DaemonProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_berti-serve"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .arg("--workers")
            .arg("2")
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("daemon spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("daemon prints banner");
        let addr = banner
            .trim()
            .rsplit("http://")
            .next()
            .expect("banner carries the address")
            .to_string();
        assert!(
            banner.starts_with("berti-serve listening on"),
            "unexpected banner: {banner:?}"
        );
        DaemonProc {
            child,
            addr,
            stdout: Some(stdout),
        }
    }

    fn sigterm(&self) {
        let status = Command::new("kill")
            .arg("-TERM")
            .arg(self.child.id().to_string())
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM delivered");
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn fresh_dir(tag: &str) -> TempPath {
    TempPath::dir(&format!("serve-e2e-{tag}"))
}

/// The first `len` instructions of the `lbm-like` builtin.
fn lbm_slice(len: usize) -> Vec<berti_types::Instr> {
    let btrc = berti_traces::workload_by_name("lbm-like")
        .expect("builtin exists")
        .builtin_body()
        .expect("generates");
    decode_records(&btrc.body()[..len * RECORD_BYTES]).expect("decodes")
}

/// One-shot HTTP exchange; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(DEADLINE)).expect("timeout");
    let payload = body.unwrap_or("");
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    )
    .expect("request writes");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("response reads");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get_json(addr: &str, path: &str) -> serde::Value {
    let (status, body) = http(addr, "GET", path, None);
    assert_eq!(status, 200, "GET {path} -> {body}");
    serde::json::parse(&body).expect("json body")
}

/// Collected SSE stream: (id, event-json) pairs plus the `end` payload.
struct SseStream {
    frames: Vec<(usize, String)>,
    end: Option<String>,
}

impl SseStream {
    fn tags(&self) -> Vec<String> {
        self.frames
            .iter()
            .map(|(_, line)| {
                serde::json::parse(line)
                    .expect("event parses")
                    .get("event")
                    .and_then(|v| v.as_str())
                    .expect("tagged event")
                    .to_string()
            })
            .collect()
    }
}

/// Connects to an SSE endpoint and reads to end-of-stream.
fn sse_collect(addr: &str, path: &str, last_event_id: Option<usize>) -> SseStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(DEADLINE)).expect("timeout");
    let resume = match last_event_id {
        Some(id) => format!("Last-Event-ID: {id}\r\n"),
        None => String::new(),
    };
    write!(s, "GET {path} HTTP/1.1\r\nHost: e2e\r\n{resume}\r\n").expect("request writes");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("stream reads to eof");
    let (headers, body) = raw.split_once("\r\n\r\n").expect("header split");
    assert!(
        headers.contains("text/event-stream"),
        "SSE content type in {headers:?}"
    );
    let mut frames = Vec::new();
    let mut end = None;
    for frame in body.split("\n\n").filter(|f| !f.trim().is_empty()) {
        let mut id = None;
        let mut data = None;
        let mut is_end = false;
        for line in frame.lines() {
            if let Some(v) = line.strip_prefix("id: ") {
                id = v.parse::<usize>().ok();
            } else if let Some(v) = line.strip_prefix("data: ") {
                data = Some(v.to_string());
            } else if line == "event: end" {
                is_end = true;
            }
        }
        if is_end {
            end = data;
        } else if let (Some(id), Some(data)) = (id, data) {
            frames.push((id, data));
        }
    }
    SseStream { frames, end }
}

/// Polls `GET /campaigns/:id` until `pred` accepts the summary.
fn wait_for(
    addr: &str,
    id: &str,
    what: &str,
    pred: impl Fn(&serde::Value) -> bool,
) -> serde::Value {
    let started = Instant::now();
    loop {
        let summary = get_json(addr, &format!("/campaigns/{id}"));
        if pred(&summary) {
            return summary;
        }
        assert!(
            started.elapsed() < DEADLINE,
            "timed out waiting for {what}; last summary: {}",
            serde::json::to_string(&summary)
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Submits a full campaign spec; returns the daemon-assigned id.
fn submit(addr: &str, campaign: &Campaign) -> String {
    let payload = serde::json::to_string(&serde::Serialize::to_value(campaign));
    let (status, body) = http(addr, "POST", "/campaigns", Some(&payload));
    assert_eq!(status, 202, "submit accepted: {body}");
    serde::json::parse(&body)
        .expect("json")
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string()
}

fn status_of(summary: &serde::Value) -> String {
    summary
        .get("status")
        .and_then(|v| v.as_str())
        .expect("status field")
        .to_string()
}

#[test]
fn daemon_result_is_byte_identical_to_one_shot_run_and_streams_replay() {
    let store = fresh_dir("identical");
    let daemon = DaemonProc::start(&store, &[], &[]);
    let addr = daemon.addr.clone();

    // Submit the builtin 2×2 grid (2 workloads × {ip-stride, berti}).
    let (status, body) = http(
        &addr,
        "POST",
        "/campaigns",
        Some(r#"{"builtin": "quick", "warmup": 1000, "instr": 2000}"#),
    );
    assert_eq!(status, 202, "submit accepted: {body}");
    let submitted = serde::json::parse(&body).expect("submit response json");
    let id = submitted
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string();
    assert_eq!(submitted.get("cells").and_then(|v| v.as_u64()), Some(4));

    // Live watcher: connects while the campaign runs, reads to end.
    let live_addr = addr.clone();
    let live_path = format!("/campaigns/{id}/events");
    let live = std::thread::spawn(move || sse_collect(&live_addr, &live_path, None));

    let summary = wait_for(&addr, &id, "campaign done", |s| status_of(s) == "done");
    assert_eq!(summary.get("completed").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(0));

    // Late watcher: joins after completion; replay must reproduce the
    // entire stream from offset 0.
    let late = sse_collect(&addr, &format!("/campaigns/{id}/events?offset=0"), None);
    let live = live.join().expect("live watcher");

    assert_eq!(late.end.as_deref(), Some("done"));
    assert_eq!(live.end.as_deref(), Some("done"));
    assert_eq!(
        live.frames, late.frames,
        "live and late watchers saw the same complete stream"
    );
    let tags = late.tags();
    assert_eq!(tags.first().map(String::as_str), Some("campaign_queued"));
    assert_eq!(tags.last().map(String::as_str), Some("campaign_finished"));
    assert_eq!(tags.iter().filter(|t| *t == "job_finished").count(), 4);

    // A reconnect that saw event N resumes at N+1 via Last-Event-ID.
    let resumed = sse_collect(
        &addr,
        &format!("/campaigns/{id}/events"),
        Some(live.frames[1].0),
    );
    assert_eq!(resumed.frames, live.frames[2..].to_vec());

    // Byte-identical to a one-shot run of the same spec against the
    // same cache directory.
    let (status, daemon_result) = http(&addr, "GET", &format!("/campaigns/{id}/result"), None);
    assert_eq!(status, 200);
    let campaign = registry::builtin("quick", tiny_opts()).expect("builtin exists");
    let one_shot = run_campaign(
        &campaign,
        &RunOptions {
            jobs: 2,
            cache_dir: Some(store.to_path_buf()),
            ..RunOptions::default()
        },
    );
    assert_eq!(
        daemon_result,
        one_shot.aggregated_json(),
        "daemon and CLI aggregate byte-identically"
    );

    // /metrics went through the stats registry.
    let metrics = get_json(&addr, "/metrics");
    let serve = metrics.get("serve").expect("serve group");
    assert_eq!(
        serve.get("campaigns_completed").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(
        serve.get("cells_completed").and_then(|v| v.as_u64()),
        Some(4)
    );
    assert_eq!(
        serve.get("worker_crashes").and_then(|v| v.as_u64()),
        Some(0)
    );
    assert!(
        serve.get("worker_spawns").and_then(|v| v.as_u64()) >= Some(1),
        "process workers actually spawned"
    );
}

#[test]
fn worker_crash_fails_exactly_one_cell_which_succeeds_on_retry() {
    let store = fresh_dir("crash");
    let marker = store.join("crash.marker");
    let daemon = DaemonProc::start(
        &store,
        &[
            ("BERTI_SERVE_CRASH_WORKLOAD", "lbm-like"),
            ("BERTI_SERVE_CRASH_MARKER", marker.to_str().expect("utf-8")),
        ],
        &[],
    );
    let addr = daemon.addr.clone();

    let (status, body) = http(
        &addr,
        "POST",
        "/campaigns",
        Some(r#"{"builtin": "quick", "warmup": 1000, "instr": 2000}"#),
    );
    assert_eq!(status, 202, "{body}");
    let id = serde::json::parse(&body)
        .expect("json")
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string();

    let summary = wait_for(&addr, &id, "campaign done", |s| status_of(s) == "done");
    assert_eq!(
        summary.get("completed").and_then(|v| v.as_u64()),
        Some(4),
        "the crashed cell succeeded on retry"
    );
    assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(0));
    assert!(marker.exists(), "the crash hook fired");

    let stream = sse_collect(&addr, &format!("/campaigns/{id}/events?offset=0"), None);
    let tags = stream.tags();
    assert_eq!(
        tags.iter().filter(|t| *t == "worker_crashed").count(),
        1,
        "exactly one worker died: {tags:?}"
    );
    let failed_then_retried = stream.frames.iter().any(|(_, line)| {
        let v = serde::json::parse(line).expect("parses");
        v.get("event").and_then(|e| e.as_str()) == Some("job_failed")
            && v.get("will_retry").and_then(|w| w.as_bool()) == Some(true)
    });
    assert!(
        failed_then_retried,
        "the crash surfaced as a retryable failure"
    );

    let metrics = get_json(&addr, "/metrics");
    let serve = metrics.get("serve").expect("serve group");
    assert_eq!(
        serve.get("worker_crashes").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(serve.get("cells_failed").and_then(|v| v.as_u64()), Some(0));
}

#[test]
fn sigterm_drains_in_flight_cells_and_flushes_the_store() {
    sigterm_drains("sigterm", false);
}

/// Nobody reads the daemon's stdout any more (a supervisor that went
/// away): the drained line hits EPIPE, which must not turn the
/// graceful exit into a panic (exit 101).
#[test]
fn sigterm_drains_with_stdout_closed() {
    sigterm_drains("sigterm-closed-stdout", true);
}

fn sigterm_drains(tag: &str, close_stdout: bool) {
    let store = fresh_dir(tag);
    let cache = store.join("cache");
    let mut daemon = DaemonProc::start(&cache, &[], &[]);
    let addr = daemon.addr.clone();
    if close_stdout {
        daemon.stdout = None;
    }

    // Enough work per cell that SIGTERM lands mid-campaign.
    let (status, body) = http(
        &addr,
        "POST",
        "/campaigns",
        Some(r#"{"builtin": "quick", "warmup": 5000, "instr": 40000}"#),
    );
    assert_eq!(status, 202, "{body}");
    let id = serde::json::parse(&body)
        .expect("json")
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string();

    // Wait until at least one cell has been published, then SIGTERM.
    wait_for(&addr, &id, "first completed cell", |s| {
        s.get("completed").and_then(|v| v.as_u64()) >= Some(1)
    });
    daemon.sigterm();
    let exit = daemon.child.wait().expect("daemon exits");
    assert!(exit.success(), "graceful shutdown exits 0 (got {exit:?})");

    if let Some(stdout) = &mut daemon.stdout {
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).expect("drained stdout");
        assert!(
            rest.contains("drained, shutting down"),
            "daemon reported a drained shutdown, got {rest:?}"
        );
    }

    let published = std::fs::read_dir(&cache)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert!(published >= 1, "completed cells were flushed to the store");
    let stray_tmp = std::fs::read_dir(&cache)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(stray_tmp, 0, "no torn temp files survive shutdown");
}

#[test]
fn cancel_stops_dispatch_and_rejects_unknown_ids() {
    let store = fresh_dir("cancel");
    let daemon = DaemonProc::start(&store, &[], &[]);
    let addr = daemon.addr.clone();

    let (status, _) = http(&addr, "DELETE", "/campaigns/c99", None);
    assert_eq!(status, 404);

    let (status, body) = http(
        &addr,
        "POST",
        "/campaigns",
        Some(r#"{"builtin": "quick", "warmup": 5000, "instr": 40000}"#),
    );
    assert_eq!(status, 202, "{body}");
    let id = serde::json::parse(&body)
        .expect("json")
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string();

    let (status, _) = http(&addr, "DELETE", &format!("/campaigns/{id}"), None);
    assert_eq!(status, 200);
    let summary = wait_for(&addr, &id, "cancellation", |s| status_of(s) == "cancelled");
    assert!(
        summary.get("completed").and_then(|v| v.as_u64()) < Some(4),
        "cancel stopped dispatch before the grid drained"
    );
    let (status, body) = http(&addr, "GET", &format!("/campaigns/{id}/result"), None);
    assert_eq!(status, 409, "cancelled campaign has no aggregate: {body}");

    let stream = sse_collect(&addr, &format!("/campaigns/{id}/events?offset=0"), None);
    assert_eq!(stream.end.as_deref(), Some("cancelled"));
    assert!(stream.tags().contains(&"campaign_cancelled".to_string()));
}

#[test]
fn malformed_submissions_are_rejected() {
    let store = fresh_dir("reject");
    let daemon = DaemonProc::start(&store, &[], &[]);
    let addr = daemon.addr.clone();

    let (status, _) = http(&addr, "POST", "/campaigns", Some("not json"));
    assert_eq!(status, 400);
    let (status, _) = http(&addr, "POST", "/campaigns", Some(r#"{"builtin": "nope"}"#));
    assert_eq!(status, 400);
    let (status, _) = http(
        &addr,
        "POST",
        "/campaigns?interval=zero",
        Some(r#"{"builtin": "quick"}"#),
    );
    assert_eq!(status, 400);
    let (status, _) = http(&addr, "GET", "/campaigns/c1", None);
    assert_eq!(status, 404, "nothing was actually submitted");

    let health = get_json(&addr, "/healthz");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
}

/// A wedged worker (the `BERTI_WORKER_STALL` hook parks one worker
/// forever) must cost exactly one `worker_timeout` — the deadline
/// monitor kills it, the cell retries on a fresh worker after backoff,
/// and the campaign completes. Crucially the stall is *not* counted as
/// a crash: the scheduler classifies a deadline kill separately.
#[test]
fn hung_worker_times_out_retries_on_fresh_worker_and_completes() {
    let store = fresh_dir("stall");
    let marker = store.join("stall.marker");
    let daemon = DaemonProc::start(
        &store,
        &[
            ("BERTI_WORKER_STALL", "lbm-like"),
            ("BERTI_WORKER_STALL_MARKER", marker.to_str().expect("utf-8")),
        ],
        &["--cell-timeout-ms", "5000"],
    );
    let addr = daemon.addr.clone();

    // Only the fast workload: the point is that the *stalled* worker
    // (which would park forever) trips the deadline, not that a
    // legitimately slow debug-build cell does.
    let mut campaign = registry::builtin("quick", tiny_opts()).expect("builtin exists");
    campaign.cells.retain(|c| c.workload == "lbm-like");
    assert_eq!(campaign.cells.len(), 2, "lbm-like × {{ip-stride, berti}}");
    let payload = serde::json::to_string(&serde::Serialize::to_value(&campaign));
    let (status, body) = http(&addr, "POST", "/campaigns", Some(&payload));
    assert_eq!(status, 202, "{body}");
    let id = serde::json::parse(&body)
        .expect("json")
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string();

    let summary = wait_for(&addr, &id, "campaign done despite the stall", |s| {
        status_of(s) == "done"
    });
    assert_eq!(
        summary.get("completed").and_then(|v| v.as_u64()),
        Some(2),
        "the timed-out cell succeeded on a fresh worker"
    );
    assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(0));
    assert!(marker.exists(), "the stall hook fired");

    let stream = sse_collect(&addr, &format!("/campaigns/{id}/events?offset=0"), None);
    let tags = stream.tags();
    assert_eq!(
        tags.iter().filter(|t| *t == "worker_timeout").count(),
        1,
        "exactly one worker blew its deadline: {tags:?}"
    );
    assert!(
        !tags.contains(&"worker_crashed".to_string()),
        "a deadline kill is a timeout, not a crash: {tags:?}"
    );
    let failed_then_retried = stream.frames.iter().any(|(_, line)| {
        let v = serde::json::parse(line).expect("parses");
        v.get("event").and_then(|e| e.as_str()) == Some("job_failed")
            && v.get("will_retry").and_then(|w| w.as_bool()) == Some(true)
            && v.get("error")
                .and_then(|e| e.as_str())
                .is_some_and(|e| e.contains("deadline"))
    });
    assert!(
        failed_then_retried,
        "the timeout surfaced as a retryable failure naming the deadline"
    );

    let metrics = get_json(&addr, "/metrics");
    let sched = metrics.get("scheduler").expect("scheduler group");
    assert_eq!(sched.get("cell_timeouts").and_then(|v| v.as_u64()), Some(1));
    assert!(
        sched.get("cell_retries").and_then(|v| v.as_u64()) >= Some(1),
        "the retry was counted"
    );
    assert!(
        sched.get("backoff_sleeps").and_then(|v| v.as_u64()) >= Some(1),
        "the retry backed off before re-dispatch"
    );
    let serve = metrics.get("serve").expect("serve group");
    assert_eq!(
        serve.get("worker_crashes").and_then(|v| v.as_u64()),
        Some(0),
        "no crash was counted for the deadline kill"
    );
    assert_eq!(serve.get("cells_failed").and_then(|v| v.as_u64()), Some(0));
}

/// Two overlapping campaigns share the global worker budget: the
/// per-campaign max-share guarantees the short campaign finishes while
/// the long one is still running (interleaved progress, asserted via
/// summaries and `/metrics` gauges — no sleeps), the budget gauge
/// never exceeds `--workers`, and both aggregates stay byte-identical
/// to one-shot CLI runs against the same cache.
#[test]
fn concurrent_campaigns_share_the_budget_and_aggregate_byte_identically() {
    let store = fresh_dir("concurrent");
    let daemon = DaemonProc::start(&store, &[], &[]);
    let addr = daemon.addr.clone();

    // Long campaign first (so FIFO admission would starve the short
    // one without the max-share), then a much shorter one. Both run
    // over `lbm-like` only: its generator is cheap, so the campaigns'
    // wall time is their *simulated* work (a `bfs-kron` cell is ~all
    // trace generation, the same for any instruction count). The long
    // grid has twice the cells at ten times the instructions each, so
    // when the short one drains the long one has most of its second
    // wave still to run. An optimized build simulates ~10x faster, so
    // it gets 10x the work: either way the short campaign runs for
    // some hundreds of ms — long enough for the gauge polls below.
    let work = if cfg!(debug_assertions) { 1 } else { 10 };
    let lbm_grid = |name: &str, l1s: Vec<PrefetcherChoice>, opts: SimOptions| {
        let mut grid = Campaign::grid(name).workload("lbm-like").opts(opts);
        for l1 in l1s {
            grid = grid.l1(l1);
        }
        grid.build()
    };
    let mut long_l1s = vec![PrefetcherChoice::IpStride];
    long_l1s.extend(registry::l1d_contenders());
    let long = lbm_grid(
        "long",
        long_l1s,
        SimOptions {
            warmup_instructions: 5_000,
            sim_instructions: 1_000_000 * work,
            ..SimOptions::default()
        },
    );
    let short = lbm_grid(
        "short",
        vec![PrefetcherChoice::IpStride, PrefetcherChoice::Berti],
        SimOptions {
            warmup_instructions: 5_000,
            sim_instructions: 100_000 * work,
            ..SimOptions::default()
        },
    );
    let long_id = submit(&addr, &long);
    let short_id = submit(&addr, &short);

    // Poll the short campaign to completion, sampling the scheduler
    // gauges on the way: both campaigns must be observed running
    // concurrently, and cells in flight must never exceed the budget.
    let started = Instant::now();
    let mut saw_both_running = false;
    loop {
        let metrics = get_json(&addr, "/metrics");
        let sched = metrics.get("scheduler").expect("scheduler group");
        let running = sched
            .get("campaigns_running")
            .and_then(|v| v.as_u64())
            .expect("gauge");
        let in_flight = sched
            .get("cells_in_flight")
            .and_then(|v| v.as_u64())
            .expect("gauge");
        assert!(
            in_flight <= 2,
            "cells in flight ({in_flight}) exceeded the --workers budget"
        );
        if running == 2 {
            saw_both_running = true;
        }
        let summary = get_json(&addr, &format!("/campaigns/{short_id}"));
        if status_of(&summary) == "done" {
            break;
        }
        assert!(
            started.elapsed() < DEADLINE,
            "timed out waiting for the short campaign"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        saw_both_running,
        "both campaigns were observed running concurrently via /metrics"
    );

    // Interleaved progress, not FIFO: the short campaign (submitted
    // second) finished while the long one still has cells to go.
    let long_summary = get_json(&addr, &format!("/campaigns/{long_id}"));
    assert_ne!(
        status_of(&long_summary),
        "done",
        "the long campaign must still be in flight when the short one finishes"
    );

    let long_summary = wait_for(&addr, &long_id, "long campaign done", |s| {
        status_of(s) == "done"
    });
    assert_eq!(
        long_summary.get("completed").and_then(|v| v.as_u64()),
        Some(4)
    );

    // Both aggregates byte-identical to one-shot CLI runs of the same
    // specs against the same cache.
    for (id, campaign) in [(&long_id, &long), (&short_id, &short)] {
        let (status, daemon_result) = http(&addr, "GET", &format!("/campaigns/{id}/result"), None);
        assert_eq!(status, 200);
        let one_shot = run_campaign(
            campaign,
            &RunOptions {
                jobs: 2,
                cache_dir: Some(store.to_path_buf()),
                ..RunOptions::default()
            },
        );
        assert_eq!(
            daemon_result,
            one_shot.aggregated_json(),
            "daemon and CLI aggregate byte-identically for campaign {id}"
        );
    }
}

#[test]
fn trace_dir_campaign_matches_cli_and_validates_workloads() {
    let store = fresh_dir("tracedir");
    let traces = store.join("traces");
    std::fs::create_dir_all(&traces).expect("mkdir traces");

    // Pre-decode a slice of a builtin workload into a .btrc file so the
    // daemon discovers a real trace workload named `slice`.
    write_btrc(&traces.join("slice.btrc"), &lbm_slice(500)).expect("writes");

    let cache = store.join("cache");
    let daemon = DaemonProc::start(
        &cache,
        &[],
        &["--trace-dir", traces.to_str().expect("utf-8")],
    );
    let addr = daemon.addr.clone();

    // Unknown workloads are rejected at submission with a suggestion.
    let mut bad = registry::builtin("quick", tiny_opts()).expect("builtin exists");
    bad.cells.truncate(1);
    bad.cells[0].workload = "slcie".to_string();
    let bad_body = serde::json::to_string(&serde::Serialize::to_value(&bad));
    let (status, body) = http(&addr, "POST", "/campaigns", Some(&bad_body));
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("slice"),
        "rejection suggests the near-miss name: {body}"
    );

    // The trace-dir campaign resolves against the daemon's --trace-dir.
    let (status, body) = http(
        &addr,
        "POST",
        "/campaigns",
        Some(r#"{"builtin": "quick-traces", "warmup": 1000, "instr": 2000}"#),
    );
    assert_eq!(status, 202, "submit accepted: {body}");
    let submitted = serde::json::parse(&body).expect("json");
    let id = submitted
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string();
    assert_eq!(
        submitted.get("cells").and_then(|v| v.as_u64()),
        Some(2),
        "1 trace × {{ip-stride, berti}}"
    );

    let summary = wait_for(&addr, &id, "campaign done", |s| status_of(s) == "done");
    assert_eq!(summary.get("completed").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(0));

    // Byte-identical to the CLI path: same campaign, same cache, same
    // trace dir, via in-process `run_campaign`.
    let (status, daemon_result) = http(&addr, "GET", &format!("/campaigns/{id}/result"), None);
    assert_eq!(status, 200);
    let registry = berti_traces::TraceRegistry::with_trace_dir(&traces).expect("scans");
    let campaign =
        registry::trace_campaign("quick-traces", &registry, tiny_opts()).expect("exists");
    let one_shot = run_campaign(
        &campaign,
        &RunOptions {
            jobs: 2,
            cache_dir: Some(cache.clone()),
            trace_dir: Some(traces.clone()),
            ..RunOptions::default()
        },
    );
    assert_eq!(
        daemon_result,
        one_shot.aggregated_json(),
        "daemon and CLI aggregate byte-identically for trace-dir campaigns"
    );
}

/// A typed executor failure means the same thing through every front
/// end. One good and one truncated `.btrc` in a trace dir, the same
/// two-cell campaign through the one-shot path, the daemon with
/// process workers, and the daemon `--in-process`, each on its own
/// store: the corrupt cell fails once (`attempts == 1`, no retry, no
/// backoff) everywhere, and the three aggregates agree byte for byte.
#[test]
fn corrupt_trace_fails_once_and_aggregates_identically_through_every_front_end() {
    let root = fresh_dir("corrupt");
    let traces = root.join("traces");
    std::fs::create_dir_all(&traces).expect("mkdir traces");
    write_btrc(&traces.join("good.btrc"), &lbm_slice(2_000)).expect("writes");
    // A header that claims more records than the body holds: a typed
    // `Truncated` error when the cell opens the trace.
    let good = std::fs::read(traces.join("good.btrc")).expect("reads");
    std::fs::write(traces.join("bad.btrc"), &good[..good.len() - 13]).expect("writes");

    let campaign = Campaign::grid("corrupt-cell")
        .workload("good")
        .workload("bad")
        .l1(PrefetcherChoice::Berti)
        .opts(tiny_opts())
        .build();
    let one_shot = run_campaign(
        &campaign,
        &RunOptions {
            jobs: 2,
            cache_dir: Some(root.join("store-cli")),
            trace_dir: Some(traces.clone()),
            ..RunOptions::default()
        },
    )
    .aggregated_json();
    let cells = serde::json::parse(&one_shot).expect("aggregate parses");
    let cells = cells
        .get("cells")
        .and_then(|c| c.as_array())
        .expect("cells");
    let bad: Vec<_> = cells.iter().filter(|c| c.get("error").is_some()).collect();
    assert_eq!(bad.len(), 1, "exactly the corrupt cell failed: {one_shot}");
    assert_eq!(bad[0].get("attempts").and_then(|v| v.as_u64()), Some(1));

    for (store, mode) in [("store-proc", None), ("store-thread", Some("--in-process"))] {
        let mut args = vec!["--trace-dir", traces.to_str().expect("utf-8")];
        args.extend(mode);
        let daemon = DaemonProc::start(&root.join(store), &[], &args);
        let addr = daemon.addr.clone();
        let id = submit(&addr, &campaign);
        let summary = wait_for(&addr, &id, "campaign done", |s| status_of(s) == "done");
        assert_eq!(summary.get("completed").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(1));

        let (status, result) = http(&addr, "GET", &format!("/campaigns/{id}/result"), None);
        assert_eq!(status, 200);
        assert_eq!(
            result, one_shot,
            "{mode:?}: daemon and one-shot aggregates agree byte for byte"
        );

        let stream = sse_collect(&addr, &format!("/campaigns/{id}/events?offset=0"), None);
        let failures: Vec<serde::Value> = stream
            .frames
            .iter()
            .map(|(_, line)| serde::json::parse(line).expect("parses"))
            .filter(|v| v.get("event").and_then(|e| e.as_str()) == Some("job_failed"))
            .collect();
        assert_eq!(failures.len(), 1, "{mode:?}: one failed attempt, not two");
        assert_eq!(failures[0].get("attempt").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            failures[0].get("will_retry").and_then(|v| v.as_bool()),
            Some(false)
        );
        let sched = get_json(&addr, "/metrics");
        let sched = sched.get("scheduler").expect("scheduler group");
        assert_eq!(sched.get("cell_retries").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            sched.get("backoff_sleeps").and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}

/// A client in lockstep with the daemon — submit, follow the stream to
/// its end, fetch the result, submit again — waits on work only. The
/// resubmits are all store hits, so a round is a few milliseconds of
/// HTTP, store reads and aggregation; a daemon that makes any step of
/// it wait on a timer (a 50 ms accept or dispatch poll takes a round to
/// ~100 ms) fails the bound.
#[test]
fn warm_lockstep_rounds_wait_on_work_not_on_timers() {
    let store = fresh_dir("lockstep");
    let daemon = DaemonProc::start(&store, &[], &["--in-process"]);
    let addr = daemon.addr.clone();
    let campaign = Campaign::grid("lockstep")
        .workload("lbm-like")
        .l1(PrefetcherChoice::IpStride)
        .l1(PrefetcherChoice::Berti)
        .opts(tiny_opts())
        .build();
    // POST → SSE to `end` → GET result, timed as one round.
    let round = || {
        let t = Instant::now();
        let id = submit(&addr, &campaign);
        let stream = sse_collect(&addr, &format!("/campaigns/{id}/events"), None);
        assert_eq!(stream.end.as_deref(), Some("done"));
        let (status, _) = http(&addr, "GET", &format!("/campaigns/{id}/result"), None);
        assert_eq!(status, 200);
        t.elapsed()
    };
    round(); // cold: fills the store
    let mut rounds: Vec<Duration> = (0..12).map(|_| round()).collect();
    rounds.sort();
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(25),
        "median warm round {median:?} (sorted: {rounds:?})"
    );
}

/// Polls a child until it exits or `limit` passes.
fn wait_exit(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return Some(status);
        }
        if started.elapsed() > limit {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// SIGTERM reaches a daemon that is blocked in `accept` and has never
/// seen a connection: the signal's self-pipe wakes it, and it drains
/// and exits at once.
#[test]
fn idle_daemon_exits_promptly_on_sigterm() {
    let store = fresh_dir("idle-sigterm");
    let mut daemon = DaemonProc::start(&store, &[], &[]);
    daemon.sigterm();
    let exit = wait_exit(&mut daemon.child, Duration::from_secs(5))
        .expect("an idle daemon exits within 5 s of SIGTERM");
    assert!(exit.success(), "graceful shutdown exits 0 (got {exit:?})");
    let mut rest = String::new();
    daemon
        .stdout
        .as_mut()
        .expect("stdout kept")
        .read_to_string(&mut rest)
        .expect("drained stdout");
    assert!(
        rest.contains("drained, shutting down"),
        "daemon reported a drained shutdown, got {rest:?}"
    );
}

/// A client tailing a running campaign is blocked on the campaign's
/// event log; SIGTERM must wake it with `event: end`, and the daemon
/// then drains its in-flight cells and exits 0.
#[test]
fn sigterm_ends_a_live_sse_tail_and_the_daemon_exits() {
    let store = fresh_dir("sigterm-tail");
    let mut daemon = DaemonProc::start(&store, &[], &[]);
    let addr = daemon.addr.clone();
    // Cells of ~a second or more each (an optimized build simulates
    // ~10x faster, so it gets 10x the work), so the campaign is still
    // running when the signal lands.
    let work = if cfg!(debug_assertions) { 1 } else { 10 };
    let mut grid = Campaign::grid("tail")
        .workload("lbm-like")
        .opts(SimOptions {
            warmup_instructions: 5_000,
            sim_instructions: 400_000 * work,
            ..SimOptions::default()
        });
    for l1 in registry::l1d_contenders() {
        grid = grid.l1(l1);
    }
    let id = submit(&addr, &grid.build());
    let tail_addr = addr.clone();
    let tail_path = format!("/campaigns/{id}/events");
    let tail = std::thread::spawn(move || sse_collect(&tail_addr, &tail_path, None));
    wait_for(&addr, &id, "campaign running", |s| {
        status_of(s) == "running"
    });
    // The tail's request is in the daemon once its connection shows in
    // the counters.
    let started = Instant::now();
    while get_json(&addr, "/metrics")
        .get("serve")
        .and_then(|s| s.get("sse_connections"))
        .and_then(|v| v.as_u64())
        < Some(1)
    {
        assert!(started.elapsed() < DEADLINE, "the tail never connected");
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.sigterm();
    let stream = tail.join().expect("tail thread");
    assert!(
        stream.end.is_some(),
        "the tail received `event: end`: {:?}",
        stream.tags()
    );
    let exit = wait_exit(&mut daemon.child, DEADLINE).expect("daemon exits after the drain");
    assert!(exit.success(), "graceful shutdown exits 0 (got {exit:?})");
}

/// The daemon keeps only the newest `RETAINED_CAMPAIGNS` finished
/// campaigns: one more lockstep submission evicts the oldest, whose
/// every route then answers 404, and `/metrics` counts the eviction.
#[test]
fn evicted_campaigns_answer_404_and_are_counted() {
    let store = fresh_dir("evict");
    let daemon = DaemonProc::start(&store, &[], &["--in-process"]);
    let addr = daemon.addr.clone();
    let campaign = Campaign::grid("evict")
        .workload("lbm-like")
        .l1(PrefetcherChoice::Berti)
        .opts(tiny_opts())
        .build();
    let ids: Vec<String> = (0..RETAINED_CAMPAIGNS + 2)
        .map(|_| {
            let id = submit(&addr, &campaign);
            let stream = sse_collect(&addr, &format!("/campaigns/{id}/events"), None);
            assert_eq!(stream.end.as_deref(), Some("done"));
            id
        })
        .collect();
    let oldest = &ids[0];
    for path in ["", "/result", "/events"] {
        let (status, body) = http(&addr, "GET", &format!("/campaigns/{oldest}{path}"), None);
        assert_eq!(status, 404, "GET /campaigns/{oldest}{path}: {body}");
    }
    for id in &ids[1..] {
        let (status, _) = http(&addr, "GET", &format!("/campaigns/{id}/result"), None);
        assert_eq!(status, 200, "{id} is retained");
    }
    let list = get_json(&addr, "/campaigns");
    let listed = list
        .get("campaigns")
        .and_then(|c| c.as_array())
        .expect("campaign list")
        .len();
    assert_eq!(listed, RETAINED_CAMPAIGNS + 1);
    let metrics = get_json(&addr, "/metrics");
    let serve = metrics.get("serve").expect("serve group");
    assert_eq!(
        serve.get("campaigns_evicted").and_then(|v| v.as_u64()),
        Some(1)
    );
}
