//! The HTTP front end: accept loop, handler thread pool, and routing.
//!
//! ```text
//! POST   /campaigns               submit a campaign (202 + id)
//! GET    /campaigns               list submissions
//! GET    /campaigns/:id           status summary
//! GET    /campaigns/:id/result    aggregated report (409 until done)
//! GET    /campaigns/:id/events    JSONL-over-SSE stream with replay
//! DELETE /campaigns/:id           cancel
//! GET    /metrics                 daemon counters
//! GET    /healthz                 liveness probe
//! ```
//!
//! Connections are one-request (`Connection: close`); accepted streams
//! fan out to a bounded pool of handler threads through a shared
//! channel. Nothing waits on a timer: the accept loop blocks in
//! `accept`, a `POST` admits its campaign to the scheduler itself,
//! budget slots and SSE tails block on condvars. Shutdown is an event
//! too: [`Server::run`] takes a stop source (the binary's SIGTERM/SIGINT
//! self-pipe), and one thread blocked on it raises the daemon's flag,
//! closes the scheduler, wakes every SSE tail, and connects to the
//! listener once so the accept loop returns. Then in-flight cells
//! finish and publish to the store, and `run` returns.
//!
//! The daemon keeps every queued and running campaign but only the
//! newest [`RETAINED_CAMPAIGNS`](crate::state::RETAINED_CAMPAIGNS)
//! finished ones; an evicted id answers 404.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use berti_harness::{registry, Campaign, ResultCache};
use berti_sim::SimOptions;
use serde::{Deserialize, Value};

use crate::http::{rejection_status, respond_error, respond_json, respond_sse_header, Request};
use crate::sched::Sched;
use crate::state::{CampaignEntry, Daemon};
use crate::stats::metrics_json;

/// Retry backoff after a failed `accept` (out of file descriptors,
/// a connection aborted before it was taken): the error is the kernel
/// refusing work, and retrying at once would spin the accept thread
/// until it stops.
const ACCEPT_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Read/write timeout on accepted connections, so a stalled or
/// half-dead client can wedge at most one handler thread for this
/// long (never forever). SSE streams stay alive past the read side of
/// this because the server is the only writer; the write side is kept
/// healthy by [`SSE_KEEPALIVE`] comments.
const HTTP_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Idle interval after which an SSE stream writes a `: keep-alive`
/// comment, proving the client is still reading (a gone client makes
/// the write fail and frees the handler thread) and keeping
/// intermediaries from timing the stream out. Well under
/// [`HTTP_IO_TIMEOUT`] so a healthy-but-quiet stream never trips it.
const SSE_KEEPALIVE: Duration = Duration::from_secs(5);

/// HTTP handler threads: bounds concurrent connections, including
/// long-lived SSE streams.
const HTTP_THREADS: usize = 8;

/// How long a freshly spawned worker has to complete the protocol
/// handshake (its hello frame) before it is killed.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration, usually built from CLI flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7791` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Global worker budget: cells in flight across all campaigns.
    pub workers: usize,
    /// Result-store directory.
    pub store_dir: PathBuf,
    /// Default trace directory for submissions that don't carry their
    /// own `"trace_dir"`; discovered trace files join the workload
    /// registry.
    pub trace_dir: Option<PathBuf>,
    /// Default per-cell wall-clock deadline, milliseconds; `0`
    /// disables deadlines. A submission may override it with a
    /// `"cell_timeout_ms"` body key.
    pub cell_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7791".to_string(),
            workers: 2,
            store_dir: PathBuf::from("results/cache"),
            trace_dir: None,
            cell_timeout_ms: 300_000,
        }
    }
}

/// A bound daemon: listener + shared state + dispatcher.
pub struct Server {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    sched: Sched,
}

impl Server {
    /// Binds the listener, opens the result store, and sets up the
    /// dispatcher. The server accepts connections and runs cells only
    /// inside [`Server::run`].
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let store = ResultCache::open(&cfg.store_dir)?;
        let mut daemon = Daemon::new(Arc::new(store));
        daemon.default_trace_dir = cfg.trace_dir.as_ref().map(|p| p.display().to_string());
        let daemon = Arc::new(daemon);
        let cell_timeout =
            (cfg.cell_timeout_ms > 0).then(|| Duration::from_millis(cfg.cell_timeout_ms));
        Ok(Server {
            listener,
            sched: Sched::new(Arc::clone(&daemon), cfg.workers, cell_timeout),
            daemon,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared daemon state (tests use this to inspect counters).
    pub fn daemon(&self) -> Arc<Daemon> {
        Arc::clone(&self.daemon)
    }

    /// Serves until `stop` yields a byte or reaches end of file, then
    /// drains gracefully: stops accepting and dispatching, lets
    /// in-flight cells finish (they publish to the store), ends every
    /// SSE stream, and joins every thread.
    pub fn run(self, mut stop: impl Read + Send) -> std::io::Result<()> {
        let wake_addr = loopback(self.listener.local_addr()?);
        let Server {
            listener,
            daemon,
            sched,
        } = self;
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Mutex::new(conn_rx);

        std::thread::scope(|scope| {
            let (daemon, sched, conn_rx) = (&*daemon, &sched, &conn_rx);
            for i in 0..sched.slots() {
                std::thread::Builder::new()
                    .name(format!("berti-serve-cell-{i}"))
                    .spawn_scoped(scope, move || sched.run_slot())
                    .expect("budget slot spawns");
            }
            for _ in 0..HTTP_THREADS {
                scope.spawn(move || loop {
                    let stream = conn_rx.lock().expect("conn queue poisoned").recv();
                    match stream {
                        Ok(s) => handle_connection(s, daemon, sched),
                        Err(_) => break, // accept loop closed the channel
                    }
                });
            }
            scope.spawn(move || {
                // A byte, end of file and an error all mean stop.
                let _ = stop.read(&mut [0u8]);
                daemon.shut_down();
                sched.close();
                if let Err(e) = TcpStream::connect(wake_addr) {
                    eprintln!("berti-serve: waking the accept loop at {wake_addr}: {e}");
                }
            });

            // The flag is raised before the waking connection is made,
            // so the accept that returns it (or any later one) ends
            // the loop.
            for stream in listener.incoming() {
                if daemon.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        // Bounded I/O waits mean a stalled client can't
                        // pin a handler forever.
                        let _ = stream.set_read_timeout(Some(HTTP_IO_TIMEOUT));
                        let _ = stream.set_write_timeout(Some(HTTP_IO_TIMEOUT));
                        // Handlers only go away after this loop.
                        let _ = conn_tx.send(stream);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_RETRY_BACKOFF),
                }
            }
            drop(conn_tx);
        });
        // Every budget slot has returned: finalize what they left.
        sched.finish();
        Ok(())
    }
}

/// Where the shutdown thread connects to wake the accept loop: the
/// listener's own address, with a wildcard bind (`0.0.0.0`, `::`)
/// reached through the loopback interface.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Reads one request, routes it, counts it.
fn handle_connection(stream: TcpStream, daemon: &Daemon, sched: &Sched) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let request = match Request::read(&mut reader) {
        Ok(Some(r)) => r,
        Ok(None) => return,
        Err(e) => {
            let mut stats = daemon.stats.lock().expect("stats poisoned");
            stats.http_requests += 1;
            stats.http_errors += 1;
            drop(stats);
            let _ = respond_error(&mut writer, rejection_status(&e), &e.to_string());
            return;
        }
    };
    daemon.stats.lock().expect("stats poisoned").http_requests += 1;
    let status = route(&request, &mut writer, daemon, sched);
    if status >= 400 {
        daemon.stats.lock().expect("stats poisoned").http_errors += 1;
    }
}

/// Dispatches one request; returns the response status for counting.
fn route(req: &Request, w: &mut TcpStream, daemon: &Daemon, sched: &Sched) -> u16 {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let body = Value::Object(vec![("status".to_string(), Value::Str("ok".to_string()))]);
            let _ = respond_json(w, 200, &body);
            200
        }
        ("GET", ["metrics"]) => {
            let stats = *daemon.stats.lock().expect("stats poisoned");
            let sched = *daemon.sched.lock().expect("sched stats poisoned");
            let body = metrics_json(&stats, &sched);
            let _ = respond_json(w, 200, &body);
            200
        }
        ("POST", ["campaigns"]) => post_campaign(req, w, daemon, sched),
        ("GET", ["campaigns"]) => {
            let list = Value::Array(
                daemon
                    .campaigns()
                    .iter()
                    .map(|e| e.summary_json())
                    .collect(),
            );
            let body = Value::Object(vec![("campaigns".to_string(), list)]);
            let _ = respond_json(w, 200, &body);
            200
        }
        ("GET", ["campaigns", id]) => match daemon.find(id) {
            Some(entry) => {
                let _ = respond_json(w, 200, &entry.summary_json());
                200
            }
            None => not_found(w, id),
        },
        ("GET", ["campaigns", id, "result"]) => match daemon.find(id) {
            Some(entry) => match entry.aggregated_json() {
                Some(json) => {
                    let _ = crate::http::respond(w, 200, "application/json", json.as_bytes());
                    200
                }
                None => {
                    let _ = respond_error(
                        w,
                        409,
                        &format!(
                            "campaign {id} is {}, result not ready",
                            entry.status().name()
                        ),
                    );
                    409
                }
            },
            None => not_found(w, id),
        },
        ("GET", ["campaigns", id, "events"]) => match daemon.find(id) {
            Some(entry) => stream_events(req, w, daemon, &entry),
            None => not_found(w, id),
        },
        ("DELETE", ["campaigns", id]) => match daemon.cancel(id) {
            Some(status) => {
                let body = Value::Object(vec![
                    ("id".to_string(), Value::Str((*id).to_string())),
                    ("status".to_string(), Value::Str(status.name().to_string())),
                ]);
                let _ = respond_json(w, 200, &body);
                200
            }
            None => not_found(w, id),
        },
        ("GET" | "POST" | "DELETE", _) => {
            let _ = respond_error(w, 404, &format!("no route for {}", req.path));
            404
        }
        _ => {
            let _ = respond_error(w, 405, &format!("method {} not supported", req.method));
            405
        }
    }
}

fn not_found(w: &mut TcpStream, id: &str) -> u16 {
    let _ = respond_error(w, 404, &format!("no campaign {id}"));
    404
}

/// `POST /campaigns`: the body is either a full [`Campaign`] value
/// (`{"name": …, "cells": […]}`) or a builtin reference
/// (`{"builtin": "quick", "warmup": N, "instr": N}`). A `"trace_dir"`
/// key (or the daemon's `--trace-dir` default) registers that
/// directory's trace files as workloads, enabling the trace-dir
/// campaigns (`traces`, `quick-traces`); every cell's workload is
/// validated against the registry at submission, so unknown names are
/// a 400 with a "did you mean" rather than a failed cell. `?interval=N`
/// requests interval sampling events. The handler admits the campaign
/// to the scheduler itself, with the registry it validated against.
fn post_campaign(req: &Request, w: &mut TcpStream, daemon: &Daemon, sched: &Sched) -> u16 {
    if daemon.shutdown.load(Ordering::SeqCst) {
        let _ = respond_error(w, 503, "daemon is shutting down");
        return 503;
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            let _ = respond_error(w, 400, "body is not utf-8");
            return 400;
        }
    };
    let value = match serde::json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            let _ = respond_error(w, 400, &format!("body is not json: {e}"));
            return 400;
        }
    };
    let trace_dir = value
        .get("trace_dir")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .or_else(|| daemon.default_trace_dir.clone());
    let workload_registry =
        match berti_harness::build_registry(trace_dir.as_deref().map(std::path::Path::new)) {
            Ok(r) => r,
            Err(e) => {
                let _ = respond_error(w, 400, &e);
                return 400;
            }
        };
    let campaign = if let Some(name) = value.get("builtin").and_then(|v| v.as_str()) {
        let mut opts = SimOptions::default();
        if let Some(n) = value.get("warmup").and_then(|v| v.as_u64()) {
            opts.warmup_instructions = n;
        }
        if let Some(n) = value.get("instr").and_then(|v| v.as_u64()) {
            opts.sim_instructions = n;
        }
        let named = registry::builtin(name, opts)
            .or_else(|| registry::trace_campaign(name, &workload_registry, opts));
        match named {
            Some(c) => c,
            None => {
                let _ = respond_error(w, 400, &format!("unknown builtin campaign `{name}`"));
                return 400;
            }
        }
    } else {
        match Campaign::from_value(&value) {
            Ok(c) => c,
            Err(e) => {
                let _ = respond_error(w, 400, &format!("malformed campaign: {e}"));
                return 400;
            }
        }
    };
    if campaign.cells.is_empty() {
        let _ = respond_error(w, 400, "campaign has no cells");
        return 400;
    }
    for cell in &campaign.cells {
        if let Err(msg) = berti_harness::check_workload(&workload_registry, &cell.workload) {
            let _ = respond_error(w, 400, &msg);
            return 400;
        }
    }
    let interval = match req.query_param("interval") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(0) | Err(_) => {
                let _ = respond_error(w, 400, "interval must be a positive integer");
                return 400;
            }
            Ok(n) => Some(n),
        },
        None => None,
    };
    // Per-campaign deadline override: milliseconds, `0` to disable the
    // deadline for this campaign; absent falls back to the daemon's
    // `--cell-timeout-ms` default.
    let cell_timeout_ms = match value.get("cell_timeout_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => {
                let _ = respond_error(w, 400, "cell_timeout_ms must be a non-negative integer");
                return 400;
            }
        },
    };

    let entry = daemon.submit(campaign, interval, trace_dir, cell_timeout_ms);
    if !sched.admit(Arc::clone(&entry), workload_registry) {
        // Shutdown began after the check above.
        daemon.cancel(&entry.id);
        let _ = respond_error(w, 503, "daemon is shutting down");
        return 503;
    }
    let body = Value::Object(vec![
        ("id".to_string(), Value::Str(entry.id.clone())),
        (
            "campaign".to_string(),
            Value::Str(entry.campaign.name.clone()),
        ),
        (
            "cells".to_string(),
            Value::U64(entry.campaign.cells.len() as u64),
        ),
        (
            "status".to_string(),
            Value::Str(entry.status().name().to_string()),
        ),
        (
            "events_url".to_string(),
            Value::Str(format!("/campaigns/{}/events", entry.id)),
        ),
    ]);
    let _ = respond_json(w, 202, &body);
    202
}

/// `GET /campaigns/:id/events`: serves the event log as SSE. Replay
/// starts at `?offset=N`, or one past `Last-Event-ID`, or 0; each
/// frame's `id:` is the log index, so reconnecting clients resume
/// exactly where they left off. The stream ends with an `event: end`
/// frame once the campaign is terminal and the watcher has seen every
/// line (or the daemon is shutting down).
fn stream_events(req: &Request, w: &mut TcpStream, daemon: &Daemon, entry: &CampaignEntry) -> u16 {
    let mut next = match req.query_param("offset") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                let _ = respond_error(w, 400, "offset must be a non-negative integer");
                return 400;
            }
        },
        None => req
            .header("last-event-id")
            .and_then(|v| v.parse::<usize>().ok())
            .map(|id| id + 1)
            .unwrap_or(0),
    };
    daemon.stats.lock().expect("stats poisoned").sse_connections += 1;
    if respond_sse_header(w).is_err() {
        return 200;
    }
    // The stream keeps its own cadence independent of the socket's
    // 10s I/O timeout: after SSE_KEEPALIVE of no events, a comment
    // line goes out, so a healthy-but-quiet stream never looks idle
    // to the write timeout, while a gone client fails the write and
    // frees the handler thread.
    let mut last_write = Instant::now();
    loop {
        for (i, line) in entry.events.from_offset(next) {
            use std::io::Write as _;
            if write!(w, "id: {i}\ndata: {line}\n\n").is_err() {
                return 200; // client went away
            }
            last_write = Instant::now();
            next = i + 1;
        }
        {
            use std::io::Write as _;
            if w.flush().is_err() {
                return 200;
            }
        }
        let status = entry.status();
        let caught_up = next >= entry.events.len();
        if (status.is_terminal() && caught_up) || daemon.shutdown.load(Ordering::SeqCst) {
            use std::io::Write as _;
            let _ = write!(w, "event: end\ndata: {}\n\n", status.name());
            let _ = w.flush();
            return 200;
        }
        if last_write.elapsed() >= SSE_KEEPALIVE {
            use std::io::Write as _;
            if w.write_all(b": keep-alive\n\n").is_err() || w.flush().is_err() {
                return 200;
            }
            last_write = Instant::now();
        }
        // Woken by a new line (a terminal transition appends one) or
        // by shutdown; the keep-alive deadline is the only timeout.
        entry.events.wait_beyond(
            next,
            SSE_KEEPALIVE.saturating_sub(last_write.elapsed()),
            &daemon.shutdown,
        );
    }
}
