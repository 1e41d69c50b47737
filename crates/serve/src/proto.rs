//! The parent↔worker process protocol.
//!
//! The daemon re-execs its own binary with a hidden `--worker` flag;
//! parent and worker then exchange **length-prefixed JSON frames** over
//! the child's stdin/stdout: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Framing (rather than
//! line-delimited JSON) keeps the protocol robust to anything the
//! simulator might print and makes torn messages detectable: a worker
//! that dies mid-frame yields a short read, which the parent treats as
//! a crash of the cell in flight.
//!
//! A freshly spawned worker greets the parent before any work — the
//! spawn-time handshake the scheduler enforces under a deadline, so a
//! worker that wedges before it can even speak is killed instead of
//! blocking a budget slot forever. After the hello, one request runs
//! one cell:
//!
//! ```text
//! worker → parent   {"v":4}                                               (once, at spawn)
//! parent → worker   {"v":4,"spec":{…JobSpec…},"interval":5000,"trace_dir":null}
//! worker → parent   {"kind":"interval","event_json":"{…job_interval…}"}   (0+ times)
//! worker → parent   {"kind":"done","report":{…Report…}}                   (or)
//! worker → parent   {"kind":"failed","error":"typed diagnostic"}          (or)
//! worker → parent   {"kind":"error","error":"panic message"}
//! ```
//!
//! The three terminal kinds are the three [`Attempt`] classes of the
//! cell lifecycle (`berti_harness::run_cell`), carried across the pipe
//! unchanged: `"done"` is a report, `"failed"` a typed, deterministic
//! `execute_spec` error (corrupt trace, unknown workload — fatal,
//! never retried), `"error"` a panic caught in the worker (retryable;
//! the worker survives). The worker is reused for the next cell;
//! closing its stdin shuts it down cleanly. An actual process death
//! (SIGKILL, abort, OOM) surfaces to the parent as EOF/short read and
//! fails only the attempt in flight, as does a reply of unknown kind.

use std::io::{Read, Write};

use berti_harness::{execute_spec, Attempt, Event, JobSpec};
use berti_sim::Report;
use serde::{Deserialize, Serialize};

/// Protocol version; a worker rejects requests with a different `v`.
/// v2 added `trace_dir` to [`WorkerRequest`] (the field is required on
/// the wire — the vendored serde derive has no missing-field defaults —
/// hence the version bump). v3 added the [`WorkerHello`] greeting a
/// worker writes at spawn, which the parent reads under the handshake
/// deadline (and which moves the version check to spawn time, before
/// any cell is entrusted to the worker). v4 added the `"failed"` reply
/// kind: a typed `execute_spec` error no longer shares `"error"` with
/// caught panics, so the parent can tell fatal from retryable.
pub const PROTO_VERSION: u32 = 4;

/// Largest accepted frame (reports are a few KB; this is a safety cap,
/// not a tuning knob).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Worker → parent: written once immediately after spawn, before any
/// request is read. The parent treats a missing/slow/mismatched hello
/// as a failed spawn and kills the worker.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerHello {
    /// Protocol version ([`PROTO_VERSION`]).
    pub v: u32,
}

/// Parent → worker: run one cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerRequest {
    /// Protocol version ([`PROTO_VERSION`]).
    pub v: u32,
    /// The cell to simulate.
    pub spec: JobSpec,
    /// Interval-sampler period (forwarded as `"interval"` frames).
    pub interval: Option<u64>,
    /// Trace directory whose files join the workload registry for
    /// this cell (`--trace-dir` campaigns); `null` for builtins only.
    pub trace_dir: Option<String>,
}

/// Worker → parent: one reply frame. `kind` discriminates:
/// `"interval"` carries `event_json`, `"done"` carries `report`,
/// `"failed"` and `"error"` carry `error`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerReply {
    /// `"interval"`, `"done"`, `"failed"`, or `"error"`.
    pub kind: String,
    /// The report, when `kind == "done"`.
    pub report: Option<Report>,
    /// The typed diagnostic (`"failed"`) or captured panic (`"error"`).
    pub error: Option<String>,
    /// A pre-serialized JSONL event line, when `kind == "interval"`.
    pub event_json: Option<String>,
}

impl WorkerReply {
    fn new(kind: &str) -> Self {
        WorkerReply {
            kind: kind.to_string(),
            report: None,
            error: None,
            event_json: None,
        }
    }

    fn interval(event_json: String) -> Self {
        WorkerReply {
            event_json: Some(event_json),
            ..WorkerReply::new("interval")
        }
    }

    /// The terminal reply for an attempt's class.
    fn from_attempt(attempt: Attempt) -> Self {
        match attempt {
            Attempt::Report(report) => WorkerReply {
                report: Some(report),
                ..WorkerReply::new("done")
            },
            Attempt::Fatal(error) => WorkerReply {
                error: Some(error),
                ..WorkerReply::new("failed")
            },
            Attempt::Retryable(error) => WorkerReply {
                error: Some(error),
                ..WorkerReply::new("error")
            },
        }
    }

    /// The attempt class a terminal reply carries; `Err` (a protocol
    /// violation: the worker cannot be trusted further) for an unknown
    /// kind or a `"done"` without its report.
    pub fn into_attempt(self) -> Result<Attempt, String> {
        let error = self
            .error
            .unwrap_or_else(|| "unknown worker error".to_string());
        match self.kind.as_str() {
            "done" => self
                .report
                .map(Attempt::Report)
                .ok_or_else(|| "done reply without report".to_string()),
            "failed" => Ok(Attempt::Fatal(error)),
            "error" => Ok(Attempt::Retryable(error)),
            other => Err(format!("unknown reply kind `{other}`")),
        }
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, json: &str) -> std::io::Result<()> {
    let len = u32::try_from(json.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(json.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary (the
/// peer closed the pipe between messages); `Err` on a short read or an
/// oversized/invalid frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(torn("eof inside frame length"));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(torn("frame exceeds size cap"));
    }
    // Grows with the bytes that arrive, not with the claimed length: a
    // corrupt or hostile prefix costs only what the peer actually sent.
    let mut payload = Vec::new();
    r.by_ref()
        .take(u64::from(len))
        .read_to_end(&mut payload)
        .map_err(|_| torn("eof inside frame payload"))?;
    if payload.len() != len as usize {
        return Err(torn("eof inside frame payload"));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| torn("frame is not utf-8"))
}

fn torn(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, msg)
}

/// Test hook: a worker whose cell's workload matches
/// `BERTI_SERVE_CRASH_WORKLOAD` aborts the whole process — once,
/// arbitrated through exclusive creation of the file named by
/// `BERTI_SERVE_CRASH_MARKER`. This is how the integration suite
/// simulates a `kill -9` at a deterministic point; both variables
/// unset means the hook is inert.
fn maybe_crash_for_test(spec: &JobSpec) {
    let (Ok(workload), Ok(marker)) = (
        std::env::var("BERTI_SERVE_CRASH_WORKLOAD"),
        std::env::var("BERTI_SERVE_CRASH_MARKER"),
    ) else {
        return;
    };
    if spec.workload == workload
        && std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&marker)
            .is_ok()
    {
        std::process::abort();
    }
}

/// Test hook: a worker whose cell's workload matches
/// `BERTI_WORKER_STALL` parks forever instead of simulating — once,
/// arbitrated through exclusive creation of the file named by
/// `BERTI_WORKER_STALL_MARKER`, mirroring the crash hook above. This
/// simulates a wedged worker at a deterministic point so the suite can
/// exercise the scheduler's cell-deadline monitor; both variables
/// unset means the hook is inert.
fn maybe_stall_for_test(spec: &JobSpec) {
    let (Ok(workload), Ok(marker)) = (
        std::env::var("BERTI_WORKER_STALL"),
        std::env::var("BERTI_WORKER_STALL_MARKER"),
    ) else {
        return;
    };
    if spec.workload == workload
        && std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&marker)
            .is_ok()
    {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
}

/// The worker-process main loop: writes the [`WorkerHello`] greeting,
/// then reads [`WorkerRequest`] frames from stdin, simulates, and
/// writes [`WorkerReply`] frames to stdout until stdin closes. Returns
/// the process exit code.
pub fn worker_main() -> u8 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut r = stdin.lock();
    let mut w = stdout.lock();
    let hello = WorkerHello { v: PROTO_VERSION };
    if write_frame(&mut w, &serde::json::to_string(&hello)).is_err() {
        return 1;
    }
    loop {
        let frame = match read_frame(&mut r) {
            Ok(Some(f)) => f,
            Ok(None) => return 0,
            Err(_) => return 1,
        };
        let reply = match serde::json::from_str::<WorkerRequest>(&frame) {
            Ok(req) if req.v != PROTO_VERSION => {
                WorkerReply::from_attempt(Attempt::Retryable(format!(
                    "protocol version mismatch: parent {} vs worker {}",
                    req.v, PROTO_VERSION
                )))
            }
            Err(e) => {
                WorkerReply::from_attempt(Attempt::Retryable(format!("malformed request: {e}")))
            }
            Ok(req) => {
                maybe_crash_for_test(&req.spec);
                maybe_stall_for_test(&req.spec);
                run_cell(&req, &mut w)
            }
        };
        if write_frame(&mut w, &serde::json::to_string(&reply)).is_err() {
            return 1;
        }
    }
}

/// Runs one cell as one classified attempt, streaming interval events
/// as frames as they occur so live SSE watchers see them in real time.
/// Interval-frame write failures are ignored here: if the parent is
/// gone, the final reply write fails too and the worker exits.
fn run_cell(req: &WorkerRequest, w: &mut impl Write) -> WorkerReply {
    WorkerReply::from_attempt(Attempt::catching(|| {
        let mut emit = |e: Event| {
            let frame = serde::json::to_string(&WorkerReply::interval(serde::json::to_string(&e)));
            let _ = write_frame(&mut *w, &frame);
        };
        let trace_dir = req.trace_dir.as_deref().map(std::path::Path::new);
        execute_spec(&req.spec, trace_dir, req.interval, &mut emit)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").expect("writes");
        write_frame(&mut buf, "second").expect("writes");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("ok"), Some("{\"a\":1}".into()));
        assert_eq!(read_frame(&mut r).expect("ok"), Some("second".into()));
        assert_eq!(read_frame(&mut r).expect("ok"), None, "clean eof");
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").expect("writes");
        let torn = &buf[..buf.len() - 2];
        let mut r = torn;
        assert!(read_frame(&mut r).is_err(), "short payload is detected");
        let mut r = &buf[..2];
        assert!(
            read_frame(&mut r).is_err(),
            "short length prefix is detected"
        );
    }

    #[test]
    fn hello_roundtrips_and_carries_the_protocol_version() {
        let hello = WorkerHello { v: PROTO_VERSION };
        let back: WorkerHello =
            serde::json::from_str(&serde::json::to_string(&hello)).expect("parses");
        assert_eq!(back.v, PROTO_VERSION);
    }

    #[test]
    fn request_and_reply_roundtrip_through_json() {
        let spec = JobSpec {
            workload: "lbm-like".to_string(),
            l1: berti_sim::PrefetcherChoice::Berti,
            l2: None,
            opts: berti_sim::SimOptions::default(),
            config: berti_types::SystemConfig::default(),
        };
        let req = WorkerRequest {
            v: PROTO_VERSION,
            spec,
            interval: Some(1000),
            trace_dir: Some("/tmp/traces".to_string()),
        };
        let back: WorkerRequest =
            serde::json::from_str(&serde::json::to_string(&req)).expect("parses");
        assert_eq!(back.spec.key(), req.spec.key());
        assert_eq!(back.interval, Some(1000));
        assert_eq!(back.trace_dir.as_deref(), Some("/tmp/traces"));

        // A typed failure and a caught panic stay distinct on the wire.
        for (attempt, kind) in [
            (Attempt::Fatal("boom".to_string()), "failed"),
            (Attempt::Retryable("boom".to_string()), "error"),
        ] {
            let reply = WorkerReply::from_attempt(attempt.clone());
            let back: WorkerReply =
                serde::json::from_str(&serde::json::to_string(&reply)).expect("parses");
            assert_eq!(back.kind, kind);
            assert_eq!(back.error.as_deref(), Some("boom"));
            assert!(back.report.is_none());
            assert_eq!(
                format!("{:?}", back.into_attempt()),
                format!("{:?}", Ok::<_, String>(attempt))
            );
        }
        assert!(WorkerReply::new("bogus").into_attempt().is_err());
        assert!(WorkerReply::new("done").into_attempt().is_err());
    }
}
