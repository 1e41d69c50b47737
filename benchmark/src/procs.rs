//! The outside of the program under test: the release binaries, a
//! `berti-serve` daemon child, a minimal HTTP/SSE client, and memory
//! high-water marks. The benchmark is a closed loop with one client:
//! every request waits for its reply before the next is sent.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A request that takes longer than this has failed: the slowest
/// operation the benchmark ever waits for is a cold `campaign run
/// quick` (~3 s).
const IO_DEADLINE: Duration = Duration::from_secs(60);

/// The release binaries the campaign workloads drive. They are built by
/// `run.sh` into the directory the benchmark binary itself lives in.
#[derive(Clone, Debug)]
pub struct Bins {
    pub campaign: PathBuf,
    pub serve: PathBuf,
    pub btrc: PathBuf,
}

impl Bins {
    /// Locates the binaries beside the running executable.
    pub fn locate() -> Result<Bins, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        let find = |name: &str| {
            let p = dir.join(name);
            if p.is_file() {
                Ok(p)
            } else {
                Err(format!(
                    "release binary `{name}` is missing from {} — run benchmark/run.sh, which builds it",
                    dir.display()
                ))
            }
        };
        Ok(Bins {
            campaign: find("campaign")?,
            serve: find("berti-serve")?,
            btrc: find("btrc")?,
        })
    }
}

/// What one CLI child did.
pub struct CliRun {
    pub wall_s: f64,
    /// Spawn → first byte of the child's stderr progress line, if any.
    pub first_output_s: Option<f64>,
    pub success: bool,
}

/// Runs `campaign <args>` to completion with stdout discarded and the
/// stderr progress stream read to its end (blocking reads: the client
/// burns no CPU while the child's two jobs run on this 2-vCPU host).
pub fn run_cli(campaign: &Path, args: &[&str]) -> std::io::Result<CliRun> {
    let t0 = Instant::now();
    let mut child = Command::new(campaign)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stderr = child.stderr.take().expect("piped stderr");
    let mut first = [0u8; 1];
    let first_output_s = match stderr.read(&mut first) {
        Ok(1) => Some(t0.elapsed().as_secs_f64()),
        _ => None,
    };
    let mut rest = Vec::new();
    let _ = stderr.read_to_end(&mut rest);
    let status = child.wait()?;
    Ok(CliRun {
        wall_s: t0.elapsed().as_secs_f64(),
        first_output_s,
        success: status.success(),
    })
}

/// A running `berti-serve` on an ephemeral port. Dropping it SIGKILLs
/// and reaps the daemon; [`Daemon::drain`] is the graceful path.
pub struct Daemon {
    child: Child,
    /// Held open until the daemon is gone: it prints a farewell line on
    /// drain and panics (exit 101) if its stdout is a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    pub addr: String,
    pub boot_s: f64,
    pidfile: PathBuf,
}

impl Daemon {
    /// Boots the daemon with two process workers and waits until
    /// `/healthz` answers. The pid is written to `<tmp>/daemon.pid` so
    /// `run.sh` can stop the daemon if the benchmark itself is killed.
    pub fn boot(
        serve: &Path,
        store: &Path,
        trace_dir: &Path,
        tmp: &Path,
    ) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let mut child = Command::new(serve)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--store"])
            .arg(store)
            .arg("--trace-dir")
            .arg(trace_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve.display()))?;
        let pidfile = tmp.join("daemon.pid");
        let _ = std::fs::write(&pidfile, child.id().to_string());
        let mut banner = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .rsplit("http://")
            .next()
            .unwrap_or("")
            .to_string();
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
            boot_s: 0.0,
            pidfile,
        };
        if read.is_err() || !banner.starts_with("berti-serve listening on") {
            return Err(format!("daemon printed no banner: {banner:?}"));
        }
        match http(&daemon.addr, "GET", "/healthz", None) {
            Ok((200, _)) => {}
            other => return Err(format!("daemon /healthz: {other:?}")),
        }
        daemon.boot_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then wait for the graceful drain. Returns the drain
    /// time, or an error if the daemon did not exit 0 within the
    /// deadline (it is killed then).
    pub fn drain(mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let sent = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !sent {
            return Err("kill -TERM failed".to_string());
        }
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let _ = std::fs::remove_file(&self.pidfile);
                    return if status.success() {
                        Ok(t0.elapsed().as_secs_f64())
                    } else {
                        Err(format!("daemon exited {status}"))
                    };
                }
                Ok(None) if t0.elapsed() < IO_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not drain".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.pidfile);
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(IO_DEADLINE))?;
    s.set_write_timeout(Some(IO_DEADLINE))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// One HTTP exchange (`Connection: close`); returns (status, body).
pub fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut s = connect(addr)?;
    let payload = body.unwrap_or("");
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    )?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let body = raw.split_once("\r\n\r\n").ok_or_else(bad)?.1.to_string();
    Ok((status, body))
}

/// One parsed Server-Sent-Events frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SseFrame {
    /// `id: N` + `data: <json>`.
    Data { id: Option<u64>, data: String },
    /// `event: end` + `data: <status>`: the stream is complete.
    End(String),
}

/// Line-at-a-time SSE parser: fields accumulate until the blank line
/// that dispatches the frame; comment lines (keep-alives) are ignored.
#[derive(Default)]
pub struct SseParser {
    id: Option<u64>,
    event: Option<String>,
    data: Option<String>,
}

impl SseParser {
    /// Feeds one line (without its terminator). Returns a frame when
    /// the line completes one.
    pub fn feed(&mut self, line: &str) -> Option<SseFrame> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            let data = self.data.take();
            let id = self.id.take();
            return match (self.event.take(), data) {
                (Some(e), Some(d)) if e == "end" => Some(SseFrame::End(d)),
                (_, Some(d)) => Some(SseFrame::Data { id, data: d }),
                _ => None,
            };
        }
        if line.starts_with(':') {
            return None;
        }
        let (field, value) = line.split_once(':').unwrap_or((line, ""));
        let value = value.strip_prefix(' ').unwrap_or(value);
        match field {
            "id" => self.id = value.parse().ok(),
            "event" => self.event = Some(value.to_string()),
            "data" => match &mut self.data {
                Some(d) => {
                    d.push('\n');
                    d.push_str(value);
                }
                None => self.data = Some(value.to_string()),
            },
            _ => {}
        }
        None
    }
}

/// Follows `GET <path>` as an SSE stream until the `end` frame, calling
/// `on_data` with each data payload and its arrival time. Returns the
/// end status (`done`, `failed`, ...).
pub fn sse_follow(
    addr: &str,
    path: &str,
    mut on_data: impl FnMut(&str, Instant),
) -> std::io::Result<String> {
    let mut s = connect(addr)?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut reader = BufReader::new(s);
    let mut line = String::new();
    // Response head.
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in SSE head",
            ));
        }
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut parser = SseParser::default();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "SSE stream ended without an end frame",
            ));
        }
        match parser.feed(&line) {
            Some(SseFrame::Data { data, .. }) => on_data(&data, Instant::now()),
            Some(SseFrame::End(status)) => return Ok(status),
            None => {}
        }
    }
}

fn status_kib(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn self_peak_rss_mib() -> f64 {
    status_kib("self", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Peak resident sets of `pid` and its live children (the daemon's
/// worker processes), summed, in MiB.
pub fn tree_peak_rss_mib(pid: u32) -> f64 {
    let mut kib = status_kib(&pid.to_string(), "VmHWM:").unwrap_or(0);
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(child) = name
                .to_str()
                .filter(|n| n.bytes().all(|b| b.is_ascii_digit()))
            else {
                continue;
            };
            if status_kib(child, "PPid:") == Some(u64::from(pid)) {
                kib += status_kib(child, "VmHWM:").unwrap_or(0);
            }
        }
    }
    kib as f64 / 1024.0
}

/// Largest peak resident set among the children this process has
/// reaped (`ru_maxrss` of `RUSAGE_CHILDREN`), in MiB: the CLI child's
/// high-water mark, which `/proc` no longer shows once it has exited.
#[allow(unsafe_code)]
pub fn reaped_children_peak_rss_mib() -> f64 {
    // struct rusage on Linux: two `timeval`s (2 longs each) followed by
    // 14 longs, of which the first is ru_maxrss in KiB.
    let mut usage = [0i64; 18];
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    // SAFETY: `usage` is a live, writable buffer of 18 longs, the exact
    // size and alignment of `struct rusage` on 64-bit Linux, which is
    // all `getrusage` writes; the pointer does not outlive the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) };
    if rc == 0 {
        usage[4] as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(text: &str) -> Vec<SseFrame> {
        let mut p = SseParser::default();
        text.split('\n').filter_map(|l| p.feed(l)).collect()
    }

    #[test]
    fn sse_parser_reads_frames_comments_and_the_end_marker() {
        let got = frames(
            "id: 0\ndata: {\"event\":\"campaign_queued\"}\n\n: keep-alive\n\nid: 1\r\ndata: {\"a\":1}\r\n\r\nevent: end\ndata: done\n\n",
        );
        assert_eq!(
            got,
            [
                SseFrame::Data {
                    id: Some(0),
                    data: "{\"event\":\"campaign_queued\"}".to_string()
                },
                SseFrame::Data {
                    id: Some(1),
                    data: "{\"a\":1}".to_string()
                },
                SseFrame::End("done".to_string()),
            ]
        );
    }

    #[test]
    fn sse_parser_joins_multi_line_data_and_tolerates_missing_space() {
        let got = frames("data:one\ndata: two\n\n\n");
        assert_eq!(
            got,
            [SseFrame::Data {
                id: None,
                data: "one\ntwo".to_string()
            }]
        );
    }

    #[test]
    fn rss_probes_read_this_process() {
        assert!(self_peak_rss_mib() > 0.5);
        assert!(tree_peak_rss_mib(std::process::id()) >= self_peak_rss_mib() - 1.0);
        assert!(reaped_children_peak_rss_mib() >= 0.0);
    }
}
