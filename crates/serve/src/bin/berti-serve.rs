//! The `berti-serve` daemon binary.
//!
//! ```text
//! berti-serve [--addr HOST:PORT] [--workers N] [--store DIR]
//!             [--trace-dir DIR] [--cell-timeout-ms N]
//! ```
//!
//! With the hidden `--worker` flag the process instead runs the
//! worker-side frame loop over stdin/stdout (see `berti_serve::proto`);
//! the daemon re-execs its own binary this way to shard campaign cells
//! across processes.
//!
//! SIGTERM/SIGINT request a graceful shutdown: the accept loop stops,
//! in-flight cells finish and publish to the result store, and the
//! process exits 0.

use std::io::Write as _;
use std::os::fd::IntoRawFd as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI32, Ordering};

use berti_serve::proto;
use berti_serve::server::{Server, ServerConfig};

/// The write end of the shutdown self-pipe; `-1` until it exists. The
/// server blocks reading the other end.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// Writes one byte to the self-pipe. An atomic load and `write(2)`
/// are the whole handler, and both are async-signal-safe.
extern "C" fn request_shutdown(_signum: i32) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    let fd = WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

/// Opens the shutdown self-pipe and installs `request_shutdown` for
/// SIGTERM (15) and SIGINT (2) via the libc `signal(2)` symbol — bound
/// directly, like `write(2)`, so the crate needs no foreign-function
/// dependency. Returns the read end, which the server waits on.
fn install_signal_handlers() -> std::io::Result<std::io::PipeReader> {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    let (reader, writer) = std::io::pipe()?;
    // The write end lives as long as the process: the handler may run
    // at any time.
    WAKE_FD.store(writer.into_raw_fd(), Ordering::SeqCst);
    unsafe {
        signal(15, request_shutdown); // SIGTERM
        signal(2, request_shutdown); // SIGINT
    }
    Ok(reader)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        return ExitCode::from(proto::worker_main());
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("berti-serve: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let stop = match install_signal_handlers() {
        Ok(stop) => stop,
        Err(e) => {
            eprintln!("berti-serve: opening the shutdown pipe: {e}");
            return ExitCode::from(1);
        }
    };
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("berti-serve: binding {}: {e}", cfg.addr);
            return ExitCode::from(1);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("berti-serve: resolving local addr: {e}");
            return ExitCode::from(1);
        }
    };
    // The integration suite parses this exact line for the port. A
    // closed stdout must not stop the daemon (`println!` would panic),
    // so both status lines ignore write errors.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "berti-serve listening on http://{addr}");
    let _ = stdout.flush();

    if let Err(e) = server.run(stop) {
        eprintln!("berti-serve: serving: {e}");
        return ExitCode::from(1);
    }
    let _ = writeln!(stdout, "berti-serve: drained, shutting down");
    ExitCode::SUCCESS
}

const USAGE: &str = "\
usage: berti-serve [--addr HOST:PORT] [--workers N] [--store DIR]
                   [--trace-dir DIR] [--cell-timeout-ms N]

  --workers N          global budget: cells in flight across all campaigns,
                       each on a worker process
  --cell-timeout-ms N  per-cell wall-clock deadline (0 disables; default
                       300000); submissions may override per campaign";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or("--workers needs a positive integer")?;
            }
            "--store" => cfg.store_dir = PathBuf::from(value("--store")?),
            "--trace-dir" => cfg.trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            // 0 is meaningful here (disable cell deadlines), unlike
            // `--workers`.
            "--cell-timeout-ms" => {
                cfg.cell_timeout_ms = value("--cell-timeout-ms")?
                    .parse::<u64>()
                    .map_err(|_| "--cell-timeout-ms needs a non-negative integer")?;
            }
            "--help" | "-h" => return Err("help requested".to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cfg)
}
