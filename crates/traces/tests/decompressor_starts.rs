//! How many times reading a compressed ChampSim trace starts its
//! decompressor. Replay needs a counting pass (for the stream's length)
//! and a replay pass, so `open_streaming` starts `gzip` twice: the
//! format sniff's reader becomes the counting pass. `drain_file` has no
//! counting pass and starts it once.
//!
//! The count comes from a logging `gzip` wrapper put first on `PATH`,
//! which changes the environment of the whole process; that is why this
//! test has a binary of its own. It is skipped when `gzip` is absent.

mod common;

use std::os::unix::fs::PermissionsExt as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use berti_traces::ingest::{decode_champsim, drain_file, open_streaming, CHAMPSIM_RECORD_BYTES};
use berti_types::Instr;
use common::TempPath;

/// The first executable `gzip` on `path_var`.
fn find_gzip(path_var: &str) -> Option<PathBuf> {
    std::env::split_paths(path_var)
        .map(|dir| dir.join("gzip"))
        .find(|p| {
            p.metadata()
                .is_ok_and(|m| m.is_file() && m.permissions().mode() & 0o111 != 0)
        })
}

/// ChampSim records of one load each, at distinct IPs and lines.
fn champsim_body(records: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..records {
        let mut r = [0u8; CHAMPSIM_RECORD_BYTES];
        r[0..8].copy_from_slice(&(0x400 + 4 * i).to_le_bytes());
        r[32..40].copy_from_slice(&(0x10_000 + 64 * i).to_le_bytes());
        bytes.extend_from_slice(&r);
    }
    bytes
}

fn starts(log: &Path) -> usize {
    std::fs::read_to_string(log).map_or(0, |s| s.lines().count())
}

#[test]
fn a_compressed_champsim_trace_starts_its_decompressor_once_per_pass() {
    let path_var = std::env::var("PATH").unwrap_or_default();
    let Some(gzip) = find_gzip(&path_var) else {
        eprintln!("gzip not installed; skipping");
        return;
    };
    let body = champsim_body(500);
    let expect = decode_champsim(&body).expect("decodes");
    let plain = TempPath::file("starts.trace", &body);
    let gz = TempPath::new("starts.trace.gz");
    let status = Command::new(&gzip)
        .arg("-c")
        .arg(&*plain)
        .stdout(std::fs::File::create(&gz).expect("creates"))
        .status()
        .expect("gzip runs");
    assert!(status.success());

    let bin = TempPath::dir("starts-bin");
    let log = bin.join("starts.log");
    let wrapper = bin.join("gzip");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\necho start >> '{}'\nexec '{}' \"$@\"\n",
            log.display(),
            gzip.display()
        ),
    )
    .expect("writes the wrapper");
    std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755))
        .expect("makes it executable");
    let mut dirs = vec![bin.to_path_buf()];
    dirs.extend(std::env::split_paths(&path_var));
    std::env::set_var("PATH", std::env::join_paths(dirs).expect("joins"));

    let mut stream = open_streaming(&gz).expect("opens");
    assert_eq!(stream.len(), expect.len());
    let mut buf = vec![Instr::default(); 64];
    let mut got = Vec::new();
    loop {
        let n = stream.next_chunk(&mut buf).expect("decodes");
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, expect);
    assert_eq!(starts(&log), 2, "sniff and counting pass share a start");
    drop(stream);

    std::fs::remove_file(&log).expect("resets the log");
    let mut drained = Vec::new();
    drain_file(&gz, |chunk| {
        drained.extend_from_slice(chunk);
        Ok(())
    })
    .expect("drains");
    assert_eq!(drained, expect);
    assert_eq!(starts(&log), 1, "one forward pass, one start");

    std::env::set_var("PATH", path_var);
}
