//! The `btrc` binary's writers. `btrc gen` writes a builtin's generated
//! record body out as a `.btrc` file, `--tile N` repeating it N times:
//! the file is exactly what encoding the workload's decoded
//! instructions gives, repeated, under a header counting and hashing
//! the whole body. `btrc convert` writes what the slice-level reference
//! encoder gives for the decoded input, or, when the input is
//! malformed, fails and leaves no file behind.

mod common;

use std::ffi::OsStr;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use berti_traces::ingest::{
    decode_champsim, decode_records, encode_btrc, fnv1a64_update, parse_btrc_header, BtrcHeader,
    BTRC_HEADER_BYTES, FNV_OFFSET_BASIS,
};
use common::TempPath;

/// A cheap builtin to generate in an unoptimized build.
const WORKLOAD: &str = "classification-like";

/// Runs `btrc <args>`; whether it exited zero.
fn btrc<S: AsRef<OsStr>>(args: &[S]) -> bool {
    Command::new(env!("CARGO_BIN_EXE_btrc"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("btrc runs")
        .success()
}

fn btrc_gen(tile: &str, out: &TempPath) {
    let args = ["gen", "--tile", tile, WORKLOAD].map(OsStr::new);
    let ok = btrc(&[&args[..], &[out.as_os_str()]].concat());
    assert!(ok, "btrc gen --tile {tile} failed");
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

#[test]
fn gen_writes_the_encoded_workload_once_or_tiled() {
    let body = berti_traces::workload_by_name(WORKLOAD)
        .expect("a builtin")
        .builtin_body()
        .expect("generates");
    let instrs = decode_records(body.body().expect("an owned body")).expect("decodes");
    let expected = encode_btrc(&instrs);
    let body = &expected[BTRC_HEADER_BYTES..];

    let one = TempPath::new("one.btrc");
    btrc_gen("1", &one);
    assert!(
        std::fs::read(&one).expect("reads") == expected,
        "--tile 1 differs from encode_btrc"
    );

    // Read tile by tile: the file is four bodies long.
    let four = TempPath::new("four.btrc");
    btrc_gen("4", &four);
    let mut f = std::fs::File::open(&four).expect("opens");
    let mut header = [0u8; BTRC_HEADER_BYTES];
    f.read_exact(&mut header).expect("a header");
    let mut tile = vec![0u8; body.len()];
    let mut hash = FNV_OFFSET_BASIS;
    for k in 0..4 {
        f.read_exact(&mut tile).expect("a whole tile");
        assert!(tile == body, "tile {k} differs from the encoded body");
        hash = fnv1a64_update(hash, &tile);
    }
    assert_eq!(
        f.read(&mut [0u8; 1]).expect("reads"),
        0,
        "four tiles, no more"
    );
    assert_eq!(
        parse_btrc_header(&header),
        Ok(BtrcHeader {
            record_count: 4 * instrs.len() as u64,
            checksum: hash,
        })
    );
}

/// `btrc convert` of the ChampSim fixture, plain and `.xz`, is the
/// reference encoding of its reference decode; a `.btrc` converts to
/// itself; a ChampSim file that ends inside a record, and an empty
/// `.btrc` body followed by stray bytes, fail and leave no output file.
#[test]
fn convert_writes_the_reference_encoding_or_no_file() {
    let plain = fixture("champsim_500.trace");
    let raw = std::fs::read(&plain).expect("reads");
    let expected = encode_btrc(&decode_champsim(&raw).expect("fixture decodes"));
    let btrc_in = TempPath::file("in.btrc", &expected);
    let truncated = TempPath::file("short.trace", &raw[..raw.len() - 10]);
    let padded = TempPath::file("padded.btrc", &[&encode_btrc(&[])[..], &[0xaa; 3]].concat());

    let have_xz = Command::new("xz").arg("--version").output().is_ok();
    let xz = fixture("champsim_500.trace.xz");
    let mut cases: Vec<(&Path, Option<&[u8]>)> = vec![
        (&plain, Some(&expected)),
        (&btrc_in, Some(&expected)),
        (&truncated, None),
        (&padded, None),
    ];
    if have_xz {
        cases.push((&xz, Some(&expected)));
    } else {
        eprintln!("xz not installed; skipping the .xz input");
    }
    for (input, want) in cases {
        let out = TempPath::new("out.btrc");
        let ok = btrc(&[OsStr::new("convert"), input.as_os_str(), out.as_os_str()]);
        match want {
            Some(want) => {
                assert!(ok, "convert {} failed", input.display());
                assert!(
                    std::fs::read(&out).expect("reads") == want,
                    "convert {} differs from encode_btrc(decode_champsim(..))",
                    input.display()
                );
            }
            None => {
                assert!(!ok, "convert {} succeeded", input.display());
                assert!(!out.exists(), "a failed convert left {}", out.display());
            }
        }
    }
}
