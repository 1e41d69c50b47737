//! `btrc gen` writes a builtin's generated record body out as a `.btrc`
//! file, `--tile N` repeating it N times: the file is exactly what
//! encoding the workload's decoded instructions gives, repeated, under
//! a header counting and hashing the whole body.

mod common;

use std::io::Read;
use std::process::{Command, Stdio};

use berti_traces::ingest::{
    encode_btrc, fnv1a64_update, parse_btrc_header, BtrcHeader, BTRC_HEADER_BYTES, FNV_OFFSET_BASIS,
};
use common::TempPath;

/// A cheap builtin to generate in an unoptimized build.
const WORKLOAD: &str = "classification-like";

fn btrc_gen(tile: &str, out: &TempPath) {
    let status = Command::new(env!("CARGO_BIN_EXE_btrc"))
        .args(["gen", "--tile", tile, WORKLOAD])
        .arg(&**out)
        .stdout(Stdio::null())
        .status()
        .expect("btrc runs");
    assert!(status.success(), "btrc gen --tile {tile} failed");
}

#[test]
fn gen_writes_the_encoded_workload_once_or_tiled() {
    let instrs = berti_traces::workload_by_name(WORKLOAD)
        .expect("a builtin")
        .instrs()
        .expect("generates");
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
