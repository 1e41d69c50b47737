//! `btrc` — trace-format utility.
//!
//! ```text
//! btrc convert <in> <out.btrc>   decode any supported trace (ChampSim
//!                                binary, .btrc, .xz/.gz/.zst-compressed)
//!                                and write it pre-decoded
//! btrc gen [--tile N] <workload> <out.btrc>
//!                                pre-decode a builtin synthetic
//!                                workload into a .btrc file, repeated
//!                                N times (for building big fixtures)
//! btrc info <file>               print record count and a summary
//!                                (streamed: never materializes the
//!                                whole trace)
//! btrc list                      list builtin workload names
//! ```

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::process::ExitCode;

use berti_traces::ingest::{
    btrc_header, fnv1a64_update, open_streaming, read_trace_file, write_btrc, FNV_OFFSET_BASIS,
};
use berti_traces::{TraceRegistry, STREAM_CHUNK_INSTRS};
use berti_types::Instr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("convert") if args.len() == 3 => convert(Path::new(&args[1]), Path::new(&args[2])),
        Some("gen") if args.len() == 3 => gen(&args[1], Path::new(&args[2]), 1),
        Some("gen") if args.len() == 5 && args[1] == "--tile" => match args[2].parse::<u64>() {
            Ok(n) if n >= 1 => gen(&args[3], Path::new(&args[4]), n),
            _ => Err(format!("--tile takes a positive count, got '{}'", args[2])),
        },
        Some("info") if args.len() == 2 => info(Path::new(&args[1])),
        Some("list") if args.len() == 1 => {
            for w in TraceRegistry::builtin().workloads() {
                println!("{:24} {}", w.name, w.suite);
            }
            Ok(())
        }
        _ => {
            eprintln!(
                "usage: btrc convert <in> <out.btrc>\n       btrc gen [--tile N] <workload> <out.btrc>\n       btrc info <file>\n       btrc list"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("btrc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn convert(input: &Path, output: &Path) -> Result<(), String> {
    let instrs = read_trace_file(input).map_err(|e| e.to_string())?;
    write_btrc(output, &instrs).map_err(|e| e.to_string())?;
    println!(
        "{} -> {} ({} records)",
        input.display(),
        output.display(),
        instrs.len()
    );
    Ok(())
}

fn gen(workload: &str, output: &Path, tile: u64) -> Result<(), String> {
    let reg = TraceRegistry::builtin();
    let w = reg.get(workload).ok_or_else(|| {
        let mut msg = format!("unknown workload '{workload}'");
        let near = reg.suggest(workload, 3);
        if !near.is_empty() {
            msg.push_str(&format!(" — did you mean {}?", near.join(", ")));
        }
        msg
    })?;
    let btrc = w
        .builtin_body()
        .expect("the builtin registry holds generators only");
    let records = btrc.record_count() as u64 * tile;
    write_tiled(output, btrc.body(), records, tile)
        .map_err(|e| format!("{}: {e}", output.display()))?;
    println!("{workload} -> {} ({records} records)", output.display());
    Ok(())
}

/// Writes a `.btrc` file of `tile` copies of the record body `body`,
/// `records` records in all. Tiling builds arbitrarily large fixtures
/// (e.g. for memory-ceiling CI runs) in the memory of one body. Each
/// byte is hashed once, as it is written: the header goes out first
/// with a zero checksum and is rewritten with the real one at the end.
fn write_tiled(output: &Path, body: &[u8], records: u64, tile: u64) -> std::io::Result<()> {
    let mut f = BufWriter::new(File::create(output)?);
    f.write_all(&btrc_header(records, 0))?;
    let mut hash = FNV_OFFSET_BASIS;
    for _ in 0..tile {
        hash = fnv1a64_update(hash, body);
        f.write_all(body)?;
    }
    let mut f = f.into_inner().map_err(|e| e.into_error())?;
    f.seek(SeekFrom::Start(0))?;
    f.write_all(&btrc_header(records, hash))
}

fn info(path: &Path) -> Result<(), String> {
    // Streamed: a multi-GB trace summarizes in one chunk of memory.
    let mut stream = open_streaming(path).map_err(|e| e.to_string())?;
    let mut buf = vec![Instr::default(); STREAM_CHUNK_INSTRS];
    let (mut records, mut loads, mut stores, mut branches, mut chained) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    loop {
        let n = stream.next_chunk(&mut buf).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        records += n as u64;
        for i in &buf[..n] {
            loads += i.loads.iter().flatten().count() as u64;
            stores += u64::from(i.store.is_some());
            branches += u64::from(i.mispredicted_branch);
            chained += u64::from(i.dep_chain.is_some());
        }
    }
    println!("{}", path.display());
    println!("  records:              {records}");
    println!("  load operands:        {loads}");
    println!("  store operands:       {stores}");
    println!("  mispredicted branches:{branches}");
    println!("  dep-chained records:  {chained}");
    Ok(())
}
