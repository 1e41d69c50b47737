//! `btrc` — trace-format utility.
//!
//! ```text
//! btrc convert <in> <out.btrc>   decode any supported trace (ChampSim
//!                                binary, .btrc, .xz/.gz/.zst-compressed)
//!                                and write it pre-decoded (streamed:
//!                                one pass, one chunk in memory; a
//!                                failed convert leaves no output file)
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
    btrc_header, drain_file, encode_records, fnv1a64_update, IngestError, FNV_OFFSET_BASIS,
};
use berti_traces::TraceRegistry;
use berti_types::RECORD_BYTES;

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
    let records = write_btrc_file(output, |out| {
        drain_file(input, |chunk| out.write(&encode_records(chunk)))
    })
    .map_err(|e| e.to_string())?;
    println!(
        "{} -> {} ({records} records)",
        input.display(),
        output.display()
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
    let body = btrc.body().expect("a generated body is owned");
    // Tiling builds arbitrarily large fixtures (e.g. for memory-ceiling
    // CI runs) in the memory of one body.
    let records = write_btrc_file(output, |out| (0..tile).try_for_each(|_| out.write(body)))
        .map_err(|e| e.to_string())?;
    println!("{workload} -> {} ({records} records)", output.display());
    Ok(())
}

/// A `.btrc` file written as its body arrives. Each byte is hashed
/// once, as it is written: the header goes out first with a zero count
/// and checksum and is rewritten with the real ones at the end.
struct BtrcWriter<'a> {
    path: &'a Path,
    out: BufWriter<File>,
    bytes: u64,
    hash: u64,
}

impl BtrcWriter<'_> {
    /// Appends whole records to the body.
    fn write(&mut self, records: &[u8]) -> Result<(), IngestError> {
        self.hash = fnv1a64_update(self.hash, records);
        self.bytes += records.len() as u64;
        self.out
            .write_all(records)
            .map_err(|e| IngestError::io(self.path, &e))
    }
}

/// Creates `output` and hands `fill` a [`BtrcWriter`] over it; returns
/// the record count written. On any failure the partial file is
/// removed, so a failed run leaves nothing at `output`.
fn write_btrc_file(
    output: &Path,
    fill: impl FnOnce(&mut BtrcWriter) -> Result<(), IngestError>,
) -> Result<u64, IngestError> {
    let io = |e: std::io::Error| IngestError::io(output, &e);
    let written = File::create(output).map_err(io).and_then(|f| {
        let mut w = BtrcWriter {
            path: output,
            out: BufWriter::new(f),
            bytes: 0,
            hash: FNV_OFFSET_BASIS,
        };
        w.out.write_all(&btrc_header(0, 0)).map_err(io)?;
        fill(&mut w)?;
        let records = w.bytes / RECORD_BYTES as u64;
        let mut f = w.out.into_inner().map_err(|e| io(e.into_error()))?;
        f.seek(SeekFrom::Start(0)).map_err(io)?;
        f.write_all(&btrc_header(records, w.hash)).map_err(io)?;
        Ok(records)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(output);
    }
    written
}

fn info(path: &Path) -> Result<(), String> {
    // Streamed: a multi-GB trace summarizes in one chunk of memory.
    let (mut records, mut loads, mut stores, mut branches, mut chained) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    drain_file(path, |chunk| {
        records += chunk.len() as u64;
        for i in chunk {
            loads += i.loads.iter().flatten().count() as u64;
            stores += u64::from(i.store.is_some());
            branches += u64::from(i.mispredicted_branch);
            chained += u64::from(i.dep_chain.is_some());
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    println!("{}", path.display());
    println!("  records:              {records}");
    println!("  load operands:        {loads}");
    println!("  store operands:       {stores}");
    println!("  mispredicted branches:{branches}");
    println!("  dep-chained records:  {chained}");
    Ok(())
}
