//! Trace containers and workload definitions.
//!
//! A [`WorkloadDef`] is one of two things — a builtin synthetic
//! generator or a trace file discovered on disk — so that file-backed
//! and generated workloads flow through one registry (see
//! [`crate::TraceRegistry`]).
//!
//! Replay is *streamed*: a [`Trace`] is a chunked cursor over an
//! [`InstrStream`] (DESIGN.md §9), not a materialized `Vec<Instr>`.
//! Every source a cell can replay from memory — a builtin generator's
//! output, a [`Trace::new`] sequence, a `.btrc` file, a small ChampSim
//! or compressed file — is a `.btrc` record body (40 bytes an
//! instruction) behind a shared [`MmapBtrc`] handle, replayed by the
//! one record cursor, [`MmapStream`]; only big ChampSim/compressed
//! traces decode incrementally in bounded memory instead.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use berti_types::{Instr, RecordError, MAX_DEP_CHAINS};

use crate::cache;
use crate::ingest::{encode_records, IngestError, MmapBtrc, MmapStream};
use crate::stream::{InstrStream, STREAM_CHUNK_INSTRS};

/// Benchmark suite a workload belongs to (used for per-suite averages,
/// matching the paper's SPEC/GAP/CloudSuite breakdowns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2017-like single-threaded kernels.
    Spec,
    /// GAP graph kernels.
    Gap,
    /// CloudSuite-like scale-out services.
    Cloud,
    /// A trace file supplied by the user (`--trace-dir`).
    Trace,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Spec => f.write_str("SPEC"),
            Suite::Gap => f.write_str("GAP"),
            Suite::Cloud => f.write_str("CloudSuite"),
            Suite::Trace => f.write_str("trace"),
        }
    }
}

/// Where a workload's instructions come from.
#[derive(Clone, Debug)]
enum Source {
    /// A deterministic generator function — the form every builtin
    /// suite uses. It returns the trace's `.btrc` record body, as
    /// [`crate::TraceBuilder::into_body`] produces it. Generation is
    /// memoized once per process (keyed by the function pointer), so
    /// the many cells of a campaign share one body.
    Builtin(fn() -> Vec<u8>),
    /// A trace file, opened through the process-wide trace cache:
    /// decompressed by extension, decoded by content (bodies starting
    /// with the `BTRC` magic are `.btrc`, anything else is ChampSim).
    File(PathBuf),
}

/// A named workload that can produce its trace on demand.
#[derive(Clone, Debug)]
pub struct WorkloadDef {
    /// Display name (e.g. "mcf-1554-like", "bfs-kron").
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    source: Source,
}

impl WorkloadDef {
    /// Defines a workload from a deterministic generator function that
    /// returns the trace's `.btrc` record body.
    pub fn new(name: impl Into<String>, suite: Suite, generate: fn() -> Vec<u8>) -> Self {
        Self {
            name: name.into(),
            suite,
            source: Source::Builtin(generate),
        }
    }

    /// The backing file for file-backed workloads, `None` for builtins.
    pub fn source_path(&self) -> Option<&Path> {
        match &self.source {
            Source::Builtin(_) => None,
            Source::File(path) => Some(path),
        }
    }

    /// Human-readable origin: the file path for file-backed workloads,
    /// `builtin (<suite>)` otherwise.
    pub fn source_desc(&self) -> String {
        match self.source_path() {
            Some(p) => p.display().to_string(),
            None => format!("builtin ({})", self.suite),
        }
    }

    /// The generated record body of a builtin workload, `None` for a
    /// file-backed one.
    pub fn builtin_body(&self) -> Option<Arc<MmapBtrc>> {
        match self.source {
            Source::Builtin(generate) => Some(cache::gen_btrc(generate)),
            Source::File(_) => None,
        }
    }

    /// Opens a streaming cursor over the workload's instructions.
    pub fn open(&self) -> Result<Box<dyn InstrStream>, IngestError> {
        let stream: Box<dyn InstrStream> = match &self.source {
            Source::Builtin(generate) => Box::new(MmapStream::new(cache::gen_btrc(*generate))),
            Source::File(path) => cache::open_file(path)?,
        };
        if stream.is_empty() {
            return Err(IngestError::EmptyTrace(
                self.source_path()
                    .map_or_else(|| PathBuf::from(&self.name), Path::to_path_buf),
            ));
        }
        Ok(stream)
    }

    /// Produces the replay cursor, surfacing decode/I-O failures as
    /// errors.
    pub fn try_trace(&self) -> Result<Trace, IngestError> {
        Trace::from_stream(self.name.clone(), self.open()?)
    }

    /// Produces the trace (deterministic; safe to call repeatedly).
    ///
    /// # Panics
    ///
    /// Panics if the source fails (file unreadable, corrupt trace).
    /// Builtin generators never fail; callers holding file-backed
    /// workloads should prefer [`WorkloadDef::try_trace`].
    pub fn trace(&self) -> Trace {
        self.try_trace()
            .unwrap_or_else(|e| panic!("workload '{}': {e}", self.name))
    }
}

/// A [`WorkloadDef`] for a trace file (any supported format or
/// compression), named `name`, in suite [`Suite::Trace`].
pub fn workload_from_file(name: impl Into<String>, path: impl Into<PathBuf>) -> WorkloadDef {
    WorkloadDef {
        name: name.into(),
        suite: Suite::Trace,
        source: Source::File(path.into()),
    }
}

/// A replayable instruction trace. Replays cyclically, as ChampSim
/// replays SimPoint traces when a core needs more instructions.
///
/// Internally a chunked cursor over an [`InstrStream`]: the hot
/// [`Trace::next_instr`] serves out of the chunk buffer, and the
/// `#[cold]` refill pulls the next chunk into it, rewinding the stream
/// at end-of-pass. Only one chunk ([`STREAM_CHUNK_INSTRS`]
/// instructions) is resident, whatever the trace's length.
pub struct Trace {
    name: Arc<str>,
    stream: Box<dyn InstrStream>,
    /// The chunk buffer; `cur[..filled]` is valid.
    cur: Vec<Instr>,
    pos: usize,
    filled: usize,
    len: usize,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("name", &self.name)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

// `is_empty` would be dead code: construction rejects empty traces, so
// the length is always >= 1 and `len` is a loop bound, not a container
// query.
#[allow(clippy::len_without_is_empty)]
impl Trace {
    /// Wraps an instruction sequence, encoded into an owned record body
    /// and replayed by the same record cursor as every other source.
    ///
    /// # Panics
    ///
    /// Panics if `instrs` is empty, or if an instruction has no `.btrc`
    /// record (a `dep_chain` at or above [`MAX_DEP_CHAINS`], reachable
    /// through the public fields) — naming its index, here rather than
    /// mid-replay.
    pub fn new(name: impl Into<Arc<str>>, instrs: Vec<Instr>) -> Self {
        assert!(!instrs.is_empty(), "a trace needs instructions");
        for (index, i) in instrs.iter().enumerate() {
            if let Some(c) = i.dep_chain.filter(|&c| usize::from(c) >= MAX_DEP_CHAINS) {
                panic!(
                    "instruction {index}: {}",
                    RecordError::DepChainOutOfRange(c)
                );
            }
        }
        let btrc = MmapBtrc::from_body(encode_records(&instrs));
        Self::from_stream(name, Box::new(MmapStream::new(Arc::new(btrc))))
            .expect("in-memory streams cannot fail")
    }

    /// Wraps a streaming cursor, priming the first chunk (so first-chunk
    /// corruption is a typed error here, not a panic mid-replay).
    ///
    /// # Errors
    ///
    /// [`IngestError::EmptyTrace`] for an empty stream (the simulator
    /// replays cyclically and cannot cycle an empty trace), or
    /// whatever the stream's first chunk surfaces.
    pub fn from_stream(
        name: impl Into<Arc<str>>,
        mut stream: Box<dyn InstrStream>,
    ) -> Result<Self, IngestError> {
        let name: Arc<str> = name.into();
        if stream.is_empty() {
            return Err(IngestError::EmptyTrace(PathBuf::from(&*name)));
        }
        let len = stream.len();
        let chunk = len.min(STREAM_CHUNK_INSTRS);
        let mut cur = vec![Instr::default(); chunk];
        let filled = stream.next_chunk(&mut cur)?;
        debug_assert!(filled > 0, "non-empty stream yielded an empty first chunk");
        Ok(Self {
            name,
            stream,
            cur,
            pos: 0,
            filled,
            len,
        })
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unique instructions before the trace loops.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The next instruction (cycling).
    #[inline]
    pub fn next_instr(&mut self) -> Instr {
        if self.pos == self.filled {
            self.refill();
        }
        let i = self.cur[self.pos];
        self.pos += 1;
        i
    }

    /// Pulls the next chunk, rewinding the stream at end-of-pass
    /// (cyclic replay).
    ///
    /// # Panics
    ///
    /// Mid-replay stream corruption (e.g. a `.btrc` body failing its
    /// lazy checksum when the chunk that completes the file's first
    /// full coverage is pulled — by this cursor or, the progress being
    /// shared, after other cursors hashed the rest) panics with the
    /// typed error's message: `next_instr` is the simulator's
    /// infallible hot path, and the harness already converts worker
    /// panics into failed cells. Everything detectable at open time —
    /// which includes the checksum of a file no longer than the first
    /// chunk — surfaces as a typed error from
    /// [`WorkloadDef::try_trace`] instead.
    #[cold]
    fn refill(&mut self) {
        let fill = |stream: &mut Box<dyn InstrStream>, buf: &mut [Instr]| {
            stream
                .next_chunk(buf)
                .unwrap_or_else(|e| panic!("trace stream failed mid-replay: {e}"))
        };
        let mut n = fill(&mut self.stream, &mut self.cur);
        if n == 0 {
            self.stream
                .rewind()
                .unwrap_or_else(|e| panic!("trace stream failed to rewind: {e}"));
            n = fill(&mut self.stream, &mut self.cur);
            assert!(n > 0, "rewound stream yielded no instructions");
        }
        self.filled = n;
        self.pos = 0;
    }

    /// A fresh replay handle over the same underlying trace.
    ///
    /// # Panics
    ///
    /// Panics if the stream cannot be forked (e.g. the backing file
    /// vanished mid-run); shared in-memory and mmap backends cannot
    /// fail.
    pub fn restarted(&self) -> Trace {
        let stream = self
            .stream
            .fork()
            .unwrap_or_else(|e| panic!("trace '{}' failed to fork: {e}", self.name));
        Trace::from_stream(Arc::clone(&self.name), stream)
            .unwrap_or_else(|e| panic!("trace '{}' failed to restart: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::decode_records;
    use berti_types::Ip;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn trace_cycles() {
        let mut t = Trace::new("t", vec![Instr::alu(Ip::new(1)), Instr::alu(Ip::new(2))]);
        assert_eq!(t.next_instr().ip, Ip::new(1));
        assert_eq!(t.next_instr().ip, Ip::new(2));
        assert_eq!(t.next_instr().ip, Ip::new(1), "wraps around");
        let mut fresh = t.restarted();
        assert_eq!(fresh.next_instr().ip, Ip::new(1));
    }

    #[test]
    fn cursor_replay_crosses_chunk_boundaries() {
        // Longer than one chunk: the cursor must refill mid-pass and
        // wrap across the rewind without dropping or duplicating.
        let n = STREAM_CHUNK_INSTRS * 2 + 17;
        let instrs: Vec<Instr> = (0..n).map(|i| Instr::alu(Ip::new(i as u64))).collect();
        let mut t = Trace::new("big", instrs);
        assert_eq!(t.len(), n);
        for round in 0..2 {
            for i in 0..n {
                assert_eq!(
                    t.next_instr().ip,
                    Ip::new(i as u64),
                    "round {round}, instr {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs instructions")]
    fn empty_trace_rejected() {
        let _ = Trace::new("t", vec![]);
    }

    #[test]
    #[should_panic(expected = "instruction 1: dep_chain 8 >= MAX_DEP_CHAINS (8)")]
    fn unencodable_instruction_rejected_at_construction() {
        let mut chained = Instr::alu(Ip::new(2));
        chained.dep_chain = Some(MAX_DEP_CHAINS as u8);
        let _ = Trace::new("t", vec![Instr::alu(Ip::new(1)), chained]);
    }

    #[test]
    fn builtin_workloads_describe_their_origin() {
        let w = WorkloadDef::new("t", Suite::Spec, || {
            encode_records(&[Instr::alu(Ip::new(1))])
        });
        assert_eq!(w.source_desc(), "builtin (SPEC)");
        assert!(w.source_path().is_none());
        assert_eq!(w.try_trace().expect("generates").len(), 1);
    }

    #[test]
    fn empty_source_is_a_typed_error_not_a_panic() {
        let w = WorkloadDef::new("hollow", Suite::Spec, Vec::new);
        assert!(matches!(w.try_trace(), Err(IngestError::EmptyTrace(_))));
    }

    #[test]
    fn workload_instrs_are_shared_not_regenerated() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn gen() -> Vec<u8> {
            CALLS.fetch_add(1, Ordering::SeqCst);
            encode_records(&[Instr::alu(Ip::new(3)); 5])
        }
        let w = WorkloadDef::new("g", Suite::Spec, gen);
        let body = w.builtin_body().expect("a builtin");
        assert!(Arc::ptr_eq(&body, &w.builtin_body().expect("memoized")));
        assert_eq!(
            decode_records(body.body()).expect("decodes"),
            [Instr::alu(Ip::new(3)); 5]
        );
        assert_eq!(w.trace().len(), 5);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "generated once");
    }
}
