//! Property tests of the daemon's two byte-parsing surfaces: the worker
//! pipe's length-prefixed frames (`proto::read_frame`) and the HTTP
//! request reader (`http::Request::read`).
//!
//! - arbitrary bytes never panic either parser, and every read ends
//!   (the inputs are finite, so a parser that loops without consuming
//!   would hang the test);
//! - a length prefix (or `Content-Length`) larger than the bytes
//!   supplied is a torn-frame (short-body) error, and the claimed
//!   length is never allocated before the bytes arrive; nor is a
//!   request line or header line that never ends buffered past the
//!   header limit;
//! - a reader that hands out 1..n bytes per `read` gives the same
//!   results as one that hands out everything at once;
//! - `write_frame` → `read_frame` round-trips.
//!
//! `PROPTEST_CASES` sets the case count (256 by default); the scheduled
//! fuzz job runs this file at 512.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{repeat, BufReader, ErrorKind, Read};
use std::sync::atomic::{AtomicUsize, Ordering};

use berti_serve::http::{Request, MAX_BODY_BYTES};
use berti_serve::proto::{read_frame, write_frame, MAX_FRAME_BYTES};
use proptest::prelude::*;

/// Records the largest single allocation any thread of this test
/// binary asks for.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its own arguments to the system
// allocator unchanged; the wrapper only reads the requested sizes.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// A reader over `data` whose `read` calls return the next count from
/// `steps` (cycled, each at least 1) or fewer at the end: a pipe or
/// socket that delivers a message in pieces.
struct Trickle<'a> {
    data: &'a [u8],
    steps: &'a [usize],
    call: usize,
}

impl<'a> Trickle<'a> {
    fn new(data: &'a [u8], steps: &'a [usize]) -> Self {
        Trickle {
            data,
            steps,
            call: 0,
        }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.steps[self.call % self.steps.len()];
        self.call += 1;
        let n = step.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Every frame `r` yields, up to and including the first `Ok(None)` or
/// error (errors as their kind: the message is the parser's, not the
/// reader's). Each `Ok(Some)` consumes at least the 4-byte prefix, so
/// this ends on any finite input.
fn frames(mut r: impl Read) -> Vec<Result<Option<String>, ErrorKind>> {
    let mut out = Vec::new();
    loop {
        let next = read_frame(&mut r).map_err(|e| e.kind());
        let more = matches!(next, Ok(Some(_)));
        out.push(next);
        if !more {
            return out;
        }
    }
}

/// `Request::read` over `r`, with its error as a kind.
fn request(r: impl Read) -> Result<Option<String>, ErrorKind> {
    Request::read(&mut BufReader::new(r))
        .map(|req| req.map(|req| format!("{req:?}")))
        .map_err(|e| e.kind())
}

/// A valid frame stream: each text length-prefixed in turn.
fn encode_frames(texts: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    for t in texts {
        write_frame(&mut buf, t).expect("writes to a vec");
    }
    buf
}

/// Arbitrary text over the whole of Unicode, one char per code.
fn text(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
        .collect()
}

/// Pieces that, strung together at random, make near-miss requests:
/// request lines, headers, lengths that do and do not parse, escapes.
const HTTP_PIECES: &[&str] = &[
    "GET ",
    "POST ",
    "DELETE ",
    "/campaigns",
    "/c1/events",
    "?offset=3",
    "&x=%2",
    "%41+b",
    " HTTP/1.1",
    "\r\n",
    "\n",
    "Host: x",
    "Content-Length: ",
    "content-length:",
    "0",
    "7",
    "65536",
    "8388609",
    "-1",
    ":",
    " ",
    "{\"builtin\": \"quick\"}",
    "\u{e9}",
];

fn http_bytes(picks: &[usize], raw: &[u8]) -> Vec<u8> {
    let mut out: Vec<u8> = picks
        .iter()
        .flat_map(|&i| HTTP_PIECES[i % HTTP_PIECES.len()].bytes())
        .collect();
    out.extend_from_slice(raw);
    out
}

proptest! {
    /// Arbitrary bytes (alone, or behind valid frames) never panic
    /// `read_frame`, and reading ends.
    #[test]
    fn arbitrary_bytes_never_panic_read_frame(
        lead in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..40), 0..4),
        small_len in 0u32..64,
        raw in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = encode_frames(&lead.iter().map(|c| text(c)).collect::<Vec<_>>());
        // A small prefix reaches the payload path that a random 4-byte
        // prefix (almost always over the cap) would not.
        bytes.extend_from_slice(&small_len.to_be_bytes());
        bytes.extend_from_slice(&raw);
        let got = frames(&bytes[..]);
        for frame in &got[..lead.len()] {
            prop_assert!(matches!(frame, Ok(Some(_))));
        }
        let got = frames(&raw[..]);
        prop_assert!(!got.is_empty());
    }

    /// Arbitrary bytes, and strings of request pieces, never panic
    /// `Request::read`.
    #[test]
    fn arbitrary_bytes_never_panic_request_read(
        picks in prop::collection::vec(any::<usize>(), 0..24),
        raw in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = request(&raw[..]);
        let _ = request(&http_bytes(&picks, &raw)[..]);
    }

    /// A length prefix larger than the bytes that follow is a torn
    /// frame, wherever in `1..=MAX_FRAME_BYTES` it falls.
    #[test]
    fn short_payload_is_a_torn_frame(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        extra in 1u32..MAX_FRAME_BYTES,
    ) {
        let claimed = (payload.len() as u32).saturating_add(extra).min(MAX_FRAME_BYTES);
        let mut bytes = claimed.to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        let got = read_frame(&mut &bytes[..]).map_err(|e| e.kind());
        prop_assert_eq!(got, Err(ErrorKind::UnexpectedEof));
    }

    /// A `Content-Length` larger than the body that follows is an
    /// error, not a short body.
    #[test]
    fn short_body_is_an_error(
        body in prop::collection::vec(any::<u8>(), 0..256),
        extra in 1usize..MAX_BODY_BYTES,
    ) {
        let claimed = (body.len() + extra).min(MAX_BODY_BYTES);
        let mut bytes = format!("POST /campaigns HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\n")
            .into_bytes();
        bytes.extend_from_slice(&body);
        prop_assert_eq!(request(&bytes[..]), Err(ErrorKind::UnexpectedEof));
    }

    /// Delivering the bytes in pieces of 1..n changes nothing, for
    /// frames and requests alike.
    #[test]
    fn piecewise_reads_match_whole_reads(
        texts in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..40), 0..4),
        picks in prop::collection::vec(any::<usize>(), 0..24),
        raw in prop::collection::vec(any::<u8>(), 0..64),
        steps in prop::collection::vec(1usize..9, 1..8),
    ) {
        let mut framed = encode_frames(&texts.iter().map(|c| text(c)).collect::<Vec<_>>());
        framed.extend_from_slice(&raw);
        prop_assert_eq!(frames(Trickle::new(&framed, &steps)), frames(&framed[..]));

        let req = http_bytes(&picks, &raw);
        prop_assert_eq!(request(Trickle::new(&req, &steps)), request(&req[..]));
        let valid = format!(
            "POST /campaigns?interval=5 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            raw.len()
        );
        let mut valid = valid.into_bytes();
        valid.extend_from_slice(&raw);
        let whole = request(&valid[..]);
        prop_assert!(matches!(whole, Ok(Some(_))));
        prop_assert_eq!(request(Trickle::new(&valid, &steps)), whole);
    }

    /// `write_frame` → `read_frame` is the identity on any sequence of
    /// strings, and the stream then ends cleanly.
    #[test]
    fn frames_round_trip(
        texts in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..64), 0..6),
    ) {
        let texts: Vec<String> = texts.iter().map(|c| text(c)).collect();
        let mut expected: Vec<_> = texts.iter().map(|t| Ok(Some(t.clone()))).collect();
        expected.push(Ok(None));
        prop_assert_eq!(frames(&encode_frames(&texts)[..]), expected);
    }
}

/// The largest claimed lengths with almost nothing behind them: neither
/// parser asks the allocator for anything near the claim. (Other tests
/// of this binary run concurrently, but none allocates a mebibyte.)
#[test]
fn claimed_lengths_are_not_allocated_before_the_bytes_arrive() {
    const CEILING: usize = 1 << 20;
    let mut frame = MAX_FRAME_BYTES.to_be_bytes().to_vec();
    frame.extend_from_slice(b"{\"v\":4}");
    let head = format!("POST /campaigns HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n{{}}");

    LARGEST.store(0, Ordering::Relaxed);
    let torn = read_frame(&mut &frame[..]).map_err(|e| e.kind());
    let short = request(head.as_bytes());
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(torn, Err(ErrorKind::UnexpectedEof));
    assert_eq!(short, Err(ErrorKind::UnexpectedEof));
    assert!(
        largest < CEILING,
        "largest allocation {largest} B for claims of {MAX_FRAME_BYTES} and {MAX_BODY_BYTES} B"
    );

    // 32 MiB of request line, then of one header line, with no newline:
    // each is refused at the header limit, not buffered whole.
    const ENDLESS: u64 = 32 << 20;
    for head in [&b""[..], b"GET /x HTTP/1.1\r\nX-Long: "] {
        LARGEST.store(0, Ordering::Relaxed);
        let got = request(head.chain(repeat(b'a').take(ENDLESS)));
        let largest = LARGEST.load(Ordering::Relaxed);
        assert_eq!(got, Err(ErrorKind::InvalidData));
        assert!(
            largest < CEILING,
            "largest allocation {largest} B for a {ENDLESS} B line"
        );
    }
}
