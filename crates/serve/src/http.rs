//! Minimal HTTP/1.1 support: request parsing and response writing
//! over a [`std::net::TcpStream`].
//!
//! Deliberately small: one request per connection (`Connection:
//! close`), bounded header and body sizes, percent-decoding only where
//! the API needs it (query values). Exactly what the daemon's JSON +
//! SSE API requires and nothing more.

use std::io::{BufRead, ErrorKind, Read, Write};

use serde::Value;

/// Largest accepted request body (campaign specs are a few KB; 8 MiB
/// leaves room for very large grids without letting a client exhaust
/// memory).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest accepted header section, request line included.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path without the query string, e.g. `/campaigns/c1/events`.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request from `stream`. Returns `Ok(None)` on a clean
    /// EOF before any bytes (client connected and left), `Err` on a
    /// malformed or oversized request: [`ErrorKind::FileTooLarge`] for
    /// a body over [`MAX_BODY_BYTES`] (see [`rejection_status`]).
    pub fn read(stream: &mut impl BufRead) -> std::io::Result<Option<Request>> {
        let mut budget = MAX_HEADER_BYTES;
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Err(bad("malformed request line"));
        };
        let method = method.to_ascii_uppercase();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (target.to_string(), Vec::new()),
        };

        let mut headers = Vec::new();
        loop {
            let h = read_line(stream, &mut budget)?;
            if h.is_empty() {
                return Err(bad("eof in headers"));
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }

        // Absent Content-Length means no body; a *present but
        // unparseable* value must be an error, not silently zero —
        // treating `Content-Length: ten` as 0 would leave the body
        // bytes in the stream to be misread as a pipelined request.
        let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
            None => 0,
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| bad("malformed content-length"))?,
        };
        if content_length > MAX_BODY_BYTES {
            return Err(std::io::Error::new(
                ErrorKind::FileTooLarge,
                "request body too large",
            ));
        }
        // Read what arrives rather than allocating the claimed length
        // up front, so a client that promises 8 MiB and sends nothing
        // costs nothing.
        let mut body = Vec::new();
        stream
            .by_ref()
            .take(content_length as u64)
            .read_to_end(&mut body)?;
        if body.len() != content_length {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in body",
            ));
        }

        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            body,
        }))
    }

    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path segments, e.g. `/campaigns/c1` → `["campaigns", "c1"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Reads one line of the header section, reading at most `budget`
/// bytes and taking what it read off `budget`; `""` at EOF. A line
/// still open when the budget runs out is an error, so no line grows
/// past the header limit however long the client makes it.
fn read_line(stream: &mut impl BufRead, budget: &mut usize) -> std::io::Result<String> {
    let mut line = String::new();
    *budget -= stream.by_ref().take(*budget as u64).read_line(&mut line)?;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(bad("header section too large"));
    }
    Ok(line)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// The status that answers a request [`Request::read`] rejected: 413
/// for a body over [`MAX_BODY_BYTES`], 400 for anything malformed.
pub fn rejection_status(e: &std::io::Error) -> u16 {
    if e.kind() == ErrorKind::FileTooLarge {
        413
    } else {
        400
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes and `+` (space); invalid escapes pass through.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Human text for the status codes the daemon uses.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with the given body and closes semantics
/// (`Connection: close`).
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        content_type,
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response.
pub fn respond_json(stream: &mut impl Write, status: u16, value: &Value) -> std::io::Result<()> {
    let mut body = serde::json::to_string_pretty(value);
    body.push('\n');
    respond(stream, status, "application/json", body.as_bytes())
}

/// Writes a JSON error `{"error": msg}`.
pub fn respond_error(stream: &mut impl Write, status: u16, msg: &str) -> std::io::Result<()> {
    respond_json(
        stream,
        status,
        &Value::Object(vec![("error".to_string(), Value::Str(msg.to_string()))]),
    )
}

/// Writes the SSE response header; the caller then streams
/// `id:`/`data:` frames on the same connection.
pub fn respond_sse_header(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_line_headers_query_and_body() {
        let raw = b"POST /campaigns?interval=5000&x=a%20b HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let mut r = BufReader::new(&raw[..]);
        let req = Request::read(&mut r).expect("parses").expect("present");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.segments(), vec!["campaigns"]);
        assert_eq!(req.query_param("interval"), Some("5000"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn clean_eof_reads_as_none() {
        let mut r = BufReader::new(&b""[..]);
        assert!(Request::read(&mut r).expect("ok").is_none());
    }

    #[test]
    fn malformed_content_length_is_an_error_not_zero() {
        for bogus in ["ten", "-1", "1e3", "18446744073709551616", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bogus}\r\n\r\nbody");
            let mut r = BufReader::new(raw.as_bytes());
            assert!(
                Request::read(&mut r).is_err(),
                "`Content-Length: {bogus}` must be rejected"
            );
        }
        // Absent header still means an empty body.
        let mut r = BufReader::new(&b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n"[..]);
        let req = Request::read(&mut r).expect("parses").expect("present");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut r = BufReader::new(raw.as_bytes());
        let err = Request::read(&mut r).expect_err("over the limit");
        assert_eq!(rejection_status(&err), 413);
        let mut r = BufReader::new(&b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"[..]);
        let err = Request::read(&mut r).expect_err("malformed");
        assert_eq!(rejection_status(&err), 400);
    }

    #[test]
    fn header_section_is_bounded_with_the_request_line() {
        let head = |line_bytes: usize| {
            let mut raw = b"GET /x HTTP/1.1\r\nX: ".to_vec();
            raw.resize(raw.len() + line_bytes, b'a');
            raw.extend_from_slice(b"\r\n\r\n");
            Request::read(&mut BufReader::new(&raw[..]))
        };
        let fits = MAX_HEADER_BYTES - "GET /x HTTP/1.1\r\nX: \r\n\r\n".len();
        assert!(head(fits).expect("parses").is_some());
        assert_eq!(
            head(fits + 1).expect_err("one byte over").kind(),
            ErrorKind::InvalidData
        );
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        respond(&mut out, 404, "text/plain", b"nope").expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("nope"));
    }
}
