//! A deliberately tiny HTTP/1.1 subset, hand-rolled over `std` streams.
//!
//! The server speaks exactly what `perple client` and a plain `curl`
//! need: one request per connection (`Connection: close`), headers up to
//! a fixed cap, optional `Content-Length` bodies, and chunked
//! transfer-encoding for streamed JSONL responses. Nothing here
//! allocates per-byte or depends on anything outside `std`.

use crate::ServeError;
use std::io::{BufRead, Read, Write};

/// Upper bound on a request body (campaign specs are a few hundred
/// bytes; 1 MiB leaves room for generous suites without letting a
/// client balloon server memory).
pub const MAX_BODY: usize = 1 << 20;
/// Upper bound on a single header line.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers per message.
const MAX_HEADERS: usize = 64;

fn read_line(r: &mut impl BufRead) -> Result<String, ServeError> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(ServeError::Protocol("header line too long".into()));
                }
            }
            Err(e) => return Err(ServeError::Io(e.to_string())),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| ServeError::Protocol("non-UTF-8 header line".into()))
}

fn read_headers(r: &mut impl BufRead) -> Result<Vec<(String, String)>, ServeError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ServeError::Protocol("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServeError::Protocol(format!("malformed header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n == &name.to_ascii_lowercase())
        .map(|(_, v)| v.as_str())
}

/// One parsed request. Header names are lowercased at parse time.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Raw query string (empty if absent), plus parsed pairs.
    pub query: Vec<(String, String)>,
    /// Lowercased header name → trimmed value, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` delimited; empty otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request from the stream. Enforces [`MAX_BODY`].
    pub fn read_from(r: &mut impl BufRead) -> Result<Request, ServeError> {
        let start = read_line(r)?;
        let mut parts = start.split_ascii_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| ServeError::Protocol("empty request line".into()))?
            .to_string();
        let target = parts
            .next()
            .ok_or_else(|| ServeError::Protocol("request line missing target".into()))?
            .to_string();
        let headers = read_headers(r)?;
        let body_len = match header(&headers, "content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| ServeError::Protocol(format!("bad content-length: {v:?}")))?,
            None => 0,
        };
        if body_len > MAX_BODY {
            return Err(ServeError::Protocol(format!(
                "body of {body_len} bytes exceeds the {MAX_BODY} byte cap"
            )));
        }
        let mut body = vec![0u8; body_len];
        r.read_exact(&mut body)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let (path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q),
            None => (target.clone(), ""),
        };
        let query = raw_query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (kv.to_string(), String::new()),
            })
            .collect();
        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
        })
    }

    /// First value of the (lowercased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// First value of query key `key`.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Writes a complete fixed-length response and leaves the connection to
/// be closed by the caller (`Connection: close` is always sent).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(w, "HTTP/1.1 {status} {reason}\r\n")?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    write!(w, "Content-Length: {}\r\n", body.len())?;
    write!(w, "Connection: close\r\n")?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// A chunked-transfer response in progress: the head is written by
/// [`ChunkedWriter::start`], each [`ChunkedWriter::chunk`] flushes one
/// chunk (so the submitter sees records as they complete), and
/// [`ChunkedWriter::finish`] terminates the stream.
pub struct ChunkedWriter<W: Write> {
    inner: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head announcing chunked transfer-encoding.
    pub fn start(
        mut inner: W,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> std::io::Result<Self> {
        write!(inner, "HTTP/1.1 {status} {reason}\r\n")?;
        write!(inner, "Content-Type: {content_type}\r\n")?;
        write!(inner, "Transfer-Encoding: chunked\r\n")?;
        write!(inner, "Connection: close\r\n\r\n")?;
        inner.flush()?;
        Ok(ChunkedWriter { inner })
    }

    /// Emits one chunk and flushes it. Empty payloads are skipped (an
    /// empty chunk would terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.inner, "{:x}\r\n", data.len())?;
        self.inner.write_all(data)?;
        write!(self.inner, "\r\n")?;
        self.inner.flush()
    }

    /// Writes the zero-length terminator chunk.
    pub fn finish(mut self) -> std::io::Result<()> {
        write!(self.inner, "0\r\n\r\n")?;
        self.inner.flush()
    }
}

/// Client-side parsed response head.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Lowercased header name → trimmed value.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// Reads a status line plus headers (not the body).
    pub fn read_head(r: &mut impl BufRead) -> Result<Response, ServeError> {
        let start = read_line(r)?;
        let mut parts = start.split_ascii_whitespace();
        let version = parts
            .next()
            .ok_or_else(|| ServeError::Protocol("empty status line".into()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(ServeError::Protocol(format!("not HTTP: {start:?}")));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| ServeError::Protocol(format!("bad status line: {start:?}")))?;
        Ok(Response {
            status,
            headers: read_headers(r)?,
        })
    }

    /// First value of the (lowercased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Reads the response body according to this head: chunked decode if
    /// `Transfer-Encoding: chunked`, else `Content-Length`, else until
    /// EOF. Calls `on_line` for every complete `\n`-terminated line as
    /// it arrives (and once for a trailing unterminated line).
    ///
    /// Every form is read in bounded pieces, so memory follows the longest
    /// line, not the body: a line longer than [`MAX_BODY`] bytes (a
    /// trailing `\r` included) is a [`ServeError::Protocol`], raised
    /// before `on_line` sees it, while the total length is unbounded
    /// (result streams are legitimately long).
    pub fn read_body_lines(
        &self,
        r: &mut impl BufRead,
        on_line: &mut dyn FnMut(&str),
    ) -> Result<(), ServeError> {
        let mut pending: Vec<u8> = Vec::new();
        if self
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            loop {
                let size_line = read_line(r)?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| ServeError::Protocol(format!("bad chunk size: {size_line:?}")))?;
                if size == 0 {
                    let _ = read_line(r); // trailing CRLF after terminator
                    break;
                }
                if size > MAX_BODY {
                    return Err(ServeError::Protocol(format!(
                        "chunk of {size} bytes exceeds the {MAX_BODY} byte cap"
                    )));
                }
                let got = feed(&mut r.by_ref().take(size as u64), &mut pending, on_line)?;
                if got < size as u64 {
                    return Err(ServeError::Io(format!(
                        "chunk ended after {got} of {size} bytes"
                    )));
                }
                let mut crlf = [0u8; 2];
                r.read_exact(&mut crlf)
                    .map_err(|e| ServeError::Io(e.to_string()))?;
            }
        } else if let Some(len) = self.header("content-length") {
            let len: u64 = len
                .parse()
                .map_err(|_| ServeError::Protocol("bad content-length".into()))?;
            let got = feed(&mut r.by_ref().take(len), &mut pending, on_line)?;
            if got < len {
                return Err(ServeError::Io(format!(
                    "body ended after {got} of {len} bytes"
                )));
            }
        } else {
            feed(r, &mut pending, on_line)?;
        }
        if !pending.is_empty() {
            let text = String::from_utf8_lossy(&pending).to_string();
            on_line(text.trim_end_matches('\r'));
        }
        Ok(())
    }
}

/// Reads `src` to EOF in bounded pieces, calling `on_line` for every
/// complete line and keeping the unterminated tail in `pending`. Returns
/// the number of bytes read.
fn feed(
    src: &mut impl Read,
    pending: &mut Vec<u8>,
    on_line: &mut dyn FnMut(&str),
) -> Result<u64, ServeError> {
    let mut piece = [0u8; 8 * 1024];
    let mut total = 0u64;
    loop {
        let n = match src.read(&mut piece) {
            Ok(0) => return Ok(total),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServeError::Io(e.to_string())),
        };
        total += n as u64;
        let mut rest = &piece[..n];
        loop {
            let newline = rest.iter().position(|&b| b == b'\n');
            let end = newline.unwrap_or(rest.len());
            if pending.len() + end > MAX_BODY {
                return Err(ServeError::Protocol(format!(
                    "line exceeds the {MAX_BODY} byte cap"
                )));
            }
            pending.extend_from_slice(&rest[..end]);
            let Some(pos) = newline else { break };
            on_line(String::from_utf8_lossy(pending).trim_end_matches('\r'));
            pending.clear();
            rest = &rest[pos + 1..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_query_and_body() {
        let raw = b"POST /submit?wait=1&client=ci HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nname=smok";
        let mut r = BufReader::new(&raw[..]);
        let req = Request::read_from(&mut r).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/submit");
        assert_eq!(req.query("wait"), Some("1"));
        assert_eq!(req.query("client"), Some("ci"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"name=smok");
    }

    #[test]
    fn rejects_oversized_bodies_and_bad_lengths() {
        let raw = format!(
            "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut r = BufReader::new(raw.as_bytes());
        assert!(matches!(
            Request::read_from(&mut r),
            Err(ServeError::Protocol(_))
        ));
        let raw = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert!(matches!(
            Request::read_from(&mut r),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn chunked_roundtrip_preserves_lines() {
        let mut wire = Vec::new();
        {
            let mut w = ChunkedWriter::start(&mut wire, 200, "OK", "application/jsonl").unwrap();
            w.chunk(b"{\"a\":1}\n").unwrap();
            w.chunk(b"{\"b\":2}\n{\"c\"").unwrap();
            w.chunk(b":3}\n").unwrap();
            w.finish().unwrap();
        }
        let mut r = BufReader::new(&wire[..]);
        let head = Response::read_head(&mut r).unwrap();
        assert_eq!(head.status, 200);
        let mut lines = Vec::new();
        head.read_body_lines(&mut r, &mut |l| lines.push(l.to_string()))
            .unwrap();
        assert_eq!(lines, vec!["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
    }

    #[test]
    fn fixed_length_response_roundtrip() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            429,
            "Too Many Requests",
            &[("Retry-After", "1")],
            "application/json",
            b"{\"error\":\"queue full\"}\n",
        )
        .unwrap();
        let mut r = BufReader::new(&wire[..]);
        let head = Response::read_head(&mut r).unwrap();
        assert_eq!(head.status, 429);
        assert_eq!(head.header("retry-after"), Some("1"));
        let mut lines = Vec::new();
        head.read_body_lines(&mut r, &mut |l| lines.push(l.to_string()))
            .unwrap();
        assert_eq!(lines, vec!["{\"error\":\"queue full\"}"]);
    }

    #[test]
    fn response_chunks_above_the_body_cap_are_rejected_before_allocating() {
        let raw = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\nshort\r\n",
            MAX_BODY + 1
        );
        let mut r = BufReader::new(raw.as_bytes());
        let head = Response::read_head(&mut r).unwrap();
        match head.read_body_lines(&mut r, &mut |_| {}) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains(&format!("{MAX_BODY} byte cap")), "{msg}")
            }
            other => panic!("expected a Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn short_content_length_bodies_are_an_io_error() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000\r\n\r\n{\"a\":1}\n";
        let mut r = BufReader::new(&raw[..]);
        let head = Response::read_head(&mut r).unwrap();
        let mut lines = Vec::new();
        match head.read_body_lines(&mut r, &mut |l| lines.push(l.to_string())) {
            Err(ServeError::Io(msg)) => assert!(msg.contains("of 1000000000 bytes"), "{msg}"),
            other => panic!("expected an Io error, got {other:?}"),
        }
        // Lines stream as they arrive; the short body is reported after.
        assert_eq!(lines, vec!["{\"a\":1}"]);
    }

    #[test]
    fn a_line_above_the_cap_is_rejected() {
        // Unterminated (a close-delimited body), and terminated with its
        // newline in the piece that crosses the cap.
        for tail in [&b""[..], b"\nok\n"] {
            let mut raw = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
            raw.resize(raw.len() + MAX_BODY + 1, b'x');
            raw.extend_from_slice(tail);
            let mut r = BufReader::new(&raw[..]);
            let head = Response::read_head(&mut r).unwrap();
            let mut lines = 0;
            match head.read_body_lines(&mut r, &mut |_| lines += 1) {
                Err(ServeError::Protocol(msg)) => {
                    assert!(msg.contains(&format!("{MAX_BODY} byte cap")), "{msg}")
                }
                other => panic!("expected a Protocol error, got {other:?}"),
            }
            assert_eq!(lines, 0);
        }
    }

    #[test]
    fn many_short_lines_may_total_more_than_the_cap() {
        let line = format!("{{\"record\":\"{}\"}}\n", "y".repeat(100));
        let count = MAX_BODY / line.len() + 2;
        let body = line.repeat(count);
        assert!(body.len() > MAX_BODY);
        for head in [
            "HTTP/1.1 200 OK\r\n\r\n".to_owned(),
            format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len()),
        ] {
            let raw = format!("{head}{body}");
            let mut r = BufReader::new(raw.as_bytes());
            let head = Response::read_head(&mut r).unwrap();
            let mut seen = 0;
            head.read_body_lines(&mut r, &mut |l| {
                assert_eq!(l, line.trim_end());
                seen += 1;
            })
            .unwrap();
            assert_eq!(seen, count);
        }
    }
}
