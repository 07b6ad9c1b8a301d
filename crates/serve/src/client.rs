//! A minimal client for the serve protocol, shared by the `perple
//! client` subcommand, the integration tests, and CI (no `curl`
//! dependency). Speaks exactly the subset [`crate::http`] emits:
//! one request per connection, fixed-length or chunked responses.

use crate::http::Response;
use crate::ServeError;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Where the server lives.
#[derive(Debug, Clone)]
pub enum Target {
    /// TCP `HOST:PORT`.
    Tcp(String),
    /// Unix domain socket path.
    Unix(PathBuf),
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Target {
    fn connect(&self) -> Result<Conn, ServeError> {
        match self {
            Target::Tcp(addr) => TcpStream::connect(addr)
                .map(Conn::Tcp)
                .map_err(|e| ServeError::Io(format!("{addr}: {e}"))),
            Target::Unix(path) => UnixStream::connect(path)
                .map(Conn::Unix)
                .map_err(|e| ServeError::Io(format!("{}: {e}", path.display()))),
        }
    }
}

/// A finished request: status, headers of interest, and the body lines
/// no callback consumed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` header value, when the server sent one.
    pub retry_after: Option<String>,
    /// All body lines in arrival order; empty when a callback streamed
    /// them, so a long stream does not grow the client's memory.
    pub lines: Vec<String>,
}

/// One request against the server. `on_line` (when given) sees each
/// body line as it arrives instead of [`Outcome::lines`] — for
/// `POST /submit?wait=1` that means records stream in real time.
pub fn request(
    target: &Target,
    method: &str,
    path: &str,
    body: Option<&str>,
    mut on_line: Option<&mut dyn FnMut(&str)>,
) -> Result<Outcome, ServeError> {
    let mut conn = target.connect()?;
    let payload = body.unwrap_or("");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: perple\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    )
    .map_err(|e| ServeError::Io(e.to_string()))?;
    conn.write_all(payload.as_bytes())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    conn.flush().map_err(|e| ServeError::Io(e.to_string()))?;
    let mut reader = BufReader::new(conn);
    let head = Response::read_head(&mut reader)?;
    let mut lines = Vec::new();
    head.read_body_lines(&mut reader, &mut |line| match on_line.as_deref_mut() {
        Some(cb) => cb(line),
        None => lines.push(line.to_string()),
    })?;
    Ok(Outcome {
        status: head.status,
        retry_after: head.header("retry-after").map(str::to_string),
        lines,
    })
}

/// Submits a campaign spec. With `wait` the records stream through
/// `on_line`; without it the server replies 202 immediately.
pub fn submit(
    target: &Target,
    spec: &str,
    client: &str,
    wait: bool,
    on_line: Option<&mut dyn FnMut(&str)>,
) -> Result<Outcome, ServeError> {
    let path = format!(
        "/submit?client={client}&wait={}",
        if wait { "1" } else { "0" }
    );
    request(target, "POST", &path, Some(spec), on_line)
}

/// Plain GET (status, stats, metrics, health).
pub fn get(target: &Target, path: &str) -> Result<Outcome, ServeError> {
    request(target, "GET", path, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// Serves one canned chunked stream of `n` lines to each of
    /// `requests` connections; returns the target and the lines.
    fn canned_stream(n: usize, requests: usize) -> (Target, Vec<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = Target::Tcp(listener.local_addr().unwrap().to_string());
        let lines: Vec<String> = (0..n).map(|i| format!("{{\"seed\":{i}}}")).collect();
        let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
        std::thread::spawn(move || {
            for _ in 0..requests {
                let (conn, _) = listener.accept().unwrap();
                let mut r = BufReader::new(conn);
                let mut len = 0usize;
                loop {
                    let mut h = String::new();
                    r.read_line(&mut h).unwrap();
                    if h.trim().is_empty() {
                        break;
                    }
                    if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                r.read_exact(&mut vec![0; len]).unwrap();
                let mut w = r.into_inner();
                write!(w, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap();
                for piece in body.as_bytes().chunks(100) {
                    write!(w, "{:x}\r\n", piece.len()).unwrap();
                    w.write_all(piece).unwrap();
                    w.write_all(b"\r\n").unwrap();
                }
                w.write_all(b"0\r\n\r\n").unwrap();
            }
        });
        (target, lines)
    }

    #[test]
    fn a_streaming_submit_keeps_no_copy_of_its_lines() {
        let (target, lines) = canned_stream(500, 2);
        let mut seen = Vec::new();
        let out = submit(
            &target,
            "name=x\n",
            "c",
            true,
            Some(&mut |l: &str| seen.push(l.to_string())),
        )
        .unwrap();
        assert_eq!(out.status, 200);
        assert!(out.lines.is_empty());
        assert_eq!(seen, lines);
        // Without a callback the lines are collected.
        let out = submit(&target, "name=x\n", "c", true, None).unwrap();
        assert_eq!(out.lines, lines);
    }
}
