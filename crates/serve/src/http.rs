//! A deliberately small HTTP/1.1 layer: enough for `POST /check` with
//! JSON bodies, keep-alive, and bounded request sizes — no chunked
//! encoding, no TLS, no multipart. Hand-rolled on `std::net` so the
//! daemon stays inside the workspace's zero-dependency budget.

use std::io::{self, BufRead, Write};

/// Ceiling on the request line plus all headers, combined. Anything
/// larger is malformed by fiat (real requests are a few hundred bytes).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request head plus its body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included, verbatim.
    pub path: String,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection (or the server is draining) before
    /// a request line arrived — the normal end of a keep-alive session.
    Closed,
    /// The bytes on the wire are not an HTTP request we understand.
    Malformed(String),
    /// `Content-Length` exceeds the configured body cap. The body has
    /// NOT been consumed; the connection must be closed.
    TooLarge(usize),
    /// The socket failed mid-read.
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request off `reader`. Blocks until a full request (or EOF)
/// arrives; the caller bounds patience via socket timeouts.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<HttpRequest, ReadError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ReadError::Closed);
    }
    let mut head_bytes = line.len();
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".to_string()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line missing path".to_string()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported protocol {version:?}")));
    }

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = true;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(ReadError::Malformed("connection closed mid-headers".to_string()));
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed("header block exceeds 16 KiB".to_string()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::Malformed(format!("header without colon: {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Malformed(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }

    if content_length > max_body {
        return Err(ReadError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| ReadError::Malformed("body is not UTF-8".to_string()))?;

    Ok(HttpRequest { method, path, body, keep_alive })
}

/// The standard reason phrase for the statuses the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response (status line, headers, JSON body) in a
/// single `write_all`, then flushes.
///
/// The whole response is formatted into one buffer first. Written piece
/// by piece, the tail of a response sits in the kernel behind Nagle's
/// algorithm until the peer ACKs the head, and a peer that delays its
/// ACK (40 ms on Linux) stalls every keep-alive request by that much.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    );
    response.push_str(body);
    w.write_all(response.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(raw: &str, max_body: usize) -> Result<HttpRequest, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = read("POST /check HTTP/1.1\r\ncontent-length: 4\r\n\r\n{{}}", 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/check");
        assert_eq!(req.body, "{{}}");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_is_honored() {
        let req = read("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 1024).unwrap();
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn eof_before_request_line_is_closed() {
        assert!(matches!(read("", 1024), Err(ReadError::Closed)));
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(read("NOT AN HTTP LINE\r\n\r\n", 1024), Err(ReadError::Malformed(_))));
        assert!(matches!(
            read("POST /check HTTP/1.1\r\ncontent-length: nope\r\n\r\n", 1024),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            read("POST /check HTTP/1.1\r\nno-colon-here\r\n\r\n", 1024),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_unread() {
        match read("POST /check HTTP/1.1\r\ncontent-length: 999\r\n\r\n", 16) {
            Err(ReadError::TooLarge(999)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_block_is_malformed() {
        let huge = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(read(&huge, 1024), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        for (status, keep_alive) in [(200, true), (429, false)] {
            let mut w = crate::CountingWriter::default();
            write_response(&mut w, status, "{\"ok\":true}", keep_alive).unwrap();
            assert_eq!(w.writes, 1, "status {status}");
            assert!(w.bytes.ends_with(b"\r\n\r\n{\"ok\":true}"));
        }
    }

    #[test]
    fn responses_round_trip_through_the_parser() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
