//! A deliberately small HTTP/1.1 layer: enough for `POST /check` with
//! JSON bodies, keep-alive, and bounded request sizes — no chunked
//! encoding, no TLS, no multipart. Hand-rolled on `std::net` so the
//! daemon stays inside the workspace's zero-dependency budget.

use std::io::{self, BufRead, Read, Write};

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
/// arrives; the caller bounds patience via socket timeouts. The head is
/// read through its [`MAX_HEAD_BYTES`] budget, newline or not.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<HttpRequest, ReadError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut head_budget)?;
    if line.is_empty() {
        return Err(ReadError::Closed);
    }
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
        let header = read_head_line(reader, &mut head_budget)?;
        if header.is_empty() {
            return Err(ReadError::Malformed("connection closed mid-headers".to_string()));
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

/// Reads one head line, newline included, drawing its bytes from
/// `budget`. A line that would overdraw the budget is malformed once one
/// byte past it has been read, so a peer that never sends a newline costs
/// the budget, not unbounded memory. An empty line means EOF.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    let n = reader.take(*budget as u64 + 1).read_until(b'\n', &mut line)?;
    if n > *budget {
        return Err(ReadError::Malformed("header block exceeds 16 KiB".to_string()));
    }
    *budget -= n;
    String::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e).into())
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
        // The budget is inclusive: a head of exactly MAX_HEAD_BYTES reads.
        let pad = "a".repeat(MAX_HEAD_BYTES - "GET / HTTP/1.1\r\nx: \r\n\r\n".len());
        assert!(read(&format!("GET / HTTP/1.1\r\nx: {pad}\r\n\r\n"), 1024).is_ok());
        let over = format!("GET / HTTP/1.1\r\nx: {pad}a\r\n\r\n");
        assert!(matches!(read(&over, 1024), Err(ReadError::Malformed(_))));
    }

    /// A reader over `bytes` that counts the bytes its caller consumes.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        consumed: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (&self.bytes[self.consumed..]).read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    impl BufRead for CountingReader<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(&self.bytes[self.consumed..])
        }

        fn consume(&mut self, n: usize) {
            self.consumed += n;
        }
    }

    #[test]
    fn a_head_without_newlines_is_malformed_within_the_budget() {
        let head = format!("GET /{}", "a".repeat(64 * 1024));
        let mut reader = CountingReader { bytes: head.as_bytes(), consumed: 0 };
        match read_request(&mut reader, 1024) {
            Err(ReadError::Malformed(message)) => assert!(message.contains("16 KiB"), "{message}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(reader.consumed <= MAX_HEAD_BYTES + 1, "read {} head bytes", reader.consumed);
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
