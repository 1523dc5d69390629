//! Thin clients for both transports, used by the test matrix, the CI
//! smoke check, and the throughput bench. Deliberately synchronous:
//! one request in flight per [`Client`]; drive several clients from
//! several threads to generate load.

use crate::json;
use ppchecker_core::AppInput;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A persistent keep-alive HTTP connection to the daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon's HTTP address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { writer: stream, reader })
    }

    /// Sends one request, in one write, and reads the full response.
    /// Returns the status code and body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: ppchecker\r\ncontent-length: {}\r\n\r\n",
            body.len(),
        );
        request.push_str(body);
        self.writer.write_all(request.as_bytes())?;
        self.read_response()
    }

    /// Sends raw bytes down the socket verbatim — for tests that need to
    /// speak something other than well-formed HTTP.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response off the socket (status line, headers,
    /// `Content-Length` body).
    pub fn read_response(&mut self) -> io::Result<(u16, String)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        let status: u16 =
            line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {line:?}"))
            })?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|body| (status, body))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))
    }

    /// `POST /check` for one app.
    pub fn check(&mut self, app: &AppInput) -> io::Result<(u16, String)> {
        self.request("POST", "/check", &json::app_to_json(app))
    }

    /// `POST /batch` for a slice of apps.
    pub fn batch(&mut self, apps: &[AppInput]) -> io::Result<(u16, String)> {
        let entries: Vec<String> = apps.iter().map(json::app_to_json).collect();
        self.request("POST", "/batch", &format!("{{\"apps\":[{}]}}", entries.join(",")))
    }

    /// `GET /metrics`, parsed into a JSON value.
    pub fn metrics(&mut self) -> io::Result<json::Value> {
        let (status, body) = self.request("GET", "/metrics", "")?;
        if status != 200 {
            return Err(io::Error::other(format!("metrics returned {status}")));
        }
        json::parse(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// `GET /healthz`.
    pub fn healthz(&mut self) -> io::Result<(u16, String)> {
        self.request("GET", "/healthz", "")
    }

    /// `POST /shutdown` — asks the daemon to drain.
    pub fn shutdown(&mut self) -> io::Result<(u16, String)> {
        self.request("POST", "/shutdown", "")
    }
}

/// A client for the JSONL-over-TCP bulk transport.
pub struct JsonlClient {
    stream: TcpStream,
}

impl JsonlClient {
    /// Connects to a running daemon's JSONL address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<JsonlClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(JsonlClient { stream })
    }

    /// Streams `apps` down the pipe, half-closes the write side, and
    /// collects the response lines (one per app, in input order).
    pub fn check_all(self, apps: &[AppInput]) -> io::Result<Vec<String>> {
        let lines: Vec<String> = apps.iter().map(json::app_to_json).collect();
        self.send_lines(&lines)
    }

    /// Raw form of [`check_all`](JsonlClient::check_all): sends arbitrary
    /// lines (e.g. deliberately malformed ones), all in one write, and
    /// returns the responses.
    pub fn send_lines(mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let mut batch = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            batch.push_str(line);
            batch.push('\n');
        }
        self.stream.write_all(batch.as_bytes())?;
        self.stream.shutdown(std::net::Shutdown::Write)?;
        let mut responses = Vec::new();
        for line in BufReader::new(&self.stream).lines() {
            responses.push(line?);
        }
        Ok(responses)
    }
}
