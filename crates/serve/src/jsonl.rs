//! The bulk transport: JSONL over a raw TCP stream.
//!
//! One wire app object per input line, one wire result object per
//! output line, **in input order**. Unlike HTTP's fail-fast `429`, this
//! transport admits with backpressure: a bulk client streaming a corpus
//! should stall, not retry.
//!
//! A connection runs the engine's ordered fan-out,
//! [`run_scoped_streamed`], on up to `workers` threads: the connection
//! thread and scoped threads it owns. Each reads, decodes and admits
//! the next line, runs its check, and writes every result that is next
//! in input order, so lines pipeline up to the gate's capacity. A
//! result never waits for the thread that is reading, so an interactive
//! client gets each answer before it sends its next line.
//!
//! Malformed lines don't poison the stream: each (invalid JSON or not
//! UTF-8) produces an in-order `{"ok":false,…}` line and processing
//! continues with the next line. An over-cap line, or a line that
//! arrives once the daemon drains, gets its error line and ends the
//! stream (resync after an unread remainder is impossible).

use crate::admission::Ticket;
use crate::json;
use crate::server::{decode_app, PatientReader, Shared, READ_POLL};
use ppchecker_core::AppInput;
use ppchecker_engine::scheduler::run_scoped_streamed;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Serves one JSONL connection: the scheduler's workers read and admit
/// each line, check it, and write the answers in input order.
pub(crate) fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(PatientReader { stream, shared: Arc::clone(&shared) });
    let mut written = Ok(());
    run_scoped_streamed(
        Lines { shared: &shared, reader, ended: false },
        shared.gate.workers(),
        shared.config.queue_depth,
        |_, line| match line {
            Ok((ticket, app)) => ticket.run(|| shared.check_rendered(&app)),
            Err(error) => error,
        },
        &mut |_, response: String| {
            if written.is_ok() {
                written = write_line(&mut writer, &response);
            }
        },
    );
}

/// One input line: an admitted check, or the error line that answers it.
type Line<'g> = Result<(Ticket<'g>, AppInput), String>;

/// A connection's input lines, in order. Ends at EOF (which a drain
/// brings on too), after an over-cap line, or once admission is refused.
struct Lines<'s, R> {
    shared: &'s Shared,
    reader: R,
    ended: bool,
}

impl<'s, R: BufRead> Iterator for Lines<'s, R> {
    type Item = Line<'s>;

    fn next(&mut self) -> Option<Line<'s>> {
        let shared = self.shared;
        let counters = &shared.counters;
        let max_line = shared.config.max_body_bytes;
        while !self.ended {
            // Never buffer more than the cap, newline or not.
            let mut line = Vec::new();
            match self.reader.by_ref().take(max_line as u64 + 1).read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => return None,
                Ok(_) => {}
            }
            if line.len() > max_line && line.last() != Some(&b'\n') {
                self.ended = true;
                counters.jsonl_lines.fetch_add(1, Ordering::Relaxed);
                counters.oversized.fetch_add(1, Ordering::Relaxed);
                return Some(Err(error_line(&format!("line exceeds cap of {max_line} bytes"))));
            }
            if line.last() == Some(&b'\n') {
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
            }
            let Ok(text) = String::from_utf8(line) else {
                counters.jsonl_lines.fetch_add(1, Ordering::Relaxed);
                counters.malformed.fetch_add(1, Ordering::Relaxed);
                return Some(Err(error_line("line is not UTF-8")));
            };
            if text.trim().is_empty() {
                continue;
            }
            counters.jsonl_lines.fetch_add(1, Ordering::Relaxed);
            let app = match decode_app(&text) {
                Ok(app) => app,
                Err(message) => {
                    counters.malformed.fetch_add(1, Ordering::Relaxed);
                    return Some(Err(error_line(&message)));
                }
            };
            return Some(match shared.gate.admit_blocking() {
                Some(ticket) => Ok((ticket, app)),
                None => {
                    self.ended = true;
                    Err(error_line("draining"))
                }
            });
        }
        None
    }
}

fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json::escape(message))
}

/// Writes one response line with its newline in one write, then
/// flushes: a newline written apart from its line would wait behind
/// Nagle's algorithm for the peer's delayed ACK.
fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    let _write = ppchecker_obs::span!("serve.write");
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    writer.write_all(&bytes)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_leaves_in_one_write() {
        let mut w = crate::CountingWriter::default();
        write_line(&mut w, "{\"ok\":true}").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"{\"ok\":true}\n");
    }

    #[test]
    fn error_lines_are_valid_json() {
        let line = error_line("bad \"thing\"");
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("ok").and_then(json::Value::as_f64), None);
        assert!(doc.get("error").and_then(json::Value::as_str).unwrap().contains("bad"));
    }
}
