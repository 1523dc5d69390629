//! The bulk transport: JSONL over a raw TCP stream.
//!
//! One wire app object per input line, one wire result object per
//! output line, **in input order**. Unlike HTTP's fail-fast `429`, this
//! transport admits with backpressure ([`WorkerPool::admit_blocking`]):
//! a bulk client streaming a corpus should stall, not retry. Lines still
//! pipeline through the pool — up to the queue capacity are in flight at
//! once; only the *output* is sequenced.
//!
//! Malformed lines don't poison the stream: each produces an in-order
//! `{"ok":false,…}` line and processing continues with the next line.
//!
//! [`WorkerPool::admit_blocking`]: ppchecker_engine::WorkerPool::admit_blocking

use crate::json;
use crate::server::{decode_app, PatientReader, Shared, READ_POLL};
use ppchecker_engine::AdmitError;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread;

/// Serves one JSONL connection: the calling thread reads and admits,
/// a writer thread sequences and responds.
pub(crate) fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(PatientReader { stream, shared: Arc::clone(&shared) });

    let (tx, rx) = mpsc::sync_channel::<(u64, String)>(shared.pool.stats().capacity.max(1));
    let writer_thread = thread::Builder::new()
        .name("ppchecker-jsonl-writer".to_string())
        .spawn(move || write_in_order(&mut writer, rx))
        .expect("spawn jsonl writer");

    read_and_admit(&shared, reader, &tx);
    drop(tx);
    let _ = writer_thread.join();
}

/// Reads lines, admits each against the pool, and hands jobs their
/// output sequence number. Returns at EOF, on drain, or when the line
/// cap is exceeded (resync after an oversized line is impossible).
fn read_and_admit(
    shared: &Arc<Shared>,
    reader: BufReader<PatientReader>,
    tx: &mpsc::SyncSender<(u64, String)>,
) {
    let max_line = shared.config.max_body_bytes;
    let mut seq = 0u64;
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.counters.jsonl_lines.fetch_add(1, Ordering::Relaxed);
        if line.len() > max_line {
            shared.counters.oversized.fetch_add(1, Ordering::Relaxed);
            let message = format!("line of {} bytes exceeds cap of {max_line}", line.len());
            let _ = tx.send((seq, error_line(&message)));
            return;
        }
        let app = match decode_app(&line) {
            Ok(app) => app,
            Err(message) => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send((seq, error_line(&message)));
                seq += 1;
                continue;
            }
        };
        let mut ticket = match shared.pool.admit_blocking(1) {
            Ok(ticket) => ticket,
            Err(AdmitError::Draining) => {
                let _ = tx.send((seq, error_line("draining")));
                return;
            }
            Err(AdmitError::Overloaded) => {
                // admit_blocking only fails fast when the pool is gone;
                // treat it like drain.
                shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send((seq, error_line("overloaded")));
                return;
            }
        };
        shared.submit_check(&mut ticket, app, seq, tx.clone());
        seq += 1;
    }
}

fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json::escape(message))
}

/// Receives `(seq, json)` results in completion order and writes them in
/// sequence order, holding early arrivals in a reorder buffer.
///
/// Each result that arrives releases a run of consecutive lines (often
/// just itself). The run, every line with its `\n`, leaves in one write
/// and one flush: a line written apart from its newline would leave the
/// newline waiting behind Nagle's algorithm for the peer's delayed ACK.
fn write_in_order(writer: &mut impl Write, rx: mpsc::Receiver<(u64, String)>) {
    let mut next = 0u64;
    let mut pending = BTreeMap::new();
    let mut run = Vec::new();
    for (seq, line) in rx {
        pending.insert(seq, line);
        while let Some(line) = pending.remove(&next) {
            push_line(&mut run, &line);
            next += 1;
        }
        if write_run(writer, &mut run).is_err() {
            return;
        }
    }
    // A vanished job (worker lost) would leave a gap; flush whatever
    // remains in order rather than dropping completed results.
    for line in pending.into_values() {
        push_line(&mut run, &line);
    }
    let _ = write_run(writer, &mut run);
}

fn push_line(run: &mut Vec<u8>, line: &str) {
    run.extend_from_slice(line.as_bytes());
    run.push(b'\n');
}

/// Writes and flushes `run` when it holds anything, then empties it.
fn write_run(writer: &mut impl Write, run: &mut Vec<u8>) -> io::Result<()> {
    if run.is_empty() {
        return Ok(());
    }
    let _write = ppchecker_obs::span!("serve.write");
    writer.write_all(run)?;
    run.clear();
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reorders_out_of_order_results() {
        let (tx, rx) = mpsc::sync_channel(8);
        tx.send((2, "c".to_string())).unwrap();
        tx.send((0, "a".to_string())).unwrap();
        tx.send((1, "b".to_string())).unwrap();
        drop(tx);
        let mut out = Vec::new();
        write_in_order(&mut out, rx);
        assert_eq!(String::from_utf8(out).unwrap(), "a\nb\nc\n");
    }

    #[test]
    fn writer_flushes_trailing_results_past_a_gap() {
        let (tx, rx) = mpsc::sync_channel(8);
        tx.send((1, "b".to_string())).unwrap();
        tx.send((2, "c".to_string())).unwrap();
        drop(tx);
        let mut out = Vec::new();
        write_in_order(&mut out, rx);
        assert_eq!(String::from_utf8(out).unwrap(), "b\nc\n");
    }

    #[test]
    fn a_line_leaves_in_one_write() {
        let (tx, rx) = mpsc::sync_channel(8);
        tx.send((0, "{\"ok\":true}".to_string())).unwrap();
        drop(tx);
        let mut w = crate::CountingWriter::default();
        write_in_order(&mut w, rx);
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"{\"ok\":true}\n");
    }

    #[test]
    fn a_released_run_of_lines_leaves_in_one_write() {
        let (tx, rx) = mpsc::sync_channel(8);
        tx.send((2, "c".to_string())).unwrap();
        tx.send((1, "b".to_string())).unwrap();
        tx.send((0, "a".to_string())).unwrap();
        drop(tx);
        let mut w = crate::CountingWriter::default();
        write_in_order(&mut w, rx);
        // Lines 2 and 1 wait for line 0, which releases all three at once.
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"a\nb\nc\n");
    }

    #[test]
    fn error_lines_are_valid_json() {
        let line = error_line("bad \"thing\"");
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("ok").and_then(json::Value::as_f64), None);
        assert!(doc.get("error").and_then(json::Value::as_str).unwrap().contains("bad"));
    }
}
