//! # ppchecker-serve
//!
//! The resident analysis daemon: a warm [`ppchecker_engine::Engine`]
//! behind two wire transports, so a fleet of callers amortizes the
//! expensive state — parsed lib policies, the policy sentence cache, the
//! ESA interpretation-vector cache, the global interner — across the
//! life of one process instead of rebuilding it per invocation.
//!
//! ## Transports
//!
//! - **HTTP/JSON** ([`Server`]): `POST /check` (one app), `POST /batch`
//!   (all-or-nothing admission), `GET /metrics`, `GET /healthz`,
//!   `POST /shutdown`. Interactive callers get fail-fast admission: a
//!   full queue answers `429 {"error":"overloaded"}` immediately.
//! - **JSONL-over-TCP**: one app per line in, one result per line out,
//!   in input order, with *blocking* admission — bulk clients get
//!   backpressure instead of retry loops.
//!
//! Both speak the wire schema in [`json`] (schema 2, which the CLI's
//! `--json` and batch JSONL also write), and both admit checks through
//! one gate: at most `workers` checks run at once and at most
//! `workers + queue_depth` are admitted. A `/check` runs on its
//! connection thread; a `/batch` or a JSONL connection fans out, on
//! threads it owns, through the engine's scheduler,
//! [`ppchecker_engine::scheduler::run_scoped_streamed`].
//! Both drain gracefully: `POST /shutdown` or SIGTERM stops admission,
//! finishes every admitted check, and writes every in-flight response
//! before [`ServerHandle::join`] returns.
//!
//! ## Example
//!
//! ```no_run
//! use ppchecker_core::PPChecker;
//! use ppchecker_engine::Engine;
//! use ppchecker_serve::{Client, ServeConfig, Server};
//!
//! let engine = Engine::new(PPChecker::new());
//! let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
//! let handle = Server::start(engine, config).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let (status, body) = client.healthz().unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"status\":\"ok\""));
//! client.shutdown().unwrap();
//! handle.join();
//! ```
//!
//! Everything is built on `std::net` plus the workspace's own JSON
//! machinery — the daemon adds no external dependencies.

mod admission;
pub mod client;
pub mod http;
pub mod json;
mod jsonl;
pub mod server;

pub use client::{Client, JsonlClient};
pub use server::{Counters, Server, ServerHandle};

use std::sync::atomic::{AtomicBool, Ordering};

/// Daemon configuration: listen addresses, admission bounds, request caps.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// HTTP listen address (`host:port`; port `0` binds ephemerally).
    pub addr: String,
    /// Optional JSONL-over-TCP listen address.
    pub jsonl_addr: Option<String>,
    /// Checks that run at once, across every connection. A `/batch` or a
    /// JSONL connection fans out on up to this many threads: its
    /// connection thread and scoped threads it spawns.
    pub workers: usize,
    /// Admission slots beyond the workers — the queue. Total capacity is
    /// `workers + queue_depth`; an arriving request past that is
    /// `overloaded`.
    pub queue_depth: usize,
    /// Cap on one HTTP body or JSONL line, in bytes.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = ppchecker_engine::available_jobs();
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            jsonl_addr: None,
            workers,
            queue_depth: 2 * workers,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Set by the SIGTERM handler.
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM has been delivered since
/// [`install_sigterm_handler`] ran.
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

/// Installs a SIGTERM handler that starts a graceful drain of every
/// daemon in the process, exactly as `POST /shutdown` would. Idempotent;
/// a daemon started after the signal drains at once.
///
/// A signal handler may only do async-signal-safe work, so it sets
/// [`sigterm_received`] and writes one byte to a socket pair. A watcher
/// thread, blocked on the other end for the life of the process, then
/// drains the daemons. Uses `signal(2)` and `write(2)` directly, so no
/// FFI crate is needed. No-op on non-Unix targets.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    use std::io::Read;
    use std::os::unix::io::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicI32;

    /// The write end of the wake socket pair, open for the life of the
    /// process once installed.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
    static INSTALL: std::sync::Once = std::sync::Once::new();

    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM.store(true, Ordering::SeqCst);
        let fd = WAKE_FD.load(Ordering::SeqCst);
        // SAFETY: write(2) is async-signal-safe, `fd` is the write end
        // stored before this handler was installed and never closed, and
        // the buffer is one readable byte. The end is non-blocking: a full
        // buffer drops the byte rather than stall the handler, and the
        // unread bytes already in it will wake the watcher.
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    const SIGTERM_NUM: i32 = 15;

    INSTALL.call_once(|| {
        let (mut wake_rx, wake_tx) = UnixStream::pair().expect("create the SIGTERM wake pair");
        wake_tx.set_nonblocking(true).expect("make the SIGTERM wake end non-blocking");
        WAKE_FD.store(wake_tx.into_raw_fd(), Ordering::SeqCst);
        // Detached on purpose: it waits for signals until the process exits.
        std::thread::Builder::new()
            .name("ppchecker-sigterm".to_string())
            .spawn(move || {
                let mut byte = [0u8; 1];
                loop {
                    match wake_rx.read(&mut byte) {
                        Ok(1) => server::drain_all(),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        // EOF or a failed read: the write end is never
                        // closed, so neither is expected.
                        _ => return,
                    }
                }
            })
            .expect("spawn the SIGTERM watcher");
        // SAFETY: `on_sigterm` has the handler signature signal(2) expects
        // and only touches an atomic and write(2).
        unsafe {
            signal(SIGTERM_NUM, on_sigterm);
        }
    });
}

/// Installs a SIGTERM handler that initiates a graceful drain. No-op on
/// non-Unix targets.
#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

/// A writer that counts the `write` calls made on it, for the tests that
/// pin each response to one write.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let config = ServeConfig::default();
        assert_eq!(config.addr, "127.0.0.1:7171");
        assert!(config.jsonl_addr.is_none());
        assert!(config.workers >= 1);
        assert_eq!(config.queue_depth, 2 * config.workers);
        assert_eq!(config.max_body_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn sigterm_flag_starts_clear() {
        // The handler install is exercised end-to-end by the wire tests;
        // here just assert the flag's initial state so a future static
        // initializer can't silently flip it.
        assert!(!sigterm_received() || SIGTERM.load(Ordering::SeqCst));
    }
}
