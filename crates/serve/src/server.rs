//! The resident daemon: accept loops, request routing, admission, and
//! the `/metrics` document.
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds the HTTP listener (and optionally the JSONL
//! one), warms a [`ppchecker_engine::Engine`], and spawns one acceptor
//! thread per transport plus one handler thread per connection. All of
//! them share one `Shared` hub: the engine, the admission gate, the
//! request counters, and the drain flag. Acceptors block in `accept()`;
//! every accepted socket gets `TCP_NODELAY`, and every response leaves
//! in one write (see [`http::write_response`]).
//!
//! ## Admission
//!
//! Every check holds a ticket of the one admission gate, and runs on the
//! thread that holds it. A `/check` runs on its connection thread. A
//! `/batch` and a JSONL connection fan out through the engine's
//! scheduler, [`run_scoped_streamed`], on at most `workers` threads: the
//! connection thread and scoped threads it owns. The gate lets at most
//! `workers` checks run at once across the daemon. HTTP admits
//! fail-fast, so a full gate answers `429 overloaded` at once (`/batch`
//! admits all-or-nothing: a batch the gate can't hold entirely is
//! rejected rather than half-admitted). The JSONL transport admits
//! blocking — bulk clients want backpressure, not retries.
//!
//! ## Drain
//!
//! `POST /shutdown` (or SIGTERM) flips one flag and wakes each acceptor
//! with one loopback connection: acceptors stop accepting and close
//! their listeners, idle keep-alive connections see EOF, admitted work
//! runs to completion, and responses for in-flight requests are still
//! written. Admitted work runs on connection threads or on threads a
//! connection owns, so [`ServerHandle::join`] returns once the last
//! connection closes.
//!
//! ## Request phases
//!
//! Each HTTP request records spans for its phases: `serve.read` (first
//! byte to last, never idle keep-alive time) and `serve.request`, which
//! holds `serve.decode`, the check and `serve.write`. The check records
//! the `serve.queue_wait` histogram (admission to start), then
//! `app.check` and `serve.encode`.

use crate::admission::{Gate, Refused};
use crate::http::{self, HttpRequest, ReadError};
use crate::json;
use crate::jsonl;
use crate::ServeConfig;
use ppchecker_core::{AppInput, DetectorId};
use ppchecker_engine::scheduler::run_scoped_streamed;
use ppchecker_engine::{CacheStats, Engine};
use std::io::{self, BufRead, BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// How often a connection parked in a read re-checks the drain flag. It
/// bounds how long a drain waits for idle connections; a request never
/// waits on it, because a read returns as soon as bytes arrive.
pub(crate) const READ_POLL: Duration = Duration::from_millis(20);

/// Pause after a failed `accept()` (say, out of file descriptors), so the
/// acceptor does not spin on the same error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Patience for the loopback connection that wakes a blocked acceptor. A
/// wake that cannot connect means the listen backlog is full, and then
/// the acceptor has connections to accept and sees the flag anyway.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Every daemon started in this process, so SIGTERM can drain them all.
static DAEMONS: Mutex<Vec<Weak<Shared>>> = Mutex::new(Vec::new());

/// Starts a graceful drain of every live daemon in the process.
#[cfg(unix)]
pub(crate) fn drain_all() {
    let daemons = DAEMONS.lock().expect("daemon registry lock").clone();
    for shared in daemons.iter().filter_map(Weak::upgrade) {
        shared.begin_shutdown();
    }
}

/// Monotonic request counters, scraped verbatim into `/metrics`.
#[derive(Debug, Default)]
pub struct Counters {
    /// HTTP requests parsed (any route).
    pub http_requests: AtomicU64,
    /// JSONL request lines received.
    pub jsonl_lines: AtomicU64,
    /// Checks that produced a report.
    pub checks_ok: AtomicU64,
    /// Checks that produced a structured pipeline error.
    pub check_errors: AtomicU64,
    /// Admissions refused with `overloaded`.
    pub overloaded: AtomicU64,
    /// Requests/lines rejected as malformed.
    pub malformed: AtomicU64,
    /// Requests rejected for exceeding the body cap.
    pub oversized: AtomicU64,
    /// `/batch` requests served.
    pub batches: AtomicU64,
    /// Findings emitted per detector, indexed by [`DetectorId::rank`].
    /// Paper detectors mirror the classic report counts; successor
    /// slots stay zero unless the engine's registry runs them.
    pub detector_findings: [AtomicU64; DetectorId::COUNT],
}

/// Everything the daemon's threads share.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) gate: Gate,
    pub(crate) config: ServeConfig,
    pub(crate) counters: Counters,
    /// The bound listener addresses, which `begin_shutdown` connects to.
    listeners: Vec<SocketAddr>,
    started: Instant,
    draining: AtomicBool,
    connections: Mutex<usize>,
    connections_closed: Condvar,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the daemon into drain mode (idempotent): acceptors stop,
    /// new admissions fail with `draining`, admitted work finishes.
    ///
    /// Each acceptor is blocked in `accept()`, so one loopback connection
    /// per listener wakes it to see the flag.
    pub(crate) fn begin_shutdown(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.gate.start_drain();
            for &addr in &self.listeners {
                let _ = TcpStream::connect_timeout(&loopback_if_unspecified(addr), WAKE_TIMEOUT);
            }
        }
    }

    fn connection_opened(&self) {
        *self.connections.lock().expect("connection count") += 1;
    }

    fn connection_closed(&self) {
        let mut n = self.connections.lock().expect("connection count");
        *n -= 1;
        if *n == 0 {
            self.connections_closed.notify_all();
        }
    }

    fn wait_connections_closed(&self) {
        let mut n = self.connections.lock().expect("connection count");
        while *n > 0 {
            n = self.connections_closed.wait(n).expect("connection count");
        }
    }

    /// Checks one app and renders its wire result object: what every
    /// admitted ticket runs, for `/check`, `/batch` and JSONL alike.
    pub(crate) fn check_rendered(&self, app: &AppInput) -> String {
        let result = self.engine.check_one(app);
        let counter =
            if result.is_ok() { &self.counters.checks_ok } else { &self.counters.check_errors };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Ok(outcome) = &result {
            for &id in DetectorId::ALL {
                let n = outcome.detector_findings(id) as u64;
                if n > 0 {
                    self.counters.detector_findings[id.rank()].fetch_add(n, Ordering::Relaxed);
                }
            }
        }
        let _encode = ppchecker_obs::span!("serve.encode");
        json::outcome_to_json(&app.package, &result)
    }
}

/// Decodes one wire app object (a `/check` body or a JSONL line), or
/// says why it is malformed.
pub(crate) fn decode_app(text: &str) -> Result<AppInput, String> {
    let _decode = ppchecker_obs::span!("serve.decode");
    json::parse(text).and_then(|doc| json::parse_app(&doc))
}

/// The address a wake-up connection dials: the listener's own, with an
/// unspecified (`0.0.0.0` / `::`) host replaced by loopback.
fn loopback_if_unspecified(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// A bound, running daemon. Dropping the handle does NOT stop the
/// server; call [`shutdown`](ServerHandle::shutdown) (or hit
/// `POST /shutdown`) and then [`join`](ServerHandle::join).
pub struct ServerHandle {
    addr: SocketAddr,
    jsonl_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    acceptors: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound HTTP address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound JSONL address, when that transport was enabled.
    pub fn jsonl_addr(&self) -> Option<SocketAddr> {
        self.jsonl_addr
    }

    /// Starts a graceful drain, as if `POST /shutdown` had arrived.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the daemon has fully drained: acceptors exited and
    /// all connections closed. Admitted work runs on connection threads,
    /// so it has completed too.
    pub fn join(self) {
        for acceptor in self.acceptors {
            let _ = acceptor.join();
        }
        self.shared.wait_connections_closed();
    }
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Binds the configured listeners over a warm engine and starts
    /// serving. Metrics collection ([`ppchecker_obs`]) is switched on —
    /// a daemon without its `/metrics` endpoint populated is blind.
    pub fn start(engine: Engine, config: ServeConfig) -> io::Result<ServerHandle> {
        ppchecker_obs::set_enabled(true);
        let http_listener = TcpListener::bind(&config.addr)?;
        let addr = http_listener.local_addr()?;
        let jsonl_listener = match &config.jsonl_addr {
            Some(spec) => Some(TcpListener::bind(spec)?),
            None => None,
        };
        let jsonl_addr = match &jsonl_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let shared = Arc::new(Shared {
            engine,
            gate: Gate::new(config.workers, config.queue_depth),
            config,
            counters: Counters::default(),
            listeners: [Some(addr), jsonl_addr].into_iter().flatten().collect(),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            connections: Mutex::new(0),
            connections_closed: Condvar::new(),
        });

        let mut acceptors = Vec::new();
        let hub = Arc::clone(&shared);
        acceptors.push(
            thread::Builder::new()
                .name("ppchecker-accept-http".to_string())
                .spawn(move || accept_loop(hub, http_listener, handle_http_connection))
                .expect("spawn acceptor"),
        );
        if let Some(listener) = jsonl_listener {
            let hub = Arc::clone(&shared);
            acceptors.push(
                thread::Builder::new()
                    .name("ppchecker-accept-jsonl".to_string())
                    .spawn(move || accept_loop(hub, listener, jsonl::handle_connection))
                    .expect("spawn acceptor"),
            );
        }

        // Register before reading the SIGTERM flag: a signal either finds
        // this daemon in the registry or is seen here.
        {
            let mut daemons = DAEMONS.lock().expect("daemon registry lock");
            daemons.retain(|d| d.strong_count() > 0);
            daemons.push(Arc::downgrade(&shared));
        }
        if crate::sigterm_received() {
            shared.begin_shutdown();
        }

        Ok(ServerHandle { addr, jsonl_addr, shared, acceptors })
    }
}

/// Accepts connections until the daemon drains, then returns, which
/// closes the listener. `accept()` blocks; `begin_shutdown` wakes it.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener, handler: fn(Arc<Shared>, TcpStream)) {
    loop {
        let accepted = listener.accept();
        // The wake-up connection, or any connection that raced the drain.
        if shared.draining() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // Each response is one write. Nagle's algorithm would still
                // hold one back while an earlier one awaits the peer's
                // (delayed) ACK, as pipelined requests do.
                let _ = stream.set_nodelay(true);
                shared.connection_opened();
                let hub = Arc::clone(&shared);
                let spawned =
                    thread::Builder::new().name("ppchecker-conn".to_string()).spawn(move || {
                        let _guard = ConnGuard(&hub);
                        handler(Arc::clone(&hub), stream);
                    });
                if spawned.is_err() {
                    shared.connection_closed();
                }
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Decrements the connection count when a handler thread exits, however
/// it exits.
struct ConnGuard<'a>(&'a Arc<Shared>);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.connection_closed();
    }
}

/// A [`Read`] wrapper that turns socket timeouts into either a retry
/// (normal operation) or EOF (the daemon is draining), so keep-alive
/// connections park cheaply yet exit promptly on shutdown.
pub(crate) struct PatientReader {
    pub(crate) stream: TcpStream,
    pub(crate) shared: Arc<Shared>,
}

impl Read for PatientReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if self.shared.draining() {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

/// What `route` decided: a status, a body, and lifecycle side effects.
struct Response {
    status: u16,
    body: String,
    close: bool,
    begin_shutdown: bool,
}

impl Response {
    fn ok(body: String) -> Self {
        Response { status: 200, body, close: false, begin_shutdown: false }
    }

    fn error(status: u16, message: &str) -> Self {
        Response { status, body: json::error_body(message), close: false, begin_shutdown: false }
    }
}

fn handle_http_connection(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(PatientReader { stream, shared: Arc::clone(&shared) });
    loop {
        // Park until the next request's first byte, outside any span:
        // idle keep-alive time is no part of a request.
        match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(_) => {}
        }
        let read = ppchecker_obs::span!("serve.read");
        let request = http::read_request(&mut reader, shared.config.max_body_bytes);
        drop(read);
        match request {
            Ok(request) => {
                shared.counters.http_requests.fetch_add(1, Ordering::Relaxed);
                let _span = ppchecker_obs::span!("serve.request");
                let response = route(&shared, &request);
                let keep_alive = request.keep_alive && !response.close;
                let written = {
                    let _write = ppchecker_obs::span!("serve.write");
                    http::write_response(&mut writer, response.status, &response.body, keep_alive)
                };
                if response.begin_shutdown {
                    shared.begin_shutdown();
                }
                if written.is_err() || !keep_alive {
                    return;
                }
            }
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed(message)) => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = http::write_response(&mut writer, 400, &json::error_body(&message), false);
                return;
            }
            Err(ReadError::TooLarge(len)) => {
                shared.counters.oversized.fetch_add(1, Ordering::Relaxed);
                let message =
                    format!("body of {len} bytes exceeds cap of {}", shared.config.max_body_bytes);
                let _ = http::write_response(&mut writer, 413, &json::error_body(&message), false);
                return;
            }
            Err(ReadError::Io(_)) => return,
        }
    }
}

fn route(shared: &Shared, request: &HttpRequest) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/check") => handle_check(shared, &request.body),
        ("POST", "/batch") => handle_batch(shared, &request.body),
        ("GET", "/metrics") => Response::ok(metrics_to_json(shared)),
        ("GET", "/healthz") => Response::ok(healthz_to_json(shared)),
        ("POST", "/shutdown") => Response {
            status: 200,
            body: "{\"status\":\"draining\"}".to_string(),
            close: true,
            begin_shutdown: true,
        },
        ("GET", "/check" | "/batch" | "/shutdown") | ("POST", "/metrics" | "/healthz") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such route"),
    }
}

fn handle_check(shared: &Shared, body: &str) -> Response {
    let app = match decode_app(body) {
        Ok(app) => app,
        Err(message) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &message);
        }
    };
    match shared.gate.try_admit(1) {
        Ok(mut tickets) => {
            let ticket = tickets.pop().expect("one ticket per admitted check");
            Response::ok(ticket.run(|| shared.check_rendered(&app)))
        }
        Err(refused) => refused_response(shared, refused),
    }
}

/// The HTTP answer to a refused admission.
fn refused_response(shared: &Shared, refused: Refused) -> Response {
    match refused {
        Refused::Overloaded => {
            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            Response::error(429, "overloaded")
        }
        Refused::Draining => Response::error(503, "draining"),
    }
}

/// Decodes a `/batch` body into its apps, or says why it is malformed.
fn decode_batch(body: &str) -> Result<Vec<AppInput>, String> {
    let _decode = ppchecker_obs::span!("serve.decode");
    let doc = json::parse(body)?;
    let entries = doc
        .get("apps")
        .and_then(json::Value::as_array)
        .ok_or_else(|| "missing \"apps\" array".to_string())?;
    entries
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            json::parse_app(entry).map_err(|message| format!("apps[{index}]: {message}"))
        })
        .collect()
}

fn handle_batch(shared: &Shared, body: &str) -> Response {
    let apps = match decode_batch(body) {
        Ok(apps) => apps,
        Err(message) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &message);
        }
    };
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    let count = apps.len();
    if count == 0 {
        return Response::ok("{\"count\":0,\"results\":[]}".to_string());
    }
    // All-or-nothing admission: either the gate holds the whole batch
    // or the caller gets an immediate `overloaded` and retries later —
    // never a half-admitted batch wedged against its own remainder.
    let tickets = match shared.gate.try_admit(count) {
        Ok(tickets) => tickets,
        Err(refused) => return refused_response(shared, refused),
    };
    let mut results = Vec::with_capacity(count);
    run_scoped_streamed(
        tickets.into_iter().zip(apps),
        count.min(shared.gate.workers()),
        count,
        |_, (ticket, app)| ticket.run(|| shared.check_rendered(&app)),
        &mut |_, rendered| results.push(rendered),
    );
    Response::ok(format!("{{\"count\":{count},\"results\":[{}]}}", results.join(",")))
}

fn healthz_to_json(shared: &Shared) -> String {
    let status = if shared.draining() { "draining" } else { "ok" };
    format!(
        "{{\"status\":\"{status}\",\"inflight\":{},\"uptime_ms\":{}}}",
        shared.gate.stats().inflight,
        shared.started.elapsed().as_millis(),
    )
}

fn cache_to_json(stats: &CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"entries\":{},\"hit_rate\":{:.4}}}",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.hit_rate(),
    )
}

/// Renders the persistent-store section of `/metrics`, or the literal
/// `null` when the daemon runs without a store.
fn store_to_json(store: Option<&ppchecker_engine::StoreSummary>) -> String {
    let Some(s) = store else {
        return "null".to_string();
    };
    let kind = |stats: &ppchecker_store::StoreStats| {
        format!(
            "{{\"hits\":{},\"misses\":{},\"writes\":{},\"corrupt\":{}}}",
            stats.hits, stats.misses, stats.writes, stats.corrupt,
        )
    };
    format!(
        "{{\"apps_skipped\":{},\"reports\":{},\"policies\":{}}}",
        s.apps_skipped,
        kind(&s.reports),
        kind(&s.policies),
    )
}

/// Renders the full `/metrics` document: request counters, queue
/// occupancy, cache effectiveness, interner occupancy, and per-span
/// latency quantiles — cumulative since process start (scrape twice and
/// difference for a window). `caches.policy` counts policy *sentence*
/// lookups (a check of a six-sentence policy adds six), its `entries`
/// are resident sentences, and `policy_cap` is the most sentences the
/// cache admits.
fn metrics_to_json(shared: &Shared) -> String {
    let counters = &shared.counters;
    let detectors: Vec<String> = DetectorId::ALL
        .iter()
        .map(|&id| {
            format!(
                "\"{}\":{}",
                id.as_str(),
                counters.detector_findings[id.rank()].load(Ordering::Relaxed)
            )
        })
        .collect();
    let queue = shared.gate.stats();
    let engine = shared.engine.metrics_snapshot();
    let interner = engine.interner;
    let spans: Vec<String> = ppchecker_obs::snapshot()
        .iter()
        .map(|(name, snap)| {
            format!(
                "\"{}\":{{\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\
                 \"max_us\":{},\"total_us\":{}}}",
                json::escape(name),
                snap.count,
                snap.p50().as_micros(),
                snap.p90().as_micros(),
                snap.p99().as_micros(),
                snap.max_duration().as_micros(),
                snap.total().as_micros(),
            )
        })
        .collect();
    format!(
        "{{\"uptime_ms\":{},\
         \"requests\":{{\"http\":{},\"jsonl_lines\":{},\"checks_ok\":{},\"check_errors\":{},\
         \"overloaded\":{},\"malformed\":{},\"oversized\":{},\"batches\":{}}},\
         \"detectors\":{{{}}},\
         \"queue\":{{\"workers\":{},\"capacity\":{},\"inflight\":{},\"draining\":{}}},\
         \"lib_policies\":{},\
         \"caches\":{{\"policy\":{},\"policy_cap\":{},\"esa_vectors\":{},\"esa_pair_memo\":{},\
         \"esa_pruned\":{}}},\
         \"store\":{},\
         \"interner\":{{\"symbols\":{},\"preseeded\":{},\"bytes\":{},\"soft_cap_bytes\":{},\
         \"over_soft_cap\":{},\"over_cap_interns\":{}}},\
         \"spans\":{{{}}}}}",
        shared.started.elapsed().as_millis(),
        counters.http_requests.load(Ordering::Relaxed),
        counters.jsonl_lines.load(Ordering::Relaxed),
        counters.checks_ok.load(Ordering::Relaxed),
        counters.check_errors.load(Ordering::Relaxed),
        counters.overloaded.load(Ordering::Relaxed),
        counters.malformed.load(Ordering::Relaxed),
        counters.oversized.load(Ordering::Relaxed),
        counters.batches.load(Ordering::Relaxed),
        detectors.join(","),
        queue.workers,
        queue.capacity,
        queue.inflight,
        queue.draining,
        engine.lib_policies,
        cache_to_json(&engine.policy_cache),
        ppchecker_engine::cache::POLICY_CACHE_CAP,
        cache_to_json(&engine.esa_cache),
        cache_to_json(&engine.esa_pair_memo),
        engine.esa_pruned,
        store_to_json(engine.store.as_ref()),
        interner.symbols,
        interner.preseeded,
        interner.bytes,
        interner.soft_cap_bytes,
        interner.over_soft_cap,
        ppchecker_nlp::Interner::global().over_cap_interns(),
        spans.join(","),
    )
}
