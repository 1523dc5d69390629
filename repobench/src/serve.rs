//! `serve-open`: an in-process daemon, warm-booted over the 1,197 paper
//! apps the way `serve --stream` boots, takes keep-alive `POST /check`
//! requests from an open loop on one pipelined connection — one sender
//! thread sending on a fixed schedule, one receiver reading responses in
//! order — at 200/s, then at 2000/s.
//!
//! Each request is timed from when it was due to be sent, so a stalled
//! generator or a growing queue shows up as latency. A phase whose
//! completions fall behind the offered rate has a growing backlog: it is
//! reported invalid and its requests count as failed, not as a latency.

use crate::batch::fresh_engine;
use crate::trace::{self, Counters};
use crate::util::{
    lib_pairs, median, percentiles, probe_setup, reference_checker, reference_report, Outcome,
    RssMeter, Settings, Windows,
};
use ppchecker_core::AppInput;
use ppchecker_corpus::stream_apps;
use ppchecker_engine::Engine;
use ppchecker_serve::json::{self, Value};
use ppchecker_serve::{Client, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Cold set-ups timed per run, each in a fresh process.
const SETUP_PROBES: usize = 15;

/// Windows each phase's latencies are cut into.
const PHASE_WINDOWS: usize = 10;

/// The paper corpus the daemon warms over and the requests cycle through.
fn paper_apps(seed: u64) -> Vec<AppInput> {
    stream_apps(seed).map(|g| g.input).collect()
}

/// A fresh engine warmed the way `serve --stream` warms it: one
/// `run_streamed` pass over `apps`.
fn warm_engine(apps: Vec<AppInput>, jobs: usize) -> Engine {
    let engine = fresh_engine(lib_pairs(), jobs);
    engine.run_streamed(apps, |_| {});
    engine
}

/// Engine construction, the warm boot over `apps`, and the daemon start —
/// the program's own set-up calls.
fn boot(apps: Vec<AppInput>, jobs: usize) -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jsonl_addr: None,
        workers: jobs,
        queue_depth: 2 * jobs,
        ..ServeConfig::default()
    };
    Server::start(warm_engine(apps, jobs), config).expect("daemon starts on an ephemeral port")
}

/// Each app's `/check` body and the full keep-alive request carrying it.
fn requests_of(apps: &[AppInput]) -> (Vec<String>, Vec<Vec<u8>>) {
    let bodies: Vec<String> = apps.iter().map(json::app_to_json).collect();
    let requests = bodies
        .iter()
        .map(|body| {
            format!(
                "POST /check HTTP/1.1\r\nhost: ppchecker\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    (bodies, requests)
}

/// Times one cold boot in this (fresh) process, then drains the daemon.
pub fn setup_probe(s: &Settings) -> f64 {
    let apps = paper_apps(s.seed);
    let t = Instant::now();
    let handle = boot(apps, s.jobs);
    let secs = t.elapsed().as_secs_f64();
    handle.shutdown();
    handle.join();
    secs
}

/// One open-loop phase's outcome.
struct Phase {
    rate: u32,
    sent: usize,
    ok: usize,
    failed: usize,
    refused: usize,
    /// Latency of each completed request in ms, in send order.
    latencies: Vec<f64>,
    late_max_ms: f64,
    /// From the first due time to the last response, in seconds.
    wall_s: f64,
    invalid: Option<String>,
    /// `(app index, response body)` of sampled requests.
    sampled: Vec<(usize, String)>,
}

/// Reads one HTTP response: status and body.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<(u16, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Sends `rate × duration` requests on one keep-alive connection at fixed
/// due times, cycling through `requests` from `offset`, and reads the
/// responses as they arrive.
fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    offset: usize,
    rate: u32,
    duration: Duration,
    stride: usize,
) -> Phase {
    let n = (f64::from(rate) * duration.as_secs_f64()).round() as usize;
    let gap = Duration::from_secs_f64(1.0 / f64::from(rate));
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone the socket");
    let mut reader = BufReader::new(stream);
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + gap * i as u32;

    let mut phase = Phase {
        rate,
        sent: n,
        ok: 0,
        failed: 0,
        refused: 0,
        latencies: Vec::with_capacity(n),
        late_max_ms: 0.0,
        wall_s: 0.0,
        invalid: None,
        sampled: Vec::new(),
    };
    let late_max = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late_max = Duration::ZERO;
            for i in 0..n {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late_max = late_max.max(Instant::now().saturating_duration_since(at));
                if writer.write_all(&requests[(offset + i) % requests.len()]).is_err() {
                    break;
                }
            }
            late_max
        });
        for i in 0..n {
            let Ok((status, body)) = read_response(&mut reader) else {
                phase.failed += n - i;
                break;
            };
            let latency = Instant::now().saturating_duration_since(due(i));
            phase.latencies.push(latency.as_secs_f64() * 1e3);
            match status {
                200 if body.starts_with("{\"ok\":true") => phase.ok += 1,
                429 => phase.refused += 1,
                _ => phase.failed += 1,
            }
            let app = (offset + i) % requests.len();
            if app.is_multiple_of(stride) {
                phase.sampled.push((app, body));
            }
        }
        sender.join().expect("sender thread")
    });
    phase.wall_s = Instant::now().saturating_duration_since(t0).as_secs_f64();
    phase.late_max_ms = late_max.as_secs_f64() * 1e3;

    // A growing backlog shows as latency rising through the phase.
    let quarter = phase.latencies.len() / 4;
    if phase.failed + phase.refused > 0 {
        phase.invalid = Some(format!("{} failed, {} refused", phase.failed, phase.refused));
    } else if quarter > 0 {
        let first = median(&mut phase.latencies[..quarter].to_vec());
        let last = median(&mut phase.latencies[phase.latencies.len() - quarter..].to_vec());
        if last > 2.0 * first + 1.0 {
            phase.invalid = Some(format!(
                "backlog grew: median latency {first:.3} ms in the first quarter, \
                 {last:.3} ms in the last"
            ));
        }
    }
    phase
}

/// The `"report":{...}` object of a `/check` response body.
fn report_of(body: &str) -> Option<&str> {
    let start = body.find("\"report\":")? + "\"report\":".len();
    let end = body.rfind(",\"timings_us\":")?;
    body.get(start..end)
}

/// Cumulative cache and request counters from `/metrics`.
fn scrape(addr: SocketAddr) -> Value {
    let mut client = Client::connect(addr).expect("metrics client connects");
    client.metrics().expect("metrics scrape")
}

fn counters_between(before: &Value, after: &Value) -> Counters {
    let num = |doc: &Value, path: &[&str]| {
        let mut v = doc;
        for key in path {
            v = v.get(key).unwrap_or(&Value::Null);
        }
        v.as_f64().unwrap_or(0.0) as u64
    };
    let d = |path: &[&str]| num(after, path) - num(before, path);
    let pair = |cache: &str| (d(&["caches", cache, "hits"]), d(&["caches", cache, "misses"]));
    let findings =
        ppchecker_core::DetectorId::ALL.iter().map(|id| d(&["detectors", id.as_str()])).sum();
    Counters {
        apps: d(&["requests", "checks_ok"]) + d(&["requests", "check_errors"]),
        failed: d(&["requests", "check_errors"]),
        policy: pair("policy"),
        esa_vector: pair("esa_vectors"),
        esa_pair: pair("esa_pair_memo"),
        esa_pruned: d(&["caches", "esa_pruned"]),
        taint_summary: pair("taint_summaries"),
        findings,
        http_429: d(&["requests", "overloaded"]),
        ..Counters::default()
    }
}

pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    // Half the set-up probes run before the open loop and half after, so
    // the median spans the run rather than one moment of it.
    let mut setups = probe_setup("serve-open", s, SETUP_PROBES / 2);
    let apps = paper_apps(s.seed);
    let (bodies, requests) = requests_of(&apps);
    let boot_apps = apps.clone();
    let stride = 97;
    let r2000 = s.duration(0.3, Duration::from_millis(500));

    let rss = RssMeter::start();
    let handle = boot(boot_apps, s.jobs);
    let addr = handle.addr();
    let before = scrape(addr);
    let phases = [
        open_loop(addr, &requests, 0, 200, s.duration(0.5, Duration::from_millis(500)), stride),
        open_loop(addr, &requests, 601, 2000, r2000, stride),
    ];
    let mut counters = counters_between(&before, &scrape(addr));
    rss.record(&mut out);
    // The traced run: the 2000/s phase once more, with obs trace capture on
    // in the daemon (it runs in this process).
    let traced = s
        .trace
        .then(|| trace::capture(|| open_loop(addr, &requests, 1201, 2000, r2000, usize::MAX)));
    handle.shutdown();
    handle.join();
    setups.extend(probe_setup("serve-open", s, SETUP_PROBES - SETUP_PROBES / 2));
    let setup_s = median(&mut setups);

    let totals = record_phases(&mut out, &phases);
    out.attempted = totals.sent;
    out.failed = totals.failed;
    out.set("latency_p50_ms", out.get("serve.r200.latency_p50_ms").unwrap_or(0.0));
    out.set("run.latency_p90_ms", out.get("serve.r200.latency_p90_ms").unwrap_or(0.0));
    let (completed, elapsed, sampled) = (totals.completed, totals.wall_s, totals.sampled);
    out.set("setup_s", setup_s);
    // Completed requests over both phases: the offered rate unless the
    // daemon falls behind, which the phases report as invalid anyway.
    out.set("throughput_per_s", completed as f64 / elapsed);
    counters.parallelism = 0.0;
    counters.record(&mut out);

    // Output checks: each sampled response is "ok":true and carries the
    // report a fresh, uncached checker produces for the same app.
    let checker = reference_checker();
    let mismatch = sampled.iter().find_map(|(app, body)| {
        let want = reference_report(&checker, &apps[*app]);
        (report_of(body) != Some(want.as_str()))
            .then(|| format!("{}: got {body} want report {want}", apps[*app].package))
    });
    out.check(
        "responses",
        match mismatch {
            None => {
                Ok(format!("{} of {} sampled responses identical", sampled.len(), sampled.len()))
            }
            Some(detail) => Err(detail),
        },
    );

    if let Some((phase, events, _)) = traced {
        record_codec(&mut out, &warm_engine(apps, s.jobs), &bodies);
        // The apps as the daemon decoded them (the wire carries plain dex).
        let wire: Vec<AppInput> = bodies.iter().map(|b| decode(b)).collect();
        trace::Layers::from_events(&events).record(&mut out, &wire);
        let untraced_p50 = median(&mut phases[1].latencies.clone());
        let traced_p50 = median(&mut phase.latencies.clone());
        out.set("trace.overhead_ratio", traced_p50 / untraced_p50);
        out.note(format!(
            "trace: 2000/s phase with capture on: sent {} ok {}, p50 {traced_p50:.3} ms \
             (untraced {untraced_p50:.3} ms){}",
            phase.sent,
            phase.ok,
            phase.invalid.map(|why| format!("; INVALID: {why}")).unwrap_or_default()
        ));
        trace::write_events(&mut out, "serve-open", s.seed, &events);
    }
    out
}

/// A `/check` body decoded the way the daemon decodes it.
fn decode(body: &str) -> AppInput {
    json::parse(body).and_then(|doc| json::parse_app(&doc)).expect("body decodes")
}

/// What a set of open-loop phases added up to.
struct PhaseTotals {
    sent: u64,
    /// Failed and refused requests, or every request of an invalid phase.
    failed: u64,
    completed: usize,
    wall_s: f64,
    sampled: Vec<(usize, String)>,
}

/// Records each phase's figures (`serve.r200.*`, `serve.r2000.*`), the
/// generator's worst lateness and the refusals, with a note per phase.
fn record_phases(out: &mut Outcome, phases: &[Phase]) -> PhaseTotals {
    let mut totals =
        PhaseTotals { sent: 0, failed: 0, completed: 0, wall_s: 0.0, sampled: Vec::new() };
    for phase in phases {
        let tag = if phase.rate == 200 { "r200" } else { "r2000" };
        let mut lat = phase.latencies.clone();
        let (_, _, p99) = percentiles(&mut lat);
        // p50 and p90 are medians over ten windows of consecutive
        // requests, so one scheduling hiccup does not move them.
        let mut windows = Windows::default();
        let per_window = (phase.latencies.len() / PHASE_WINDOWS).max(1);
        for chunk in phase.latencies.chunks(per_window) {
            windows.latencies.extend_from_slice(chunk);
            windows.close(0.0);
        }
        let (_, p50, p90) = windows.medians(per_window);
        out.note(format!(
            "{tag}: sent {} ok {} failed {} refused {}; generator late by at most {:.3} ms; \
             p50 {p50:.3} ms p90 {p90:.3} ms p99 {p99:.3} ms over {} samples{}",
            phase.sent,
            phase.ok,
            phase.failed,
            phase.refused,
            phase.late_max_ms,
            lat.len(),
            match &phase.invalid {
                Some(why) => format!("; INVALID: {why}"),
                None => String::new(),
            }
        ));
        totals.sent += phase.sent as u64;
        totals.failed += if phase.invalid.is_some() {
            phase.sent as u64
        } else {
            (phase.failed + phase.refused) as u64
        };
        totals.completed += phase.ok;
        totals.wall_s += phase.wall_s;
        totals.sampled.extend(phase.sampled.iter().cloned());
        let [p50_name, p90_name, p99_name, n_name] = if phase.rate == 200 {
            [
                "serve.r200.latency_p50_ms",
                "serve.r200.latency_p90_ms",
                "serve.r200.latency_p99_ms",
                "serve.r200.samples",
            ]
        } else {
            [
                "serve.r2000.latency_p50_ms",
                "serve.r2000.latency_p90_ms",
                "serve.r2000.latency_p99_ms",
                "serve.r2000.samples",
            ]
        };
        out.set(p50_name, p50);
        out.set(p90_name, p90);
        out.set(p99_name, p99);
        out.set(n_name, lat.len() as f64);
        out.note(format!("{tag}.latency_p50_ms = {p50} ms"));
        out.note(format!("{tag}.latency_p90_ms = {p90} ms"));
    }
    let late = phases.iter().map(|p| p.late_max_ms).fold(0.0, f64::max);
    out.set("serve.gen_late_ms", late);
    out.set("serve.rejected", phases.iter().map(|p| p.refused).sum::<usize>() as f64);
    totals
}

/// Median decode (`json::parse` + `parse_app`), `check_one` and encode
/// (`outcome_to_json`) times in µs over `bodies` against `engine`. The
/// client-observed r200 median minus the three is the socket, hand-off and
/// Nagle/delayed-ACK wait.
fn record_codec(out: &mut Outcome, engine: &Engine, bodies: &[String]) {
    let (mut decodes, mut checks, mut encodes) = (Vec::new(), Vec::new(), Vec::new());
    let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
    for body in bodies {
        let t0 = Instant::now();
        let app = decode(body);
        let t1 = Instant::now();
        let outcome = engine.check_one(&app);
        let t2 = Instant::now();
        std::hint::black_box(json::outcome_to_json(&app.package, &outcome));
        let t3 = Instant::now();
        decodes.push(us(t0, t1));
        checks.push(us(t1, t2));
        encodes.push(us(t2, t3));
    }
    let phases = [median(&mut decodes), median(&mut checks), median(&mut encodes)];
    out.set("serve.decode_us", phases[0]);
    out.set("serve.check_us", phases[1]);
    out.set("serve.encode_us", phases[2]);
    let client_p50_us = out.get("serve.r200.latency_p50_ms").unwrap_or(0.0) * 1e3;
    out.set("serve.unattributed_us", client_p50_us - phases.iter().sum::<f64>());
}
