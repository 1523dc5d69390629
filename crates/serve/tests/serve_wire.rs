//! Wire-layer matrix against a live daemon: malformed and deeply nested
//! input, oversized bodies, mid-stream disconnects, admission under a
//! full queue, cache warm-up across requests, JSONL ordering, graceful
//! drain, per-phase request spans, and the loopback latency floors.

use ppchecker_core::PPChecker;
use ppchecker_corpus::small_dataset;
use ppchecker_engine::Engine;
use ppchecker_serve::json::Value;
use ppchecker_serve::{Client, JsonlClient, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Boots a daemon on ephemeral ports over a plain checker.
fn daemon(workers: usize, queue_depth: usize, jsonl: bool) -> ServerHandle {
    daemon_with(Engine::new(PPChecker::new()), workers, queue_depth, jsonl, 4 * 1024 * 1024)
}

fn daemon_with(
    engine: Engine,
    workers: usize,
    queue_depth: usize,
    jsonl: bool,
    max_body_bytes: usize,
) -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jsonl_addr: jsonl.then(|| "127.0.0.1:0".to_string()),
        workers,
        queue_depth,
        max_body_bytes,
    };
    Server::start(engine, config).expect("daemon boots")
}

fn shut_down(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

fn number(doc: &Value, path: &[&str]) -> f64 {
    let mut node = doc;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("metrics missing {path:?}"));
    }
    node.as_f64().unwrap_or_else(|| panic!("{path:?} is not a number"))
}

#[test]
fn check_roundtrips_and_second_pass_hits_warm_caches() {
    let dataset = small_dataset(11, 3);
    let handle = daemon_with(Engine::new(dataset.make_checker()), 2, 4, false, 4 * 1024 * 1024);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Cold pass: every app analyzed from scratch.
    for app in dataset.iter_apps() {
        let (status, body) = client.check(app).unwrap();
        assert_eq!(status, 200, "body: {body}");
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert!(body
            .contains(&format!("\"package\":\"{}\"", ppchecker_serve::json::escape(&app.package))));
    }
    // Warm pass: identical texts must be served from the caches.
    for app in dataset.iter_apps() {
        let (status, _) = client.check(app).unwrap();
        assert_eq!(status, 200);
    }

    let metrics = client.metrics().unwrap();
    assert!(number(&metrics, &["caches", "policy", "hits"]) > 0.0, "policy cache never hit");
    assert!(number(&metrics, &["caches", "esa_vectors", "hits"]) > 0.0, "esa cache never hit");
    assert!(number(&metrics, &["requests", "checks_ok"]) >= 6.0);
    assert!(number(&metrics, &["interner", "symbols"]) > 0.0);
    assert!(number(&metrics, &["interner", "soft_cap_bytes"]) > 0.0);
    shut_down(handle);
}

#[test]
fn malformed_json_gets_400_and_connection_survives() {
    let handle = daemon(1, 2, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, body) = client.request("POST", "/check", "this is not json").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("error"));
    // Keep-alive holds: the same connection still serves requests.
    let (status, body) = client.healthz().unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""));

    let metrics = client.metrics().unwrap();
    assert!(number(&metrics, &["requests", "malformed"]) >= 1.0);
    shut_down(handle);
}

#[test]
fn deeply_nested_body_is_refused_and_the_daemon_keeps_serving() {
    let handle = daemon(1, 2, true);
    let hostile = "[".repeat(20_000);
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, body) = client.request("POST", "/check", &hostile).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("nesting deeper than"), "body: {body}");

    let jsonl = JsonlClient::connect(handle.jsonl_addr().unwrap()).unwrap();
    let responses = jsonl.send_lines(&[hostile]).unwrap();
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert!(responses[0].contains("\"ok\":false"), "{responses:?}");
    assert!(responses[0].contains("nesting deeper than"), "{responses:?}");

    let (status, _) = Client::connect(handle.addr()).unwrap().healthz().unwrap();
    assert_eq!(status, 200);
    shut_down(handle);
}

#[test]
fn huge_parameter_count_gets_a_report_and_the_daemon_keeps_serving() {
    // 246 bytes declaring three billion parameters: no table may be sized by it.
    const BODY: &str = r#"{"policy_html":"<p>We log data.</p>","description":"","manifest":"package com.h\nactivity com.h.Main main\n","dex":"class com.h.Main extends android.app.Activity\n  method onCreate params 3000000000\n    invoke static android.util.Log d [0] -\n"}"#;
    let handle = daemon(1, 2, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, body) = client.request("POST", "/check", BODY).unwrap();
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"ok\":true"), "body: {body}");
    let (status, _) = Client::connect(handle.addr()).unwrap().healthz().unwrap();
    assert_eq!(status, 200);
    shut_down(handle);
}

#[test]
fn malformed_http_gets_400_then_close() {
    let handle = daemon(1, 2, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.send_raw(b"THIS IS NOT HTTP AT ALL\r\n\r\n").unwrap();
    let (status, _) = client.read_response().unwrap();
    assert_eq!(status, 400);
    // The daemon closed the connection; the next read sees EOF.
    assert!(client.read_response().is_err());
    shut_down(handle);
}

#[test]
fn oversized_body_gets_413_without_reading_it() {
    let handle = daemon_with(Engine::new(PPChecker::new()), 1, 2, false, 1024);
    let mut client = Client::connect(handle.addr()).unwrap();
    let big = "x".repeat(4096);
    let (status, body) = client.request("POST", "/check", &big).unwrap();
    assert_eq!(status, 413);
    assert!(body.contains("exceeds cap"));

    let mut probe = Client::connect(handle.addr()).unwrap();
    let metrics = probe.metrics().unwrap();
    assert!(number(&metrics, &["requests", "oversized"]) >= 1.0);
    shut_down(handle);
}

#[test]
fn mid_stream_disconnect_leaves_the_daemon_healthy() {
    let handle = daemon(1, 2, false);
    // Promise a body, send half of it, vanish.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"POST /check HTTP/1.1\r\ncontent-length: 500\r\n\r\nonly a fragment")
            .unwrap();
        stream.flush().unwrap();
    }
    // Disconnect mid-headers too.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"POST /check HTTP/1.1\r\ncontent-len").unwrap();
        stream.flush().unwrap();
    }
    thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, body) = client.healthz().unwrap();
    assert_eq!(status, 200, "daemon unhealthy after disconnects: {body}");
    shut_down(handle);
}

#[test]
fn batch_beyond_capacity_is_overloaded_not_a_hang() {
    let dataset = small_dataset(13, 6);
    // Capacity = workers + queue_depth = 2; a 6-app batch can never fit.
    let handle = daemon(1, 1, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let apps: Vec<_> = dataset.iter_apps().cloned().collect();
    let (status, body) = client.batch(&apps).unwrap();
    assert_eq!(status, 429, "body: {body}");
    assert!(body.contains("overloaded"));

    let metrics = client.metrics().unwrap();
    assert!(number(&metrics, &["requests", "overloaded"]) >= 1.0);
    shut_down(handle);
}

#[test]
fn concurrent_checks_against_a_tiny_queue_all_resolve() {
    let dataset = small_dataset(17, 4);
    let handle = daemon(1, 1, false);
    let addr = handle.addr();
    let apps: Vec<_> = dataset.iter_apps().cloned().collect();
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let apps = apps.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut statuses = Vec::new();
                for app in &apps {
                    let (status, _) = client.check(app).unwrap();
                    statuses.push(status);
                }
                (t, statuses)
            })
        })
        .collect();
    for worker in workers {
        let (t, statuses) = worker.join().expect("client thread survived");
        for status in statuses {
            assert!(
                status == 200 || status == 429,
                "thread {t}: unexpected status {status} — checks must resolve or shed, never hang"
            );
        }
    }
    shut_down(handle);
}

#[test]
fn jsonl_preserves_input_order_and_survives_malformed_lines() {
    let dataset = small_dataset(19, 2);
    let handle = daemon(2, 4, true);
    let apps: Vec<_> = dataset.iter_apps().cloned().collect();
    let mut input = Vec::new();
    for line in [
        ppchecker_serve::json::app_to_json(&apps[0]).as_bytes(),
        b"definitely not json",
        b"{\"x\":\"\xff\xfe\"}",
        ppchecker_serve::json::app_to_json(&apps[1]).as_bytes(),
    ] {
        input.extend_from_slice(line);
        input.push(b'\n');
    }
    // A raw socket: `JsonlClient` only sends UTF-8 lines.
    let mut stream = TcpStream::connect(handle.jsonl_addr().unwrap()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(&input).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let responses: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
    assert_eq!(responses.len(), 4, "one response line per input line: {responses:?}");
    assert!(responses[0].contains("\"ok\":true"));
    assert!(responses[0].contains(&apps[0].package));
    assert!(responses[1].contains("\"ok\":false"));
    assert!(responses[2].contains("\"ok\":false"));
    assert!(responses[2].contains("not UTF-8"), "{responses:?}");
    assert!(responses[3].contains("\"ok\":true"));
    assert!(responses[3].contains(&apps[1].package));
    shut_down(handle);
}

/// Sends `bytes` with no newline and no half-close, then reads what the
/// daemon answers before it closes the connection.
fn answer_to_endless_line(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The daemon may close before it has read everything; the answer is
    // already queued by then.
    let _ = stream.write_all(bytes);
    let mut answer = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => answer.extend_from_slice(&buf[..n]),
            // Unread input makes the close a reset.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("no answer, then close: {e} after {answer:?}"),
        }
    }
    String::from_utf8(answer).unwrap()
}

#[test]
fn endless_request_head_gets_400_and_close() {
    let handle = daemon(1, 2, false);
    let mut head = b"GET /".to_vec();
    head.resize(64 * 1024, b'a');
    let answer = answer_to_endless_line(handle.addr(), &head);
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("header block exceeds 16 KiB"), "{answer}");
    shut_down(handle);
}

#[test]
fn endless_jsonl_line_gets_the_cap_error_then_eof() {
    let handle = daemon_with(Engine::new(PPChecker::new()), 1, 2, true, 1024);
    let mut line = b"{\"policy_html\":\"".to_vec();
    line.resize(64 * 1024, b'a');
    let answer = answer_to_endless_line(handle.jsonl_addr().unwrap(), &line);
    assert_eq!(answer.lines().count(), 1, "{answer}");
    assert!(answer.contains("\"ok\":false"), "{answer}");
    assert!(answer.contains("exceeds cap"), "{answer}");
    shut_down(handle);
}

#[test]
fn graceful_drain_completes_in_flight_work() {
    let dataset = small_dataset(23, 4);
    let handle = daemon(1, 4, false);
    let addr = handle.addr();
    let apps: Vec<_> = dataset.iter_apps().cloned().collect();
    let count = apps.len();
    let in_flight = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.batch(&apps).unwrap()
    });
    // Let the batch admit, then pull the plug while it runs.
    thread::sleep(Duration::from_millis(30));
    let mut control = Client::connect(addr).unwrap();
    let (status, body) = control.shutdown().unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("draining"));

    let (status, body) = in_flight.join().expect("batch client survived");
    assert_eq!(status, 200, "in-flight batch must complete through the drain: {body}");
    assert!(body.contains(&format!("\"count\":{count}")));
    // Every admitted app produced a result object.
    assert_eq!(body.matches("\"ok\":").count(), count, "body: {body}");
    handle.join();
}

#[test]
fn unknown_routes_and_wrong_methods_are_refused() {
    let handle = daemon(1, 2, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, _) = client.request("GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/check", "").unwrap();
    assert_eq!(status, 405);
    let (status, _) = client.request("POST", "/healthz", "").unwrap();
    assert_eq!(status, 405);
    shut_down(handle);
}

#[test]
fn store_backed_daemon_replays_and_reports_in_metrics() {
    let dataset = small_dataset(31, 2);
    let store_dir = std::env::temp_dir().join(format!("ppserve-store-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = std::sync::Arc::new(ppchecker_store::Store::open(&store_dir).unwrap());
    let engine = Engine::new(dataset.make_checker()).with_store(store);
    let handle = daemon_with(engine, 1, 2, false, 4 * 1024 * 1024);
    let mut client = Client::connect(handle.addr()).unwrap();

    let app = dataset.iter_apps().next().unwrap();
    let (status, first) = client.check(app).unwrap();
    assert_eq!(status, 200, "body: {first}");
    let (status, second) = client.check(app).unwrap();
    assert_eq!(status, 200);
    // The replay carries zeroed stage timings (no stages ran), so
    // compare the response bodies up to the timings section.
    let report_part = |body: &str| {
        body.split_once(",\"timings_us\"").map(|(r, _)| r.to_string()).unwrap_or_default()
    };
    assert!(!report_part(&first).is_empty(), "body: {first}");
    assert_eq!(
        report_part(&first),
        report_part(&second),
        "replayed report matches the computed one"
    );

    let metrics = client.metrics().unwrap();
    assert!(number(&metrics, &["store", "apps_skipped"]) >= 1.0, "no replay recorded");
    assert!(number(&metrics, &["store", "reports", "writes"]) >= 1.0);
    shut_down(handle);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn storeless_daemon_reports_a_null_store_section() {
    let handle = daemon(1, 2, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let metrics = client.metrics().unwrap();
    assert!(metrics.get("store").is_some(), "store key must exist even when null");
    assert!(metrics.get("store").unwrap().as_f64().is_none(), "storeless daemon has null store");
    shut_down(handle);
}

#[test]
fn metrics_document_is_well_formed_json_with_span_quantiles() {
    let dataset = small_dataset(29, 1);
    let handle = daemon(1, 2, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let app = dataset.iter_apps().next().unwrap();
    let (status, _) = client.check(app).unwrap();
    assert_eq!(status, 200);
    let metrics = client.metrics().unwrap();
    // Request handling and check pipeline spans both appear with
    // quantile fields once traffic has flowed.
    let spans = metrics.get("spans").expect("spans object");
    let request_span = spans.get("serve.request").expect("serve.request span recorded");
    assert!(number(request_span, &["count"]) >= 1.0);
    assert!(request_span.get("p50_us").is_some());
    assert!(request_span.get("p99_us").is_some());
    assert!(spans.get("app.check").is_some(), "engine span missing from /metrics");
    // Every phase of a request, all on its connection thread.
    for name in ["serve.read", "serve.decode", "serve.write", "serve.queue_wait", "serve.encode"] {
        let span = spans.get(name).unwrap_or_else(|| panic!("{name} missing from /metrics"));
        assert!(number(span, &["count"]) >= 1.0, "{name} never recorded");
    }
    shut_down(handle);
}

#[test]
fn idle_keep_alive_time_is_not_read_time() {
    let dataset = small_dataset(43, 1);
    let handle = daemon_with(Engine::new(dataset.make_checker()), 1, 2, false, 4 * 1024 * 1024);
    let app = dataset.iter_apps().next().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let read = ppchecker_obs::histogram("serve.read");
    let before = read.snapshot();
    assert_eq!(client.check(app).unwrap().0, 200);
    // The connection idles between requests; that is no part of a read.
    thread::sleep(Duration::from_millis(200));
    assert_eq!(client.check(app).unwrap().0, 200);
    let reads = read.snapshot().delta_since(&before);
    assert!(reads.count >= 2, "serve.read recorded {} reads", reads.count);
    assert!(reads.total() < Duration::from_millis(100), "reads took {:?}", reads.total());
    shut_down(handle);
}

/// Median of `samples`, in ms.
fn p50_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// The floors: a warm request on loopback needs well under a millisecond,
/// so a median of 5 ms or more means requests wait on a timer — Nagle's
/// algorithm against the peer's 40 ms delayed ACK, or a sleep-polled
/// accept — not on analysis.
const FLOOR_MS: f64 = 5.0;

#[test]
fn keep_alive_check_p50_is_under_the_floor() {
    let dataset = small_dataset(37, 5);
    let handle = daemon_with(Engine::new(dataset.make_checker()), 1, 2, false, 4 * 1024 * 1024);
    let apps: Vec<_> = dataset.iter_apps().cloned().collect();
    let mut client = Client::connect(handle.addr()).unwrap();
    for app in &apps {
        assert_eq!(client.check(app).unwrap().0, 200, "warm-up");
    }
    let samples = (0..50)
        .map(|i| {
            let t = Instant::now();
            let (status, body) = client.check(&apps[i % apps.len()]).unwrap();
            let elapsed = t.elapsed();
            assert_eq!(status, 200, "body: {body}");
            elapsed
        })
        .collect();
    let p50 = p50_ms(samples);
    assert!(p50 < FLOOR_MS, "keep-alive /check p50 is {p50:.3} ms");
    shut_down(handle);
}

#[test]
fn fresh_connection_healthz_p50_is_under_the_floor() {
    let handle = daemon(1, 2, false);
    let samples = (0..20)
        .map(|_| {
            let t = Instant::now();
            let mut client = Client::connect(handle.addr()).unwrap();
            let (status, body) = client.healthz().unwrap();
            let elapsed = t.elapsed();
            assert_eq!(status, 200, "body: {body}");
            elapsed
        })
        .collect();
    let p50 = p50_ms(samples);
    assert!(p50 < FLOOR_MS, "fresh-connection /healthz p50 is {p50:.3} ms");
    shut_down(handle);
}

#[test]
fn interactive_jsonl_line_p50_is_under_the_floor() {
    let dataset = small_dataset(41, 3);
    let lines: Vec<String> = dataset
        .iter_apps()
        .map(|app| format!("{}\n", ppchecker_serve::json::app_to_json(app)))
        .collect();
    // With two workers, one is reading the next line while the other
    // answers the last, so an answer that waited on the reader would
    // hang the client; the read timeout turns that into a failure.
    for workers in [1, 2] {
        let engine = Engine::new(dataset.make_checker());
        let handle = daemon_with(engine, workers, 2, true, 4 * 1024 * 1024);
        let stream = TcpStream::connect(handle.jsonl_addr().unwrap()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // One line at a time, each waiting for its answer: the first pass
        // over the apps warms the caches, the next 30 lines are timed.
        let mut samples = Vec::new();
        for i in 0..lines.len() + 30 {
            let t = Instant::now();
            writer.write_all(lines[i % lines.len()].as_bytes()).unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let elapsed = t.elapsed();
            assert!(response.contains("\"ok\":true"), "response: {response}");
            if i >= lines.len() {
                samples.push(elapsed);
            }
        }
        let p50 = p50_ms(samples);
        assert!(p50 < FLOOR_MS, "interactive JSONL line p50 at {workers} workers is {p50:.3} ms");
        drop((writer, reader));
        shut_down(handle);
    }
}
