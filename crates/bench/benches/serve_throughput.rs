//! Sustained throughput and tail latency of the resident daemon over a
//! mixed cold/warm corpus.
//!
//! The workload models a fleet of callers against one warm process: a
//! cold pass (every policy sentence and ESA vector computed fresh), then
//! warm passes over the same corpus (served from the resident caches),
//! then a concurrent phase with several keep-alive clients. Emits `BENCH_serve.json` at the repo root (see
//! [`ppchecker_bench::emit`]) with every request latency and the
//! sustained requests/sec.

use criterion::{criterion_group, criterion_main, Criterion};
use ppchecker_bench::emit::BenchResult;
use ppchecker_core::{AppInput, PPChecker};
use ppchecker_corpus::small_dataset;
use ppchecker_engine::Engine;
use ppchecker_serve::{Client, ServeConfig, Server, ServerHandle};
use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

const APPS: usize = 48;
const WARM_PASSES: usize = 2;
const CLIENTS: usize = 4;

fn boot(workers: usize) -> (ServerHandle, Vec<AppInput>) {
    let dataset = small_dataset(42, APPS);
    let engine = Engine::with_lib_policies(
        PPChecker::new(),
        dataset.lib_policies.iter().map(|lp| (lp.lib.id.to_string(), lp.html.clone())),
    );
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jsonl_addr: None,
        workers,
        queue_depth: 2 * workers,
        ..ServeConfig::default()
    };
    let handle = Server::start(engine, config).expect("daemon boots");
    (handle, dataset.iter_apps().cloned().collect())
}

/// One serial pass; returns each request's latency. A 429 is the daemon
/// shedding load as designed (the sustained phase can briefly exceed
/// queue capacity on small machines) — back off and retry, and time
/// only the accepted attempt.
fn timed_pass(client: &mut Client, apps: &[AppInput]) -> Vec<Duration> {
    apps.iter()
        .map(|app| loop {
            let t = Instant::now();
            let (status, body) = client.check(app).expect("check succeeds");
            match status {
                200 => break t.elapsed(),
                429 => thread::sleep(Duration::from_millis(2)),
                other => panic!("unexpected status {other}: {body}"),
            }
        })
        .collect()
}

fn mean(latencies: &[Duration]) -> Duration {
    latencies.iter().sum::<Duration>() / latencies.len().max(1) as u32
}

/// The one-shot measurement behind `BENCH_serve.json`, printed before
/// criterion's sampled benches.
fn report_and_emit() {
    let workers = ppchecker_engine::available_jobs();
    let (handle, apps) = boot(workers);
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let cold = timed_pass(&mut client, &apps);
    let mut warm = Vec::new();
    for _ in 0..WARM_PASSES {
        warm.extend(timed_pass(&mut client, &apps));
    }
    println!(
        "serve_throughput: {} apps, cold mean {:?}, warm mean {:?} over {WARM_PASSES} passes",
        apps.len(),
        mean(&cold),
        mean(&warm),
    );

    // Sustained phase: CLIENTS keep-alive connections hammering the warm
    // corpus concurrently. Throughput is measured over this window.
    let sustained_start = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let apps = apps.clone();
            let addr = handle.addr();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                timed_pass(&mut client, &apps)
            })
        })
        .collect();
    let mut sustained = Vec::new();
    for t in threads {
        sustained.extend(t.join().expect("client thread"));
    }
    let window = sustained_start.elapsed();
    let throughput = sustained.len() as f64 / window.as_secs_f64();
    println!(
        "  sustained: {} requests over {CLIENTS} clients in {window:?} = {throughput:.1} req/s",
        sustained.len(),
    );

    let metrics = client.metrics().expect("metrics scrape");
    let hits = |cache: &str| {
        metrics
            .get("caches")
            .and_then(|c| c.get(cache))
            .and_then(|c| c.get("hits"))
            .and_then(ppchecker_serve::json::Value::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "  warm caches: policy {} hits, esa vectors {} hits",
        hits("policy"),
        hits("esa_vectors"),
    );

    let mut runs = cold.clone();
    runs.extend(warm.iter().copied());
    runs.extend(sustained.iter().copied());
    let result = BenchResult {
        bench: "serve_throughput".to_string(),
        config: vec![
            ("apps".to_string(), apps.len().to_string()),
            ("workers".to_string(), workers.to_string()),
            ("warm_passes".to_string(), WARM_PASSES.to_string()),
            ("clients".to_string(), CLIENTS.to_string()),
        ],
        runs,
        throughput,
    };
    let path = result.write("serve").expect("write BENCH_serve.json");
    println!("  wrote {}", path.display());

    client.shutdown().expect("shutdown accepted");
    handle.join();
}

fn bench_serve(c: &mut Criterion) {
    report_and_emit();

    // Sampled bench: one warm request against a resident daemon.
    let (handle, apps) = boot(ppchecker_engine::available_jobs());
    let mut client = Client::connect(handle.addr()).expect("client connects");
    // Prime every cache so the sampled numbers are steady-state.
    let _ = timed_pass(&mut client, &apps);
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function("warm_check", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let app = &apps[i % apps.len()];
            i += 1;
            black_box(client.check(app).expect("check succeeds"))
        })
    });
    g.finish();
    client.shutdown().expect("shutdown accepted");
    handle.join();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
