//! `batch-cold`: a fresh engine audits a freshly generated scale corpus
//! with `Engine::run_streamed` at `jobs = nproc` — the paper's job.

use crate::trace::{self, Counters};
use crate::util::{
    golden_check, lib_pairs, median, probe_setup, recheck, sample_stride, Outcome, RssMeter,
    Settings, Stamps, Windows,
};
use ppchecker_core::{AppInput, PPChecker};
use ppchecker_corpus::stream_scaled_sharded;
use ppchecker_engine::{AppRecord, Engine};
use ppchecker_serve::json::report_to_json;
use std::time::Instant;

/// Cold set-ups timed per run, each in a fresh process; `setup_s` is
/// their median.
pub const SETUP_PROBES: usize = 31;

/// Cap on generated inputs (~2.8 KB each), whatever `--seconds` asks.
const MAX_APPS: usize = 150_000;

/// The timed phase is cut into this many windows of equal app count; the
/// reported figures are medians over windows, so a few seconds of
/// contention from outside the process move none of them.
const WINDOWS: usize = 20;

/// Renders a record the way the golden snapshot and the re-check do.
pub fn render(record: &AppRecord) -> String {
    match (record.report(), record.error()) {
        (Some(report), _) => report_to_json(report),
        (None, Some(e)) => format!("error[{}]: {e}", record.package),
        (None, None) => String::new(),
    }
}

/// A fresh engine with every built-in lib policy registered.
pub fn fresh_engine(libs: Vec<(String, String)>, jobs: usize) -> Engine {
    Engine::with_lib_policies(PPChecker::new(), libs).with_jobs(jobs)
}

/// Times one engine construction in this (fresh) process.
pub fn setup_probe(s: &Settings) -> f64 {
    let libs = lib_pairs();
    let t = Instant::now();
    let engine = std::hint::black_box(fresh_engine(libs, s.jobs));
    let secs = t.elapsed().as_secs_f64();
    drop(engine);
    secs
}

pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let n = s.scaled(10_000, 3_000).min(MAX_APPS);
    let t = Instant::now();
    let apps: Vec<AppInput> = stream_scaled_sharded(s.seed, n, s.jobs).map(|g| g.input).collect();
    out.note(format!(
        "inputs: {n} scale-corpus apps generated in {:.2} s (not timed)",
        t.elapsed().as_secs_f64()
    ));
    let stride = sample_stride(n);
    let setup_s = median(&mut probe_setup("batch-cold", s, SETUP_PROBES));

    let stamps = Stamps::new(n);
    let window = (n / WINDOWS).max(1);
    let mut windows = Windows::default();
    let mut first = Vec::with_capacity(50);
    let mut rendered = Vec::with_capacity(n.div_ceil(stride));
    let rss = RssMeter::start();
    let engine = fresh_engine(lib_pairs(), s.jobs);
    // The engine gets a copy of each input as it pulls it, so the inputs
    // stay resident and `peak_rss_mb` is what the engine adds.
    let feed = apps.iter().enumerate().map(|(i, app)| {
        stamps.pull(i);
        app.clone()
    });
    let t = Instant::now();
    let mut window_start = Instant::now();
    let summary = engine.run_streamed(feed, |record| {
        windows.latencies.push(stamps.done(record.index));
        if windows.latencies.len() == window {
            windows.close(window_start.elapsed().as_secs_f64());
            window_start = Instant::now();
        }
        if record.index < 50 {
            first.push(render(&record));
        }
        if record.index % stride == 0 {
            rendered.push(render(&record));
        }
    });
    let wall = t.elapsed().as_secs_f64();
    rss.record(&mut out);
    drop(engine);
    let (throughput, p50, p90) = windows.medians(window);

    out.attempted = n as u64;
    out.failed = summary.aggregate.errors as u64;
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", throughput);
    out.set("latency_p50_ms", p50);
    out.set("run.latency_p90_ms", p90);
    out.note(format!(
        "timed: {n} apps in {wall:.3} s ({:.0} apps/s overall) at jobs {}; {}",
        n as f64 / wall,
        s.jobs,
        windows.describe(window)
    ));
    let counters = Counters::from_summary(&summary.metrics);
    counters.record(&mut out);

    if let Some(result) = golden_check(s.seed, &first) {
        out.check("golden", result);
    }
    let samples: Vec<(AppInput, String)> =
        apps.iter().step_by(stride).cloned().zip(rendered).collect();
    out.check("recheck", recheck(&samples));

    if s.trace {
        trace_slice(&mut out, s, &apps[..s.scaled(300, 1_500).min(n)]);
        crate::store::trace_store_layer(&mut out, s, &apps[..n.min(2_000)]);
    }
    out
}

/// The traced run: `run_streamed` over `slice` on a fresh engine with obs
/// trace capture on, and once more with it off for the overhead ratio.
fn trace_slice(out: &mut Outcome, s: &Settings, slice: &[AppInput]) {
    let untraced = {
        let engine = fresh_engine(lib_pairs(), s.jobs);
        let t = Instant::now();
        engine.run_streamed(slice.to_vec(), |_| {});
        t.elapsed().as_secs_f64()
    };
    let engine = fresh_engine(lib_pairs(), s.jobs);
    let inputs = slice.to_vec();
    let (_, events, traced) = trace::capture(|| engine.run_streamed(inputs, |_| {}));
    trace::Layers::from_events(&events).record(out, slice);
    out.set("trace.overhead_ratio", traced / untraced);
    out.note(format!(
        "trace: {} apps at jobs {}: {:.0} apps/s traced, {:.0} untraced",
        slice.len(),
        s.jobs,
        slice.len() as f64 / traced,
        slice.len() as f64 / untraced
    ));
    trace::write_events(out, "batch-cold", s.seed, &events);
}
