//! Streamed corpus scale-out: sustain ≥100k generated apps through the
//! pipelined generate→analyze path with bounded memory.
//!
//! This is the evidence bench for the streaming engine path: each app is
//! generated by the worker that pulls it from [`stream_scaled`] and
//! analyzed through [`Engine::run_streamed`] without ever materializing
//! the corpus — peak memory is the in-flight window, not the app count.
//! The process runs `available_jobs()` workers and no other thread. Two
//! phases run in one process:
//!
//! 1. a 10k-app streamed run (after warmup), recording wall time and the
//!    process peak RSS (`VmHWM`) as the small-scale reference;
//! 2. a 100k-app streamed run measured as ten 10k-app windows (the
//!    per-window wall times become the artifact's `runs`, so the
//!    quantiles expose throughput sag over the stream), recording peak
//!    RSS again.
//!
//! The bench then asserts the memory headline: the 100k peak must stay
//! within a fixed additive slack of the 10k peak. A linear-in-N buffer
//! anywhere on the path (generator, reorder window, record sink) blows
//! that bound immediately — 10× the apps may not cost 10× the memory.
//!
//! Emits `BENCH_scale.json` (schema in [`ppchecker_bench::emit`]) and
//! joins the strict `BENCH_BASELINE.json` gate like every other
//! throughput bench.

use ppchecker_bench::emit::BenchResult;
use ppchecker_core::PPChecker;
use ppchecker_corpus::stream_scaled;
use ppchecker_engine::{available_jobs, Engine};
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const WINDOW: usize = 10_000;
const SMALL: usize = 10_000;
const LARGE: usize = 100_000;
/// Additive slack for the bounded-memory assertion, in KiB. Covers the
/// parts that legitimately grow sub-linearly with apps seen (interner
/// symbols from novel index digits, histogram buckets, allocator
/// high-water marks) with a wide margin; a linear buffer of app inputs
/// or records (~1 MiB per 100 apps) would overshoot it at once.
const RSS_SLACK_KB: u64 = 262_144;

fn engine() -> Engine {
    let libs = ppchecker_corpus::libs::lib_policies()
        .into_iter()
        .map(|lp| (lp.lib.id.to_string(), lp.html));
    Engine::with_lib_policies(PPChecker::new(), libs).with_jobs(available_jobs())
}

/// Process peak RSS (`VmHWM`) in KiB, from `/proc/self/status`; 0 when
/// the file is unavailable (non-Linux), which disables the assertion.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Streams `n` apps through the engine, returning per-window wall times
/// (every `WINDOW` completed records) and the run's problem-app count.
fn run_streamed(engine: &Engine, n: usize) -> (Vec<Duration>, usize) {
    let apps = stream_scaled(SEED, n).map(|g| g.input);
    let mut windows = Vec::with_capacity(n / WINDOW);
    let mut seen = 0usize;
    let mut window_start = Instant::now();
    let summary = engine.run_streamed(apps, |record| {
        std::hint::black_box(&record);
        seen += 1;
        if seen.is_multiple_of(WINDOW) {
            windows.push(window_start.elapsed());
            window_start = Instant::now();
        }
    });
    assert_eq!(summary.aggregate.apps, n, "every streamed app must be analyzed");
    assert_eq!(summary.aggregate.errors, 0, "generated corpora analyze cleanly");
    (windows, summary.aggregate.problem_apps)
}

fn main() {
    let engine = engine();
    let jobs = available_jobs();
    println!("corpus_scale: streaming with {jobs} job(s)");

    // Warmup pays one-time costs (KB construction, lib-policy analysis)
    // outside the measured windows.
    let _ = run_streamed(&engine, 2_000);

    let t = Instant::now();
    let _ = run_streamed(&engine, SMALL);
    let small_wall = t.elapsed();
    let rss_small = peak_rss_kb();
    println!(
        "corpus_scale: {SMALL} apps in {small_wall:?} ({:.0} apps/s), peak RSS {} MiB",
        SMALL as f64 / small_wall.as_secs_f64(),
        rss_small / 1024
    );

    let t = Instant::now();
    let (windows, problems) = run_streamed(&engine, LARGE);
    let large_wall = t.elapsed();
    let rss_large = peak_rss_kb();
    let throughput = LARGE as f64 / large_wall.as_secs_f64();
    println!(
        "corpus_scale: {LARGE} apps in {large_wall:?} ({throughput:.0} apps/s sustained, \
         {problems} problem apps), peak RSS {} MiB",
        rss_large / 1024
    );

    // The memory headline: 10× the apps must not cost linear memory.
    if rss_small > 0 {
        assert!(
            rss_large <= rss_small + RSS_SLACK_KB,
            "peak RSS grew from {rss_small} KiB (10k apps) to {rss_large} KiB (100k apps) — \
             more than the {RSS_SLACK_KB} KiB slack; something buffers linearly in N"
        );
        println!(
            "corpus_scale: peak RSS delta {} KiB within the {} KiB bound",
            rss_large - rss_small,
            RSS_SLACK_KB
        );
    }

    let result = BenchResult {
        bench: "corpus_scale".to_string(),
        config: vec![
            ("apps".to_string(), LARGE.to_string()),
            ("window".to_string(), WINDOW.to_string()),
            ("jobs".to_string(), jobs.to_string()),
            ("seed".to_string(), SEED.to_string()),
            ("peak_rss_10k_kb".to_string(), rss_small.to_string()),
            ("peak_rss_100k_kb".to_string(), rss_large.to_string()),
        ],
        runs: windows,
        throughput,
    };
    let path = result.write("scale").expect("write BENCH_scale.json");
    println!("corpus_scale: wrote {}", path.display());
}
