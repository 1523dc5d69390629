//! Shared plumbing: run settings, quantiles, peak memory, the fixed metric
//! tables, result printing, and the output checks every workload runs.

use ppchecker_core::{AppInput, PPChecker};
use ppchecker_serve::json::report_to_json;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How much work a run does: `Full` is the measured configuration, `Smoke`
/// runs every workload in a few seconds for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One invocation's settings, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    /// Time one cold set-up in this process and print it, nothing else.
    pub setup_probe: bool,
    /// Worker threads and generator connections (the machine's parallelism).
    pub jobs: usize,
}

impl Settings {
    /// Scales a full-size count by the requested run length, or returns the
    /// smoke count.
    pub fn scaled(&self, per_second: usize, smoke: usize) -> usize {
        match self.size {
            Size::Full => per_second * self.seconds as usize,
            Size::Smoke => smoke,
        }
    }

    /// Scales a full-size duration by the requested run length.
    pub fn duration(&self, share: f64, smoke: Duration) -> Duration {
        match self.size {
            Size::Full => Duration::from_secs_f64(share * self.seconds as f64),
            Size::Smoke => smoke,
        }
    }
}

/// The end-to-end metrics every workload prints with `--trace 0`, in the
/// order `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("run.latency_p90_ms", "ms"),
    ("nlp.tokenize_us", "us"),
    ("nlp.tag_us", "us"),
    ("nlp.parse_us", "us"),
    ("nlp.parse_ns_per_byte", "ns/B"),
    ("nlp.split_us", "us"),
    ("nlp.sentences", "count"),
    ("policy.analyze_us", "us"),
    ("policy.html_us", "us"),
    ("desc.analyze_us", "us"),
    ("esa.vector_hit_ratio", "ratio"),
    ("esa.pair_hit_ratio", "ratio"),
    ("esa.pruned_per_app", "count"),
    ("static.analyze_us", "us"),
    ("static.apg_build_us", "us"),
    ("static.taint_us", "us"),
    ("static.summary_hit_ratio", "ratio"),
    ("apk.unpack_us", "us"),
    ("core.match_us", "us"),
    ("core.findings_per_app", "count"),
    ("engine.check_us", "us"),
    ("engine.check_p99_us", "us"),
    ("engine.unattributed_us", "us"),
    ("engine.parallelism", "ratio"),
    ("engine.policy_hit_ratio", "ratio"),
    ("engine.errors", "count"),
    ("store.replay_us", "us"),
    ("store.recompute_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.writes", "count"),
    ("store.bytes_per_app", "B"),
    ("serve.request_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.check_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.rejected", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.r200.latency_p50_ms", "ms"),
    ("serve.r200.latency_p90_ms", "ms"),
    ("serve.r200.latency_p99_ms", "ms"),
    ("serve.r200.samples", "count"),
    ("serve.r2000.latency_p50_ms", "ms"),
    ("serve.r2000.latency_p90_ms", "ms"),
    ("serve.r2000.latency_p99_ms", "ms"),
    ("serve.r2000.samples", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("count.apps", "count"),
    ("count.failed", "count"),
    ("count.policy_hits", "count"),
    ("count.policy_misses", "count"),
    ("count.esa_vector_hits", "count"),
    ("count.esa_vector_misses", "count"),
    ("count.esa_pair_hits", "count"),
    ("count.esa_pair_misses", "count"),
    ("count.esa_pruned", "count"),
    ("count.taint_summary_hits", "count"),
    ("count.taint_summary_misses", "count"),
    ("count.store_hits", "count"),
    ("count.store_misses", "count"),
    ("count.store_writes", "count"),
    ("count.store_corrupt", "count"),
    ("count.findings", "count"),
    ("count.http_429", "count"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (apps or requests) the timed phase attempted.
    pub attempted: u64,
    /// Operations that failed (error records, refused or invalid requests).
    pub failed: u64,
    /// Output-check failures; empty means every check passed.
    pub mismatches: Vec<String>,
    /// Metric values by name (end-to-end and per-layer alike).
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an output check: `ok` or a description of the mismatch.
    pub fn check(&mut self, what: &str, result: Result<String, String>) {
        match result {
            Ok(detail) => self.note(format!("check {what}: ok ({detail})")),
            Err(detail) => {
                self.note(format!("check {what}: FAILED ({detail})"));
                self.mismatches.push(format!("{what}: {detail}"));
            }
        }
    }

    /// Prints every note and metric, then the one-line JSON result, which
    /// carries the end-to-end metrics (or the per-layer ones when traced).
    pub fn print(&self, workload: &str, traced: bool) {
        for line in &self.notes {
            println!("{workload}: {line}");
        }
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            println!("{workload}: {name} = {value} {unit}");
            if i > 0 {
                metrics.push(',');
            }
            let _ =
                write!(metrics, "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(value));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
        );
    }
}

/// A finite JSON number with all its digits.
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The `q`-quantile (nearest rank) of an ascending-sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts and returns `(p50, p90, p99)`.
pub fn percentiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    (quantile(values, 0.5), quantile(values, 0.9), quantile(values, 0.99))
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`), or 0 off Linux.
fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// The peak memory the program adds on top of the benchmark's inputs.
/// Started once the inputs exist: it resets the kernel's peak-resident
/// mark for this process (writing `5` to `/proc/self/clear_refs`) and takes
/// the resident set as the baseline; the inputs stay resident for the whole
/// timed phase, so memory they free cannot hide the program's growth.
pub struct RssMeter {
    baseline_kb: f64,
    reset: bool,
}

impl RssMeter {
    pub fn start() -> Self {
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        RssMeter { baseline_kb: status_kb("VmRSS:"), reset }
    }

    /// Sets `peak_rss_mb`: the peak resident set since [`RssMeter::start`]
    /// minus the baseline, in MB, with a note when the peak mark could not
    /// be reset (the figure then also holds any earlier peak).
    pub fn record(&self, out: &mut Outcome) {
        let added = (status_kb("VmHWM:") - self.baseline_kb) / 1024.0;
        out.note(format!(
            "memory: peak {added:.1} MB over a baseline of {:.1} MB{}",
            self.baseline_kb / 1024.0,
            if self.reset { "" } else { " (peak mark not reset: includes earlier peaks)" }
        ));
        out.set("peak_rss_mb", added);
    }
}

/// Times the workload's set-up in `times` fresh child processes (each runs
/// this binary with `--setup-probe 1` and prints one duration) and returns
/// the durations in seconds, so one-time process-wide initialization counts.
pub fn probe_setup(workload: &str, s: &Settings, times: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut durations = Vec::with_capacity(times);
    for _ in 0..times {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &s.seed.to_string()])
            .args(["--seconds", &s.seconds.to_string(), "--setup-probe", "1"])
            .args(["--size", if s.size == Size::Smoke { "smoke" } else { "full" }])
            .output()
            .expect("set-up probe runs");
        let text = String::from_utf8_lossy(&output.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_probe_s "))
            .and_then(|v| v.trim().parse().ok());
        durations.push(secs.expect("set-up probe prints its duration"));
    }
    durations
}

/// A checker configured like the engine's (every lib policy registered)
/// but with no caches and no store: the reference for output checks.
pub fn reference_checker() -> PPChecker {
    let mut checker = PPChecker::new();
    for lp in ppchecker_corpus::libs::lib_policies() {
        checker.register_lib_policy(lp.lib.id, &lp.html);
    }
    checker
}

/// `(lib id, html)` pairs for [`ppchecker_engine::Engine::with_lib_policies`].
pub fn lib_pairs() -> Vec<(String, String)> {
    ppchecker_corpus::libs::lib_policies()
        .into_iter()
        .map(|lp| (lp.lib.id.to_string(), lp.html))
        .collect()
}

/// The report a fresh, uncached checker renders for `app`.
pub fn reference_report(checker: &PPChecker, app: &AppInput) -> String {
    match checker.check_app(app) {
        Ok(outcome) => report_to_json(&outcome.report),
        Err(e) => format!("error[{}]: {e}", app.package),
    }
}

/// Compares rendered reports against a fresh checker's, one per sampled
/// app; returns a summary or the first mismatch.
pub fn recheck(samples: &[(AppInput, String)]) -> Result<String, String> {
    let checker = reference_checker();
    for (app, got) in samples {
        let want = reference_report(&checker, app);
        if *got != want {
            return Err(format!("{}: got {got} want {want}", app.package));
        }
    }
    Ok(format!("{} of {} sampled reports identical", samples.len(), samples.len()))
}

/// The sampling stride for re-checks: every 97th operation, tightened so a
/// small run still checks at least eight.
pub fn sample_stride(n: usize) -> usize {
    (n / 8).clamp(1, 97)
}

/// Compares the first 50 rendered reports at seed 42 with the repository's
/// golden snapshot; other seeds have no snapshot to compare against.
pub fn golden_check(seed: u64, first: &[String]) -> Option<Result<String, String>> {
    if seed != 42 || first.len() < 50 {
        return None;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden/reports_seed42_50.txt");
    let golden = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return Some(Err(format!("cannot read golden snapshot: {e}"))),
    };
    let mismatch = golden
        .lines()
        .zip(first)
        .position(|(want, got)| want != got.as_str())
        .or_else(|| (golden.lines().count() != 50).then_some(50));
    Some(match mismatch {
        None => Ok("first 50 records equal tests/golden/reports_seed42_50.txt".to_string()),
        Some(i) => Err(format!("record {i} differs from the golden snapshot")),
    })
}

/// Per-window figures of a timed phase cut into windows of equal operation
/// count: each window's wall time and its operations' p50 and p90 latency.
#[derive(Debug, Default)]
pub struct Windows {
    /// Latencies (ms) of the window being filled.
    pub latencies: Vec<f64>,
    walls: Vec<f64>,
    p50s: Vec<f64>,
    p90s: Vec<f64>,
}

impl Windows {
    /// Closes the current window after `wall` seconds.
    pub fn close(&mut self, wall: f64) {
        let (p50, p90, _) = percentiles(&mut self.latencies);
        self.latencies.clear();
        self.walls.push(wall);
        self.p50s.push(p50);
        self.p90s.push(p90);
    }

    /// `(throughput, p50, p90)`: operations per second of the median
    /// window, and the medians of the windows' p50 and p90 latencies.
    pub fn medians(&self, per_window: usize) -> (f64, f64, f64) {
        let wall = median(&mut self.walls.clone());
        (per_window as f64 / wall, median(&mut self.p50s.clone()), median(&mut self.p90s.clone()))
    }

    pub fn describe(&self, per_window: usize) -> String {
        let rates: Vec<f64> = self.walls.iter().map(|w| (per_window as f64 / w).round()).collect();
        format!("{} windows of {per_window}, ops/s per window {rates:?}", self.walls.len())
    }
}

/// A per-operation latency recorder for pipelined batch runs: the input
/// side stamps when the engine pulls operation `i`, the output side when
/// its record arrives; the difference is that operation's latency.
pub struct Stamps {
    origin: Instant,
    pulled: Vec<std::sync::atomic::AtomicU64>,
}

impl Stamps {
    pub fn new(n: usize) -> Self {
        Stamps { origin: Instant::now(), pulled: (0..n).map(|_| Default::default()).collect() }
    }

    pub fn pull(&self, index: usize) {
        let ns = self.origin.elapsed().as_nanos() as u64;
        self.pulled[index].store(ns, std::sync::atomic::Ordering::Relaxed);
    }

    /// Latency of `index` in ms, as of now.
    pub fn done(&self, index: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let pulled = self.pulled[index].load(std::sync::atomic::Ordering::Relaxed);
        now.saturating_sub(pulled) as f64 / 1e6
    }
}
