//! `store-reaudit`: longitudinal monitoring. Set-up audits a scale corpus
//! cold into a fresh store; then a fresh engine over that store re-audits
//! the corpus round after round. Each round edits a different 10% of the
//! policies, so about 90% of apps replay their stored report and 10% are
//! recomputed and written back.
//!
//! The stores live in a fresh directory under `.bench_store/` in the
//! working directory (the benchmark reads and writes only inside its
//! checkout), one per set-up, and are removed at exit; the filesystem is
//! reported. Nothing is deleted until the timed phases are over, and the
//! filesystem is flushed before each timed phase: on a disk mounted with
//! online discard, deletions and writeback from earlier work otherwise
//! stall later metadata operations for seconds.

use crate::batch::{fresh_engine, render};
use crate::trace::{self, Counters};
use crate::util::{
    lib_pairs, median, percentiles, recheck, sample_stride, Outcome, RssMeter, Settings, Stamps,
};
use ppchecker_core::AppInput;
use ppchecker_corpus::stream_scaled_sharded;
use ppchecker_engine::Engine;
use ppchecker_store::Store;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cold populations timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Untimed re-audit rounds before the timed ones.
const WARMUP_ROUNDS: usize = 10;

/// A run's store directory, removed (and the removal flushed) on drop.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        settle(self.0.parent().unwrap_or(Path::new(".")));
    }
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Total bytes of the files under `dir`.
fn bytes_under(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => bytes_under(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// App `i` as round `round` sees it: every app whose index is `round`
/// mod 10 gets a policy edit no earlier round made.
fn round_input(app: &AppInput, i: usize, round: usize) -> AppInput {
    let mut app = app.clone();
    if i % 10 == round % 10 {
        let edit =
            format!("<p>Revision {round}: we may use your email address to send you updates.</p>");
        match app.policy_html.rfind("</body>") {
            Some(at) => app.policy_html.insert_str(at, &edit),
            None => app.policy_html.push_str(&edit),
        }
    }
    app
}

fn round_inputs(base: &[AppInput], round: usize) -> impl Iterator<Item = AppInput> + '_ {
    base.iter().enumerate().map(move |(i, app)| round_input(app, i, round))
}

/// Flushes the filesystem holding `dir` (`sync -f`) so that writeback
/// left over from earlier work does not land inside a timed phase.
fn settle(dir: &Path) {
    let _ = std::process::Command::new("sync").arg("-f").arg(dir).status();
}

fn engine_over(dir: &Path, jobs: usize) -> Engine {
    let store = Store::open(dir).expect("open the store directory");
    fresh_engine(lib_pairs(), jobs).with_store(Arc::new(store))
}

/// One re-audit round through `Engine::check_one` on `jobs` threads (app
/// `i` on thread `i % jobs`), each call timed from outside. Returns the
/// mean µs of calls that replayed a stored report (their stage timings are
/// zero), of calls that recomputed and wrote back, and the wall time in
/// seconds.
fn check_each(engine: &Engine, inputs: &[AppInput], jobs: usize) -> (f64, f64, f64) {
    let t = Instant::now();
    let calls: Vec<(f64, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                scope.spawn(move || {
                    let mine = inputs.iter().skip(worker).step_by(jobs);
                    mine.map(|app| {
                        let start = Instant::now();
                        let outcome = engine.check_one(app);
                        let us = start.elapsed().as_secs_f64() * 1e6;
                        let replayed =
                            outcome.is_ok_and(|o| o.timings.unwrap_or_default().total().is_zero());
                        (us, replayed)
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("check thread panicked")).collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mean = |replayed: bool| {
        let picked: Vec<f64> = calls.iter().filter(|c| c.1 == replayed).map(|c| c.0).collect();
        trace::ratio(picked.iter().sum(), picked.len() as f64)
    };
    (mean(true), mean(false), wall)
}

/// The store layer probed from a workload that runs without a store:
/// audits `apps` cold into a fresh store, then re-audits them with a tenth
/// of the policies edited. Sets only `store.*`.
pub fn trace_store_layer(out: &mut Outcome, s: &Settings, apps: &[AppInput]) {
    let dir = StoreDir(Path::new(".bench_store").join(format!(
        "trace-{}-seed{}",
        std::process::id(),
        s.seed
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    engine_over(&dir.0, s.jobs).run_streamed(apps.to_vec(), |_| {});
    settle(&dir.0);
    let engine = engine_over(&dir.0, s.jobs);
    let before = engine.metrics_snapshot();
    let inputs: Vec<AppInput> = round_inputs(apps, 1).collect();
    let (replay_us, recompute_us, _) = check_each(&engine, &inputs, s.jobs);
    let delta = Counters::between(&before, &engine.metrics_snapshot());
    out.set("store.replay_us", replay_us);
    out.set("store.recompute_us", recompute_us);
    out.set(
        "store.hit_ratio",
        trace::ratio(delta.store.0 as f64, (delta.store.0 + delta.store.1) as f64),
    );
    out.set("store.writes", delta.store.2 as f64);
    out.set("store.bytes_per_app", bytes_under(&dir.0) as f64 / apps.len() as f64);
    out.note(format!(
        "trace: store probe over {} apps on {}: {} hits, {} misses, {} writes",
        apps.len(),
        filesystem_of(&dir.0),
        delta.store.0,
        delta.store.1,
        delta.store.2
    ));
}

pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let n = s.scaled(200, 1_000);
    let rounds = s.scaled(2, 3);
    let base: Vec<AppInput> = stream_scaled_sharded(s.seed, n, s.jobs).map(|g| g.input).collect();
    let root = Path::new(".bench_store");
    let dir = StoreDir(root.join(format!("run-{}-seed{}", std::process::id(), s.seed)));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("create the store directory");
    out.note(format!("store: {} on {} (removed at exit)", dir.0.display(), filesystem_of(&dir.0)));

    // Set-up: open a fresh store and audit the corpus cold into it. The
    // input copy and the flush are not timed.
    let mut durations = Vec::with_capacity(SETUPS);
    let mut store_dir = PathBuf::new();
    for k in 0..SETUPS {
        store_dir = dir.0.join(format!("setup{k}"));
        let apps = base.clone();
        settle(&dir.0);
        let t = Instant::now();
        let engine = engine_over(&store_dir, s.jobs);
        engine.run_streamed(apps, |_| {});
        durations.push(t.elapsed().as_secs_f64());
    }
    out.note(format!("set-up durations: {durations:.3?} s"));
    let setup_s = median(&mut durations);

    let rss = RssMeter::start();
    let engine = engine_over(&store_dir, s.jobs);
    // Untimed warm-up: ten rounds edit each tenth of the corpus once, so
    // the timed rounds see a warm store and warm caches.
    for round in 0..WARMUP_ROUNDS {
        engine.run_streamed(round_inputs(&base, round), |_| {});
    }
    settle(&dir.0);
    let stride = sample_stride(n);
    let before = engine.metrics_snapshot();
    let mut counters = Counters::default();
    let (mut walls, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = Vec::new();
    for round in WARMUP_ROUNDS..WARMUP_ROUNDS + rounds {
        let mut rendered = Vec::with_capacity(n.div_ceil(stride));
        let stamps = Stamps::new(n);
        let mut latencies = Vec::with_capacity(n);
        let feed = round_inputs(&base, round).enumerate().map(|(i, app)| {
            stamps.pull(i);
            app
        });
        let t = Instant::now();
        let summary = engine.run_streamed(feed, |record| {
            latencies.push(stamps.done(record.index));
            if record.index % stride == 0 {
                rendered.push(render(&record));
            }
        });
        walls.push(t.elapsed().as_secs_f64());
        let (p50, p90, _) = percentiles(&mut latencies);
        p50s.push(p50);
        p90s.push(p90);
        let m = Counters::from_summary(&summary.metrics);
        counters.apps += m.apps;
        counters.failed += m.failed;
        counters.findings += m.findings;
        counters.parallelism += m.parallelism / rounds as f64;
        if round == WARMUP_ROUNDS || round + 1 == WARMUP_ROUNDS + rounds {
            let sampled = base.iter().enumerate().step_by(stride);
            samples.extend(sampled.map(|(i, app)| round_input(app, i, round)).zip(rendered));
        }
    }
    rss.record(&mut out);
    let cache = Counters::between(&before, &engine.metrics_snapshot());
    let counters = Counters {
        apps: counters.apps,
        failed: counters.failed,
        findings: counters.findings,
        parallelism: counters.parallelism,
        ..cache
    };
    counters.record(&mut out);
    let total = (n * rounds) as f64;
    let wall: f64 = walls.iter().sum();
    out.note(format!(
        "timed: {rounds} rounds of {n} apps in {wall:.3} s ({:.0} apps/s overall); round times \
         {:.0?} ms; per-app latency is pull-to-record",
        total / wall,
        walls.iter().map(|w| w * 1e3).collect::<Vec<_>>()
    ));
    // Medians over rounds: a round stalled by the shared disk moves none of
    // the three figures.
    let round_wall = median(&mut walls);
    out.attempted = total as u64;
    out.failed = counters.failed;
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", n as f64 / round_wall);
    out.set("latency_p50_ms", median(&mut p50s));
    out.set("run.latency_p90_ms", median(&mut p90s));
    out.set("store.bytes_per_app", bytes_under(&store_dir) as f64 / n as f64);
    out.check("recheck", recheck(&samples));

    if s.trace {
        // Two more rounds through `check_one`, with trace capture off and
        // then on; the edited tenth of each recomputes.
        let round = WARMUP_ROUNDS + rounds;
        let plain: Vec<AppInput> = round_inputs(&base, round).collect();
        let (replay_us, recompute_us, untraced) = check_each(&engine, &plain, s.jobs);
        out.set("store.replay_us", replay_us);
        out.set("store.recompute_us", recompute_us);
        let inputs: Vec<AppInput> = round_inputs(&base, round + 1).collect();
        let (_, events, traced) = trace::capture(|| check_each(&engine, &inputs, s.jobs));
        trace::Layers::from_events(&events).record(&mut out, &inputs);
        out.set("trace.overhead_ratio", traced / untraced);
        trace::write_events(&mut out, "store-reaudit", s.seed, &events);
    }
    out
}
