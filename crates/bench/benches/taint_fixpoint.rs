//! Microbench of the static-analysis taint core: the dense-ID bitset
//! kernel vs the retained BTreeSet reference engine, over the 50-app
//! golden corpus (fixpoint and reachability-only), plus the kernel alone
//! on a lib-heavy workload.
//!
//! Prints a one-shot comparison (the PR-4 acceptance bar is ≥ 2× on the
//! cold fixpoint) with per-app allocation counts from a counting global
//! allocator, before the sampled criterion groups.

use criterion::{criterion_group, criterion_main, Criterion};
use ppchecker_apk::Apk;
use ppchecker_bench::emit::BenchResult;
use ppchecker_corpus::small_dataset;
use ppchecker_static::apg::Apg;
use ppchecker_static::{reach, taint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wraps the system allocator with counters so the bench reports
/// allocations per analyzed app, not just wall time.
struct CountingAlloc;

static ALLOC_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ALLOC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, std::sync::atomic::Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, std::sync::atomic::Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(std::sync::atomic::Ordering::Relaxed),
        ALLOC_BYTES.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// An APG with its reachable set (indexed by method id).
type Scoped<'a> = (Apg<'a>, Vec<bool>);

/// Pre-builds APGs with their reachable sets, so the bench isolates the
/// taint fixpoint from dex parsing.
fn scoped(apks: &[Apk]) -> Vec<Scoped<'_>> {
    apks.iter()
        .filter_map(|apk| Apg::build(apk).ok())
        .map(|apg| {
            let methods = reach::reachable_methods(&apg);
            (apg, methods)
        })
        .collect()
}

/// The 50-app golden corpus.
fn golden_apks() -> Vec<Apk> {
    small_dataset(42, 50).apps.into_iter().map(|app| app.input.apk).collect()
}

fn run_reference(apps: &[Scoped]) -> usize {
    apps.iter().map(|(apg, methods)| taint::analyze_reference(apg, methods).len()).sum()
}

fn run_kernel_cold(apps: &[Scoped]) -> usize {
    apps.iter().map(|(apg, methods)| taint::analyze(apg, methods).len()).sum()
}

fn run_reachability(apps: &[Scoped]) -> usize {
    apps.iter().map(|(apg, _)| reach::reachable_methods(apg).iter().filter(|&&r| r).count()).sum()
}

/// Runs `f` for `reps` timed rounds and returns the fastest — the usual
/// microbench defense against scheduler noise on a shared box.
fn best_of(reps: usize, mut f: impl FnMut() -> usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed());
    }
    best
}

/// One-shot report: cold fixpoint reference vs kernel (the acceptance
/// number), reachability-only, and per-app
/// allocation counts for both engines. Every duration is best-of-3.
fn report_taint(apps: &[Scoped]) {
    let n = apps.len();
    println!("taint_fixpoint: {n} apps (golden corpus)");

    const PASSES: usize = 50;
    // Warm-up: fault in lazy tables so the timed passes are steady-state.
    black_box(run_reference(apps));
    black_box(run_kernel_cold(apps));

    // Allocation counts from one steady-state pass of each engine.
    let (calls0, bytes0) = alloc_snapshot();
    black_box(run_reference(apps));
    let (calls1, bytes1) = alloc_snapshot();
    let ref_allocs = (calls1 - calls0) / n as u64;
    let ref_bytes = (bytes1 - bytes0) / n as u64;
    let (calls0, bytes0) = alloc_snapshot();
    black_box(run_kernel_cold(apps));
    let (calls1, bytes1) = alloc_snapshot();
    let kernel_allocs = (calls1 - calls0) / n as u64;
    let kernel_bytes = (bytes1 - bytes0) / n as u64;

    let reference_dt = best_of(3, || (0..PASSES).map(|_| run_reference(apps)).sum());
    let kernel_dt = best_of(3, || (0..PASSES).map(|_| run_kernel_cold(apps)).sum());

    let reach_dt = best_of(3, || (0..PASSES).map(|_| run_reachability(apps)).sum());

    let speedup = reference_dt.as_secs_f64() / kernel_dt.as_secs_f64();
    println!("  btreeset reference: {reference_dt:?} for {PASSES} passes");
    println!("  bitset kernel cold: {kernel_dt:?} for {PASSES} passes  speedup: {speedup:.2}x");
    println!("  reachability only: {reach_dt:?} for {PASSES} passes");
    println!("  allocations/app: reference {ref_allocs} calls / {ref_bytes} B, kernel {kernel_allocs} calls / {kernel_bytes} B");
}

/// A lib-heavy workload: `n` distinct apps all embedding the same fat ad
/// library whose methods are *reachable* (the activity calls into the SDK
/// entry chain), so the kernel interprets every lib method — unlike the
/// paper corpus, whose embedded lib code is dead weight.
///
/// Each SDK method is self-contained the way analytics initializers are:
/// it sources identifiers, launders them through a pile of framework
/// calls, and logs them locally; the chain call into the next class
/// passes an untainted handle and no return value.
fn lib_heavy_apks(n: usize) -> Vec<Apk> {
    use ppchecker_apk::{ComponentKind, Dex, Manifest};
    (0..n)
        .map(|i| {
            let pkg = format!("com.libheavy{i}");
            let main = format!("{pkg}.Main");
            let mut manifest = Manifest::new(&pkg);
            manifest.add_component(ComponentKind::Activity, &main, true);
            let mut builder = Dex::builder().class(&main, |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_static("com.google.android.gms.ads.Sdk0", "init", &[0], Some(1));
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
            });
            // One shared library, identical bytes in every app.
            for k in 0..24 {
                let cls = format!("com.google.android.gms.ads.Sdk{k}");
                let next = format!("com.google.android.gms.ads.Sdk{}", k + 1);
                builder = builder.class(&cls, |c| {
                    c.method("init", 1, |m| {
                        m.invoke_virtual(
                            "android.telephony.TelephonyManager",
                            "getDeviceId",
                            &[0],
                            Some(2),
                        );
                        m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(3));
                        m.invoke_virtual("java.lang.StringBuilder", "append", &[5, 2], Some(4));
                        for _ in 0..7 {
                            m.invoke_virtual("java.lang.StringBuilder", "append", &[4, 3], Some(4));
                            m.invoke_virtual("java.lang.StringBuilder", "append", &[4, 2], Some(4));
                        }
                        m.invoke_static("android.util.Log", "d", &[4], None);
                        if k + 1 < 24 {
                            m.invoke_static(&next, "init", &[6], Some(7));
                        }
                    });
                });
            }
            Apk::new(manifest, builder.build())
        })
        .collect()
}

fn report_lib_heavy() {
    let apks = lib_heavy_apks(40);
    let apps = scoped(&apks);
    println!("taint_fixpoint: lib-heavy workload ({} apps sharing one reachable SDK)", apps.len());
    const PASSES: usize = 20;
    black_box(run_kernel_cold(&apps));
    let cold_dt = best_of(3, || (0..PASSES).map(|_| run_kernel_cold(&apps)).sum());
    println!("  kernel cold: {cold_dt:?} for {PASSES} passes");
}

/// Per-run cold-fixpoint latencies over the golden corpus, emitted as
/// `BENCH_taint.json` (see [`ppchecker_bench::emit`]); warmup runs are
/// discarded so the quantiles report steady state, not lazy-init cost.
fn emit_bench_json(apps: &[Scoped]) {
    const WARMUP: usize = 2;
    const RUNS: usize = 10;
    for _ in 0..WARMUP {
        black_box(run_kernel_cold(apps));
    }
    let mut runs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let t = Instant::now();
        black_box(run_kernel_cold(apps));
        runs.push(t.elapsed());
    }
    let total: f64 = runs.iter().map(Duration::as_secs_f64).sum();
    let throughput = (RUNS * apps.len()) as f64 / total;
    let result = BenchResult {
        bench: "taint_fixpoint".to_string(),
        config: vec![
            ("apps".to_string(), apps.len().to_string()),
            ("warmup".to_string(), WARMUP.to_string()),
            ("runs".to_string(), RUNS.to_string()),
            ("seed".to_string(), "42".to_string()),
        ],
        runs,
        throughput,
    };
    let path = result.write("taint").expect("write BENCH_taint.json");
    println!("taint_fixpoint: {throughput:.0} apps/s cold, wrote {}", path.display());
}

fn bench_taint(c: &mut Criterion) {
    let apks = golden_apks();
    let apps = scoped(&apks);
    report_taint(&apps);
    report_lib_heavy();
    emit_bench_json(&apps);

    let mut g = c.benchmark_group("taint");
    g.sample_size(20);
    g.bench_function("cold_reference", |b| b.iter(|| black_box(run_reference(&apps))));
    g.bench_function("cold_kernel", |b| b.iter(|| black_box(run_kernel_cold(&apps))));
    g.bench_function("reachability_only", |b| b.iter(|| black_box(run_reachability(&apps))));
    g.finish();
}

criterion_group!(benches, bench_taint);
criterion_main!(benches);
