//! Front-end microbenches: the tokenize → tag → parse → analyze path in
//! isolation from the engine, so the cost of the NLP pipeline per policy
//! is visible on its own.
//!
//! Prints a one-shot report with tokens/sec, sentences/sec and
//! policy-analyses/sec over a seeded 50-app corpus sample, plus the
//! allocation count and heap traffic per analyzed policy, uncached and
//! through a warm sentence cache, measured through a counting global
//! allocator. The interning refactor is judged by these
//! numbers: fewer allocations per policy at equal or better throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use ppchecker_corpus::small_dataset;
use ppchecker_engine::ArtifactCache;
use ppchecker_nlp::sentence::split_sentences;
use ppchecker_nlp::token::tokenize;
use ppchecker_policy::html::extract_text;
use ppchecker_policy::PolicyAnalyzer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wraps the system allocator with allocation counters so the bench can
/// report allocations per policy, not just wall time.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// Every sentence of `texts`, owned.
fn corpus_sentences(texts: &[String]) -> Vec<String> {
    let mut sentences = Vec::new();
    for text in texts {
        sentences.extend(split_sentences(text).iter().map(String::from));
    }
    sentences
}

/// One-shot throughput + allocation report over a seeded 50-app sample.
fn report_pipeline() {
    let dataset = small_dataset(42, 50);
    let texts: Vec<String> =
        dataset.apps.iter().map(|app| extract_text(&app.input.policy_html)).collect();
    let sentences = corpus_sentences(&texts);
    let analyzer = PolicyAnalyzer::new();

    // Warm every lazily-initialized table (lexicon, patterns, interner)
    // so the report measures steady-state per-policy cost.
    for app in &dataset.apps {
        black_box(analyzer.analyze_html(&app.input.policy_html));
    }

    println!("nlp_pipeline: {} policies, {} sentences", dataset.apps.len(), sentences.len());

    let t = Instant::now();
    let mut n_tokens = 0usize;
    for s in &sentences {
        n_tokens += black_box(tokenize(s)).len();
    }
    let dt = t.elapsed().as_secs_f64();
    println!(
        "  tokenize: {n_tokens} tokens in {:.2}ms  ({:.2}M tokens/sec)",
        dt * 1e3,
        n_tokens as f64 / dt / 1e6
    );

    let t = Instant::now();
    let mut n_sents = 0usize;
    for text in &texts {
        n_sents += black_box(split_sentences(text)).len();
    }
    let dt = t.elapsed().as_secs_f64();
    println!(
        "  split: {n_sents} sentences in {:.2}ms  ({:.0}k sentences/sec)",
        dt * 1e3,
        n_sents as f64 / dt / 1e3
    );

    let (calls0, bytes0) = alloc_snapshot();
    let t = Instant::now();
    for app in &dataset.apps {
        black_box(analyzer.analyze_html(&app.input.policy_html));
    }
    let dt = t.elapsed().as_secs_f64();
    let (calls1, bytes1) = alloc_snapshot();
    let n = dataset.apps.len();
    println!("  analyze: {} policies in {:.2}ms  ({:.0} analyses/sec)", n, dt * 1e3, n as f64 / dt);
    report_allocations("uncached", (calls1 - calls0, bytes1 - bytes0), n);

    // The engine's path: every sentence verdict from a warm cache, so
    // what is left is the strip, the split and the document loop.
    let cache = ArtifactCache::new(PolicyAnalyzer::new());
    for app in &dataset.apps {
        black_box(cache.policy(&app.input.policy_html));
    }
    let (calls0, bytes0) = alloc_snapshot();
    for app in &dataset.apps {
        black_box(cache.policy(&app.input.policy_html));
    }
    let (calls1, bytes1) = alloc_snapshot();
    report_allocations("warm cached", (calls1 - calls0, bytes1 - bytes0), n);
}

/// Prints `(calls, bytes)` allocated over `n` policies, in total and per
/// policy.
fn report_allocations(path: &str, (calls, bytes): (u64, u64), n: usize) {
    println!(
        "  allocations, {path}: {calls} calls / {} KiB total  ({:.2} calls, {:.2} KiB per policy)",
        bytes / 1024,
        calls as f64 / n as f64,
        bytes as f64 / n as f64 / 1024.0
    );
}

fn bench_pipeline(c: &mut Criterion) {
    report_pipeline();

    let dataset = small_dataset(42, 50);
    let texts: Vec<String> =
        dataset.apps.iter().map(|app| extract_text(&app.input.policy_html)).collect();
    let sentences = corpus_sentences(&texts);
    let analyzer = PolicyAnalyzer::new();

    let mut g = c.benchmark_group("nlp");
    g.sample_size(10);
    g.bench_function("tokenize_corpus_sentences", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for s in &sentences {
                n += black_box(tokenize(s)).len();
            }
            n
        })
    });
    g.bench_function("split_corpus_texts", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for t in &texts {
                n += black_box(split_sentences(t)).len();
            }
            n
        })
    });
    g.bench_function("analyze_50_policies", |b| {
        b.iter(|| {
            for app in &dataset.apps {
                black_box(analyzer.analyze_html(&app.input.policy_html));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
