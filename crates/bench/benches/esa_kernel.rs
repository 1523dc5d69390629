//! Microbench of the ESA similarity kernel: CSR two-pointer merge vs the
//! retained HashMap reference implementation, plus the fully-wired verdict
//! predicate (norm-bound pruning + symbol-pair memo).
//!
//! Prints a one-shot pairwise-similarity comparison (the PR-3 acceptance
//! bar is ≥ 2× on this number) before the sampled criterion groups.

use criterion::{criterion_group, criterion_main, Criterion};
use ppchecker_bench::emit::BenchResult;
use ppchecker_esa::{kb, kernel, ConceptVector, Interpreter, SparseVector};
use ppchecker_nlp::{intern, Symbol};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A phrase mix shaped like real detector traffic: canonical resource
/// phrases, policy-side surface forms, knowledge-base titles, and a tail
/// of multi-word phrases assembled from article vocabulary.
fn phrases() -> Vec<String> {
    let mut out: Vec<String> =
        ppchecker_nlp::intern::SENSITIVE_RESOURCES.iter().map(|s| s.to_string()).collect();
    out.extend(kb::concepts().iter().map(|c| c.title.to_lowercase()));
    let vocab: Vec<&str> = {
        let mut v: Vec<&str> =
            kb::concepts().iter().flat_map(|c| c.text.split_whitespace()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    // Deterministic two- and three-word phrases off a fixed stride walk.
    for i in 0..60usize {
        let a = vocab[(i * 37) % vocab.len()];
        let b = vocab[(i * 53 + 11) % vocab.len()];
        out.push(format!("{a} {b}"));
        if i % 2 == 0 {
            let c = vocab[(i * 71 + 29) % vocab.len()];
            out.push(format!("{a} {b} {c}"));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The pre-PR-3 numeric core: HashMap concept vectors with precomputed
/// norms, dot by probing the smaller map into the larger.
fn hashmap_cosine(a: &(ConceptVector, f64), b: &(ConceptVector, f64)) -> f64 {
    if a.1 == 0.0 || b.1 == 0.0 {
        return 0.0;
    }
    let (small, large) = if a.0.len() <= b.0.len() { (&a.0, &b.0) } else { (&b.0, &a.0) };
    let dot: f64 = small.iter().filter_map(|(k, va)| large.get(k).map(|vb| va * vb)).sum();
    (dot / (a.1 * b.1)).clamp(0.0, 1.0)
}

fn pairwise_hashmap(vectors: &[(ConceptVector, f64)]) -> f64 {
    let mut acc = 0.0;
    for a in vectors {
        for b in vectors {
            acc += hashmap_cosine(a, b);
        }
    }
    acc
}

fn pairwise_kernel(vectors: &[SparseVector]) -> f64 {
    let mut acc = 0.0;
    for a in vectors {
        for b in vectors {
            acc += kernel::cosine(a, b);
        }
    }
    acc
}

fn pairwise_verdicts(esa: &Interpreter, syms: &[Symbol]) -> usize {
    let mut matches = 0;
    for &a in syms {
        for &b in syms {
            if esa.same_thing_sym(a, b) {
                matches += 1;
            }
        }
    }
    matches
}

/// One-shot report: pairwise similarity over the full phrase set, HashMap
/// reference vs CSR kernel, plus the memoized verdict predicate.
fn report_kernel(esa: &Interpreter, texts: &[String]) {
    let hashmap_vectors: Vec<(ConceptVector, f64)> = texts
        .iter()
        .map(|t| {
            let v = esa.interpret(t);
            let norm = v.values().map(|w| w * w).sum::<f64>().sqrt();
            (v, norm)
        })
        .collect();
    let kernel_vectors: Vec<SparseVector> = texts.iter().map(|t| esa.interpret_sparse(t)).collect();
    let syms: Vec<Symbol> = texts.iter().map(|t| intern(t)).collect();
    let pairs = texts.len() * texts.len();
    println!("esa_kernel: {} phrases, {} pairs per pass", texts.len(), pairs);

    const PASSES: usize = 50;
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..PASSES {
        acc += black_box(pairwise_hashmap(&hashmap_vectors));
    }
    let hashmap_dt = t.elapsed();
    let t = Instant::now();
    for _ in 0..PASSES {
        acc += black_box(pairwise_kernel(&kernel_vectors));
    }
    let kernel_dt = t.elapsed();
    let t = Instant::now();
    let mut verdicts = 0;
    for _ in 0..PASSES {
        verdicts += black_box(pairwise_verdicts(esa, &syms));
    }
    let verdict_dt = t.elapsed();
    black_box((acc, verdicts));

    let speedup = hashmap_dt.as_secs_f64() / kernel_dt.as_secs_f64();
    println!("  hashmap reference: {:?} for {PASSES} passes", hashmap_dt);
    println!("  csr kernel:        {:?} for {PASSES} passes  speedup: {speedup:.2}x", kernel_dt);
    println!("  verdict predicate: {:?} for {PASSES} passes (memo + pruning)", verdict_dt);
    let memo = esa.pair_memo_stats();
    println!(
        "  pair memo: {} hits / {} misses ({} entries); {} comparisons pruned",
        memo.hits,
        memo.misses,
        memo.entries,
        esa.pruned_comparisons()
    );
}

/// One-shot comparison of the two-pointer merge against [`kernel::dot`]
/// (which takes the ranked mask intersection every KB vector qualifies
/// for) over the intersecting pairs of the pairwise workload (disjoint
/// pairs exit on the occupancy-mask AND before any dot runs, so
/// including them would only dilute the ratio). Both bodies produce
/// bit-identical sums, so the accumulated totals are asserted equal.
fn report_simd(kernel_vectors: &[SparseVector]) {
    const PASSES: usize = 50;
    println!("esa_kernel: two-pointer merge vs mask dot");
    let pairs: Vec<(&SparseVector, &SparseVector)> = kernel_vectors
        .iter()
        .flat_map(|a| kernel_vectors.iter().map(move |b| (a, b)))
        .filter(|(a, b)| kernel::cosine(a, b) > 0.0)
        .collect();
    println!("  {} intersecting pairs per pass", pairs.len());
    let time = |dot: &dyn Fn(&SparseVector, &SparseVector) -> f64| {
        let sum = || pairs.iter().map(|(a, b)| dot(a, b)).sum::<f64>();
        black_box(sum());
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..PASSES {
            acc += black_box(sum());
        }
        (acc, t.elapsed())
    };
    let (merge_acc, merge_dt) =
        time(&|a, b| kernel::merge_dot(a.ids(), a.weights(), b.ids(), b.weights()));
    let (dot_acc, dot_dt) = time(&|a, b| kernel::dot(a, b));

    assert_eq!(merge_acc, dot_acc, "mask dot and merge must agree bit-for-bit");
    let speedup = merge_dt.as_secs_f64() / dot_dt.as_secs_f64();
    println!("  merge:    {merge_dt:?} for {PASSES} passes");
    println!("  mask dot: {dot_dt:?} for {PASSES} passes  speedup: {speedup:.2}x");
}

/// Per-pass pairwise-kernel latencies, emitted as `BENCH_esa.json` (see
/// [`ppchecker_bench::emit`]); warmup passes are discarded so the
/// quantiles report steady state.
fn emit_bench_json(kernel_vectors: &[SparseVector]) {
    const WARMUP: usize = 2;
    const RUNS: usize = 10;
    for _ in 0..WARMUP {
        black_box(pairwise_kernel(kernel_vectors));
    }
    let mut runs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let t = Instant::now();
        black_box(pairwise_kernel(kernel_vectors));
        runs.push(t.elapsed());
    }
    let pairs = kernel_vectors.len() * kernel_vectors.len();
    let total: f64 = runs.iter().map(Duration::as_secs_f64).sum();
    let throughput = (RUNS * pairs) as f64 / total;
    let result = BenchResult {
        bench: "esa_kernel".to_string(),
        config: vec![
            ("phrases".to_string(), kernel_vectors.len().to_string()),
            ("pairs".to_string(), pairs.to_string()),
            ("warmup".to_string(), WARMUP.to_string()),
            ("runs".to_string(), RUNS.to_string()),
        ],
        runs,
        throughput,
    };
    let path = result.write("esa").expect("write BENCH_esa.json");
    println!("esa_kernel: {throughput:.0} cosine pairs/s sustained, wrote {}", path.display());
}

fn bench_kernel(c: &mut Criterion) {
    let esa = Interpreter::shared();
    let texts = phrases();
    report_kernel(esa, &texts);

    let hashmap_vectors: Vec<(ConceptVector, f64)> = texts
        .iter()
        .map(|t| {
            let v = esa.interpret(t);
            let norm = v.values().map(|w| w * w).sum::<f64>().sqrt();
            (v, norm)
        })
        .collect();
    let kernel_vectors: Vec<SparseVector> = texts.iter().map(|t| esa.interpret_sparse(t)).collect();
    let syms: Vec<Symbol> = texts.iter().map(|t| intern(t)).collect();

    report_simd(&kernel_vectors);
    emit_bench_json(&kernel_vectors);

    let mut g = c.benchmark_group("esa");
    g.sample_size(20);
    g.bench_function("pairwise_hashmap_reference", |b| {
        b.iter(|| black_box(pairwise_hashmap(&hashmap_vectors)))
    });
    g.bench_function("pairwise_csr_kernel", |b| {
        b.iter(|| black_box(pairwise_kernel(&kernel_vectors)))
    });
    g.bench_function("pairwise_verdicts_memoized", |b| {
        b.iter(|| black_box(pairwise_verdicts(esa, &syms)))
    });
    g.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
