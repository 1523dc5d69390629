//! Verdict-level equivalence of the CSR ESA kernel over the golden corpus.
//!
//! The PR-3 kernel adds norm-bound pruning, a symbol-pair verdict memo and
//! sharded vector-cache locks. All three must be invisible at the verdict
//! level: this test drives every resource pair the 50-app golden corpus
//! actually asks about through the pruned + memoized predicate and checks
//! it against the exact cosine comparison — twice, so the second round is
//! answered from the warm memo. A warm-state engine re-run must also
//! aggregate identically to the cold run.

use ppchecker_core::PPChecker;
use ppchecker_corpus::small_dataset;
use ppchecker_engine::Engine;
use ppchecker_esa::{Interpreter, SIMILARITY_THRESHOLD};
use ppchecker_nlp::{intern, Symbol};
use ppchecker_policy::PolicyAnalyzer;
use std::collections::BTreeSet;

/// Every distinct resource symbol mentioned across the 50-app corpus
/// policies, plus the canonical private-information phrases the detectors
/// compare them against.
fn corpus_resource_symbols() -> Vec<Symbol> {
    let dataset = small_dataset(42, 50);
    let analyzer = PolicyAnalyzer::new();
    let mut syms: BTreeSet<Symbol> = BTreeSet::new();
    for app in &dataset.apps {
        let analysis = analyzer.analyze_html(&app.input.policy_html);
        syms.extend(analysis.mentioned_resource_symbols());
    }
    for phrase in ppchecker_nlp::intern::SENSITIVE_RESOURCES {
        syms.insert(intern(phrase));
    }
    syms.into_iter().collect()
}

#[test]
fn pruned_memoized_verdicts_equal_exact_similarity_over_golden_corpus() {
    let esa = Interpreter::shared();
    let syms = corpus_resource_symbols();
    assert!(syms.len() >= 20, "corpus should mention a rich resource vocabulary");
    let mut verdicts = 0usize;
    for round in 0..2 {
        for &a in &syms {
            for &b in &syms {
                let exact = esa.similarity_sym(a, b) >= SIMILARITY_THRESHOLD;
                assert_eq!(
                    esa.same_thing_sym(a, b),
                    exact,
                    "round {round}: verdict diverged for ({}, {})",
                    a.as_str(),
                    b.as_str()
                );
                verdicts += 1;
            }
        }
    }
    assert!(verdicts > 0);
    let memo_hits = esa.pair_memo_stats().hits;
    assert!(memo_hits > 0, "second round must be served from the pair memo");
}

#[test]
fn warm_memo_engine_rerun_is_identical_to_cold_run() {
    let dataset = small_dataset(42, 50);
    let engine = Engine::new(PPChecker::new()).with_jobs(2);
    let cold = engine.run(dataset.iter_apps().cloned());
    // Second run: the process-wide vector cache and pair memo are warm.
    let warm = engine.run(dataset.iter_apps().cloned());
    assert_eq!(cold.aggregate(), warm.aggregate());
    for (c, w) in cold.records.iter().zip(warm.records.iter()) {
        assert_eq!(c.package, w.package);
        assert_eq!(
            format!("{:?}", c.outcome),
            format!("{:?}", w.outcome),
            "record {} diverged between cold and warm ESA state",
            c.index
        );
    }
}
