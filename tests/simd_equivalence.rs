//! Byte-identity of the ESA kernel's two dot bodies, and of the engine's
//! reports, over the golden corpus.
//!
//! [`kernel::dot`] picks its body from the vectors alone: the ranked
//! mask intersection when every id of both vectors is below 128, the
//! two-pointer merge otherwise. The mask path is engineered to be *bit*-
//! identical to the merge (same f64 accumulator, same ascending-id
//! order), not merely close. The first test holds that line over every
//! pair of golden-corpus resource vectors; the second holds the parallel
//! engine's rendered reports to the same golden snapshot the direct
//! checker is held to in `golden_report_equivalence`.
//!
//! The test names predate the removal of the runtime SIMD dispatch and
//! its scalar switch; they are kept so that existing references to these
//! test ids stay valid.

use ppchecker_corpus::small_dataset;
use ppchecker_engine::{AppOutcome, Engine};
use ppchecker_esa::{kernel, Interpreter, SparseVector};
use ppchecker_policy::PolicyAnalyzer;
use ppchecker_serve::json::report_to_json;
use std::collections::BTreeSet;
use std::path::Path;

const GOLDEN_PATH: &str = "tests/golden/reports_seed42_50.txt";

/// Sparse vectors for every distinct resource phrase the golden corpus
/// policies mention, plus the canonical sensitive-resource phrases.
fn corpus_vectors() -> Vec<SparseVector> {
    let dataset = small_dataset(42, 50);
    let analyzer = PolicyAnalyzer::new();
    let esa = Interpreter::shared();
    let mut phrases: BTreeSet<String> =
        ppchecker_nlp::intern::SENSITIVE_RESOURCES.iter().map(|s| s.to_string()).collect();
    for app in &dataset.apps {
        let analysis = analyzer.analyze_html(&app.input.policy_html);
        phrases
            .extend(analysis.mentioned_resource_symbols().iter().map(|s| s.as_str().to_string()));
    }
    phrases.iter().map(|p| esa.interpret_sparse(p)).collect()
}

/// The cosine [`kernel::cosine`] would compute if every dot took the
/// two-pointer merge.
fn merge_cosine(a: &SparseVector, b: &SparseVector) -> f64 {
    if a.norm() == 0.0 || b.norm() == 0.0 {
        return 0.0;
    }
    let dot = kernel::merge_dot(a.ids(), a.weights(), b.ids(), b.weights());
    (dot / (a.norm() * b.norm())).clamp(0.0, 1.0)
}

#[test]
fn simd_cosines_are_bit_identical_to_scalar_over_golden_corpus() {
    let vectors = corpus_vectors();
    assert!(vectors.len() >= 20, "corpus should mention a rich resource vocabulary");
    // Every golden-vocabulary vector fits the exact 128-bit mask, so the
    // kernel's cosine runs the mask dot on every pair compared below.
    for v in &vectors {
        assert!(v.ids().iter().all(|&id| id < 128), "vector ids {:?} leave the mask", v.ids());
    }
    for (i, a) in vectors.iter().enumerate() {
        for (j, b) in vectors.iter().enumerate() {
            let (fast, merged) = (kernel::cosine(a, b), merge_cosine(a, b));
            assert_eq!(fast.to_bits(), merged.to_bits(), "pair ({i}, {j}): {fast} vs {merged}");
        }
    }
}

#[test]
fn golden_corpus_reports_are_byte_identical_with_simd_on_and_off() {
    let dataset = small_dataset(42, 50);
    let engine = Engine::new(dataset.make_checker()).with_jobs(2);
    let batch = engine.run(dataset.iter_apps().cloned());
    assert_eq!(batch.records.len(), dataset.apps.len());
    // Rendered exactly as `golden_report_equivalence` renders the
    // direct checker's reports.
    let mut rendered = String::new();
    for record in &batch.records {
        match &record.outcome {
            AppOutcome::Report(report) => rendered.push_str(&report_to_json(report)),
            AppOutcome::Error(e) => rendered.push_str(&format!("error[{}]: {e}", record.package)),
        }
        rendered.push('\n');
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let golden = std::fs::read_to_string(path).expect("golden snapshot present");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "engine report diverged from the snapshot at line {}", i + 1);
    }
    assert_eq!(rendered.lines().count(), golden.lines().count(), "report count diverged");
}
