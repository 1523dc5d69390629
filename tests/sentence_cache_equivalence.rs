//! The engine's sentence cache is a pure optimization. One cache shared by
//! the 81 lib policies, the 1,197 paper policies and 2,000 scale-corpus
//! policies, whose sentences repeat across documents, assembles every
//! policy's analysis byte for byte as `PolicyAnalyzer::analyze_html`
//! does — filled serially, and filled by concurrent workers of an engine
//! run.

use ppchecker_core::{AppInput, PPChecker};
use ppchecker_corpus::{libs::lib_policies, stream_scaled, APP_COUNT};
use ppchecker_engine::{ArtifactCache, Engine};
use ppchecker_policy::{encode_analysis, PolicyAnalyzer};

/// Scale-corpus apps past the paper prefix.
const SCALE_APPS: usize = 2_000;

fn lib_pairs() -> Vec<(String, String)> {
    lib_policies().into_iter().map(|lp| (lp.lib.id.to_string(), lp.html)).collect()
}

fn apps() -> Vec<AppInput> {
    stream_scaled(42, APP_COUNT + SCALE_APPS).map(|g| g.input).collect()
}

/// Asserts that `cache` assembles `html` as the analyzer does; returns
/// the sentence count (the lookups it made).
fn assert_equivalent(cache: &ArtifactCache, analyzer: &PolicyAnalyzer, html: &str) -> u64 {
    let cached = cache.policy(html);
    let direct = analyzer.analyze_html(html);
    assert_eq!(
        encode_analysis(&cached),
        encode_analysis(&direct),
        "cached analysis diverged for {:.80}",
        html
    );
    cached.total_sentences as u64
}

#[test]
fn one_cache_analyses_every_policy_as_the_analyzer_does() {
    let analyzer = PolicyAnalyzer::new();
    let cache = ArtifactCache::new(analyzer.clone());
    let (libs, apps) = (lib_pairs(), apps());
    let htmls = libs.iter().map(|(_, html)| html).chain(apps.iter().map(|app| &app.policy_html));
    let lookups: u64 = htmls.map(|html| assert_equivalent(&cache, &analyzer, html)).sum();
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, lookups, "one lookup per sentence");
    assert_eq!(stats.misses as usize, stats.entries, "each admitted sentence analyzed once");
    assert!(stats.hits > 10 * stats.misses, "sentences repeat across documents: {stats:?}");
}

#[test]
fn engine_runs_analyse_every_policy_as_the_analyzer_does() {
    let apps = apps();
    let mut reference = PPChecker::new();
    for (id, html) in lib_pairs() {
        reference.register_lib_policy(&id, &html);
    }
    let want: Vec<String> = apps
        .iter()
        .map(|app| format!("{:?}", reference.check_app(app).expect("reference check").report))
        .collect();
    let analyzer = reference.analyzer();
    for jobs in [1, 2] {
        let engine = Engine::with_lib_policies(PPChecker::new(), lib_pairs()).with_jobs(jobs);
        assert_eq!(engine.checker().config_fingerprint(), reference.config_fingerprint());
        let batch = engine.run(apps.clone());
        assert_eq!(batch.metrics.errors, 0);
        for (record, want) in batch.records.iter().zip(&want) {
            let got = format!("{:?}", record.report().expect("report record"));
            assert_eq!(got, *want, "jobs={jobs}: {}", record.package);
        }
        // The run's workers filled the cache concurrently; every policy
        // still assembles from it as the analyzer analyses it.
        let before = engine.cache().stats();
        for app in &apps {
            assert_equivalent(engine.cache(), analyzer, &app.policy_html);
        }
        assert_eq!(engine.cache().stats().misses, before.misses, "jobs={jobs}: the run cached all");
    }
}
