//! The engine's policy cache, at sentence grain.
//!
//! Steps 2–6 of the policy pipeline (parse, pattern match, negation,
//! element extraction) and the disclaimer scan depend only on one
//! sentence's text and the analyzer's configuration. Whole policy texts
//! rarely repeat — 91% of a 100k scale corpus's policies are distinct —
//! but their sentences do: generated policies share boilerplate, and the
//! same 100k apps hold 676,548 sentences of which 12,524 are distinct.
//! So the cache memoizes one [`SentenceVerdict`] per sentence text in a
//! [`Memo`], and every policy still runs the document loop
//! ([`PolicyAnalysis::from_html`]: strip, split, one verdict per
//! sentence) through it. Each distinct resident sentence is analyzed
//! exactly once per run regardless of worker count, and collisions are
//! impossible by construction (the map compares bytes, not hashes).
//!
//! The memo is probed by `&str`: a hit clones an `Arc` and allocates
//! nothing. At most [`POLICY_CACHE_CAP`] sentences stay resident, each
//! next to its verdict, and they go with the cache. Each resident
//! sentence's text is stored once: the memo keys by `Arc<str>` and hands
//! its key to the analysis, so a useful sentence's
//! [`AnalyzedSentence::text`](ppchecker_policy::AnalyzedSentence::text)
//! is the key itself. Over the 20,000 policies of the seed-42 stream a
//! cold cache ends holding 4,273 sentences in 1,029,010 heap bytes
//! (241 B and 20.7 allocation calls of the cold pass per sentence;
//! `tests/allocation_counts.rs` gates both). Sentences are deliberately
//! *not* interned: they are cache keys, not vocabulary, and an interned
//! key would outlive the cache for the life of the process (see
//! DESIGN.md §9).
//!
//! The cache owns the analyzer whose verdicts it holds, so no verdict
//! can reach a differently configured analyzer.

use ppchecker_obs::{CacheStats, Memo};
use ppchecker_policy::{PolicyAnalysis, PolicyAnalyzer, SentenceVerdict};
use std::sync::Arc;

/// Upper bound on resident sentence verdicts. Past this the cache stops
/// admitting new sentences (hits still serve, misses still compute), so
/// a week-long daemon fed an unbounded stream of distinct policies holds
/// at most this many sentences and verdicts: ~26 MB when full of useful
/// sentences (EXPERIMENTS.md, "Each cached sentence stored once"). A
/// 100k-app scale corpus has ~12.5k distinct sentences.
pub const POLICY_CACHE_CAP: usize = 65_536;

/// Thread-safe memo of sentence verdicts under one analyzer, shared by
/// all workers of a batch run.
#[derive(Debug)]
pub struct ArtifactCache {
    analyzer: PolicyAnalyzer,
    sentences: Memo<Arc<str>, SentenceVerdict>,
}

impl ArtifactCache {
    /// An empty cache of `analyzer`'s verdicts.
    pub fn new(analyzer: PolicyAnalyzer) -> Self {
        ArtifactCache { analyzer, sentences: Memo::new(POLICY_CACHE_CAP) }
    }

    /// The analysis of `html`, equal to the analyzer's
    /// [`analyze_html`](PolicyAnalyzer::analyze_html): each sentence's
    /// verdict comes from the memo, computed on first sight of the text.
    pub fn policy(&self, html: &str) -> PolicyAnalysis {
        let _span = ppchecker_obs::span!("engine.cache_probe");
        PolicyAnalysis::from_html(html, |sentence| {
            self.sentences.get_or_compute(sentence, |key| self.analyzer.verdict(Arc::clone(key)))
        })
    }

    /// Snapshot of the counters: one lookup per sentence.
    pub fn stats(&self) -> CacheStats {
        self.sentences.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_nlp::Interner;
    use ppchecker_policy::encode_analysis;

    fn stock() -> ArtifactCache {
        ArtifactCache::new(PolicyAnalyzer::new())
    }

    /// Near-identical sentences are different keys: each gets its own
    /// verdict, and each hits on repeat. The key is the sentence as the
    /// splitter normalizes it, so markup and case never split an entry.
    #[test]
    fn near_identical_texts_get_their_own_entries() {
        let cache = stock();
        let texts = [
            "<p>we collect location.</p>",
            "<p>we collect location!</p>",
            "<p>we collect locations.</p>",
        ];
        let first: Vec<_> = texts.iter().map(|html| cache.policy(html)).collect();
        for (i, a) in first.iter().enumerate() {
            for b in &first[i + 1..] {
                assert!(
                    !Arc::ptr_eq(&a.sentences[0], &b.sentences[0]),
                    "near-identical sentences share an analysis"
                );
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 0, 3));
        for (html, analysis) in texts.iter().zip(&first) {
            let again = cache.policy(html);
            assert!(Arc::ptr_eq(&again.sentences[0], &analysis.sentences[0]), "{html} re-analyzed");
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 3, 3));
        let restyled = cache.policy("<div><b>We</b> collect LOCATION.</div>");
        assert!(Arc::ptr_eq(&restyled.sentences[0], &first[0].sentences[0]));
        assert_eq!(cache.stats().entries, 3);
    }

    /// A sentence is a cache key, not vocabulary: looking it up must not
    /// leave the sentence in the process-wide interner.
    #[test]
    fn policy_texts_stay_out_of_the_interner() {
        let cache = stock();
        let sentence = "we may collect your location to serve nearby forecasts, cache key 7f3a.";
        assert!(Interner::global().get(sentence).is_none(), "fresh text");
        let analysis = cache.policy(&format!("<p>{sentence}</p>"));
        assert!(!analysis.sentences.is_empty());
        assert_eq!(cache.stats().entries, 1);
        assert!(Interner::global().get(sentence).is_none(), "the sentence was interned");
    }

    /// A sentence repeated within and across policies is analyzed once;
    /// every later lookup is a hit on the same allocation.
    #[test]
    fn repeated_text_analyzed_once() {
        let cache = stock();
        let html = "<p>we may collect your location. we may collect your location.</p>";
        let first = cache.policy(html);
        assert_eq!(first.total_sentences, 2);
        assert!(Arc::ptr_eq(&first.sentences[0], &first.sentences[1]), "one analysis shared");
        let again = cache.policy("<p>we value privacy. we may collect your location.</p>");
        assert!(Arc::ptr_eq(&first.sentences[0], &again.sentences[0]), "reused across policies");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 2, 2));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A useful sentence's text is the memo's key: every policy that
    /// repeats the sentence holds that one allocation, and the analysis
    /// made no copy of its own. The direct analysis copies the text.
    #[test]
    fn a_repeated_sentence_shares_its_text_with_the_key() {
        let cache = stock();
        let first = cache.policy("<p>we may collect your location. we value privacy.</p>");
        let again = cache.policy("<p>we value privacy. we may collect your location.</p>");
        let (a, b) = (&first.sentences[0].text, &again.sentences[0].text);
        assert_eq!(&**a, "we may collect your location.");
        assert!(Arc::ptr_eq(a, b), "the repeat holds another copy of the text");
        assert_eq!(Arc::strong_count(a), 2, "the key and the analyzed sentence, nothing else");
        let direct = PolicyAnalyzer::new().analyze_html("<p>we may collect your location.</p>");
        assert!(!Arc::ptr_eq(a, &direct.sentences[0].text));
        assert_eq!(Arc::strong_count(&direct.sentences[0].text), 1);
    }

    #[test]
    fn different_texts_get_different_analyses() {
        let cache = stock();
        let a = cache.policy("<p>we collect your location.</p>");
        let b = cache.policy("<p>we collect your contacts.</p>");
        assert!(!Arc::ptr_eq(&a.sentences[0], &b.sentences[0]));
        assert_ne!(encode_analysis(&a), encode_analysis(&b));
        assert_eq!(cache.stats().entries, 2);
    }

    /// Disclaimers and sentences that are not useful are verdicts too:
    /// cached, and folded into the analysis exactly as the analyzer does.
    #[test]
    fn every_verdict_kind_matches_the_direct_analysis() {
        let cache = stock();
        let html = "<p>We are not responsible for the privacy practices of third party sites.</p>\
                    <p>We value your privacy. We will not share your contacts.</p>";
        for _ in 0..2 {
            let cached = cache.policy(html);
            let direct = PolicyAnalyzer::new().analyze_html(html);
            assert!(cached.has_disclaimer);
            assert_eq!((cached.total_sentences, cached.sentences.len()), (3, 1));
            assert_eq!(encode_analysis(&cached), encode_analysis(&direct));
        }
        assert_eq!((cache.stats().misses, cache.stats().hits), (3, 3));
    }

    /// Each cache holds the verdicts of its own analyzer: a consent-gated
    /// denial is kept by the stock analyzer and dropped under constraint
    /// modeling, whichever cache sees the sentence first.
    #[test]
    fn caches_keep_their_own_analyzers_verdicts() {
        let html = "<p>we will not share your location without your consent.</p>";
        let stock = stock();
        let modeled = ArtifactCache::new(PolicyAnalyzer::new().with_constraint_modeling());
        for _ in 0..2 {
            let kept = stock.policy(html);
            assert_eq!(kept.sentences.len(), 1);
            assert!(kept.sentences[0].negative && kept.sentences[0].conditional);
            assert!(modeled.policy(html).sentences.is_empty());
        }
        assert_eq!((stock.stats().misses, stock.stats().hits), (1, 1));
        assert_eq!((modeled.stats().misses, modeled.stats().hits), (1, 1));
    }
}
