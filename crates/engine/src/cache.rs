//! Content-addressed artifact cache.
//!
//! Policy texts repeat across a corpus — the 81 third-party lib policies
//! are checked against every app embedding them, template policies are
//! shared by whole app families, and re-runs see identical bytes. The
//! cache keys parsed [`PolicyAnalysis`] results by the policy text itself
//! in a [`Memo`], so each distinct resident text is pushed through the
//! NLP pipeline exactly once per run regardless of worker count, and
//! collisions are impossible by construction (the map compares bytes,
//! not hashes).
//!
//! Only admitted texts stay resident — at most [`POLICY_CACHE_CAP`] of
//! them, each next to its analysis — and they go with the cache. Texts
//! are deliberately *not* interned: an audit corpus is mostly distinct
//! policies (91% of a 100k scale corpus), and an interned document would
//! outlive the cache for the life of the process (see DESIGN.md §9).
//!
//! ## The disk tier
//!
//! When a persistent [`ArtifactTier`] is attached (see
//! [`ArtifactCache::attach_disk_tier`]), the cache becomes the memory
//! tier of a two-tier hierarchy: the fill of a new key probes the store
//! under `combine(content_hash(html), analyzer_fingerprint)` before
//! paying for the NLP pipeline, and persists every freshly computed
//! analysis. A key fills once, so each analysis is persisted once. The
//! fingerprint in the key means a reconfigured analyzer (different
//! patterns, different constraint mode) can never replay a stale parse
//! — it simply misses and recomputes under the new key. Disk-tier
//! replays count as cache hits, preserving the invariant that `misses`
//! equals the number of analyses *computed* by this process.

use ppchecker_obs::{CacheStats, Fill, Memo};
use ppchecker_policy::{decode_analysis, encode_analysis, PolicyAnalysis, PolicyAnalyzer};
use ppchecker_static::TaintSummaryCache;
use ppchecker_store::{combine_hashes, content_hash, ArtifactTier, RecordKind};
use std::sync::{Arc, OnceLock};

/// Upper bound on resident policy analyses. Past this the cache stops
/// admitting new entries (hits still serve, misses still compute), so a
/// week-long daemon fed an unbounded stream of distinct policies holds
/// at most this many texts and parsed analyses. 32k entries ≈ hundreds
/// of MB worst case; batch runs over the paper corpus use a few hundred.
pub const POLICY_CACHE_CAP: usize = 32_768;

/// Thread-safe memo of parsed policy analyses, shared by all workers of
/// a batch run.
#[derive(Debug)]
pub struct ArtifactCache {
    policies: Memo<Box<str>, Arc<PolicyAnalysis>>,
    /// Cross-app library taint-summary store, keyed by lib content hash
    /// (see `ppchecker_static::summary`). Shared with the checker via
    /// `Arc` so the taint kernel inside workers and the engine's metrics
    /// observe the same counters.
    taint_summaries: Arc<TaintSummaryCache>,
    /// Optional persistent tier plus the analyzer fingerprint folded
    /// into every disk key. Write-once: the first attach wins.
    disk: OnceLock<(Arc<dyn ArtifactTier>, u64)>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache {
            policies: Memo::new(POLICY_CACHE_CAP),
            taint_summaries: Arc::default(),
            disk: OnceLock::new(),
        }
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    /// Attaches a persistent tier consulted on memory misses and fed by
    /// fresh computes. `analyzer_fingerprint` is folded into every disk
    /// key so a configuration change invalidates stored parses. The
    /// first attach wins; later calls are ignored.
    pub fn attach_disk_tier(&self, tier: Arc<dyn ArtifactTier>, analyzer_fingerprint: u64) {
        let _ = self.disk.set((tier, analyzer_fingerprint));
    }

    /// Returns the analysis of `html`, resolving through the memory
    /// tier, then the disk tier (when attached), then computing with
    /// `analyzer` on first sight of the text.
    pub fn policy(&self, analyzer: &PolicyAnalyzer, html: &str) -> Arc<PolicyAnalysis> {
        let _span = ppchecker_obs::span!("engine.cache_probe");
        self.policies.get_or_fill(html, || {
            let Some((tier, salt)) = self.disk.get() else {
                return Fill::Computed(Arc::new(analyzer.analyze_html(html)));
            };
            // Any disk defect — no record, corruption, a wire decode
            // failure — reads as absent, so the analysis is recomputed
            // and overwritten. Corruption can cost time, never
            // correctness.
            let key = combine_hashes(&[content_hash(html.as_bytes()), *salt]);
            let stored = tier.load(RecordKind::Policy, key);
            if let Some(analysis) = stored.and_then(|bytes| decode_analysis(&bytes).ok()) {
                return Fill::Replayed(Arc::new(analysis));
            }
            let analysis = analyzer.analyze_html(html);
            tier.save(RecordKind::Policy, key, &encode_analysis(&analysis));
            Fill::Computed(Arc::new(analysis))
        })
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.policies.stats()
    }

    /// The shared library taint-summary cache (to clone into a checker).
    pub fn taint_summaries(&self) -> &Arc<TaintSummaryCache> {
        &self.taint_summaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_nlp::Interner;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Near-identical texts are different keys: each gets its own
    /// analysis, and each hits on repeat.
    #[test]
    fn near_identical_texts_get_their_own_entries() {
        let cache = ArtifactCache::new();
        let analyzer = PolicyAnalyzer::new();
        let texts = [
            "<p>we collect location</p>",
            "<p>we collect location!</p>",
            "<p>we collect locatioN</p>",
        ];
        let first: Vec<_> = texts.iter().map(|html| cache.policy(&analyzer, html)).collect();
        for (i, a) in first.iter().enumerate() {
            for b in &first[i + 1..] {
                assert!(!Arc::ptr_eq(a, b), "near-identical texts share an analysis");
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 0, 3));
        for (html, analysis) in texts.iter().zip(&first) {
            assert!(Arc::ptr_eq(&cache.policy(&analyzer, html), analysis), "{html} re-analyzed");
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 3, 3));
    }

    /// A policy text is a cache key, not vocabulary: looking it up must not
    /// leave the whole document in the process-wide interner.
    #[test]
    fn policy_texts_stay_out_of_the_interner() {
        let cache = ArtifactCache::new();
        let html = "<p>we may collect your location to serve nearby forecasts, cache key 7f3a.</p>";
        assert!(Interner::global().get(html).is_none(), "fresh text");
        let analysis = cache.policy(&PolicyAnalyzer::new(), html);
        assert!(!analysis.sentences.is_empty());
        assert!(Interner::global().get(html).is_none(), "the document was interned");
    }

    #[test]
    fn repeated_text_analyzed_once() {
        let cache = ArtifactCache::new();
        let analyzer = PolicyAnalyzer::new();
        let html = "<p>we may collect your location.</p>";
        let first = cache.policy(&analyzer, html);
        let again = cache.policy(&analyzer, html);
        assert!(Arc::ptr_eq(&first, &again), "same allocation shared");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_texts_get_different_analyses() {
        let cache = ArtifactCache::new();
        let analyzer = PolicyAnalyzer::new();
        let a = cache.policy(&analyzer, "<p>we collect your location.</p>");
        let b = cache.policy(&analyzer, "<p>we collect your contacts.</p>");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 2);
    }

    /// An in-memory tier for exercising the two-tier path without disk.
    #[derive(Debug, Default)]
    struct MemTier {
        records: Mutex<HashMap<(ppchecker_store::RecordKind, u64), Vec<u8>>>,
        saves: AtomicU64,
    }

    impl ArtifactTier for MemTier {
        fn load(&self, kind: ppchecker_store::RecordKind, key: u64) -> Option<Vec<u8>> {
            self.records.lock().unwrap().get(&(kind, key)).cloned()
        }

        fn save(&self, kind: ppchecker_store::RecordKind, key: u64, payload: &[u8]) {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.records.lock().unwrap().insert((kind, key), payload.to_vec());
        }
    }

    #[test]
    fn disk_tier_round_trips_and_counts_hits() {
        let tier = Arc::new(MemTier::default());
        let analyzer = PolicyAnalyzer::new();
        let html = "<p>we may collect your precise location.</p>";

        let warm_writer = ArtifactCache::new();
        warm_writer.attach_disk_tier(Arc::clone(&tier) as Arc<dyn ArtifactTier>, 7);
        let first = warm_writer.policy(&analyzer, html);
        assert_eq!(warm_writer.stats().misses, 1);
        assert_eq!(tier.saves.load(Ordering::Relaxed), 1, "fresh compute persisted");

        // A second cache (a new process, conceptually) warm-starts from
        // the tier: no compute, the lookup counts as a hit.
        let warm_reader = ArtifactCache::new();
        warm_reader.attach_disk_tier(Arc::clone(&tier) as Arc<dyn ArtifactTier>, 7);
        let replayed = warm_reader.policy(&analyzer, html);
        let stats = warm_reader.stats();
        assert_eq!(stats.misses, 0, "disk hit avoids the NLP pipeline");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1, "disk hit promoted into memory");
        assert_eq!(replayed.sentences.len(), first.sentences.len());
        assert_eq!(tier.saves.load(Ordering::Relaxed), 1, "replays are not re-persisted");

        // A different fingerprint means a different key space: the
        // stored parse must not replay for a reconfigured analyzer.
        let reconfigured = ArtifactCache::new();
        reconfigured.attach_disk_tier(Arc::clone(&tier) as Arc<dyn ArtifactTier>, 8);
        let _ = reconfigured.policy(&analyzer, html);
        assert_eq!(reconfigured.stats().misses, 1, "fingerprint change invalidates");
    }

    /// A tier that always returns garbage: decode failure must read as a
    /// miss (recompute + overwrite), never an error.
    #[derive(Debug, Default)]
    struct GarbageTier;

    impl ArtifactTier for GarbageTier {
        fn load(&self, _kind: ppchecker_store::RecordKind, _key: u64) -> Option<Vec<u8>> {
            Some(vec![0xFF; 24])
        }

        fn save(&self, _kind: ppchecker_store::RecordKind, _key: u64, _payload: &[u8]) {}
    }

    #[test]
    fn corrupt_disk_record_reads_as_miss() {
        let cache = ArtifactCache::new();
        cache.attach_disk_tier(Arc::new(GarbageTier), 1);
        let analysis = cache.policy(&PolicyAnalyzer::new(), "<p>we collect your email.</p>");
        assert!(!analysis.sentences.is_empty());
        assert_eq!(cache.stats().misses, 1, "garbage bytes recompute cleanly");
    }
}
