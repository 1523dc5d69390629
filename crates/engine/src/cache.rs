//! Content-addressed artifact cache.
//!
//! Policy texts repeat across a corpus — the 81 third-party lib policies
//! are checked against every app embedding them, template policies are
//! shared by whole app families, and re-runs see identical bytes. The
//! cache keys parsed [`PolicyAnalysis`] results by the policy text itself,
//! so each distinct text is pushed through the NLP pipeline exactly once
//! per run regardless of worker count, and collisions are impossible by
//! construction (the map compares bytes, not hashes). The map keeps std's
//! randomly keyed SipHash, because its keys come from outside the
//! program.
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
//! tier of a two-tier hierarchy: a memory miss probes the store under
//! `combine(content_hash(html), analyzer_fingerprint)` before paying for
//! the NLP pipeline, promotes a decoded record into memory, and persists
//! every freshly computed analysis. The fingerprint in the key means a
//! reconfigured analyzer (different patterns, different constraint mode)
//! can never replay a stale parse — it simply misses and recomputes
//! under the new key. Disk-tier hits count as cache hits, preserving the
//! invariant that `misses` equals the number of analyses *computed* by
//! this process.

use ppchecker_policy::{decode_analysis, encode_analysis, PolicyAnalysis, PolicyAnalyzer};
use ppchecker_static::TaintSummaryCache;
use ppchecker_store::{combine_hashes, content_hash, ArtifactTier, RecordKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute (== number of distinct texts analyzed).
    pub misses: u64,
    /// Entries resident at snapshot time.
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Upper bound on resident policy analyses. Past this the cache stops
/// admitting new entries (hits still serve, misses still compute) — the
/// same stop-admitting idiom as the ESA vector cache — so a week-long
/// daemon fed an unbounded stream of distinct policies holds at most
/// this many texts and parsed analyses. 32k entries ≈ hundreds of MB
/// worst case; batch runs over the paper corpus use a few hundred.
pub const POLICY_CACHE_CAP: usize = 32_768;

/// Thread-safe memo of parsed policy analyses, shared by all workers of
/// a batch run.
#[derive(Debug)]
pub struct ArtifactCache {
    policies: RwLock<HashMap<Box<str>, Arc<PolicyAnalysis>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
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
            policies: RwLock::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap: POLICY_CACHE_CAP,
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

    /// An empty cache with a custom entry cap (tests; `0` means
    /// admit nothing).
    pub fn with_cap(cap: usize) -> Self {
        ArtifactCache { cap, ..ArtifactCache::default() }
    }

    /// The entry cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Attaches a persistent tier consulted on memory misses and fed by
    /// fresh computes. `analyzer_fingerprint` is folded into every disk
    /// key so a configuration change invalidates stored parses. The
    /// first attach wins; later calls are ignored.
    pub fn attach_disk_tier(&self, tier: Arc<dyn ArtifactTier>, analyzer_fingerprint: u64) {
        let _ = self.disk.set((tier, analyzer_fingerprint));
    }

    /// Whether a persistent tier is attached.
    pub fn has_disk_tier(&self) -> bool {
        self.disk.get().is_some()
    }

    /// Returns the analysis of `html`, resolving through the memory
    /// tier, then the disk tier (when attached), then computing with
    /// `analyzer` on first sight of the text.
    pub fn policy(&self, analyzer: &PolicyAnalyzer, html: &str) -> Arc<PolicyAnalysis> {
        let _span = ppchecker_obs::span!("engine.cache_probe");
        if let Some(hit) = self.policies.read().expect("cache lock").get(html) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let disk_key = self
            .disk
            .get()
            .map(|(_, salt)| combine_hashes(&[content_hash(html.as_bytes()), *salt]));
        if let Some(stored) = self.load_from_disk(disk_key) {
            return self.admit(html, stored, true).0;
        }
        // Analyze outside the write lock; a concurrent duplicate costs
        // one redundant parse but never blocks other texts. First insert
        // wins so every consumer shares one allocation, and only the
        // winner counts a miss — the loser's lookup resolves from the
        // cache, so `misses` always equals the number of distinct texts.
        let fresh = Arc::new(analyzer.analyze_html(html));
        let (out, won) = self.admit(html, fresh, false);
        if won {
            if let (Some((tier, _)), Some(disk_key)) = (self.disk.get(), disk_key) {
                tier.save(RecordKind::Policy, disk_key, &encode_analysis(&out));
            }
        }
        out
    }

    /// Probes the disk tier. Any defect — no record, corruption, a wire
    /// decode failure — reads as `None`, so the caller recomputes and
    /// overwrites. Corruption can cost time, never correctness.
    fn load_from_disk(&self, disk_key: Option<u64>) -> Option<Arc<PolicyAnalysis>> {
        let (tier, _) = self.disk.get()?;
        let bytes = tier.load(RecordKind::Policy, disk_key?)?;
        decode_analysis(&bytes).ok().map(Arc::new)
    }

    /// Inserts under the cap-bounded first-insert-wins discipline and
    /// counts the lookup: a replay (memory race loser or disk-tier hit)
    /// is a hit, a fresh compute a miss — so `misses` always equals the
    /// number of analyses computed by this process. Returns the shared
    /// analysis and whether this call won the race (the winner, and only
    /// the winner, persists a freshly computed analysis to disk).
    fn admit(
        &self,
        html: &str,
        candidate: Arc<PolicyAnalysis>,
        from_disk: bool,
    ) -> (Arc<PolicyAnalysis>, bool) {
        let mut map = self.policies.write().expect("cache lock");
        if let Some(hit) = map.get(html) {
            let out = Arc::clone(hit);
            drop(map);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (out, false);
        }
        // Cap-bounded admission (the ESA vector-cache idiom): at capacity
        // the analysis is still returned, just not retained, so a
        // resident process can't accrete unbounded parsed analyses.
        if map.len() < self.cap {
            map.insert(html.into(), Arc::clone(&candidate));
        }
        drop(map);
        let counter = if from_disk { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        (candidate, true)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.policies.read().expect("cache lock").len(),
        }
    }

    /// The shared library taint-summary cache (to clone into a checker).
    pub fn taint_summaries(&self) -> &Arc<TaintSummaryCache> {
        &self.taint_summaries
    }

    /// Snapshot of the taint-summary cache counters.
    pub fn taint_summary_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.taint_summaries.hits(),
            misses: self.taint_summaries.misses(),
            entries: self.taint_summaries.entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_nlp::Interner;

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
    fn cap_stops_admission_but_not_results() {
        let cache = ArtifactCache::with_cap(1);
        let analyzer = PolicyAnalyzer::new();
        let first = cache.policy(&analyzer, "<p>we collect your location.</p>");
        let second = cache.policy(&analyzer, "<p>we collect your contacts.</p>");
        assert!(!first.sentences.is_empty());
        assert!(!second.sentences.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "second text not retained past the cap");
        assert_eq!(stats.misses, 2);
        // The capped-out text recomputes on every lookup; the retained
        // one keeps hitting.
        let _ = cache.policy(&analyzer, "<p>we collect your contacts.</p>");
        let _ = cache.policy(&analyzer, "<p>we collect your location.</p>");
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
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

    /// Satellite regression: `with_cap` under many concurrent writers at
    /// tiny caps. Every lookup must count exactly one hit or one miss,
    /// nothing may panic, and the resident map must respect the cap.
    #[test]
    fn with_cap_eviction_is_safe_under_concurrent_writers() {
        for cap in 1..=4usize {
            let cache = ArtifactCache::with_cap(cap);
            let analyzer = PolicyAnalyzer::new();
            let threads = 8;
            let per_thread = 24u64;
            let texts: Vec<String> = (0..6)
                .map(|i| format!("<p>we may collect your artifact number {i}.</p>"))
                .collect();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let cache = &cache;
                    let analyzer = &analyzer;
                    let texts = &texts;
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            let html = &texts[(t + i as usize) % texts.len()];
                            let analysis = cache.policy(analyzer, html);
                            assert!(!analysis.sentences.is_empty());
                        }
                    });
                }
            });
            let stats = cache.stats();
            let lookups = threads as u64 * per_thread;
            assert_eq!(
                stats.hits + stats.misses,
                lookups,
                "cap={cap}: every lookup counts exactly once"
            );
            assert!(stats.entries <= cap, "cap={cap}: resident entries within cap");
            // Six distinct texts: at least that many computes (capped-out
            // texts recompute), and at least one per distinct text.
            assert!(stats.misses >= texts.len() as u64, "cap={cap}");
        }
    }

    /// An in-memory tier for exercising the two-tier path without disk.
    #[derive(Debug, Default)]
    struct MemTier {
        records: RwLock<HashMap<(ppchecker_store::RecordKind, u64), Vec<u8>>>,
        saves: AtomicU64,
    }

    impl ArtifactTier for MemTier {
        fn load(&self, kind: ppchecker_store::RecordKind, key: u64) -> Option<Vec<u8>> {
            self.records.read().unwrap().get(&(kind, key)).cloned()
        }

        fn save(&self, kind: ppchecker_store::RecordKind, key: u64, payload: &[u8]) {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.records.write().unwrap().insert((kind, key), payload.to_vec());
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
