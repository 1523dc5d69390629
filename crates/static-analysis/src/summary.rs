//! Cross-app library taint-summary cache.
//!
//! Ad/social/developer SDKs repeat byte-for-byte across a corpus (the
//! paper finds 57.9% of apps embedding at least one of 81 known libs), so
//! the taint kernel's work on a lib's methods repeats with them. This
//! module caches, per *library content hash*, the first-iteration taint
//! contribution of each lib method — `F_m(∅)`: what the method adds to
//! return/field/param/ICC taint and to the leak set when its own inputs
//! carry no taint. A later app embedding the identical lib classes seeds
//! its fixpoint from the summary and skips the initial interpretation of
//! every summarized method; the dirty-bit worklist still reprocesses any
//! lib method whose inputs grow beyond ∅, so leak results are unchanged
//! (see DESIGN.md §11 for the soundness argument).
//!
//! Keying is content-addressed: the FNV-1a hash of the lib's class set
//! ([`ppchecker_apk::stable_hash_classes`]) over sorted class names, so a
//! recompiled or trimmed copy of a lib never matches a stale summary.
//!
//! At most [`LIB_SUMMARY_CAP`] summaries stay resident: `serve` takes dex
//! bodies from the network, and every distinct class set under a known
//! lib prefix is a new key. A lib the cap keeps out is interpreted
//! normally in every app that embeds it.

use crate::sensitive::{self, SensitiveApi};
use crate::sinks::{self, SinkApi};
use ppchecker_apk::PrivateInfo;
use ppchecker_obs::{CacheStats, Fill, Memo};
use ppchecker_store::{ArtifactTier, RecordKind, WireError, WireReader, WireWriter};
use std::sync::{Arc, OnceLock};

/// Upper bound on resident lib summaries: 50× the 81 distinct lib
/// contents of the paper corpus.
pub const LIB_SUMMARY_CAP: usize = 4_096;

/// One taint label in app-independent form. Table-sourced labels are
/// kept as pointers into the static sensitive-API table — two apps
/// interning the same API produce the same pointer, so replaying a
/// summary translates labels by pointer equality instead of hashing or
/// comparing dotted name strings. URI labels carry the witness string.
#[derive(Debug, Clone)]
pub(crate) enum NamedLabel {
    Api(&'static SensitiveApi),
    Uri { info: PrivateInfo, src: String },
}

/// `F_m(∅)` for one library method; contributions that reference app
/// code (fields, params, channels) stay name-keyed, everything bound to
/// a static table is a pointer.
#[derive(Debug, Clone)]
pub(crate) struct MethodSummary {
    /// Declaring class of the summarized method.
    pub(crate) class: String,
    /// Method name.
    pub(crate) method: String,
    /// Labels the method adds to its own return taint.
    pub(crate) ret: Vec<NamedLabel>,
    /// `(class, field)` → labels written by `FieldPut`.
    pub(crate) fields: Vec<(String, String, Vec<NamedLabel>)>,
    /// `(callee class, callee method)` → labels pushed into parameters
    /// of lib-internal calls.
    pub(crate) params: Vec<(String, String, Vec<NamedLabel>)>,
    /// Intent target class → labels put into the ICC channel.
    pub(crate) channels: Vec<(String, Vec<NamedLabel>)>,
    /// Leaks the method produces on its own (source and sink both local).
    pub(crate) leaks: Vec<SummaryLeak>,
}

/// A leak contribution: static sink-table pointer plus the declaring
/// `(class, method)` names of the call site.
#[derive(Debug, Clone)]
pub(crate) struct SummaryLeak {
    pub(crate) label: NamedLabel,
    pub(crate) api: &'static SinkApi,
    pub(crate) at_class: String,
    pub(crate) at_method: String,
}

/// Per-library bundle of method summaries.
///
/// Only methods whose first-iteration behavior is app-independent are
/// included (lib-internal calls resolved and in scope, everything else
/// framework); the kernel processes omitted methods normally.
#[derive(Debug, Clone, Default)]
pub struct LibSummary {
    pub(crate) methods: Vec<MethodSummary>,
    /// Union of the `(class, method)` pairs the summarized methods
    /// invoke that resolved neither in the lib class set nor (at summary
    /// time) in the embedding app. The summaries treated them as
    /// framework taint-through calls, so the bundle only applies to an
    /// app where they still resolve to no app method — checked once per
    /// app instead of once per method.
    pub(crate) external_calls: Vec<(String, String)>,
}

impl LibSummary {
    /// Number of summarized methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }
}

/// Thread-safe, content-addressed store of [`LibSummary`] values, shared
/// across all apps of a batch run (the cross-app half of the taint
/// kernel), optionally backed by a persistent disk tier so summaries
/// survive across runs.
///
/// A [`Memo`] keyed by lib content hash: each resident lib is summarized
/// once, `misses` counts the summaries computed by this process, and a
/// summary replayed from the disk tier counts as a hit, since the kernel
/// skipped the work either way. The counts are therefore the same for
/// any worker interleaving.
#[derive(Debug)]
pub struct TaintSummaryCache {
    memo: Memo<u64, Arc<LibSummary>>,
    disk: OnceLock<Arc<dyn ArtifactTier>>,
}

impl Default for TaintSummaryCache {
    fn default() -> Self {
        TaintSummaryCache { memo: Memo::new(LIB_SUMMARY_CAP), disk: OnceLock::new() }
    }
}

impl TaintSummaryCache {
    /// An empty cache.
    pub fn new() -> Self {
        TaintSummaryCache::default()
    }

    /// Attaches a persistent tier consulted on memory misses and written
    /// on fresh computes. First attachment wins; later calls are ignored
    /// (the cache is shared behind `Arc`, so every holder sees the tier).
    pub fn attach_disk_tier(&self, tier: Arc<dyn ArtifactTier>) {
        let _ = self.disk.set(tier);
    }

    /// The summary of the lib under `key` for the kernel to replay, or
    /// `None` when this call computed it with `compute` — the app that
    /// computes a summary interprets the lib normally. A resident summary
    /// or a decodable disk record is replayed; a fresh compute is
    /// persisted to the disk tier. Any disk defect — missing record,
    /// corruption, an API name the current tables no longer carry —
    /// reads as absent and the summary is recomputed.
    pub(crate) fn replay_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> LibSummary,
    ) -> Option<Arc<LibSummary>> {
        let mut computed = false;
        let summary = self.memo.get_or_fill(&key, || {
            let stored = self.disk.get().and_then(|tier| tier.load(RecordKind::LibSummary, key));
            if let Some(summary) = stored.and_then(|bytes| decode_lib_summary(&bytes).ok()) {
                return Fill::Replayed(Arc::new(summary));
            }
            computed = true;
            let summary = compute();
            if let Some(tier) = self.disk.get() {
                tier.save(RecordKind::LibSummary, key, &encode_lib_summary(&summary));
            }
            Fill::Computed(Arc::new(summary))
        });
        (!computed).then_some(summary)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Lookups served from the cache or the disk tier.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Summaries computed by this process.
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Summaries resident.
    pub fn entries(&self) -> usize {
        self.stats().entries
    }
}

// ---- wire codec -------------------------------------------------------
//
// Summaries hold `&'static` pointers into the sensitive-API and sink
// tables; the encoding carries the `(class, method)` names and decoding
// re-resolves them through the table lookups. A name the current tables
// no longer carry makes the whole decode fail — the record was written
// by an incompatible build, so the kernel recomputes.

fn write_label(w: &mut WireWriter, label: &NamedLabel) {
    match label {
        NamedLabel::Api(api) => {
            w.u8(0);
            w.str(api.class);
            w.str(api.method);
        }
        NamedLabel::Uri { info, src } => {
            w.u8(1);
            w.str(info.canonical_phrase());
            w.str(src);
        }
    }
}

fn read_label(r: &mut WireReader<'_>) -> Result<NamedLabel, WireError> {
    match r.u8()? {
        0 => {
            let class = r.str()?;
            let method = r.str()?;
            let api = sensitive::lookup(class, method)
                .ok_or_else(|| WireError(format!("unknown sensitive api {class}.{method}")))?;
            Ok(NamedLabel::Api(api))
        }
        1 => {
            let name = r.str()?;
            let info = *PrivateInfo::ALL
                .iter()
                .find(|i| i.canonical_phrase() == name)
                .ok_or_else(|| WireError(format!("unknown private info '{name}'")))?;
            Ok(NamedLabel::Uri { info, src: r.str()?.to_string() })
        }
        other => Err(WireError(format!("bad label tag {other}"))),
    }
}

fn write_labels(w: &mut WireWriter, labels: &[NamedLabel]) {
    w.seq(labels.len());
    for l in labels {
        write_label(w, l);
    }
}

fn read_labels(r: &mut WireReader<'_>) -> Result<Vec<NamedLabel>, WireError> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_label(r)?);
    }
    Ok(out)
}

fn write_named_group(w: &mut WireWriter, group: &[(String, String, Vec<NamedLabel>)]) {
    w.seq(group.len());
    for (a, b, labels) in group {
        w.str(a);
        w.str(b);
        write_labels(w, labels);
    }
}

fn read_named_group(
    r: &mut WireReader<'_>,
) -> Result<Vec<(String, String, Vec<NamedLabel>)>, WireError> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.str()?.to_string(), r.str()?.to_string(), read_labels(r)?));
    }
    Ok(out)
}

/// Encodes a [`LibSummary`] for the artifact store.
pub fn encode_lib_summary(s: &LibSummary) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.seq(s.methods.len());
    for m in &s.methods {
        w.str(&m.class);
        w.str(&m.method);
        write_labels(&mut w, &m.ret);
        write_named_group(&mut w, &m.fields);
        write_named_group(&mut w, &m.params);
        w.seq(m.channels.len());
        for (target, labels) in &m.channels {
            w.str(target);
            write_labels(&mut w, labels);
        }
        w.seq(m.leaks.len());
        for leak in &m.leaks {
            write_label(&mut w, &leak.label);
            w.str(leak.api.class);
            w.str(leak.api.method);
            w.str(&leak.at_class);
            w.str(&leak.at_method);
        }
    }
    w.seq(s.external_calls.len());
    for (class, method) in &s.external_calls {
        w.str(class);
        w.str(method);
    }
    w.into_bytes()
}

/// Decodes a stored [`LibSummary`], re-resolving every table pointer.
///
/// # Errors
///
/// Returns [`WireError`] on any defect (including API names the current
/// tables no longer carry); the cache treats that as a miss.
pub fn decode_lib_summary(bytes: &[u8]) -> Result<LibSummary, WireError> {
    let mut r = WireReader::new(bytes);
    let n_methods = r.seq()?;
    let mut methods = Vec::with_capacity(n_methods);
    for _ in 0..n_methods {
        let class = r.str()?.to_string();
        let method = r.str()?.to_string();
        let ret = read_labels(&mut r)?;
        let fields = read_named_group(&mut r)?;
        let params = read_named_group(&mut r)?;
        let n_chan = r.seq()?;
        let mut channels = Vec::with_capacity(n_chan);
        for _ in 0..n_chan {
            channels.push((r.str()?.to_string(), read_labels(&mut r)?));
        }
        let n_leaks = r.seq()?;
        let mut leaks = Vec::with_capacity(n_leaks);
        for _ in 0..n_leaks {
            let label = read_label(&mut r)?;
            let sink_class = r.str()?;
            let sink_method = r.str()?;
            let api = sinks::lookup(sink_class, sink_method)
                .ok_or_else(|| WireError(format!("unknown sink {sink_class}.{sink_method}")))?;
            leaks.push(SummaryLeak {
                label,
                api,
                at_class: r.str()?.to_string(),
                at_method: r.str()?.to_string(),
            });
        }
        methods.push(MethodSummary { class, method, ret, fields, params, channels, leaks });
    }
    let n_ext = r.seq()?;
    let mut external_calls = Vec::with_capacity(n_ext);
    for _ in 0..n_ext {
        external_calls.push((r.str()?.to_string(), r.str()?.to_string()));
    }
    if !r.is_exhausted() {
        return Err(WireError("trailing bytes after summary".into()));
    }
    Ok(LibSummary { methods, external_calls })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_computing_lookup_gets_none_and_later_lookups_replay() {
        let cache = TaintSummaryCache::new();
        assert!(cache.replay_or_compute(42, LibSummary::default).is_none());
        let first = cache.replay_or_compute(42, || unreachable!("resident summary recomputed"));
        let second = cache.replay_or_compute(42, LibSummary::default);
        assert!(Arc::ptr_eq(&first.unwrap(), &second.unwrap()), "replays share one allocation");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    fn sample_summary() -> LibSummary {
        let loc = sensitive::lookup("android.location.Location", "getLatitude").unwrap();
        let dev = sensitive::lookup("android.telephony.TelephonyManager", "getDeviceId").unwrap();
        let log = sinks::lookup("android.util.Log", "d").unwrap();
        LibSummary {
            methods: vec![MethodSummary {
                class: "com.ads.Sdk".into(),
                method: "init".into(),
                ret: vec![NamedLabel::Api(loc)],
                fields: vec![(
                    "com.ads.Sdk".into(),
                    "cached".into(),
                    vec![NamedLabel::Uri {
                        info: PrivateInfo::Contact,
                        src: "content://contacts".into(),
                    }],
                )],
                params: vec![("com.ads.Net".into(), "send".into(), vec![NamedLabel::Api(dev)])],
                channels: vec![("com.ads.Service".into(), vec![NamedLabel::Api(loc)])],
                leaks: vec![SummaryLeak {
                    label: NamedLabel::Api(dev),
                    api: log,
                    at_class: "com.ads.Sdk".into(),
                    at_method: "init".into(),
                }],
            }],
            external_calls: vec![("com.app.Main".into(), "callback".into())],
        }
    }

    #[test]
    fn lib_summary_round_trips() {
        let original = sample_summary();
        let decoded = decode_lib_summary(&encode_lib_summary(&original)).unwrap();
        assert_eq!(decoded.methods.len(), 1);
        let (d, o) = (&decoded.methods[0], &original.methods[0]);
        assert_eq!(d.class, o.class);
        assert_eq!(d.method, o.method);
        // Table pointers re-resolve to the same entries.
        match (&d.ret[0], &o.ret[0]) {
            (NamedLabel::Api(a), NamedLabel::Api(b)) => assert!(std::ptr::eq(*a, *b)),
            other => panic!("label mismatch: {other:?}"),
        }
        match &d.fields[0].2[0] {
            NamedLabel::Uri { info, src } => {
                assert_eq!(*info, PrivateInfo::Contact);
                assert_eq!(src, "content://contacts");
            }
            other => panic!("expected uri label, got {other:?}"),
        }
        assert!(std::ptr::eq(d.leaks[0].api, o.leaks[0].api));
        assert_eq!(decoded.external_calls, original.external_calls);
    }

    #[test]
    fn unknown_api_name_fails_decode() {
        let mut w = WireWriter::new();
        w.seq(1);
        w.str("com.ads.Sdk");
        w.str("init");
        // ret: one label pointing at an API no table carries
        w.seq(1);
        w.u8(0);
        w.str("android.gone.Api");
        w.str("vanished");
        let bytes = w.into_bytes();
        assert!(decode_lib_summary(&bytes).is_err());
    }

    #[test]
    fn truncated_summary_fails_decode() {
        let bytes = encode_lib_summary(&sample_summary());
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_lib_summary(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn disk_tier_persists_and_promotes() {
        #[derive(Debug, Default)]
        struct MemTier(std::sync::Mutex<std::collections::HashMap<u64, Vec<u8>>>);
        impl ArtifactTier for MemTier {
            fn load(&self, _kind: RecordKind, key: u64) -> Option<Vec<u8>> {
                self.0.lock().unwrap().get(&key).cloned()
            }
            fn save(&self, _kind: RecordKind, key: u64, payload: &[u8]) {
                self.0.lock().unwrap().insert(key, payload.to_vec());
            }
        }

        let tier: Arc<MemTier> = Arc::new(MemTier::default());
        let warm = TaintSummaryCache::new();
        warm.attach_disk_tier(Arc::clone(&tier) as Arc<dyn ArtifactTier>);
        assert!(warm.replay_or_compute(99, sample_summary).is_none());
        assert!(tier.0.lock().unwrap().contains_key(&99), "a fresh compute must persist");

        // A fresh cache over the same tier warm-starts: the probe is a
        // hit served from disk, and the summary is promoted into memory.
        let fresh = TaintSummaryCache::new();
        fresh.attach_disk_tier(tier as Arc<dyn ArtifactTier>);
        let replayed = fresh
            .replay_or_compute(99, || unreachable!("the disk tier serves the summary"))
            .expect("a disk replay is replayed into the app");
        assert_eq!(replayed.method_count(), 1);
        assert_eq!(fresh.hits(), 1);
        assert_eq!(fresh.misses(), 0);
        assert_eq!(fresh.entries(), 1);
    }

    #[test]
    fn corrupt_disk_record_reads_as_miss() {
        #[derive(Debug)]
        struct GarbageTier;
        impl ArtifactTier for GarbageTier {
            fn load(&self, _kind: RecordKind, _key: u64) -> Option<Vec<u8>> {
                Some(vec![0xFF; 9])
            }
            fn save(&self, _kind: RecordKind, _key: u64, _payload: &[u8]) {}
        }
        let cache = TaintSummaryCache::new();
        cache.attach_disk_tier(Arc::new(GarbageTier));
        // Garbage bytes read as absent: the summary is recomputed, one
        // miss and no hit.
        assert!(cache.replay_or_compute(1, LibSummary::default).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
    }
}
