//! The batch engine: one run loop and one per-app body.
//!
//! ## One run path
//!
//! [`Engine::run_streamed`] is the only run loop; [`Engine::run`] is
//! `run_streamed` with a sink that collects the records into a vector.
//! The calling thread and `jobs − 1` scoped threads each pull the next
//! app from the stream, check it, and park its `(AppRecord,
//! StageTimings)`; whichever worker completes the next app in
//! submission order hands its record, and every record ready behind it,
//! to the sink. At most `3 × jobs` apps are in flight — backpressure: a
//! slow pool stops pulling instead of buffering the corpus.
//!
//! ## One per-app body
//!
//! [`Engine::check_one`] is the per-app body for batch and serve alike:
//! the store probe, the panic guard, the request with the shared sentence
//! cache, and the persist step. A batch worker calls it and maps the
//! result into an [`AppRecord`]; the serve daemon calls it per request.
//!
//! ## Shared vs per-worker state
//!
//! Shared (read-only behind `&Engine`): the [`PPChecker`] with all lib
//! policies registered, the [`ArtifactCache`], the process-wide ESA
//! interpreter. Per-worker (stack): the app being processed, its report
//! under construction, its stage timers.
//!
//! ## Fault isolation
//!
//! A panic (or a `CheckError`, e.g. an unrecoverable packed dex) yields
//! one [`AppOutcome::Error`] record and the worker moves on. A poisoned
//! app can never take down the run.
//!
//! ## Determinism
//!
//! Records are emitted in submission order, and everything the pipeline
//! computes is a pure function of the input, so `jobs=1` and `jobs=16`
//! runs emit byte-identical record sequences and aggregates.

use crate::cache::ArtifactCache;
use crate::metrics::{EngineSnapshot, MetricsSummary, StageStats, StoreSummary};
use crate::report::{AggregateSummary, AppOutcome, AppRecord, BatchReport};
use crate::scheduler;
use ppchecker_core::{
    decode_report, encode_report, AppInput, CheckOutcome, CheckRequest, Error, PPChecker, Report,
    StageTimings,
};
use ppchecker_esa::Interpreter;
use ppchecker_obs::CacheStats;
use ppchecker_policy::PolicyAnalysis;
use ppchecker_store::{combine_hashes, content_hash, RecordKind, Store};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Number of hardware threads available to the process.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The batch-analysis engine: a configured checker, an artifact cache,
/// and a scheduler.
#[derive(Debug)]
pub struct Engine {
    checker: PPChecker,
    cache: ArtifactCache,
    /// Workers, the calling thread included; `1` spawns no thread.
    jobs: usize,
    lib_policies: usize,
    /// Persistent report store, when attached via [`Engine::with_store`].
    store: Option<Arc<Store>>,
    /// Key salt for report records: the checker's configuration
    /// fingerprint, computed once at attach time.
    report_salt: u64,
    /// Apps whose stored report replayed wholesale (cumulative).
    skipped: AtomicU64,
}

impl Engine {
    /// Wraps an already-configured checker (lib policies registered).
    pub fn new(checker: PPChecker) -> Self {
        let lib_policies = checker.lib_policy_count();
        let cache = ArtifactCache::new(checker.analyzer().clone());
        Engine {
            checker,
            cache,
            jobs: available_jobs(),
            lib_policies,
            store: None,
            report_salt: 0,
            skipped: AtomicU64::new(0),
        }
    }

    /// Builds an engine from a bare checker plus `(lib id, policy html)`
    /// pairs. Each distinct lib policy text is analyzed once, through the
    /// sentence cache, so each of its sentences is parsed once per run —
    /// including when it recurs in some app's own policy. Libs that share
    /// a text (one vendor, several SDK ids) share its analysis.
    pub fn with_lib_policies<I>(mut checker: PPChecker, libs: I) -> Self
    where
        I: IntoIterator<Item = (String, String)>,
    {
        let cache = ArtifactCache::new(checker.analyzer().clone());
        let mut analyzed: HashMap<String, PolicyAnalysis> = HashMap::new();
        let mut count = 0;
        for (id, html) in libs {
            let analysis =
                analyzed.entry(html).or_insert_with_key(|html| cache.policy(html)).clone();
            checker.register_lib_policy_analysis(&id, analysis);
            count += 1;
        }
        Engine {
            checker,
            cache,
            jobs: available_jobs(),
            lib_policies: count,
            store: None,
            report_salt: 0,
            skipped: AtomicU64::new(0),
        }
    }

    /// Attaches a persistent artifact store, which persists reports only:
    /// one whole app report per key
    /// `policy × description × apk × checker configuration`. When that
    /// key hits, the app's entire pipeline is skipped.
    ///
    /// Nothing else is persisted: an app whose report misses re-analyzes
    /// its policy through the in-memory sentence cache and runs the taint
    /// kernel over its code.
    ///
    /// Attach the store *before* the first run (typically right after
    /// construction). The checker's configuration fingerprint is frozen
    /// into the report keys here, so reconfiguring the checker after
    /// attach would replay stale reports — the builder API makes that
    /// impossible to express, since `with_store` consumes `self`.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.report_salt = self.checker.config_fingerprint();
        self.store = Some(store);
        self
    }

    /// Sets the worker count (clamped to ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The shared checker.
    pub fn checker(&self) -> &PPChecker {
        &self.checker
    }

    /// The artifact cache (for inspection; stats also land in metrics).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The report-record key of one app: every input the report is a
    /// function of, combined — policy bytes, description bytes, the APK
    /// content hash, the declared Data-Safety labels, and the checker
    /// configuration fingerprint (which folds in the detector registry
    /// and boilerplate threshold, so a `--detectors` change re-keys). Any
    /// change to any of them lands on a different key, so stale replays
    /// are structurally impossible.
    fn report_key(&self, app: &AppInput) -> u64 {
        combine_hashes(&[
            content_hash(app.policy_html.as_bytes()),
            content_hash(app.description.as_bytes()),
            app.apk.content_hash(),
            app.labels_fingerprint(),
            self.report_salt,
        ])
    }

    /// Probes the store for `app`'s full report: `None` without a store,
    /// else the app's report key with the stored report, if any. The key
    /// comes back so that a miss persists under it without hashing the
    /// inputs again. Any defect — no record, corruption, a decode
    /// failure, a (vanishingly unlikely) key collision against a different
    /// package — reads as a miss and the pipeline runs in full.
    fn stored_report(&self, app: &AppInput) -> Option<(u64, Option<Report>)> {
        let store = self.store.as_ref()?;
        let _span = ppchecker_obs::span!("engine.store_probe");
        let key = self.report_key(app);
        let report = store
            .load(RecordKind::Report, key)
            .and_then(|bytes| decode_report(&bytes).ok())
            .filter(|report| report.package == app.package);
        if report.is_some() {
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
        Some((key, report))
    }

    /// Persists a freshly computed report under its report key.
    fn persist_report(&self, key: u64, report: &Report) {
        if let Some(store) = &self.store {
            store.save(RecordKind::Report, key, &encode_report(report));
        }
    }

    /// Cumulative store counters plus the replay count, when a store is
    /// attached.
    fn store_summary(&self) -> Option<StoreSummary> {
        self.store
            .as_ref()
            .map(|s| StoreSummary::cumulative(s, self.skipped.load(Ordering::Relaxed)))
    }

    /// Runs the pipeline over every app in the stream and returns records
    /// in submission order plus run metrics: [`Engine::run_streamed`]
    /// with a sink that collects the records.
    ///
    /// The stream is consumed incrementally under backpressure, but the
    /// returned records occupy `O(corpus)`; when the consumer can process
    /// records one at a time, call [`Engine::run_streamed`] directly and
    /// peak memory stays constant in the stream length.
    pub fn run<I>(&self, apps: I) -> BatchReport
    where
        I: IntoIterator<Item = AppInput>,
        I::IntoIter: Send,
    {
        let mut records = Vec::new();
        let summary = self.run_streamed(apps, |record| records.push(record));
        BatchReport { records, metrics: summary.metrics }
    }

    /// Runs the pipeline over the stream, handing each record to `sink`
    /// in submission order *as it completes*. Peak memory is
    /// `O(jobs)` apps and records — constant in the stream length —
    /// which is what lets a 100k–1M-app corpus run to completion in a
    /// fixed footprint.
    ///
    /// `jobs = 1` and `jobs = 16` hand `sink` byte-identical record
    /// sequences. The aggregate is folded incrementally via
    /// [`AggregateSummary::accumulate`], so the returned
    /// [`StreamSummary`] equals what `run(..).aggregate()` produces.
    ///
    /// Every worker pulls its next app from `apps` and may be the one to
    /// hand a record to `sink`, hence the `I::IntoIter: Send` and
    /// `S: Send` bounds — satisfied by any generator whose state is plain
    /// data (the corpus streamers, vectors, ranges) and any sink that
    /// owns or borrows plain data.
    pub fn run_streamed<I, S>(&self, apps: I, mut sink: S) -> StreamSummary
    where
        I: IntoIterator<Item = AppInput>,
        I::IntoIter: Send,
        S: FnMut(AppRecord) + Send,
    {
        let probe = MetricsProbe::begin(self);
        let jobs = self.jobs;
        let mut stage_totals = StageTimings::default();
        let mut aggregate = AggregateSummary::default();
        scheduler::run_scoped_streamed(
            apps,
            jobs,
            2 * jobs,
            |index, app| self.process_one(index, app),
            &mut |_, (record, timings): (AppRecord, StageTimings)| {
                stage_totals.accumulate(&timings);
                aggregate.accumulate(&record);
                sink(record);
            },
        );
        let mut metrics = probe.finish(self, jobs, aggregate.apps, aggregate.errors, stage_totals);
        metrics.detector_findings = aggregate.detector_findings;
        StreamSummary { aggregate, metrics }
    }

    /// Runs one app through the full pipeline via the engine's shared
    /// caches — the per-app body of both [`Engine::run_streamed`] and a
    /// resident service's per-request handler. Cache warmth accumulates
    /// across calls exactly as it does within one run.
    ///
    /// With a store attached, an unchanged app (same policy, description,
    /// APK, labels, and checker configuration as a previously persisted
    /// run) replays its stored report, skips the pipeline entirely, and
    /// reports all-zero [`StageTimings`]; a fresh report is persisted.
    ///
    /// # Errors
    ///
    /// Returns the pipeline's structured [`Error`]; worker panics are
    /// caught and surfaced as [`Error::worker`].
    pub fn check_one(&self, app: &AppInput) -> Result<CheckOutcome, Error> {
        let key = match self.stored_report(app) {
            Some((_, Some(report))) => {
                return Ok(CheckOutcome { report, timings: Some(StageTimings::default()) })
            }
            probe => probe.map(|(key, _)| key),
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _span = ppchecker_obs::span!("app.check", app.package);
            self.checker.check(
                CheckRequest::builder(app)
                    .policy_provider(|_, html| self.cache.policy(html))
                    .capture_timings()
                    .build(),
            )
        }));
        match outcome {
            Ok(result) => {
                if let (Some(key), Ok(checked)) = (key, &result) {
                    self.persist_report(key, &checked.report);
                }
                result
            }
            Err(panic) => Err(Error::worker(panic_message(&*panic))),
        }
    }

    /// Cumulative cache and occupancy counters since process start — the
    /// engine's metrics-snapshot API. Unlike the per-run deltas inside
    /// [`BatchReport`]'s [`MetricsSummary`], these are running totals, so
    /// a resident service can scrape them at any moment (and difference
    /// two scrapes itself if it wants a window).
    pub fn metrics_snapshot(&self) -> EngineSnapshot {
        let esa = Interpreter::shared();
        EngineSnapshot {
            lib_policies: self.lib_policies,
            policy_cache: self.cache.stats(),
            esa_cache: esa.vector_cache_stats(),
            esa_pair_memo: esa.pair_memo_stats(),
            esa_pruned: esa.pruned_comparisons(),
            taint_summary_cache: CacheStats::default(),
            interner: ppchecker_nlp::Interner::global().stats(),
            store: self.store_summary(),
        }
    }

    /// [`Engine::check_one`] as a batch step: the outcome becomes the
    /// app's record (an error record on failure or panic), tagged with
    /// its submission index, plus the stage timings it measured.
    fn process_one(&self, index: usize, app: AppInput) -> (AppRecord, StageTimings) {
        let result = self.check_one(&app);
        let package = app.package;
        match result {
            Ok(checked) => {
                let timings = checked.timings.unwrap_or_default();
                (AppRecord { index, package, outcome: AppOutcome::Report(checked.report) }, timings)
            }
            Err(error) => (
                AppRecord { index, package, outcome: AppOutcome::Error(error) },
                StageTimings::default(),
            ),
        }
    }
}

/// What a streamed run returns once the sink has seen every record: the
/// incrementally folded aggregate plus the usual run metrics. Equivalent
/// to a [`BatchReport`] minus the record vector.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Deterministic aggregate counts, folded record by record.
    pub aggregate: AggregateSummary,
    /// Run metrics (timings are measurements, counts are deterministic).
    pub metrics: MetricsSummary,
}

/// The before-side snapshots a [`MetricsSummary`] is a delta over, taken
/// when [`Engine::run_streamed`] starts and differenced when it finishes.
struct MetricsProbe {
    started: Instant,
    obs_before: Vec<(&'static str, ppchecker_obs::HistogramSnapshot)>,
    before: EngineSnapshot,
}

impl MetricsProbe {
    fn begin(engine: &Engine) -> Self {
        MetricsProbe {
            started: Instant::now(),
            obs_before: ppchecker_obs::snapshot(),
            before: engine.metrics_snapshot(),
        }
    }

    fn finish(
        self,
        engine: &Engine,
        jobs: usize,
        apps: usize,
        errors: usize,
        stage_totals: StageTimings,
    ) -> MetricsSummary {
        let (before, after) = (&self.before, engine.metrics_snapshot());
        MetricsSummary {
            jobs,
            apps,
            errors,
            lib_policies: engine.lib_policies,
            wall_time: self.started.elapsed(),
            stage_totals,
            stage_quantiles: stage_quantiles_since(&self.obs_before),
            policy_cache: after.policy_cache.delta_since(&before.policy_cache),
            esa_cache: after.esa_cache.delta_since(&before.esa_cache),
            esa_pair_memo: after.esa_pair_memo.delta_since(&before.esa_pair_memo),
            esa_pruned: after.esa_pruned - before.esa_pruned,
            taint_summary_cache: CacheStats::default(),
            detector_findings: [0; ppchecker_core::DetectorId::COUNT],
            interner: after.interner,
            store: after.store.map(|after| after.delta_since(&before.store.unwrap_or_default())),
        }
    }
}

/// The per-span distribution deltas since `before`, for every span that
/// recorded during the run. Histograms are striped across threads;
/// `snapshot()` merges the stripes, so a name's delta aggregates every
/// worker's stripe (stripe merging is commutative and associative — worker
/// assignment cannot change the result).
fn stage_quantiles_since(
    before: &[(&'static str, ppchecker_obs::HistogramSnapshot)],
) -> Vec<StageStats> {
    let earlier: std::collections::HashMap<&'static str, &ppchecker_obs::HistogramSnapshot> =
        before.iter().map(|(name, snap)| (*name, snap)).collect();
    let empty = ppchecker_obs::HistogramSnapshot::default();
    ppchecker_obs::snapshot()
        .into_iter()
        .filter_map(|(name, after)| {
            let delta = after.delta_since(earlier.get(name).copied().unwrap_or(&empty));
            (delta.count > 0).then(|| StageStats::from_snapshot(name, &delta))
        })
        .collect()
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest, Permission};

    fn app(i: usize, policy: &str) -> AppInput {
        let package = format!("com.engine.test{i}");
        let mut manifest = Manifest::new(&package);
        manifest.add_permission(Permission::AccessFineLocation);
        manifest.add_component(ComponentKind::Activity, &format!("{package}.Main"), true);
        let dex = Dex::builder()
            .class(&format!("{package}.Main"), |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                });
            })
            .build();
        AppInput {
            package,
            policy_html: format!("<html><body><p>{policy}</p></body></html>"),
            description: "A handy utility app.".to_string(),
            apk: Apk::new(manifest, dex),
            labels: Vec::new(),
        }
    }

    fn corrupt_app(i: usize) -> AppInput {
        let package = format!("com.engine.corrupt{i}");
        let manifest = Manifest::new(&package);
        AppInput {
            package,
            policy_html: "<p>we collect nothing.</p>".to_string(),
            description: "Broken app.".to_string(),
            apk: Apk::from_packed_blob(manifest, vec![0xDE, 0xAD, 0xBE, 0xEF]),
            labels: Vec::new(),
        }
    }

    fn apps(n: usize) -> Vec<AppInput> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    app(i, "we may collect your location.")
                } else {
                    app(i, "we collect your email address.")
                }
            })
            .collect()
    }

    /// A detector whose policy verdict panics while the thread's
    /// document buffers are in use: `check_one` reports the panic, and
    /// the next checks on the same thread match a fresh thread's.
    #[test]
    fn a_panicking_verdict_leaves_the_next_check_correct() {
        use ppchecker_core::{Detector, DetectorCtx, DetectorId, DetectorRegistry, Finding};
        use ppchecker_policy::PolicyAnalysis;
        struct PanicsInAVerdict;
        impl Detector for PanicsInAVerdict {
            fn id(&self) -> DetectorId {
                DetectorId::Boilerplate
            }
            fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding> {
                PolicyAnalysis::from_html(&ctx.app.policy_html, |_| panic!("a verdict failed"));
                Vec::new()
            }
        }
        let input = app(0, "we may collect your location. we will not share your contacts.");
        let report = |engine: &Engine, input: &AppInput| {
            format!("{:?}", engine.check_one(input).expect("the app checks").report)
        };
        let fresh = {
            let input = input.clone();
            std::thread::spawn(move || report(&Engine::new(PPChecker::new()), &input))
                .join()
                .expect("a fresh thread checks")
        };
        let mut registry = DetectorRegistry::paper();
        registry.register(Box::new(PanicsInAVerdict));
        let panicking = Engine::new(PPChecker::new().with_registry(registry));
        let error = panicking.check_one(&input).expect_err("the verdict panics");
        assert!(error.to_string().contains("a verdict failed"), "{error}");
        let engine = Engine::new(PPChecker::new());
        for _ in 0..2 {
            assert_eq!(report(&engine, &input), fresh);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = Engine::new(PPChecker::new()).with_jobs(1).run(apps(12));
        let parallel = Engine::new(PPChecker::new()).with_jobs(4).run(apps(12));
        assert_eq!(serial.records.len(), 12);
        assert_eq!(serial.aggregate(), parallel.aggregate());
        for (s, p) in serial.records.iter().zip(parallel.records.iter()) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.package, p.package);
            assert_eq!(
                format!("{:?}", s.outcome),
                format!("{:?}", p.outcome),
                "record {} diverged between jobs=1 and jobs=4",
                s.index
            );
        }
    }

    #[test]
    fn streamed_run_matches_materialized_run() {
        let engine = Engine::new(PPChecker::new()).with_jobs(4);
        let materialized = engine.run(apps(30));
        let mut streamed_records = Vec::new();
        let summary = engine.run_streamed(apps(30), |record| streamed_records.push(record));
        assert_eq!(summary.aggregate, materialized.aggregate());
        assert_eq!(streamed_records.len(), materialized.records.len());
        for (s, m) in streamed_records.iter().zip(materialized.records.iter()) {
            assert_eq!(s.index, m.index);
            assert_eq!(s.package, m.package);
            assert_eq!(format!("{:?}", s.outcome), format!("{:?}", m.outcome));
        }
        assert_eq!(summary.metrics.apps, 30);
    }

    #[test]
    fn streamed_run_is_jobs_invariant() {
        let mut serial = Vec::new();
        let serial_summary = Engine::new(PPChecker::new())
            .with_jobs(1)
            .run_streamed(apps(17), |r| serial.push(format!("{:?}", r.outcome)));
        let mut parallel = Vec::new();
        let parallel_summary = Engine::new(PPChecker::new())
            .with_jobs(4)
            .run_streamed(apps(17), |r| parallel.push(format!("{:?}", r.outcome)));
        assert_eq!(serial, parallel);
        assert_eq!(serial_summary.aggregate, parallel_summary.aggregate);
    }

    #[test]
    fn streamed_run_replays_from_the_store() {
        let (dir, store) = scratch_store("streamed");
        let engine = Engine::new(PPChecker::new()).with_store(Arc::clone(&store)).with_jobs(2);
        let cold = engine.run_streamed(apps(8), |_| {});
        assert_eq!(cold.metrics.store.as_ref().expect("store metrics").apps_skipped, 0);
        let warm = engine.run_streamed(apps(8), |_| {});
        assert_eq!(warm.metrics.store.as_ref().expect("store metrics").apps_skipped, 8);
        assert_eq!(cold.aggregate, warm.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_come_back_in_submission_order() {
        let batch = Engine::new(PPChecker::new()).with_jobs(3).run(apps(20));
        for (i, record) in batch.records.iter().enumerate() {
            assert_eq!(record.index, i);
        }
    }

    #[test]
    fn corrupt_app_yields_one_error_record() {
        let mut inputs = apps(6);
        inputs.insert(3, corrupt_app(99));
        let batch = Engine::new(PPChecker::new()).with_jobs(2).run(inputs);
        assert_eq!(batch.records.len(), 7);
        assert_eq!(batch.metrics.errors, 1);
        let error = batch.records[3].error().unwrap();
        assert_eq!(error.stage(), ppchecker_core::Stage::StaticAnalysis);
        assert!(error.to_string().contains("static analysis failed"));
        assert!(batch.records.iter().filter(|r| r.report().is_some()).count() == 6);
    }

    #[test]
    fn duplicate_policies_hit_the_cache() {
        let policies = [
            "we may collect your location. we value your privacy.",
            "we store your email. we value your privacy.",
        ];
        let inputs = || (0..10).map(|i| app(i, policies[i % 2])).collect::<Vec<_>>();
        let engine = Engine::new(PPChecker::new()).with_jobs(2);
        // 10 policies of 2 sentences each, 3 distinct sentences.
        let cold = engine.run(inputs()).metrics.policy_cache;
        assert_eq!((cold.misses, cold.hits, cold.entries), (3, 17, 3));
        // Repeated policies add only hits.
        let warm = engine.run(inputs()).metrics.policy_cache;
        assert_eq!((warm.misses, warm.hits, warm.entries), (0, 20, 3));
    }

    #[test]
    fn lib_policies_are_analyzed_once_through_the_cache() {
        let device_id = "<p>we may collect your device id.</p>".to_string();
        let libs = vec![
            ("unityads".to_string(), device_id.clone()),
            ("admob".to_string(), "<p>we may collect your location.</p>".to_string()),
            ("unityads.mediation".to_string(), device_id),
        ];
        let engine = Engine::with_lib_policies(PPChecker::new(), libs);
        assert_eq!(engine.checker().lib_policy_count(), 3);
        let before = engine.cache().stats();
        assert_eq!((before.misses, before.hits), (2, 0), "each distinct lib text analyzed once");
        let batch = engine.with_jobs(2).run(apps(8));
        // Lib registration happened before the run. The run's location
        // sentences are the admob policy's, so it pays only for the
        // email sentence.
        let run = batch.metrics.policy_cache;
        assert_eq!((run.misses, run.hits, run.entries), (1, 7, 3));
        assert_eq!(batch.metrics.lib_policies, 3);
    }

    fn scratch_store(name: &str) -> (std::path::PathBuf, Arc<Store>) {
        let dir =
            std::env::temp_dir().join(format!("ppengine-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("open store"));
        (dir, store)
    }

    #[test]
    fn warm_rerun_skips_every_unchanged_app() {
        let (dir, store) = scratch_store("warm");
        let cold =
            Engine::new(PPChecker::new()).with_store(Arc::clone(&store)).with_jobs(2).run(apps(10));
        let cold_store = cold.metrics.store.expect("store metrics present");
        assert_eq!(cold_store.apps_skipped, 0, "first run computes everything");
        assert_eq!(cold_store.reports.writes, 10);

        // A fresh engine (fresh memory tiers — a new process, in effect)
        // over the same store replays every report.
        let warm_store = Arc::new(Store::open(&dir).expect("reopen store"));
        let warm = Engine::new(PPChecker::new()).with_store(warm_store).with_jobs(2).run(apps(10));
        let warm_stats = warm.metrics.store.expect("store metrics present");
        assert_eq!(warm_stats.apps_skipped, 10, "all unchanged apps skipped");
        assert_eq!(warm_stats.reports.writes, 0, "nothing recomputed, nothing rewritten");
        assert_eq!(warm.metrics.stage_totals, StageTimings::default(), "no pipeline stage runs");

        // Byte-identical results either way.
        assert_eq!(cold.aggregate(), warm.aggregate());
        for (c, w) in cold.records.iter().zip(warm.records.iter()) {
            assert_eq!(format!("{:?}", c.outcome), format!("{:?}", w.outcome));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_changed_apps_recompute() {
        let (dir, store) = scratch_store("delta");
        let engine = Engine::new(PPChecker::new()).with_store(Arc::clone(&store)).with_jobs(2);
        let first = engine.run(apps(10));

        // Mutate one app's policy; everyone else is unchanged.
        let mut second_wave = apps(10);
        second_wave[3].policy_html =
            "<html><body><p>we no longer collect anything at all.</p></body></html>".into();
        let second = engine.run(second_wave);
        let stats = second.metrics.store.expect("store metrics present");
        assert_eq!(stats.apps_skipped, 9, "only the mutated app re-analyzed");
        assert_eq!(stats.reports.writes, 1);

        // Same ten packages; only the mutated app's record may move.
        assert_eq!(first.records.len(), 10);
        assert_eq!(second.records.len(), 10);
        for (a, b) in first.records.iter().zip(second.records.iter()) {
            assert_eq!(a.package, b.package);
            if a.index != 3 {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "unchanged app {} moved", a.package);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_invalidates_stored_reports() {
        let (dir, store) = scratch_store("config");
        let _ = Engine::new(PPChecker::new()).with_store(Arc::clone(&store)).run(apps(4));
        let reopened = Arc::new(Store::open(&dir).expect("reopen"));
        let strict = PPChecker::new().with_similarity_threshold(0.99);
        let rerun = Engine::new(strict).with_store(reopened).run(apps(4));
        let stats = rerun.metrics.store.expect("store metrics present");
        assert_eq!(stats.apps_skipped, 0, "different checker config, different keys");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_store_recomputes_cleanly() {
        let (dir, store) = scratch_store("corrupt");
        let cold = Engine::new(PPChecker::new()).with_store(Arc::clone(&store)).run(apps(6));

        // Truncate every report record on disk.
        let reports_dir = dir.join("objects").join("report");
        let mut truncated = 0;
        for shard in std::fs::read_dir(&reports_dir).expect("report shards").flatten() {
            for entry in std::fs::read_dir(shard.path()).expect("shard").flatten() {
                let bytes = std::fs::read(entry.path()).expect("record bytes");
                std::fs::write(entry.path(), &bytes[..bytes.len() / 2]).expect("truncate");
                truncated += 1;
            }
        }
        assert_eq!(truncated, 6);

        let reopened = Arc::new(Store::open(&dir).expect("reopen"));
        let recovered = Engine::new(PPChecker::new()).with_store(reopened).run(apps(6));
        let stats = recovered.metrics.store.expect("store metrics present");
        assert_eq!(stats.apps_skipped, 0, "corrupt records never replay");
        assert_eq!(stats.reports.corrupt, 6);
        assert_eq!(stats.reports.writes, 6, "recomputed reports overwrite the corruption");
        assert_eq!(cold.aggregate(), recovered.aggregate());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_one_replays_from_the_store() {
        let (dir, store) = scratch_store("checkone");
        let engine = Engine::new(PPChecker::new()).with_store(Arc::clone(&store));
        let input = app(0, "we may collect your location.");
        let first = engine.check_one(&input).expect("first check");
        let again = engine.check_one(&input).expect("replayed check");
        assert_eq!(format!("{:?}", first.report), format!("{:?}", again.report));
        let snapshot = engine.metrics_snapshot().store.expect("store metrics");
        assert_eq!(snapshot.apps_skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_and_check_one_agree_per_app() {
        let inputs = vec![app(0, "we may collect your location."), corrupt_app(1)];
        let batch = Engine::new(PPChecker::new()).with_jobs(2).run(inputs.clone());
        let single = Engine::new(PPChecker::new());

        // A normal app: the same report.
        let checked = single.check_one(&inputs[0]).expect("normal app checks");
        let report = format!("{:?}", checked.report);
        assert_eq!(format!("{:?}", batch.records[0].report().expect("batch report")), report);

        // The corrupt-dex app: the same error, stage and message.
        let error = single.check_one(&inputs[1]).expect_err("corrupt dex fails");
        let batch_error = batch.records[1].error().expect("batch error record");
        assert_eq!(error.stage(), batch_error.stage());
        assert_eq!(error.to_string(), batch_error.to_string());

        // A second pass with a store attached: both entry points replay.
        let (dir, store) = scratch_store("agree");
        let engine = Engine::new(PPChecker::new()).with_store(store).with_jobs(2);
        let _ = engine.run(inputs.clone());
        let warm = engine.run(inputs.clone());
        assert_eq!(warm.metrics.store.as_ref().expect("store metrics").apps_skipped, 1);
        assert_eq!(format!("{:?}", warm.records[0].report().expect("replayed report")), report);
        assert_eq!(warm.records[1].error().expect("error record").to_string(), error.to_string());
        let replayed = engine.check_one(&inputs[0]).expect("replayed check");
        assert_eq!(replayed.timings, Some(StageTimings::default()));
        assert_eq!(format!("{:?}", replayed.report), report);
        assert_eq!(engine.metrics_snapshot().store.expect("store metrics").apps_skipped, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_stream_is_fine() {
        let batch = Engine::new(PPChecker::new()).with_jobs(4).run(Vec::new());
        assert!(batch.records.is_empty());
        assert_eq!(batch.aggregate().apps, 0);
    }

    #[test]
    fn stage_totals_accumulate() {
        let batch = Engine::new(PPChecker::new()).with_jobs(1).run(apps(4));
        assert!(batch.metrics.stage_totals.total() > std::time::Duration::ZERO);
        assert!(batch.metrics.throughput() > 0.0);
    }
}
