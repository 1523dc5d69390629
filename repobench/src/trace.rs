//! The traced run: the program's own `ppchecker-obs` spans, switched on
//! around one pass of the workload's real path, and the per-layer metrics
//! derived from the events they capture.
//!
//! The pipeline already opens a span at each layer boundary, so the traced
//! pass calls exactly what the untraced run calls, with trace capture on:
//!
//! ```text
//! engine.store_probe            Engine, ahead of app.check when a store is attached
//! app.check                     Engine, one per analyzed app (arg: package)
//! ├─ check.policy               PPChecker::check
//! │  └─ engine.cache_probe      the engine's policy cache
//! │     └─ policy.analyze       PolicyAnalyzer::analyze_html (cache misses only)
//! │        ├─ nlp.split         split_sentences
//! │        └─ per sentence, nlp::parse: nlp.tokenize, nlp.tag, nlp.depparse
//! ├─ check.description
//! │  └─ desc.analyze            analyze_description_with (own nlp and esa spans)
//! ├─ check.static               analyze_with_cache
//! │  ├─ static.apg_build        Apg::build (unpacks packed dex)
//! │  ├─ static.scan
//! │  └─ static.taint            taint::analyze_cached
//! └─ check.matching             the detectors
//! serve.request                 daemon connection thread, one per request
//! ```
//!
//! Events carry microsecond timestamps; a span's self time is its duration
//! minus the durations of its direct children on the same thread.

use crate::util::{percentiles, Outcome};
use ppchecker_core::AppInput;
use ppchecker_engine::{EngineSnapshot, MetricsSummary};
use ppchecker_obs::{Phase, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Runs `f` with obs trace capture on. Returns its result, the events
/// captured while it ran, and its wall time in seconds.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>, f64) {
    drop(ppchecker_obs::trace::drain());
    ppchecker_obs::set_tracing(true);
    let t = Instant::now();
    let result = f();
    let wall = t.elapsed().as_secs_f64();
    ppchecker_obs::set_tracing(false);
    (result, ppchecker_obs::trace::drain(), wall)
}

/// Totals of closed spans in µs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

impl Totals {
    fn add(&mut self, other: Totals) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.self_us += other.self_us;
    }
}

/// One closed `app.check` span.
struct Check {
    package: Box<str>,
    dur_us: u64,
    self_us: u64,
    /// Its policy was analyzed, not served from the policy cache.
    policy_analyzed: bool,
}

/// Span totals keyed by `(parent name, name)`, so the `nlp` calls of
/// `policy.analyze` are told apart from those of `desc.analyze`.
#[derive(Default)]
pub struct Layers {
    spans: BTreeMap<(&'static str, &'static str), Totals>,
    checks: Vec<Check>,
}

impl Layers {
    /// Replays each thread's begin/end events through a span stack. Spans
    /// still open when capture stopped (a daemon thread mid-request) are
    /// left out.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        struct Open {
            name: &'static str,
            start: u64,
            child_us: u64,
            arg: Option<Box<str>>,
            policy_analyzed: bool,
        }
        let mut layers = Layers::default();
        let mut stacks: HashMap<u64, Vec<Open>> = HashMap::new();
        for e in events {
            let stack = stacks.entry(e.tid).or_default();
            if e.phase == Phase::Begin {
                stack.push(Open {
                    name: e.name,
                    start: e.ts_us,
                    child_us: 0,
                    arg: e.arg.clone(),
                    policy_analyzed: false,
                });
                continue;
            }
            if stack.last().map(|o| o.name) != Some(e.name) {
                continue;
            }
            let open = stack.pop().expect("checked above");
            let dur_us = e.ts_us.saturating_sub(open.start);
            let self_us = dur_us.saturating_sub(open.child_us);
            let parent = stack.last_mut().map_or("", |p| {
                p.child_us += dur_us;
                p.name
            });
            layers.spans.entry((parent, open.name)).or_default().add(Totals {
                count: 1,
                total_us: dur_us,
                self_us,
            });
            match open.name {
                "policy.analyze" => {
                    if let Some(check) = stack.iter_mut().rev().find(|o| o.name == "app.check") {
                        check.policy_analyzed = true;
                    }
                }
                "app.check" => layers.checks.push(Check {
                    package: open.arg.unwrap_or_default(),
                    dur_us,
                    self_us,
                    policy_analyzed: open.policy_analyzed,
                }),
                _ => {}
            }
        }
        layers
    }

    /// Totals of `name` under any parent.
    pub fn total(&self, name: &str) -> Totals {
        let mut sum = Totals::default();
        for (_, t) in self.spans.iter().filter(|((_, n), _)| *n == name) {
            sum.add(*t);
        }
        sum
    }

    /// Totals of `name` directly under `parent`.
    pub fn under(&self, parent: &str, name: &str) -> Totals {
        self.spans.get(&(parent, name)).copied().unwrap_or_default()
    }

    /// Sets the per-layer time metrics. `apps` are the inputs of the traced
    /// pass: they give the text bytes of each analyzed policy, and the
    /// HTML-extraction and unpacking times, which have no span of their own
    /// (they sit inside `policy.analyze` and `static.apg_build`) and are
    /// timed here by calling `html::extract_text` and `Apk::dex` on the same
    /// inputs once more.
    pub fn record(&self, out: &mut Outcome, apps: &[AppInput]) {
        let per = |us: u64, n: u64| ratio(us as f64, n as f64);
        let by_package: HashMap<&str, &AppInput> =
            apps.iter().map(|a| (a.package.as_str(), a)).collect();
        let traced = |policy_only: bool| {
            self.checks
                .iter()
                .filter(move |c| !policy_only || c.policy_analyzed)
                .filter_map(|c| by_package.get(&*c.package).copied())
        };

        let policy = self.total("policy.analyze");
        let tokenize = self.under("policy.analyze", "nlp.tokenize");
        let tag = self.under("policy.analyze", "nlp.tag");
        let depparse = self.under("policy.analyze", "nlp.depparse");
        let parse_us = tokenize.total_us + tag.total_us + depparse.total_us;
        let (mut text_bytes, mut html_ns, mut html_n) = (0u64, 0u64, 0u64);
        for app in traced(true) {
            let t = Instant::now();
            let text = std::hint::black_box(ppchecker_policy::html::extract_text(&app.policy_html));
            html_ns += t.elapsed().as_nanos() as u64;
            html_n += 1;
            text_bytes += text.len() as u64;
        }
        out.set("nlp.tokenize_us", per(tokenize.total_us, tokenize.count));
        out.set("nlp.tag_us", per(tag.total_us, tag.count));
        out.set("nlp.parse_us", per(parse_us, depparse.count));
        out.set("nlp.parse_ns_per_byte", ratio(parse_us as f64 * 1e3, text_bytes as f64));
        out.set(
            "nlp.split_us",
            per(self.under("policy.analyze", "nlp.split").total_us, policy.count),
        );
        out.set("nlp.sentences", per(depparse.count, policy.count));
        out.set("policy.analyze_us", per(policy.self_us, policy.count));
        out.set("policy.html_us", ratio(html_ns as f64 / 1e3, html_n as f64));

        let desc = self.total("desc.analyze");
        out.set("desc.analyze_us", per(desc.total_us, desc.count));
        let stat = self.total("check.static");
        let apg = self.under("check.static", "static.apg_build").total_us;
        let taint = self.under("check.static", "static.taint").total_us;
        out.set("static.apg_build_us", per(apg, stat.count));
        out.set("static.taint_us", per(taint, stat.count));
        out.set("static.analyze_us", per(stat.total_us.saturating_sub(apg + taint), stat.count));
        let (mut unpack_ns, mut packed) = (0u64, 0u64);
        for app in traced(false).filter(|a| a.apk.is_packed()) {
            let t = Instant::now();
            drop(std::hint::black_box(app.apk.dex()));
            unpack_ns += t.elapsed().as_nanos() as u64;
            packed += 1;
        }
        out.set("apk.unpack_us", ratio(unpack_ns as f64 / 1e3, packed as f64));
        let matching = self.total("check.matching");
        out.set("core.match_us", per(matching.total_us, matching.count));

        let n = self.checks.len() as u64;
        let mut durs: Vec<f64> = self.checks.iter().map(|c| c.dur_us as f64).collect();
        let (_, _, p99) = percentiles(&mut durs);
        out.set("engine.check_us", per(self.checks.iter().map(|c| c.dur_us).sum(), n));
        out.set("engine.check_p99_us", p99);
        out.set("engine.unattributed_us", per(self.checks.iter().map(|c| c.self_us).sum(), n));
        let request = self.total("serve.request");
        out.set("serve.request_us", per(request.total_us, request.count));
        out.note(format!(
            "trace: {n} app.check spans ({} analyzed a policy, {packed} packed), \
             {} policy sentences parsed, {} serve.request spans",
            self.checks.iter().filter(|c| c.policy_analyzed).count(),
            depparse.count,
            request.count
        ));
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Work counters and cache ratios over one window, read from the engine's
/// public metrics (a run's `MetricsSummary` or two `EngineSnapshot`s).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub apps: u64,
    pub failed: u64,
    pub policy: (u64, u64),
    pub esa_vector: (u64, u64),
    pub esa_pair: (u64, u64),
    pub esa_pruned: u64,
    pub taint_summary: (u64, u64),
    /// Store hits, misses, writes, corrupt records (all record kinds).
    pub store: (u64, u64, u64, u64),
    pub findings: u64,
    pub http_429: u64,
    pub parallelism: f64,
}

impl Counters {
    pub fn from_summary(m: &MetricsSummary) -> Self {
        let store = m.store.unwrap_or_default();
        Counters {
            apps: m.apps as u64,
            failed: m.errors as u64,
            policy: (m.policy_cache.hits, m.policy_cache.misses),
            esa_vector: (m.esa_cache.hits, m.esa_cache.misses),
            esa_pair: (m.esa_pair_memo.hits, m.esa_pair_memo.misses),
            esa_pruned: m.esa_pruned,
            taint_summary: (m.taint_summary_cache.hits, m.taint_summary_cache.misses),
            store: store_totals(&store),
            findings: m.detector_findings.iter().sum(),
            http_429: 0,
            parallelism: m.effective_parallelism(),
        }
    }

    /// Adds another window's counts (parallelism is left alone).
    pub fn add(&mut self, other: &Counters) {
        let pair = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        self.apps += other.apps;
        self.failed += other.failed;
        pair(&mut self.policy, other.policy);
        pair(&mut self.esa_vector, other.esa_vector);
        pair(&mut self.esa_pair, other.esa_pair);
        self.esa_pruned += other.esa_pruned;
        pair(&mut self.taint_summary, other.taint_summary);
        self.store.0 += other.store.0;
        self.store.1 += other.store.1;
        self.store.2 += other.store.2;
        self.store.3 += other.store.3;
        self.findings += other.findings;
        self.http_429 += other.http_429;
    }

    /// The change between two cumulative engine snapshots.
    pub fn between(before: &EngineSnapshot, after: &EngineSnapshot) -> Self {
        let d = |a: &ppchecker_engine::CacheStats, b: &ppchecker_engine::CacheStats| {
            (a.hits - b.hits, a.misses - b.misses)
        };
        let store = match (&after.store, &before.store) {
            (Some(a), Some(b)) => store_totals(&a.delta_since(b)),
            _ => (0, 0, 0, 0),
        };
        Counters {
            policy: d(&after.policy_cache, &before.policy_cache),
            esa_vector: d(&after.esa_cache, &before.esa_cache),
            esa_pair: d(&after.esa_pair_memo, &before.esa_pair_memo),
            esa_pruned: after.esa_pruned - before.esa_pruned,
            taint_summary: d(&after.taint_summary_cache, &before.taint_summary_cache),
            store,
            ..Counters::default()
        }
    }

    /// Records the counters as notes and as `count.*` / ratio metrics.
    pub fn record(&self, out: &mut Outcome) {
        let hit_ratio = |(h, m): (u64, u64)| ratio(h as f64, (h + m) as f64);
        let apps = self.apps as f64;
        out.set("count.apps", apps);
        out.set("count.failed", self.failed as f64);
        out.set("count.policy_hits", self.policy.0 as f64);
        out.set("count.policy_misses", self.policy.1 as f64);
        out.set("count.esa_vector_hits", self.esa_vector.0 as f64);
        out.set("count.esa_vector_misses", self.esa_vector.1 as f64);
        out.set("count.esa_pair_hits", self.esa_pair.0 as f64);
        out.set("count.esa_pair_misses", self.esa_pair.1 as f64);
        out.set("count.esa_pruned", self.esa_pruned as f64);
        out.set("count.taint_summary_hits", self.taint_summary.0 as f64);
        out.set("count.taint_summary_misses", self.taint_summary.1 as f64);
        out.set("count.store_hits", self.store.0 as f64);
        out.set("count.store_misses", self.store.1 as f64);
        out.set("count.store_writes", self.store.2 as f64);
        out.set("count.store_corrupt", self.store.3 as f64);
        out.set("count.findings", self.findings as f64);
        out.set("count.http_429", self.http_429 as f64);
        out.set("engine.policy_hit_ratio", hit_ratio(self.policy));
        out.set("esa.vector_hit_ratio", hit_ratio(self.esa_vector));
        out.set("esa.pair_hit_ratio", hit_ratio(self.esa_pair));
        out.set("esa.pruned_per_app", ratio(self.esa_pruned as f64, apps));
        out.set("static.summary_hit_ratio", hit_ratio(self.taint_summary));
        out.set("core.findings_per_app", ratio(self.findings as f64, apps));
        out.set("engine.errors", self.failed as f64);
        out.set("engine.parallelism", self.parallelism);
        out.set("store.hit_ratio", hit_ratio((self.store.0, self.store.1)));
        out.set("store.writes", self.store.2 as f64);
        out.note(format!(
            "counters: apps {} failed {}; policy cache {}h/{}m; esa vectors {}h/{}m; \
             esa pairs {}h/{}m; esa pruned {}; taint summaries {}h/{}m; \
             store {}h/{}m/{}w/{}corrupt; findings {}; http 429 {}",
            self.apps,
            self.failed,
            self.policy.0,
            self.policy.1,
            self.esa_vector.0,
            self.esa_vector.1,
            self.esa_pair.0,
            self.esa_pair.1,
            self.esa_pruned,
            self.taint_summary.0,
            self.taint_summary.1,
            self.store.0,
            self.store.1,
            self.store.2,
            self.store.3,
            self.findings,
            self.http_429,
        ));
    }
}

fn store_totals(s: &ppchecker_engine::StoreSummary) -> (u64, u64, u64, u64) {
    let kinds = [s.reports, s.policies, s.lib_summaries];
    (
        kinds.iter().map(|k| k.hits).sum(),
        kinds.iter().map(|k| k.misses).sum(),
        kinds.iter().map(|k| k.writes).sum(),
        kinds.iter().map(|k| k.corrupt).sum(),
    )
}

/// Writes the captured events with the program's own exporter
/// (`ppchecker_obs::trace::to_chrome_json`, loadable in Perfetto) to
/// `.bench_out/<workload>-seed<seed>.trace.json` under the working
/// directory, and says where.
pub fn write_events(out: &mut Outcome, workload: &str, seed: u64, events: &[TraceEvent]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, ppchecker_obs::trace::to_chrome_json(events)));
    match written {
        Ok(()) => out.note(format!("trace: {} events written to {}", events.len(), path.display())),
        Err(e) => out.note(format!("trace: could not write {}: {e}", path.display())),
    }
}
