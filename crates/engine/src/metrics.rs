//! Per-run metrics: stage wall time, cache effectiveness, throughput.
//!
//! Counts in the summary are deterministic for a given corpus; durations
//! measure the actual run. The summary deliberately separates the two so
//! determinism tests can compare aggregate *results* while dashboards
//! still see real timings.

use ppchecker_core::{DetectorId, StageTimings};
use ppchecker_nlp::InternerStats;
use ppchecker_obs::{CacheStats, HistogramSnapshot};
use ppchecker_store::{RecordKind, Store, StoreStats};
use std::fmt;
use std::time::Duration;

/// Persistent-store counters over one window (a run, or since process
/// start), broken out per record kind, plus the number of apps whose
/// full report replayed from the store — the incremental-reanalysis
/// headline number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSummary {
    /// Parsed-policy records: always 0, since the engine persists no
    /// policies; kept for readers of the counters.
    pub policies: StoreStats,
    /// Retired and always zero; kept because `repobench` compiles against it.
    pub lib_summaries: StoreStats,
    /// Full per-app report records (keyed by app inputs × checker
    /// config).
    pub reports: StoreStats,
    /// Apps whose stored report replayed — the entire pipeline skipped.
    pub apps_skipped: u64,
}

impl StoreSummary {
    /// Cumulative counters of `store` since it was opened, with
    /// `apps_skipped` supplied by the engine (the store itself cannot
    /// tell a report probe from a report replay).
    pub fn cumulative(store: &Store, apps_skipped: u64) -> Self {
        StoreSummary {
            policies: store.stats(RecordKind::Policy),
            lib_summaries: StoreStats::default(),
            reports: store.stats(RecordKind::Report),
            apps_skipped,
        }
    }

    /// The change between two cumulative snapshots.
    pub fn delta_since(&self, earlier: &StoreSummary) -> StoreSummary {
        StoreSummary {
            policies: self.policies.delta_since(&earlier.policies),
            lib_summaries: StoreStats::default(),
            reports: self.reports.delta_since(&earlier.reports),
            apps_skipped: self.apps_skipped - earlier.apps_skipped,
        }
    }

    /// Total corrupt records encountered across all kinds.
    pub fn corrupt(&self) -> u64 {
        self.policies.corrupt + self.reports.corrupt
    }
}

impl fmt::Display for StoreSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store: {} apps skipped; reports {}h/{}m/{}w, policies {}h/{}m/{}w; {} corrupt",
            self.apps_skipped,
            self.reports.hits,
            self.reports.misses,
            self.reports.writes,
            self.policies.hits,
            self.policies.misses,
            self.policies.writes,
            self.corrupt(),
        )
    }
}

/// Distribution of one span's durations over a batch run, read off the
/// obs histogram delta (quantiles are log2-bucket upper bounds clamped
/// to the observed max — see `ppchecker-obs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// The span name (`check.policy`, `nlp.depparse`, …).
    pub name: &'static str,
    /// Spans recorded during the run.
    pub count: u64,
    /// Median duration.
    pub p50: Duration,
    /// 90th-percentile duration.
    pub p90: Duration,
    /// 99th-percentile duration.
    pub p99: Duration,
    /// Longest single span.
    pub max: Duration,
    /// Sum across all spans.
    pub total: Duration,
}

impl StageStats {
    /// Reads the quantities off a histogram delta.
    pub fn from_snapshot(name: &'static str, snap: &HistogramSnapshot) -> Self {
        StageStats {
            name,
            count: snap.count,
            p50: snap.p50(),
            p90: snap.p90(),
            p99: snap.p99(),
            max: snap.max_duration(),
            total: snap.total(),
        }
    }
}

/// Cumulative cache and occupancy counters since process start, as
/// returned by [`Engine::metrics_snapshot`](crate::Engine::metrics_snapshot).
/// Running totals rather than per-run deltas: a resident service scrapes
/// these on demand (e.g. for a `/metrics` endpoint) and differences two
/// scrapes itself when it wants a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Third-party lib policies registered on the engine's checker.
    pub lib_policies: usize,
    /// Policy cache totals: one lookup per policy sentence, one entry
    /// per resident sentence.
    pub policy_cache: CacheStats,
    /// ESA interpretation-vector cache totals (process-wide).
    pub esa_cache: CacheStats,
    /// ESA symbol-pair verdict-memo totals.
    pub esa_pair_memo: CacheStats,
    /// Threshold comparisons answered by the norm bound alone.
    pub esa_pruned: u64,
    /// Retired and always zero; kept because `repobench` compiles against it.
    pub taint_summary_cache: CacheStats,
    /// Global interner occupancy.
    pub interner: InternerStats,
    /// Persistent-store totals since the store was opened; `None` when
    /// the engine runs without a store.
    pub store: Option<StoreSummary>,
}

/// Everything a batch run reports about itself.
#[derive(Debug, Clone, Default)]
pub struct MetricsSummary {
    /// Worker count the run was scheduled with.
    pub jobs: usize,
    /// Apps submitted.
    pub apps: usize,
    /// Apps that produced an error record instead of a report.
    pub errors: usize,
    /// Third-party lib policies registered (each distinct text analyzed
    /// once, at engine construction).
    pub lib_policies: usize,
    /// End-to-end wall time of the run.
    pub wall_time: Duration,
    /// Sum of per-stage wall time across all workers. With `jobs > 1`
    /// this exceeds `wall_time`; the ratio is the effective parallelism.
    pub stage_totals: StageTimings,
    /// Per-span duration distributions (p50/p90/p99/max), read off the
    /// obs histogram deltas over the run and merged across worker
    /// shards. Empty when `ppchecker_obs` metrics were disabled.
    pub stage_quantiles: Vec<StageStats>,
    /// Policy cache counters: one lookup per sentence of an app policy
    /// (lib policies enter the cache during construction); `entries` is
    /// the sentences resident at the end of the run.
    pub policy_cache: CacheStats,
    /// ESA interpretation-vector cache counters, as a delta over the run
    /// (the interpreter is process-wide).
    pub esa_cache: CacheStats,
    /// ESA symbol-pair verdict-memo counters, as a delta over the run.
    pub esa_pair_memo: CacheStats,
    /// ESA threshold comparisons answered by the norm bound alone (no dot
    /// product), as a delta over the run.
    pub esa_pruned: u64,
    /// Retired and always zero; kept because `repobench` compiles against it.
    pub taint_summary_cache: CacheStats,
    /// Global interner occupancy at the end of the run (process-wide:
    /// includes the static pre-seed plus everything interned so far).
    pub interner: InternerStats,
    /// Persistent-store counters as a delta over the run — hit/miss/write
    /// per record kind plus apps whose report replayed wholesale. `None`
    /// when the engine runs without a store.
    pub store: Option<StoreSummary>,
    /// Finding totals per detector, indexed by [`DetectorId::rank`] in
    /// [`DetectorId::ALL`] order. Deterministic for a given corpus and
    /// registry.
    pub detector_findings: [u64; DetectorId::COUNT],
}

impl MetricsSummary {
    /// Apps per second of wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.apps as f64 / secs
        }
    }

    /// Effective parallelism: total stage time over wall time.
    pub fn effective_parallelism(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.stage_totals.total().as_secs_f64() / wall
        }
    }
}

impl fmt::Display for MetricsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch: {} apps ({} errors), jobs={}, wall {:?}, {:.1} apps/sec, parallelism {:.2}x",
            self.apps,
            self.errors,
            self.jobs,
            self.wall_time,
            self.throughput(),
            self.effective_parallelism(),
        )?;
        writeln!(
            f,
            "stages: policy {:?}, description {:?}, static {:?}, matching {:?}",
            self.stage_totals.policy,
            self.stage_totals.description,
            self.stage_totals.static_analysis,
            self.stage_totals.matching,
        )?;
        if self.detector_findings.iter().any(|&n| n > 0) {
            write!(f, "detectors:")?;
            for &id in DetectorId::ALL {
                let n = self.detector_findings[id.rank()];
                if n > 0 {
                    write!(f, " {id}={n}")?;
                }
            }
            writeln!(f)?;
        }
        if !self.stage_quantiles.is_empty() {
            writeln!(
                f,
                "{:<22} {:>8} {:>9} {:>9} {:>9} {:>9}",
                "span", "count", "p50", "p90", "p99", "max"
            )?;
            for s in &self.stage_quantiles {
                writeln!(
                    f,
                    "{:<22} {:>8} {:>9} {:>9} {:>9} {:>9}",
                    s.name,
                    s.count,
                    format!("{:.1?}", s.p50),
                    format!("{:.1?}", s.p90),
                    format!("{:.1?}", s.p99),
                    format!("{:.1?}", s.max),
                )?;
            }
        }
        writeln!(
            f,
            "policy cache: {} hits / {} misses ({:.1}% hit rate, {} entries); lib policies analyzed: {}",
            self.policy_cache.hits,
            self.policy_cache.misses,
            self.policy_cache.hit_rate() * 100.0,
            self.policy_cache.entries,
            self.lib_policies,
        )?;
        writeln!(
            f,
            "esa cache: {} hits / {} misses ({:.1}% hit rate)",
            self.esa_cache.hits,
            self.esa_cache.misses,
            self.esa_cache.hit_rate() * 100.0,
        )?;
        writeln!(
            f,
            "esa kernel: pair memo {} hits / {} misses ({:.1}% hit rate, {} entries); {} comparisons pruned",
            self.esa_pair_memo.hits,
            self.esa_pair_memo.misses,
            self.esa_pair_memo.hit_rate() * 100.0,
            self.esa_pair_memo.entries,
            self.esa_pruned,
        )?;
        if let Some(store) = &self.store {
            writeln!(
                f,
                "interner: {} symbols ({} preseeded, {} bytes)",
                self.interner.symbols, self.interner.preseeded, self.interner.bytes,
            )?;
            write!(f, "{store}")
        } else {
            write!(
                f,
                "interner: {} symbols ({} preseeded, {} bytes)",
                self.interner.symbols, self.interner.preseeded, self.interner.bytes,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_parallelism() {
        let m = MetricsSummary {
            jobs: 4,
            apps: 100,
            wall_time: Duration::from_secs(10),
            stage_totals: StageTimings {
                policy: Duration::from_secs(12),
                description: Duration::from_secs(8),
                static_analysis: Duration::from_secs(10),
                matching: Duration::from_secs(6),
            },
            ..MetricsSummary::default()
        };
        assert!((m.throughput() - 10.0).abs() < 1e-9);
        assert!((m.effective_parallelism() - 3.6).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_time_is_safe() {
        let m = MetricsSummary::default();
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.effective_parallelism(), 0.0);
    }

    #[test]
    fn display_mentions_cache_and_stages() {
        let m = MetricsSummary::default();
        let text = m.to_string();
        assert!(text.contains("policy cache"));
        assert!(text.contains("stages:"));
        assert!(text.contains("interner:"));
        assert!(text.contains("pair memo"));
        assert!(text.contains("pruned"));
        // No quantile table without recorded spans.
        assert!(!text.contains("p99"));
    }

    #[test]
    fn display_includes_store_line_only_when_attached() {
        let m = MetricsSummary {
            store: Some(StoreSummary {
                apps_skipped: 95,
                reports: StoreStats { hits: 95, misses: 5, writes: 5, corrupt: 0 },
                ..StoreSummary::default()
            }),
            ..MetricsSummary::default()
        };
        let text = m.to_string();
        assert!(text.contains("store: 95 apps skipped"));
        assert!(text.contains("reports 95h/5m/5w"));
        assert!(!MetricsSummary::default().to_string().contains("store:"));
    }

    #[test]
    fn store_summary_delta_subtracts_per_kind() {
        let earlier = StoreSummary {
            policies: StoreStats { hits: 1, misses: 2, writes: 2, corrupt: 0 },
            reports: StoreStats { hits: 0, misses: 4, writes: 4, corrupt: 1 },
            ..StoreSummary::default()
        };
        let later = StoreSummary {
            policies: StoreStats { hits: 5, misses: 2, writes: 2, corrupt: 0 },
            reports: StoreStats { hits: 4, misses: 4, writes: 4, corrupt: 1 },
            apps_skipped: 4,
            ..StoreSummary::default()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.policies.hits, 4);
        assert_eq!(delta.reports.hits, 4);
        assert_eq!(delta.apps_skipped, 4);
        assert_eq!(delta.corrupt(), 0);
    }

    #[test]
    fn display_renders_the_quantile_table_when_present() {
        let hist = ppchecker_obs::histogram("metrics.test.stage");
        hist.record(Duration::from_micros(100));
        hist.record(Duration::from_micros(900));
        let snap = hist.snapshot();
        let m = MetricsSummary {
            stage_quantiles: vec![StageStats::from_snapshot("metrics.test.stage", &snap)],
            ..MetricsSummary::default()
        };
        let text = m.to_string();
        assert!(text.contains("p50"));
        assert!(text.contains("p99"));
        assert!(text.contains("metrics.test.stage"));
        let row = m.stage_quantiles[0];
        assert_eq!(row.count, 2);
        assert!(row.p50 <= row.p99);
        assert!(row.p99 <= row.max.max(row.p99));
    }
}
