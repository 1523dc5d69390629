//! `ppchecker-engine`: parallel batch-analysis runtime for PPChecker.
//!
//! The DSN 2016 study ran the pipeline over 1,197 Google Play apps and 81
//! third-party lib policies. This crate turns the single-app [`PPChecker`]
//! core into a corpus-scale runtime:
//!
//! * **One run path** — [`Engine::run_streamed`] fans an app stream
//!   across `jobs` workers, the calling thread among them, that pull
//!   their own apps and emit their own records in order within a bounded
//!   window, so a lazy corpus source is consumed under backpressure
//!   instead of being materialized; [`Engine::run`] is the same loop
//!   collecting its records. A panicking or failing app becomes one
//!   error record; the run survives.
//! * **Artifact caching** — [`ArtifactCache`] memoizes the analysis of
//!   each policy sentence keyed by its text, and the ESA interpreter
//!   memoizes interpretation vectors by phrase text, so a sentence shared
//!   by many policies (lib policies, template boilerplate) is analyzed
//!   exactly once per run.
//! * **Metrics** — [`MetricsSummary`] reports per-stage wall time, cache
//!   hit rates, throughput, and effective parallelism.
//! * **Deterministic aggregation** — records come back in submission
//!   order and [`BatchReport::aggregate`] is a pure fold over them, so
//!   `jobs=1` and `jobs=16` produce byte-identical aggregate reports.
//! * **Persistent warm starts** — [`Engine::with_store`] attaches a
//!   `ppchecker-store` artifact store: whole app reports replay from disk
//!   across process restarts, so a re-run over an updated corpus only
//!   re-analyzes apps that actually changed ([`diff_batches`] then
//!   reports the per-app verdict movement).
//! * **One per-app body** — [`Engine::check_one`] is what every batch
//!   worker runs per app and what the `ppchecker-serve` daemon runs per
//!   request: store probe, panic guard, cached policy analysis, persist.
//! * **One scheduler** — [`scheduler::run_scoped_streamed`], the ordered
//!   fan-out under [`Engine::run_streamed`], also runs the daemon's
//!   `/batch` requests and JSONL connections. The daemon admits work
//!   itself and scrapes [`Engine::metrics_snapshot`].
//!
//! ```
//! use ppchecker_core::PPChecker;
//! use ppchecker_engine::Engine;
//!
//! let engine = Engine::new(PPChecker::new()).with_jobs(4);
//! let batch = engine.run(Vec::new());
//! assert_eq!(batch.aggregate().apps, 0);
//! ```
//!
//! [`PPChecker`]: ppchecker_core::PPChecker

#![forbid(unsafe_code)]

pub mod cache;
pub mod delta;
pub mod engine;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod scheduler;

pub use cache::ArtifactCache;
pub use delta::{diff_batches, AppDelta, BatchDelta, DeltaKind, Verdict};
pub use engine::{available_jobs, Engine, StreamSummary};
pub use metrics::{EngineSnapshot, MetricsSummary, StoreSummary};
pub use pipeline::{sharded_stream, ShardedStream};
pub use ppchecker_obs::CacheStats;
pub use report::{AggregateSummary, AppOutcome, AppRecord, BatchReport};
