//! # ppchecker-corpus
//!
//! The synthetic evaluation corpus for the PPChecker reproduction.
//!
//! The paper evaluates on 1,197 Google Play apps plus the privacy policies
//! of 81 third-party libraries — data we cannot redistribute. This crate
//! generates an equivalent corpus: English privacy-policy HTML, Google
//! Play-style descriptions, and simulated APKs whose dex actually performs
//! the behaviours the policies do (or do not) describe, with problems
//! planted at indices calibrated so that running the *real* pipeline
//! reproduces every statistic of §V (Table III, Table IV, Fig. 12,
//! Fig. 13, and the 282/1,197 headline).
//!
//! - [`plan`] — the calibrated plan and per-app ground truth
//! - [`generate`] — spec → policy / description / APK
//! - [`libs`] — the 81 lib policies (52 ad, 9 social, 20 dev tools)
//! - [`dataset`] — assembly ([`paper_dataset`])
//! - [`history`] — versioned app histories ([`versioned_history`]) for
//!   incremental re-analysis workloads
//! - [`eval`] — the §V statistics harness ([`evaluate`])
//! - [`detectors`] — successor-literature workloads with planted ground
//!   truth ([`data_safety_corpus`], [`purpose_corpus`],
//!   [`boilerplate_corpus`]) and their P/R harness ([`score_detector`])
//! - [`fig12`] — the pattern-selection experiment (Fig. 12)
//!
//! # Examples
//!
//! ```no_run
//! use ppchecker_corpus::{paper_dataset, evaluate};
//!
//! let dataset = paper_dataset(42);
//! let ev = evaluate(&dataset);
//! assert_eq!(ev.total_apps, 1197);
//! assert_eq!(ev.problem_apps, 282);
//! ```

#![forbid(unsafe_code)]

pub mod adversarial;
pub mod dataset;
pub mod detectors;
pub mod eval;
pub mod export;
pub mod fig12;
pub mod generate;
pub mod history;
pub mod libs;
pub mod manifest;
pub mod phrases;
pub mod plan;
pub mod scale;

pub use dataset::{paper_dataset, small_dataset, stream_apps, Dataset, GeneratedApp};
pub use detectors::{
    boilerplate_corpus, data_safety_corpus, purpose_corpus, score_detector, DetectorScore,
    WorkloadApp,
};
pub use eval::{evaluate, evaluate_parallel, Evaluation, RowMetrics};
pub use export::{export_app, export_dataset};
pub use history::{
    versioned_history, CorpusVersion, MutationKind, VersionChange, VersionedHistory,
};
pub use manifest::{DatasetManifest, ManifestError, ScenarioPack};
pub use plan::{build_plan, AppSpec, GroundTruth, PolicyShape, APP_COUNT};
pub use scale::{
    generate_scaled, scaled_spec, scenario_of, stream_scaled, stream_scaled_sharded, Scenario,
};
