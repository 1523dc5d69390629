//! # ppchecker-policy
//!
//! The privacy-policy analysis module of the PPChecker reproduction: the
//! six-step pipeline of the paper's Fig. 5 — HTML extraction and sentence
//! splitting ([`html`], Step 1), syntactic analysis (via `ppchecker-nlp`,
//! Step 2), bootstrapped pattern generation with Eq.-1 scoring
//! ([`bootstrap`], Step 3), pattern-based sentence selection ([`patterns`],
//! Step 4), negation analysis ([`negation`], Step 5), and information-
//! element extraction ([`elements`], Step 6) — plus third-party disclaimer
//! detection ([`disclaimer`]).
//!
//! # Examples
//!
//! ```
//! use ppchecker_policy::{PolicyAnalyzer, VerbCategory};
//!
//! let analyzer = PolicyAnalyzer::new();
//! let analysis = analyzer.analyze_text(
//!     "We will collect your location. We will not share your contacts.",
//! );
//! assert!(analysis.resources(VerbCategory::Collect, false).contains("location"));
//! assert!(analysis.resources(VerbCategory::Disclose, true).contains("contacts"));
//! ```

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod diff;
pub mod disclaimer;
pub mod elements;
pub mod html;
pub mod negation;
pub mod patterns;
pub mod persist;
pub mod pipeline;
pub mod purpose;
pub mod synonyms;
pub mod verbs;
pub mod wire;

pub use bootstrap::{score_patterns, select_top_n, Bootstrapper, CorpusSentence, ScoredPattern};
pub use diff::{diff, PolicyDiff, Statement};
pub use elements::{Constraint, ConstraintKind, Elements};
pub use patterns::{match_sentence, Pattern, PatternKind, SentenceMatch};
pub use persist::{from_text as patterns_from_text, to_text as patterns_to_text};
pub use pipeline::{AnalyzedSentence, PolicyAnalysis, PolicyAnalyzer, SentenceVerdict};
pub use purpose::{detect_purpose, Purpose, PurposeClaim};
pub use synonyms::synonym_patterns;
pub use verbs::VerbCategory;
pub use wire::{decode_analysis, encode_analysis};
