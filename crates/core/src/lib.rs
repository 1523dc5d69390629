//! # ppchecker-core
//!
//! The problem-identification module and orchestrator of the PPChecker
//! reproduction (Yu et al., *Can We Trust the Privacy Policies of Android
//! Apps?*, DSN 2016).
//!
//! PPChecker takes an app's privacy policy, description, and APK plus the
//! privacy policies of known third-party libraries, and reports three
//! kinds of problems:
//!
//! - **Incomplete** ([`incomplete`], Algorithms 1–2): the policy fails to
//!   cover information the description implies or the bytecode collects or
//!   retains.
//! - **Incorrect** ([`incorrect`], Algorithms 3–4): the policy denies a
//!   behaviour the app performs.
//! - **Inconsistent** ([`inconsistent`], Algorithm 5): the policy denies a
//!   behaviour an embedded third-party lib's policy declares.
//!
//! See [`PPChecker`] for the end-to-end entry point.

#![forbid(unsafe_code)]

pub mod checker;
pub mod detector;
pub mod error;
pub mod incomplete;
pub mod inconsistent;
pub mod incorrect;
pub mod matcher;
pub mod minhash;
pub mod problems;
pub(crate) mod scratch;
pub mod suggest;
pub mod wire;

pub use checker::{
    AppInput, CheckError, CheckOutcome, CheckRequest, CheckRequestBuilder, PPChecker, StageTimings,
};
pub use detector::{
    BoilerplateFinding, DataSafetyFinding, DataSafetyKind, DataSafetyLabel, Detector, DetectorCtx,
    DetectorId, DetectorRegistry, Finding, FindingPayload, PurposeFinding, PurposeKind,
};
pub use error::{Error, Stage};
// Part of `PurposeFinding`'s public shape; re-exported so downstream
// crates can name it without a direct ppchecker-policy dependency.
pub use matcher::Matcher;
pub use minhash::BoilerplateIndex;
pub use ppchecker_policy::Purpose;
pub use problems::{Channel, Inconsistency, IncorrectFinding, MissedInfo, Report};
pub use suggest::{describe_leak, suggest_fixes, EditKind, Suggestion};
pub use wire::{decode_report, encode_report};
