//! The pluggable detector API: every problem PPChecker reports is
//! produced by a [`Detector`] registered in a [`DetectorRegistry`].
//!
//! The three paper detectors ([`DetectorId::Incomplete`],
//! [`DetectorId::Incorrect`], [`DetectorId::Inconsistent`] — Algorithms
//! 1–5) ship on the default registry and fold their findings into the
//! classic [`Report`](crate::Report) vectors, so their output is
//! byte-identical to the
//! pre-registry pipeline. Three successor-literature detectors ride the
//! same trait:
//!
//! - [`DetectorId::DataSafety`]: cross-checks the app's structured
//!   Data-Safety label declarations against the policy's information
//!   elements and the taint-observed flows.
//! - [`DetectorId::Purpose`]: flags stated collection *purposes*
//!   (advertising / analytics / functionality) contradicted or
//!   unsupported by the embedded-library evidence.
//! - [`DetectorId::Boilerplate`]: flags policies that are near
//!   duplicates of an earlier policy in the corpus (shingled MinHash
//!   over interned token streams, see [`crate::minhash`]).
//!
//! Detectors run in canonical rank order regardless of registration
//! order, so a registry's output never depends on how it was assembled.

use crate::checker::{AppInput, CheckRequest};
use crate::incomplete;
use crate::inconsistent;
use crate::incorrect;
use crate::matcher::Matcher;
use crate::minhash::{self, BoilerplateIndex};
use crate::problems::{Inconsistency, IncorrectFinding, MissedInfo};
use ppchecker_apk::PrivateInfo;
use ppchecker_desc::DescriptionAnalysis;
use ppchecker_nlp::intern::intern;
use ppchecker_policy::{PolicyAnalysis, Purpose};
use ppchecker_static::{LibKind, StaticReport};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Identity of a registered detector.
///
/// `#[non_exhaustive]`: later revisions add detectors without a
/// breaking change, so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetectorId {
    /// Incomplete policies (paper Algorithms 1–2).
    Incomplete,
    /// Incorrect policies (paper Algorithms 3–4).
    Incorrect,
    /// App/lib policy inconsistencies (paper Algorithm 5).
    Inconsistent,
    /// Data-Safety label cross-check.
    DataSafety,
    /// Stated-purpose compliance.
    Purpose,
    /// Corpus-wide near-duplicate (boilerplate) policies.
    Boilerplate,
}

impl DetectorId {
    /// Every built-in detector, in canonical run order.
    pub const ALL: &'static [DetectorId] = &[
        DetectorId::Incomplete,
        DetectorId::Incorrect,
        DetectorId::Inconsistent,
        DetectorId::DataSafety,
        DetectorId::Purpose,
        DetectorId::Boilerplate,
    ];

    /// Number of built-in detectors (sizes fixed counter arrays).
    pub const COUNT: usize = DetectorId::ALL.len();

    /// The paper's three detectors — the default registry.
    pub const PAPER: &'static [DetectorId] =
        &[DetectorId::Incomplete, DetectorId::Incorrect, DetectorId::Inconsistent];

    /// Stable lowercase identifier (CLI, wire, and JSON form).
    pub fn as_str(self) -> &'static str {
        match self {
            DetectorId::Incomplete => "incomplete",
            DetectorId::Incorrect => "incorrect",
            DetectorId::Inconsistent => "inconsistent",
            DetectorId::DataSafety => "data-safety",
            DetectorId::Purpose => "purpose",
            DetectorId::Boilerplate => "boilerplate",
        }
    }

    /// Parses the [`as_str`](DetectorId::as_str) form.
    pub fn parse(s: &str) -> Option<DetectorId> {
        DetectorId::ALL.iter().copied().find(|id| id.as_str() == s)
    }

    /// Canonical run order: detectors execute sorted by rank no matter
    /// the registration order.
    pub fn rank(self) -> usize {
        DetectorId::ALL.iter().position(|&id| id == self).unwrap_or(DetectorId::COUNT)
    }
}

impl fmt::Display for DetectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured Data-Safety label declaration: the developer states
/// that the app collects this kind of information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataSafetyLabel {
    /// The declared information kind.
    pub info: PrivateInfo,
}

impl DataSafetyLabel {
    /// A label declaring collection of `info`.
    pub fn new(info: PrivateInfo) -> Self {
        DataSafetyLabel { info }
    }

    /// Parses the canonical-phrase form (`"location"`, `"device id"`, …).
    pub fn parse(name: &str) -> Option<DataSafetyLabel> {
        PrivateInfo::ALL
            .iter()
            .copied()
            .find(|i| i.canonical_phrase() == name)
            .map(DataSafetyLabel::new)
    }
}

/// How a Data-Safety label disagrees with the other evidence channels.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSafetyKind {
    /// Code collects (or retains) the information, gated by a granted
    /// permission, but the labels omit it.
    LabelOmitsCollection,
    /// A label declares the information but the policy never mentions
    /// it (by the paper's ESA coverage test).
    PolicyOmitsLabel,
}

impl DataSafetyKind {
    /// Stable lowercase identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            DataSafetyKind::LabelOmitsCollection => "label-omits-collection",
            DataSafetyKind::PolicyOmitsLabel => "policy-omits-label",
        }
    }
}

/// One Data-Safety label mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSafetyFinding {
    /// The information in disagreement.
    pub info: PrivateInfo,
    /// The direction of the disagreement.
    pub kind: DataSafetyKind,
}

/// How a stated purpose disagrees with the embedded-library evidence.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum PurposeKind {
    /// An exclusive claim ("only for app functionality") contradicted
    /// by an embedded library of a different purpose.
    Contradicted {
        /// The library whose presence contradicts the claim.
        lib_id: String,
    },
    /// A stated purpose with no embedded library serving it.
    Unsupported,
}

impl PurposeKind {
    /// Stable lowercase identifier.
    pub fn as_str(&self) -> &'static str {
        match self {
            PurposeKind::Contradicted { .. } => "contradicted",
            PurposeKind::Unsupported => "unsupported",
        }
    }
}

/// One purpose-compliance finding.
#[derive(Debug, Clone, PartialEq)]
pub struct PurposeFinding {
    /// The purpose the sentence states.
    pub purpose: Purpose,
    /// How the evidence disagrees.
    pub kind: PurposeKind,
    /// The offending sentence.
    pub sentence: String,
}

/// One near-duplicate (boilerplate) policy finding.
#[derive(Debug, Clone, PartialEq)]
pub struct BoilerplateFinding {
    /// Package of the policy family's representative (the first member
    /// of the family the index saw).
    pub family: String,
    /// Estimated Jaccard similarity to the representative, in [0, 1].
    pub similarity: f64,
}

/// A detector's payload.
///
/// `#[non_exhaustive]`: revisions add payload kinds without a breaking
/// change; wire and JSON encodings carry a schema tag for the same
/// reason.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum FindingPayload {
    /// Incomplete-policy record (folds into [`Report::missed`](crate::problems::Report::missed)).
    Missed(MissedInfo),
    /// Incorrect-policy record (folds into [`Report::incorrect`](crate::problems::Report::incorrect)).
    Incorrect(IncorrectFinding),
    /// Inconsistency record (folds into [`Report::inconsistencies`](crate::problems::Report::inconsistencies)).
    Inconsistent(Inconsistency),
    /// Data-Safety label mismatch.
    DataSafety(DataSafetyFinding),
    /// Purpose-compliance violation.
    Purpose(PurposeFinding),
    /// Near-duplicate policy.
    Boilerplate(BoilerplateFinding),
}

/// One finding: which detector produced it, and what it says.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The producing detector.
    pub detector: DetectorId,
    /// The finding proper.
    pub payload: FindingPayload,
}

/// Everything a [`Detector`] may look at: the app's inputs plus every
/// per-app analysis the pipeline already computed, shared read-only.
pub struct DetectorCtx<'a> {
    /// The app under check.
    pub app: &'a AppInput,
    /// The analyzed privacy policy.
    pub policy: &'a PolicyAnalysis,
    /// The analyzed Play description.
    pub desc: &'a DescriptionAnalysis,
    /// The static-analysis report.
    pub code: &'a StaticReport,
    /// The ESA matcher.
    pub matcher: &'a Matcher,
    /// Registered third-party lib policies, by lib id.
    pub lib_policies: &'a HashMap<String, PolicyAnalysis>,
    /// The corpus-wide near-duplicate index, when one is attached.
    pub boilerplate: Option<&'a BoilerplateIndex>,
}

/// A pluggable problem detector.
///
/// Implementations must be pure over the [`DetectorCtx`] (the
/// boilerplate index is the one sanctioned piece of cross-app state)
/// and deterministic, so batch runs stay replayable.
pub trait Detector: Send + Sync {
    /// This detector's identity.
    fn id(&self) -> DetectorId;

    /// Whether the detector has anything to say about this request
    /// (e.g. the Data-Safety detector declines apps that declare no
    /// labels). Skipped detectors cost nothing.
    fn applies(&self, _request: &CheckRequest<'_>) -> bool {
        true
    }

    /// Produces this detector's findings.
    fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding>;
}

/// Incomplete policies — paper Algorithms 1–2, both channels,
/// description first (the paper counts them separately).
struct IncompleteDetector;

impl Detector for IncompleteDetector {
    fn id(&self) -> DetectorId {
        DetectorId::Incomplete
    }

    fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding> {
        let mut missed = incomplete::via_description(ctx.policy, ctx.desc, ctx.matcher);
        missed.extend(incomplete::via_code(
            ctx.policy,
            ctx.code,
            &ctx.app.apk.manifest,
            ctx.matcher,
        ));
        missed
            .into_iter()
            .map(|m| Finding {
                detector: DetectorId::Incomplete,
                payload: FindingPayload::Missed(m),
            })
            .collect()
    }
}

/// Incorrect policies — paper Algorithms 3–4.
struct IncorrectDetector;

impl Detector for IncorrectDetector {
    fn id(&self) -> DetectorId {
        DetectorId::Incorrect
    }

    fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding> {
        let mut findings = incorrect::via_description(ctx.policy, ctx.desc, ctx.matcher);
        findings.extend(incorrect::via_code(ctx.policy, ctx.code, ctx.matcher));
        findings
            .into_iter()
            .map(|i| Finding {
                detector: DetectorId::Incorrect,
                payload: FindingPayload::Incorrect(i),
            })
            .collect()
    }
}

/// App/lib inconsistencies — paper Algorithm 5, against the registered
/// policies of the libs actually embedded in this app.
struct InconsistentDetector;

impl Detector for InconsistentDetector {
    fn id(&self) -> DetectorId {
        DetectorId::Inconsistent
    }

    fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding> {
        let libs: Vec<(&str, &PolicyAnalysis)> = ctx
            .code
            .libs
            .iter()
            .filter_map(|l| ctx.lib_policies.get(l.id).map(|p| (l.id, p)))
            .collect();
        inconsistent::check_all(ctx.policy, libs, ctx.matcher)
            .into_iter()
            .map(|i| Finding {
                detector: DetectorId::Inconsistent,
                payload: FindingPayload::Inconsistent(i),
            })
            .collect()
    }
}

/// Data-Safety label cross-check: labels vs. policy elements vs.
/// taint-observed flows.
struct DataSafetyDetector;

impl Detector for DataSafetyDetector {
    fn id(&self) -> DetectorId {
        DetectorId::DataSafety
    }

    fn applies(&self, request: &CheckRequest<'_>) -> bool {
        !request.app().labels.is_empty()
    }

    fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding> {
        let labels: BTreeSet<PrivateInfo> = ctx.app.labels.iter().map(|l| l.info).collect();
        let mut findings = Vec::new();

        // Labels vs. code: everything the bytecode observably collects or
        // retains must be declared. Mirrors Algorithm 2's permission
        // gate — information whose guarding permission the app does not
        // even request is not chargeable to the labels.
        let mut observed: BTreeSet<PrivateInfo> = ctx.code.collect_code();
        observed.extend(ctx.code.retain_code());
        for info in observed {
            if let Some(perm) = info.required_permission() {
                if !ctx.app.apk.manifest.has_permission(&perm) {
                    continue;
                }
            }
            if !labels.contains(&info) {
                findings.push(Finding {
                    detector: DetectorId::DataSafety,
                    payload: FindingPayload::DataSafety(DataSafetyFinding {
                        info,
                        kind: DataSafetyKind::LabelOmitsCollection,
                    }),
                });
            }
        }

        // Labels vs. policy: a declared label the policy text never
        // covers (same ESA test as Algorithm 1's coverage predicate).
        let pp_infos = ctx.policy.mentioned_resource_symbols();
        for info in labels {
            let sym = intern(info.canonical_phrase());
            if !pp_infos.iter().any(|&pp| ctx.matcher.same_thing_sym(sym, pp)) {
                findings.push(Finding {
                    detector: DetectorId::DataSafety,
                    payload: FindingPayload::DataSafety(DataSafetyFinding {
                        info,
                        kind: DataSafetyKind::PolicyOmitsLabel,
                    }),
                });
            }
        }
        findings
    }
}

/// Purpose compliance: stated purposes vs. embedded-library evidence.
struct PurposeDetector;

impl Detector for PurposeDetector {
    fn id(&self) -> DetectorId {
        DetectorId::Purpose
    }

    fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding> {
        let has_kind = |kind: LibKind| ctx.code.libs.iter().any(|l| l.kind == kind);
        let first_of = |kind: LibKind| ctx.code.libs.iter().find(|l| l.kind == kind);
        let mut findings = Vec::new();
        for sentence in ctx.policy.positive_sentences() {
            let Some(claim) = sentence.purpose else { continue };
            let kind = match claim.purpose {
                // "only to provide app functionality" is contradicted by
                // any embedded ad library — ads are not app features.
                Purpose::Functionality if claim.exclusive => first_of(LibKind::Ad)
                    .map(|l| PurposeKind::Contradicted { lib_id: l.id.to_string() }),
                // A stated advertising purpose with no ad library (and
                // an analytics purpose with neither a dev-tool nor an ad
                // library) has no evidence serving it.
                Purpose::Advertising if !has_kind(LibKind::Ad) => Some(PurposeKind::Unsupported),
                Purpose::Analytics if !has_kind(LibKind::DevTool) && !has_kind(LibKind::Ad) => {
                    Some(PurposeKind::Unsupported)
                }
                _ => None,
            };
            if let Some(kind) = kind {
                findings.push(Finding {
                    detector: DetectorId::Purpose,
                    payload: FindingPayload::Purpose(PurposeFinding {
                        purpose: claim.purpose,
                        kind,
                        sentence: String::from(&*sentence.text),
                    }),
                });
            }
        }
        findings
    }
}

/// Corpus-wide near-duplicate policies. Inert without an attached
/// [`BoilerplateIndex`] (see
/// [`PPChecker::with_boilerplate_index`](crate::PPChecker::with_boilerplate_index));
/// family assignment depends on probe order, so stream the corpus
/// through sequentially.
struct BoilerplateDetector;

impl Detector for BoilerplateDetector {
    fn id(&self) -> DetectorId {
        DetectorId::Boilerplate
    }

    fn run(&self, ctx: &DetectorCtx<'_>) -> Vec<Finding> {
        let Some(index) = ctx.boilerplate else { return Vec::new() };
        let tokens = minhash::policy_tokens(&ctx.app.policy_html);
        let sig = minhash::signature(&tokens);
        match index.probe_insert(&ctx.app.package, &sig) {
            Some((family, similarity)) => vec![Finding {
                detector: DetectorId::Boilerplate,
                payload: FindingPayload::Boilerplate(BoilerplateFinding { family, similarity }),
            }],
            None => Vec::new(),
        }
    }
}

fn built_in(id: DetectorId) -> Box<dyn Detector> {
    match id {
        DetectorId::Incomplete => Box::new(IncompleteDetector),
        DetectorId::Incorrect => Box::new(IncorrectDetector),
        DetectorId::Inconsistent => Box::new(InconsistentDetector),
        DetectorId::DataSafety => Box::new(DataSafetyDetector),
        DetectorId::Purpose => Box::new(PurposeDetector),
        DetectorId::Boilerplate => Box::new(BoilerplateDetector),
    }
}

/// The detector set a [`PPChecker`](crate::PPChecker) runs.
///
/// Detectors are kept sorted by [`DetectorId::rank`], so two registries
/// holding the same detectors produce identical output regardless of
/// registration order, and the default registry's output is
/// byte-identical to the pre-registry hardwired pipeline.
pub struct DetectorRegistry {
    detectors: Vec<Box<dyn Detector>>,
}

impl Default for DetectorRegistry {
    fn default() -> Self {
        DetectorRegistry::paper()
    }
}

impl DetectorRegistry {
    /// A registry with no detectors.
    pub fn empty() -> Self {
        DetectorRegistry { detectors: Vec::new() }
    }

    /// The default registry: the paper's three detectors.
    pub fn paper() -> Self {
        DetectorRegistry::with_ids(DetectorId::PAPER)
    }

    /// All six built-in detectors.
    pub fn full() -> Self {
        DetectorRegistry::with_ids(DetectorId::ALL)
    }

    /// The built-in detectors for exactly these ids.
    pub fn with_ids(ids: &[DetectorId]) -> Self {
        let mut registry = DetectorRegistry::empty();
        for &id in ids {
            registry.register(built_in(id));
        }
        registry
    }

    /// Registers a detector, replacing any detector with the same id.
    /// The registry re-sorts by canonical rank, so registration order
    /// never shows in the output.
    pub fn register(&mut self, detector: Box<dyn Detector>) {
        self.detectors.retain(|d| d.id() != detector.id());
        self.detectors.push(detector);
        self.detectors.sort_by_key(|d| d.id().rank());
    }

    /// Registered detector ids, in run order.
    pub fn ids(&self) -> Vec<DetectorId> {
        self.detectors.iter().map(|d| d.id()).collect()
    }

    /// Whether a detector with this id is registered.
    pub fn contains(&self, id: DetectorId) -> bool {
        self.detectors.iter().any(|d| d.id() == id)
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// `true` when no detector is registered.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// A stable fingerprint of the registered detector set. The checker
    /// folds it into its configuration fingerprint, so the artifact
    /// store never replays a report across a registry change.
    pub fn fingerprint(&self) -> u64 {
        let parts: Vec<u64> = self
            .detectors
            .iter()
            .map(|d| ppchecker_store::content_hash(d.id().as_str().as_bytes()))
            .collect();
        ppchecker_store::combine_hashes(&parts)
    }

    /// The ids that will actually run for this request: registered,
    /// applicable, and (when the request selects detectors) selected.
    pub(crate) fn active_ids(&self, request: &CheckRequest<'_>) -> Vec<DetectorId> {
        self.detectors
            .iter()
            .filter(|d| {
                request.detectors().is_none_or(|sel| sel.contains(&d.id())) && d.applies(request)
            })
            .map(|d| d.id())
            .collect()
    }

    /// Runs the detectors in `active`, in registry (canonical) order.
    pub(crate) fn run(&self, ctx: &DetectorCtx<'_>, active: &[DetectorId]) -> Vec<Finding> {
        let mut findings = Vec::new();
        for detector in &self.detectors {
            if active.contains(&detector.id()) {
                findings.extend(detector.run(ctx));
            }
        }
        findings
    }
}

impl fmt::Debug for DetectorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectorRegistry").field("detectors", &self.ids()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_parse() {
        for &id in DetectorId::ALL {
            assert_eq!(DetectorId::parse(id.as_str()), Some(id));
        }
        assert_eq!(DetectorId::parse("nope"), None);
    }

    #[test]
    fn registry_sorts_by_canonical_rank() {
        let mut reversed = DetectorRegistry::empty();
        for &id in DetectorId::ALL.iter().rev() {
            reversed.register(built_in(id));
        }
        assert_eq!(reversed.ids(), DetectorId::ALL);
        assert_eq!(reversed.fingerprint(), DetectorRegistry::full().fingerprint());
    }

    #[test]
    fn registering_twice_replaces() {
        let mut r = DetectorRegistry::paper();
        r.register(built_in(DetectorId::Incomplete));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn registry_fingerprint_tracks_the_set() {
        assert_ne!(DetectorRegistry::paper().fingerprint(), DetectorRegistry::full().fingerprint());
        assert_eq!(
            DetectorRegistry::paper().fingerprint(),
            DetectorRegistry::default().fingerprint()
        );
    }

    #[test]
    fn label_parse_accepts_canonical_phrases() {
        let l = DataSafetyLabel::parse("device id").unwrap();
        assert_eq!(l.info, PrivateInfo::DeviceId);
        assert!(DataSafetyLabel::parse("flux capacitor").is_none());
    }
}
