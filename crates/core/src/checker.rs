//! The PPChecker orchestrator: wires the policy, description, and static
//! analysis modules through the problem-identification algorithms.

use crate::detector::{DataSafetyLabel, DetectorCtx, DetectorId, DetectorRegistry};
use crate::error::Error;
use crate::matcher::Matcher;
use crate::minhash::BoilerplateIndex;
use crate::problems::Report;
use ppchecker_apk::{Apk, ParseDexError};
use ppchecker_desc::analyze_description_with;
use ppchecker_obs::SpanGuard;
use ppchecker_policy::{PolicyAnalysis, PolicyAnalyzer};
use ppchecker_static::{analyze_with, AnalysisOptions};
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

/// Everything PPChecker needs about one app: the policy, the description,
/// and the APK (Fig. 4's inputs; third-party lib policies are registered
/// on the checker itself), plus the optional structured Data-Safety
/// label declarations the successor-literature detector cross-checks.
#[derive(Debug, Clone)]
pub struct AppInput {
    /// Package name, e.g. `com.dooing.dooing`.
    pub package: String,
    /// The privacy policy, as HTML.
    pub policy_html: String,
    /// The Google Play description.
    pub description: String,
    /// The APK.
    pub apk: Apk,
    /// Structured Data-Safety label declarations. Empty for apps that
    /// declare none (the `data-safety` detector then declines to run).
    pub labels: Vec<DataSafetyLabel>,
}

impl AppInput {
    /// A stable fingerprint of the label declarations (0 when none are
    /// declared). Batch stores fold this into the per-app report key so
    /// editing an app's labels invalidates its stored report.
    pub fn labels_fingerprint(&self) -> u64 {
        if self.labels.is_empty() {
            return 0;
        }
        let parts: Vec<u64> = self
            .labels
            .iter()
            .map(|l| ppchecker_store::content_hash(l.info.canonical_phrase().as_bytes()))
            .collect();
        ppchecker_store::combine_hashes(&parts)
    }
}

/// Error from a full check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The APK's dex could not be recovered.
    Dex(ParseDexError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Dex(e) => write!(f, "static analysis failed: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<ParseDexError> for CheckError {
    fn from(e: ParseDexError) -> Self {
        CheckError::Dex(e)
    }
}

/// Wall time spent in each stage of one [`PPChecker::check`] call.
///
/// The four stages mirror Fig. 4: policy NLP, description analysis,
/// static analysis, and the matching/problem-identification algorithms.
/// Since the obs integration this is a thin view over the pipeline's
/// `check.*` spans: each duration is what the corresponding
/// [`SpanGuard`] measured, so the same numbers land in the
/// `ppchecker-obs` histograms whenever metrics are enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Policy-analysis stage (HTML → [`PolicyAnalysis`]). Short when a
    /// batch runtime served the sentences from its cache.
    pub policy: Duration,
    /// Description-analysis stage.
    pub description: Duration,
    /// Static-analysis stage (unpack + APG + taint).
    pub static_analysis: Duration,
    /// Matching + Algorithms 1–5.
    pub matching: Duration,
}

impl StageTimings {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.policy + self.description + self.static_analysis + self.matching
    }

    /// Component-wise sum (for cross-app aggregation).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.policy += other.policy;
        self.description += other.description;
        self.static_analysis += other.static_analysis;
        self.matching += other.matching;
    }
}

/// The policy-analysis source a [`CheckRequest`] can plug in (batch
/// runtimes pass their sentence cache here).
type PolicyProvider<'a> = Box<dyn FnOnce(&PolicyAnalyzer, &str) -> PolicyAnalysis + 'a>;

/// A built request for one [`PPChecker::check`] call.
///
/// Built through [`CheckRequest::builder`]; the plain form stays a
/// one-liner via [`PPChecker::check_app`]. Extras chain off the
/// builder:
///
/// ```no_run
/// # use ppchecker_core::{AppInput, CheckRequest, PPChecker};
/// # fn demo(checker: &PPChecker, app: &AppInput) -> Result<(), ppchecker_core::Error> {
/// let outcome = checker.check(
///     CheckRequest::builder(app)
///         .policy_provider(|analyzer, html| analyzer.analyze_html(html))
///         .capture_timings()
///         .build(),
/// )?;
/// println!("{} in {:?}", outcome.report.package, outcome.timings.unwrap().total());
/// # Ok(())
/// # }
/// ```
///
/// `#[non_exhaustive]`: requests grow knobs across revisions; build
/// them only through the builder.
#[non_exhaustive]
pub struct CheckRequest<'a> {
    app: &'a AppInput,
    provide_policy: Option<PolicyProvider<'a>>,
    capture_timings: bool,
    detectors: Option<Vec<DetectorId>>,
}

impl<'a> CheckRequest<'a> {
    /// Starts a request for one app. Defaults: the checker's own policy
    /// analysis, no captures, every registered detector.
    pub fn builder(app: &'a AppInput) -> CheckRequestBuilder<'a> {
        CheckRequestBuilder {
            request: CheckRequest {
                app,
                provide_policy: None,
                capture_timings: false,
                detectors: None,
            },
        }
    }

    /// The app under check.
    pub fn app(&self) -> &AppInput {
        self.app
    }

    /// The requested detector selection; `None` means every registered
    /// detector.
    pub fn detectors(&self) -> Option<&[DetectorId]> {
        self.detectors.as_deref()
    }
}

/// Builder for [`CheckRequest`] (see [`CheckRequest::builder`]).
pub struct CheckRequestBuilder<'a> {
    request: CheckRequest<'a>,
}

impl<'a> CheckRequestBuilder<'a> {
    /// Plugs in a policy-analysis source. Batch runtimes pass a
    /// sentence cache so a sentence repeated across policies (and the
    /// fixed set of third-party lib policies) is parsed once per run; the
    /// default calls [`PolicyAnalyzer::analyze_html`].
    pub fn policy_provider<F>(mut self, provide_policy: F) -> Self
    where
        F: FnOnce(&PolicyAnalyzer, &str) -> PolicyAnalysis + 'a,
    {
        self.request.provide_policy = Some(Box::new(provide_policy));
        self
    }

    /// Asks for per-stage wall time in [`CheckOutcome::timings`].
    pub fn capture_timings(mut self) -> Self {
        self.request.capture_timings = true;
        self
    }

    /// Restricts this check to the given detectors (they must also be
    /// registered on the checker; selection never adds detectors).
    pub fn detectors(mut self, ids: &[DetectorId]) -> Self {
        self.request.detectors = Some(ids.to_vec());
        self
    }

    /// Finishes the request.
    pub fn build(self) -> CheckRequest<'a> {
        self.request
    }
}

impl fmt::Debug for CheckRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckRequest")
            .field("app", &self.app.package)
            .field("custom_policy_provider", &self.provide_policy.is_some())
            .field("capture_timings", &self.capture_timings)
            .field("detectors", &self.detectors)
            .finish()
    }
}

/// What one [`PPChecker::check`] call produced.
///
/// Dereferences to the [`Report`], so existing call sites keep reading
/// `outcome.is_incomplete()`, `outcome.missed`, `format!("{outcome}")`,
/// or passing `&outcome` where a `&Report` is expected.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The problem report (Algorithms 1–5).
    pub report: Report,
    /// Per-stage wall time, when the request
    /// [asked for it](CheckRequestBuilder::capture_timings).
    pub timings: Option<StageTimings>,
}

impl CheckOutcome {
    /// Consumes the outcome, keeping only the report.
    pub fn into_report(self) -> Report {
        self.report
    }

    /// The problem report.
    pub fn report(&self) -> &Report {
        &self.report
    }
}

impl Deref for CheckOutcome {
    type Target = Report;

    fn deref(&self) -> &Report {
        &self.report
    }
}

impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report.fmt(f)
    }
}

/// The PPChecker system.
///
/// # Thread safety
///
/// `PPChecker` is `Send + Sync`: every field is immutable after
/// construction ([`PolicyAnalyzer`] holds plain pattern data, [`Matcher`]
/// a `&'static` ESA interpreter, and the lib-policy map is only written
/// through `&mut self` registration). A batch runtime therefore shares
/// one checker across workers behind an `Arc` — register all lib
/// policies *first*, then wrap; per-app state (the [`Report`] under
/// construction, stage timers) lives on the worker's stack.
///
/// # Examples
///
/// ```
/// use ppchecker_core::{AppInput, PPChecker};
/// use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest, Permission};
///
/// let mut manifest = Manifest::new("com.example.weather");
/// manifest.add_permission(Permission::AccessFineLocation);
/// manifest.add_component(ComponentKind::Activity, "com.example.weather.Main", true);
/// let dex = Dex::builder()
///     .class("com.example.weather.Main", |c| {
///         c.method("onCreate", 1, |m| {
///             m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
///         });
///     })
///     .build();
///
/// let app = AppInput {
///     package: "com.example.weather".into(),
///     policy_html: "<p>We collect your email address.</p>".into(),
///     description: "Accurate weather for your location.".into(),
///     apk: Apk::new(manifest, dex),
///     labels: Vec::new(),
/// };
/// let report = PPChecker::new().check_app(&app)?;
/// assert!(report.is_incomplete()); // location is collected but never mentioned
/// # Ok::<(), ppchecker_core::Error>(())
/// ```
#[derive(Debug)]
pub struct PPChecker {
    analyzer: PolicyAnalyzer,
    matcher: Matcher,
    lib_policies: HashMap<String, PolicyAnalysis>,
    static_options: AnalysisOptions,
    registry: DetectorRegistry,
    boilerplate: Option<Arc<BoilerplateIndex>>,
}

impl Default for PPChecker {
    fn default() -> Self {
        PPChecker::new()
    }
}

impl PPChecker {
    /// A checker with the default policy analyzer, ESA interpreter, and
    /// detector registry (the paper's three detectors).
    pub fn new() -> Self {
        PPChecker {
            analyzer: PolicyAnalyzer::new(),
            matcher: Matcher::new(),
            lib_policies: HashMap::new(),
            static_options: AnalysisOptions::default(),
            registry: DetectorRegistry::paper(),
            boilerplate: None,
        }
    }

    /// Replaces the policy analyzer (e.g. with freshly bootstrapped
    /// patterns).
    pub fn with_analyzer(mut self, analyzer: PolicyAnalyzer) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Sets the static-analysis ablation options.
    pub fn with_static_options(mut self, options: AnalysisOptions) -> Self {
        self.static_options = options;
        self
    }

    /// Overrides the ESA similarity threshold (the paper uses 0.67).
    pub fn with_similarity_threshold(mut self, threshold: f64) -> Self {
        self.matcher = Matcher::with_threshold(threshold);
        self
    }

    /// Replaces the detector registry outright (for custom detectors;
    /// to select among the built-ins use [`with_detectors`](Self::with_detectors)).
    pub fn with_registry(mut self, registry: DetectorRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Runs exactly these built-in detectors.
    pub fn with_detectors(mut self, ids: &[DetectorId]) -> Self {
        self.registry = DetectorRegistry::with_ids(ids);
        self
    }

    /// Attaches the corpus-wide near-duplicate index the `boilerplate`
    /// detector probes. Batch runtimes share one index across the run.
    pub fn with_boilerplate_index(mut self, index: Arc<BoilerplateIndex>) -> Self {
        self.boilerplate = Some(index);
        self
    }

    /// The detector registry in use.
    pub fn registry(&self) -> &DetectorRegistry {
        &self.registry
    }

    /// Registers a third-party lib's privacy policy (HTML) under its id.
    pub fn register_lib_policy(&mut self, lib_id: &str, policy_html: &str) {
        let analysis = self.analyzer.analyze_html(policy_html);
        self.lib_policies.insert(lib_id.to_string(), analysis);
    }

    /// Registers an already-analyzed lib policy (e.g. analyzed through a
    /// batch runtime's sentence cache, so its sentences are parsed once
    /// per run even when they recur in app policies).
    pub fn register_lib_policy_analysis(&mut self, lib_id: &str, analysis: PolicyAnalysis) {
        self.lib_policies.insert(lib_id.to_string(), analysis);
    }

    /// Number of registered lib policies.
    pub fn lib_policy_count(&self) -> usize {
        self.lib_policies.len()
    }

    /// The policy analyzer in use.
    pub fn analyzer(&self) -> &PolicyAnalyzer {
        &self.analyzer
    }

    /// Runs the complete PPChecker pipeline on one app with the default
    /// request (see [`check`](Self::check) for the configurable form).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Check`] (wrapping [`CheckError::Dex`]) when a
    /// packed dex cannot be recovered.
    pub fn check_app(&self, app: &AppInput) -> Result<CheckOutcome, Error> {
        self.check(CheckRequest::builder(app).build())
    }

    /// Runs the complete PPChecker pipeline on one app, as configured by
    /// the request (built via [`CheckRequest::builder`]): policy
    /// provider, timing capture, and detector selection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Check`] (wrapping [`CheckError::Dex`]) when a
    /// packed dex cannot be recovered.
    pub fn check(&self, request: CheckRequest<'_>) -> Result<CheckOutcome, Error> {
        // Resolve the detector set while the request is still whole —
        // `applies` sees the full request, including the app's labels.
        let active = self.registry.active_ids(&request);
        let (report, timings) = self.run_pipeline(request.app, request.provide_policy, &active)?;
        Ok(CheckOutcome { report, timings: request.capture_timings.then_some(timings) })
    }

    /// A stable fingerprint of everything that shapes this checker's
    /// verdicts: the policy analyzer's pattern configuration, the ESA
    /// similarity threshold, the static-analysis options, and every
    /// registered lib policy. The artifact store folds this into each
    /// per-app report key, so a stored report is never replayed across a
    /// configuration change — a new pattern set, a different threshold,
    /// or an added lib policy all produce fresh keys and a recompute.
    pub fn config_fingerprint(&self) -> u64 {
        let mut parts = vec![
            self.analyzer.fingerprint(),
            self.matcher.threshold().to_bits(),
            u64::from(self.static_options.reachability),
            u64::from(self.static_options.uri_analysis),
            self.registry.fingerprint(),
            match &self.boilerplate {
                Some(index) => index.threshold().to_bits(),
                None => 0,
            },
        ];
        let mut libs: Vec<(&String, &PolicyAnalysis)> = self.lib_policies.iter().collect();
        libs.sort_by_key(|(id, _)| id.as_str());
        for (id, analysis) in libs {
            parts.push(ppchecker_store::content_hash(id.as_bytes()));
            parts.push(ppchecker_store::content_hash(&ppchecker_policy::encode_analysis(analysis)));
        }
        ppchecker_store::combine_hashes(&parts)
    }

    /// The pipeline proper. Each stage runs under an always-timed obs
    /// span (`check.*`): the measured duration both populates
    /// [`StageTimings`] and — when `ppchecker_obs::set_enabled(true)` —
    /// lands in the registry histogram of the same name, with `B`/`E`
    /// trace events when tracing is on.
    fn run_pipeline(
        &self,
        app: &AppInput,
        provide_policy: Option<PolicyProvider<'_>>,
        active: &[DetectorId],
    ) -> Result<(Report, StageTimings), CheckError> {
        // One app, one arena: everything the detectors bump-allocate below
        // dies here, and the capacity stays warm for this worker thread's
        // next app.
        crate::scratch::reset_app_arena();
        let mut timings = StageTimings::default();

        let span = SpanGuard::timed("check.policy");
        let policy = match provide_policy {
            Some(provide) => provide(&self.analyzer, &app.policy_html),
            None => self.analyzer.analyze_html(&app.policy_html),
        };
        timings.policy = span.finish();

        let span = SpanGuard::timed("check.description");
        let desc = analyze_description_with(&app.description, self.matcher.esa());
        timings.description = span.finish();

        let span = SpanGuard::timed("check.static");
        let code = analyze_with(&app.apk, self.static_options)?;
        timings.static_analysis = span.finish();

        let span = SpanGuard::timed("check.matching");
        let report = self.identify_problems(app, &policy, &desc, &code, active);
        timings.matching = span.finish();

        Ok((report, timings))
    }

    /// The detector registry over already-analyzed inputs. The paper
    /// detectors (Algorithms 1–5) fold into the classic report vectors;
    /// successor-literature findings land in [`Report::findings`].
    fn identify_problems(
        &self,
        app: &AppInput,
        policy: &PolicyAnalysis,
        desc: &ppchecker_desc::DescriptionAnalysis,
        code: &ppchecker_static::StaticReport,
        active: &[DetectorId],
    ) -> Report {
        let mut report = Report {
            package: app.package.clone(),
            has_disclaimer: policy.has_disclaimer,
            libs: code.libs.iter().map(|l| l.id.to_string()).collect(),
            ..Report::default()
        };
        let ctx = DetectorCtx {
            app,
            policy,
            desc,
            code,
            matcher: &self.matcher,
            lib_policies: &self.lib_policies,
            boilerplate: self.boilerplate.as_deref(),
        };
        report.absorb_findings(self.registry.run(&ctx, active));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest, Permission};

    fn weather_app(policy: &str) -> AppInput {
        let mut manifest = Manifest::new("com.example.weather");
        manifest.add_permission(Permission::AccessFineLocation);
        manifest.add_component(ComponentKind::Activity, "com.example.weather.Main", true);
        let dex = Dex::builder()
            .class("com.example.weather.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.location.LocationManager",
                        "getLastKnownLocation",
                        &[0],
                        Some(1),
                    );
                });
            })
            .class("com.unity3d.ads.UnityAds", |c| {
                c.method("init", 1, |_| {});
            })
            .build();
        AppInput {
            package: "com.example.weather".to_string(),
            policy_html: format!("<html><body><p>{policy}</p></body></html>"),
            description: "Accurate weather forecast for your current location.".to_string(),
            apk: Apk::new(manifest, dex),
            labels: Vec::new(),
        }
    }

    #[test]
    fn clean_app_has_no_problems() {
        let app = weather_app(
            "We may collect your location to show the forecast. \
             We may also collect your device id.",
        );
        let report = PPChecker::new().check_app(&app).unwrap();
        assert!(!report.has_any_problem(), "unexpected: {report}");
    }

    #[test]
    fn incomplete_app_detected_through_both_channels() {
        let app = weather_app("We collect your email address.");
        let report = PPChecker::new().check_app(&app).unwrap();
        assert!(report.is_incomplete());
        assert!(report.missed_via_description().count() >= 1);
        assert!(report.missed_via_code().count() >= 1);
    }

    #[test]
    fn incorrect_app_detected() {
        let app = weather_app("We will not collect your location information.");
        let report = PPChecker::new().check_app(&app).unwrap();
        assert!(report.is_incorrect());
    }

    #[test]
    fn inconsistency_needs_registered_lib_policy() {
        let app = weather_app("We may collect your location. We do not collect your device id.");
        let mut checker = PPChecker::new();
        // Without the lib policy: no inconsistency possible.
        let r1 = checker.check_app(&app).unwrap();
        assert!(!r1.is_inconsistent());
        // With unity3d's policy declaring device-id collection: conflict.
        checker.register_lib_policy(
            "unityads",
            "<p>We may collect your device id and advertising identifier.</p>",
        );
        let r2 = checker.check_app(&app).unwrap();
        assert!(r2.is_inconsistent());
        assert_eq!(r2.inconsistencies[0].lib_id, "unityads");
    }

    #[test]
    fn report_lists_embedded_libs() {
        let app = weather_app("We may collect your location and your device id.");
        let report = PPChecker::new().check_app(&app).unwrap();
        assert!(report.libs.contains(&"unityads".to_string()));
    }

    #[test]
    fn checker_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PPChecker>();
        assert_send_sync::<AppInput>();
        assert_send_sync::<StageTimings>();
        assert_send_sync::<CheckOutcome>();
    }

    #[test]
    fn policy_provider_result_is_used_verbatim() {
        let app = weather_app("We collect your email address.");
        let checker = PPChecker::new();
        // Pre-analyzed elsewhere (as a batch cache would assemble it).
        let cached = checker.analyzer().analyze_html(&app.policy_html);
        let mut called = false;
        let outcome = checker
            .check(
                CheckRequest::builder(&app)
                    .policy_provider(|_, _| {
                        called = true;
                        cached
                    })
                    .build(),
            )
            .unwrap();
        assert!(called);
        assert!(outcome.is_incomplete());
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = PPChecker::new().config_fingerprint();
        assert_eq!(base, PPChecker::new().config_fingerprint());
        assert_ne!(base, PPChecker::new().with_similarity_threshold(0.5).config_fingerprint());
        assert_ne!(
            base,
            PPChecker::new()
                .with_static_options(AnalysisOptions { reachability: false, uri_analysis: true })
                .config_fingerprint()
        );
        assert_ne!(
            base,
            PPChecker::new()
                .with_analyzer(PolicyAnalyzer::new().with_synonym_expansion())
                .config_fingerprint()
        );
        let mut with_lib = PPChecker::new();
        with_lib.register_lib_policy("unityads", "<p>We may collect your device id.</p>");
        assert_ne!(base, with_lib.config_fingerprint());
    }

    #[test]
    fn plain_request_captures_nothing() {
        let app = weather_app("We collect your email address.");
        let outcome = PPChecker::new().check_app(&app).unwrap();
        assert!(outcome.timings.is_none());
        // Deref keeps the old read patterns working.
        assert!(outcome.is_incomplete());
        assert_eq!(format!("{outcome}"), format!("{}", outcome.report));
    }

    #[test]
    fn request_builder_captures_timings() {
        let app = weather_app("We collect your email address.");
        let checker = PPChecker::new();
        let cached = checker.analyzer().analyze_html(&app.policy_html);
        let outcome = checker
            .check(
                CheckRequest::builder(&app)
                    .policy_provider(|_, _| cached)
                    .capture_timings()
                    .build(),
            )
            .unwrap();
        let timings = outcome.timings.expect("timings requested");
        assert!(timings.total() > Duration::ZERO);
        assert!(outcome.is_incomplete());
    }

    #[test]
    fn builder_outcome_matches_plain_check() {
        let app = weather_app("We will not collect your location information.");
        let checker = PPChecker::new();
        let plain = checker.check_app(&app).unwrap();
        let built = checker.check(CheckRequest::builder(&app).capture_timings().build()).unwrap();
        assert_eq!(format!("{plain}"), format!("{built}"));
        assert_eq!(plain.report.incorrect.len(), built.report.incorrect.len());
    }

    #[test]
    fn data_safety_detector_cross_checks_labels() {
        use crate::detector::{DataSafetyKind, FindingPayload};
        let mut app = weather_app("We may collect your location to show the forecast.");
        // Declared: device id (which neither code nor policy backs).
        // Undeclared: location (which code collects, permission-gated).
        app.labels = vec![DataSafetyLabel::new(ppchecker_apk::PrivateInfo::DeviceId)];
        let checker = PPChecker::new().with_detectors(DetectorId::ALL);
        let report = checker.check_app(&app).unwrap();
        let kinds: Vec<_> = report
            .findings
            .iter()
            .filter_map(|f| match &f.payload {
                FindingPayload::DataSafety(d) => Some((d.info, d.kind)),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&(
            ppchecker_apk::PrivateInfo::Location,
            DataSafetyKind::LabelOmitsCollection
        )));
        assert!(kinds
            .contains(&(ppchecker_apk::PrivateInfo::DeviceId, DataSafetyKind::PolicyOmitsLabel)));
    }

    #[test]
    fn data_safety_detector_declines_label_free_apps() {
        let app = weather_app("We collect your email address.");
        let checker = PPChecker::new().with_detectors(DetectorId::ALL);
        let report = checker.check_app(&app).unwrap();
        assert_eq!(report.detector_findings(DetectorId::DataSafety), 0);
    }

    #[test]
    fn purpose_detector_flags_contradicted_exclusive_claim() {
        use crate::detector::{FindingPayload, PurposeKind};
        // weather_app embeds unityads (an ad lib); the exclusive
        // functionality claim is contradicted by it.
        let app = weather_app(
            "We may collect your location and your device id \
             only to provide app functionality.",
        );
        let checker = PPChecker::new().with_detectors(DetectorId::ALL);
        let report = checker.check_app(&app).unwrap();
        let purpose: Vec<_> = report
            .findings
            .iter()
            .filter_map(|f| match &f.payload {
                FindingPayload::Purpose(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(purpose.len(), 1, "{report}");
        assert_eq!(purpose[0].kind, PurposeKind::Contradicted { lib_id: "unityads".into() });
    }

    #[test]
    fn boilerplate_detector_flags_second_member_of_a_family() {
        let index = Arc::new(BoilerplateIndex::new(0.8));
        let checker = PPChecker::new()
            .with_detectors(DetectorId::ALL)
            .with_boilerplate_index(Arc::clone(&index));
        let text = "We may collect your location to show the forecast. \
                    We may also collect your device id. \
                    We retain nothing longer than needed and never sell your data. \
                    We may share aggregate statistics with partners who help us run the service. \
                    You can request deletion of your account data at any time. \
                    Changes to this policy will be announced inside the application.";
        let a = weather_app(text);
        let mut b = weather_app(&format!("{text} This revision applies to channel three."));
        b.package = "com.example.weather2".into();
        assert_eq!(checker.check_app(&a).unwrap().detector_findings(DetectorId::Boilerplate), 0);
        let report = checker.check_app(&b).unwrap();
        assert_eq!(report.detector_findings(DetectorId::Boilerplate), 1, "{report}");
    }

    #[test]
    fn request_detector_selection_restricts_the_run() {
        let app = weather_app("We will not collect your location information.");
        let checker = PPChecker::new().with_detectors(DetectorId::ALL);
        let full = checker.check_app(&app).unwrap();
        assert!(full.is_incorrect());
        let only_incomplete = checker
            .check(CheckRequest::builder(&app).detectors(&[DetectorId::Incomplete]).build())
            .unwrap();
        assert!(!only_incomplete.is_incorrect());
        assert_eq!(only_incomplete.missed.len(), full.missed.len());
    }

    #[test]
    fn default_registry_ignores_labels_and_emits_no_extended_findings() {
        let mut app = weather_app("We collect your email address.");
        app.labels = vec![DataSafetyLabel::new(ppchecker_apk::PrivateInfo::DeviceId)];
        let report = PPChecker::new().check_app(&app).unwrap();
        assert!(report.findings.is_empty());
    }

    #[test]
    fn config_fingerprint_tracks_registry_and_boilerplate() {
        let base = PPChecker::new().config_fingerprint();
        assert_ne!(base, PPChecker::new().with_detectors(DetectorId::ALL).config_fingerprint());
        assert_ne!(
            base,
            PPChecker::new()
                .with_boilerplate_index(Arc::new(BoilerplateIndex::new(0.8)))
                .config_fingerprint()
        );
    }

    #[test]
    fn check_error_converts_into_unified_error() {
        let mut app = weather_app("We collect your email address.");
        app.apk = ppchecker_apk::Apk::from_packed_blob(
            app.apk.manifest.clone(),
            b"PKDX\x01not a payload".to_vec(),
        );
        let err = PPChecker::new().check_app(&app).unwrap_err();
        assert_eq!(err.stage(), crate::error::Stage::StaticAnalysis);
        assert!(err.to_string().contains("static analysis failed"), "{err}");
    }
}
