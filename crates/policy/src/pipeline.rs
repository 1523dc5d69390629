//! The six-step privacy-policy analysis pipeline (Fig. 5):
//! sentence extraction → syntactic analysis → pattern generation →
//! sentence selection → negation analysis → information-element extraction.

use crate::disclaimer;
use crate::elements::{self, Constraint, Elements};
use crate::html;
use crate::negation;
use crate::patterns::{match_sentence, Pattern, PatternKind};
use crate::purpose::{detect_purpose, PurposeClaim};
use crate::verbs::VerbCategory;
use ppchecker_nlp::depparse::parse;
use ppchecker_nlp::intern::{Interner, Symbol};
use ppchecker_nlp::sentence::{split_sentences, split_sentences_into, Sentences};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// A useful sentence with its extracted elements.
#[derive(Debug, Clone)]
pub struct AnalyzedSentence {
    /// Normalized sentence text. Shared: a cache that keys its verdicts
    /// by the sentence holds this same allocation as the key.
    pub text: Arc<str>,
    /// Behaviour category of the main verb.
    pub category: VerbCategory,
    /// `true` if the sentence is negated (Step 5).
    pub negative: bool,
    /// `true` if a consent-style exception conditions the sentence
    /// ("without your consent", "unless you opt in" — the paper's §VI
    /// observation that such constraints "affect the actual meaning").
    pub conditional: bool,
    /// The purpose the sentence states for the practice, if any
    /// ("for advertising", "only to provide app functionality").
    pub purpose: Option<PurposeClaim>,
    /// Extracted elements (Step 6).
    pub elements: Elements,
}

impl AnalyzedSentence {
    /// Resource phrases of this sentence, as text.
    pub fn resources(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.elements.resource_texts()
    }

    /// Resource phrases of this sentence, as interned symbols.
    pub fn resource_symbols(&self) -> &[Symbol] {
        &self.elements.resources
    }
}

/// What one sentence contributes to its policy's analysis: Steps 2 and
/// 4–6 plus the disclaimer scan, as a pure function of the sentence text
/// and the analyzer's configuration (see [`PolicyAnalyzer::verdict`]).
#[derive(Debug, Clone)]
pub enum SentenceVerdict {
    /// A third-party disclaimer: sets [`PolicyAnalysis::has_disclaimer`].
    Disclaimer,
    /// Matched no pattern, or a filter dropped it.
    NotUseful,
    /// A useful sentence. Shared, so documents that repeat a sentence can
    /// hold one analysis of it.
    Useful(Arc<AnalyzedSentence>),
}

/// The analysis of one privacy policy.
#[derive(Debug, Clone, Default)]
pub struct PolicyAnalysis {
    /// The useful sentences.
    pub sentences: Vec<Arc<AnalyzedSentence>>,
    /// Total sentences in the document (before selection).
    pub total_sentences: usize,
    /// `true` if the policy disclaims responsibility for third parties.
    pub has_disclaimer: bool,
}

/// Heap bytes past which a thread drops its document buffers after use
/// instead of keeping them for the next policy, so one huge policy does
/// not stay resident in a long-lived thread.
const SCRATCH_CAP_BYTES: usize = 64 << 10;

/// The document loop's buffers: the stripped text and its sentences.
struct DocScratch {
    text: String,
    sentences: Sentences,
}

impl DocScratch {
    const fn new() -> Self {
        DocScratch { text: String::new(), sentences: Sentences::new() }
    }
}

thread_local! {
    /// This thread's document buffers, refilled by each policy.
    static DOC_SCRATCH: RefCell<DocScratch> = const { RefCell::new(DocScratch::new()) };
}

/// Runs `f` on this thread's document buffers, or on fresh ones when a
/// verdict analyzes a policy of its own while the buffers are in use.
/// Buffers grown past [`SCRATCH_CAP_BYTES`] are dropped after use.
fn with_doc_scratch<R>(f: impl FnOnce(&mut DocScratch) -> R) -> R {
    DOC_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let out = f(&mut scratch);
            if scratch.text.capacity() + scratch.sentences.allocated_bytes() > SCRATCH_CAP_BYTES {
                *scratch = DocScratch::new();
            }
            out
        }
        Err(_) => f(&mut DocScratch::new()),
    })
}

impl PolicyAnalysis {
    /// The document loop of the pipeline: strips `html_doc` to its
    /// visible text (Step 1), splits it into sentences and folds in one
    /// `verdict` per sentence, in document order.
    /// [`PolicyAnalyzer::analyze_html`] passes [`PolicyAnalyzer::verdict`];
    /// a cache passes a memo of it. The text and the sentences go into
    /// buffers the thread keeps, so a policy allocates only its result.
    pub fn from_html(html_doc: &str, verdict: impl FnMut(&str) -> SentenceVerdict) -> Self {
        let _span = ppchecker_obs::span!("policy.analyze");
        with_doc_scratch(|scratch| {
            html::extract_text_into(html_doc, &mut scratch.text);
            split_sentences_into(&scratch.text, &mut scratch.sentences);
            PolicyAnalysis::fold(&scratch.sentences, verdict)
        })
    }

    /// The document loop over plain text.
    fn from_text(text: &str, verdict: impl FnMut(&str) -> SentenceVerdict) -> Self {
        PolicyAnalysis::fold(&split_sentences(text), verdict)
    }

    /// Folds one `verdict` per sentence of `sents` into an analysis; the
    /// verdicts borrow the sentences' buffer.
    fn fold(sents: &Sentences, mut verdict: impl FnMut(&str) -> SentenceVerdict) -> Self {
        let mut analysis =
            PolicyAnalysis { total_sentences: sents.len(), ..PolicyAnalysis::default() };
        for sent in sents.iter() {
            match verdict(sent) {
                SentenceVerdict::Disclaimer => analysis.has_disclaimer = true,
                SentenceVerdict::NotUseful => {}
                SentenceVerdict::Useful(sentence) => analysis.sentences.push(sentence),
            }
        }
        analysis
    }

    /// Resources of positive (`negative == false`) or negative sentences in
    /// one category: the paper's `Collect_PP` / `NotCollect_PP` etc.
    pub fn resources(&self, category: VerbCategory, negative: bool) -> BTreeSet<&'static str> {
        self.sentences
            .iter()
            .filter(|s| s.category == category && s.negative == negative)
            .flat_map(|s| s.resources())
            .collect()
    }

    /// Like [`resources`](PolicyAnalysis::resources), but as interned
    /// symbols — the form the cross-checker's set operations consume.
    pub fn resource_symbols(&self, category: VerbCategory, negative: bool) -> BTreeSet<Symbol> {
        self.sentences
            .iter()
            .filter(|s| s.category == category && s.negative == negative)
            .flat_map(|s| s.resource_symbols().iter().copied())
            .collect()
    }

    /// Union of positive resources across all four categories: the
    /// `PPInfos` set of Algorithms 1–2.
    pub fn mentioned_resources(&self) -> BTreeSet<&'static str> {
        VerbCategory::ALL.into_iter().flat_map(|c| self.resources(c, false)).collect()
    }

    /// [`mentioned_resources`](PolicyAnalysis::mentioned_resources) as
    /// interned symbols, for the incompleteness detectors' ESA probes.
    ///
    /// Sorted by text, not by id: the probes stop at the first match, and
    /// ids follow interning order, which depends on how workers
    /// interleave — so id order would make the ESA questions a run asks
    /// (and the memo counters) vary with `--jobs`.
    pub fn mentioned_resource_symbols(&self) -> Vec<Symbol> {
        let mut syms: Vec<Symbol> = self
            .sentences
            .iter()
            .filter(|s| !s.negative)
            .flat_map(|s| s.resource_symbols().iter().copied())
            .collect();
        syms.sort_unstable_by_key(|s| s.as_str());
        syms.dedup();
        syms
    }

    /// Positive sentences (for Algorithm 5's lib side).
    pub fn positive_sentences(&self) -> impl Iterator<Item = &AnalyzedSentence> {
        self.sentences.iter().map(|s| &**s).filter(|s| !s.negative)
    }

    /// Negative sentences (for Algorithm 5's app side).
    pub fn negative_sentences(&self) -> impl Iterator<Item = &AnalyzedSentence> {
        self.sentences.iter().map(|s| &**s).filter(|s| s.negative)
    }
}

/// Subjects describing the *user* rather than the app.
const SUBJECT_BLACKLIST: &[&str] =
    &["you", "user", "users", "visitor", "visitors", "customer", "customers", "member", "members"];

/// Resources that are not personal information.
const OBJECT_BLACKLIST: &[&str] = &[
    "service",
    "services",
    "website",
    "site",
    "app",
    "application",
    "policy",
    "terms",
    "agreement",
    "experience",
    "question",
    "questions",
    "feature",
    "features",
    "support",
    "page",
    "pages",
    "time",
];

/// The configured analyzer: a pattern list plus the filtering blacklists.
///
/// The stock pattern table (seeds + curated mined patterns) is built once
/// per process and borrowed by every [`PolicyAnalyzer::new`] instance;
/// only analyzers with custom or expanded pattern lists own their table.
#[derive(Debug, Clone)]
pub struct PolicyAnalyzer {
    patterns: Cow<'static, [Pattern]>,
    model_constraints: bool,
}

impl Default for PolicyAnalyzer {
    fn default() -> Self {
        PolicyAnalyzer::new()
    }
}

impl PolicyAnalyzer {
    /// An analyzer with the seed patterns plus the curated mined patterns
    /// the deployed system ships with.
    pub fn new() -> Self {
        PolicyAnalyzer { patterns: Cow::Borrowed(default_pattern_set()), model_constraints: false }
    }

    /// An analyzer over an explicit (e.g. freshly bootstrapped) pattern
    /// list.
    pub fn with_patterns(patterns: Vec<Pattern>) -> Self {
        PolicyAnalyzer { patterns: Cow::Owned(patterns), model_constraints: false }
    }

    /// The active pattern list.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// A stable fingerprint of this analyzer's configuration: the
    /// persisted text form of the pattern table plus the constraint-
    /// modeling flag. Two analyzers with the same fingerprint produce the
    /// same [`PolicyAnalysis`] for the same input, so the checker's
    /// configuration fingerprint, which keys every stored report, folds
    /// this in — changing the pattern set invalidates stored reports
    /// instead of replaying them.
    pub fn fingerprint(&self) -> u64 {
        // The trailing constant is the analysis format version: bumped
        // when `AnalyzedSentence` gains a field (and the wire codec a
        // column), so reports stored under an older format key
        // differently and recompute.
        let text = crate::persist::to_text(&self.patterns);
        ppchecker_store::combine_hashes(&[
            ppchecker_store::content_hash(text.as_bytes()),
            u64::from(self.model_constraints),
            2,
        ])
    }

    /// Enables constraint modeling (the paper's §VI future-work item):
    /// a denial carrying a consent-style exception ("we will not share X
    /// *without your consent*") is conditional rather than absolute, so it
    /// is excluded from the `Not*_PP` sets instead of producing spurious
    /// incorrect/inconsistent findings.
    pub fn with_constraint_modeling(mut self) -> Self {
        self.model_constraints = true;
        self
    }

    /// Enables verb-synonym expansion (the paper's §V-E future-work item):
    /// additional verbs like "display" are mapped onto the four categories,
    /// recovering sentences the mined patterns miss.
    pub fn with_synonym_expansion(mut self) -> Self {
        let patterns = self.patterns.to_mut();
        for &p in crate::synonyms::synonym_patterns() {
            if !patterns.contains(&p) {
                patterns.push(p);
            }
        }
        self
    }

    /// Analyzes a privacy policy delivered as HTML.
    pub fn analyze_html(&self, html_doc: &str) -> PolicyAnalysis {
        PolicyAnalysis::from_html(html_doc, |sentence| self.verdict(sentence))
    }

    /// Analyzes plain policy text.
    pub fn analyze_text(&self, text: &str) -> PolicyAnalysis {
        PolicyAnalysis::from_text(text, |sentence| self.verdict(sentence))
    }

    /// The verdict on one sentence: a disclaimer, or else
    /// [`analyze_sentence`](Self::analyze_sentence)'s result.
    pub fn verdict(&self, sentence: impl AsRef<str> + Into<Arc<str>>) -> SentenceVerdict {
        if disclaimer::is_disclaimer(sentence.as_ref()) {
            return SentenceVerdict::Disclaimer;
        }
        match self.analyze_sentence(sentence) {
            Some(analyzed) => SentenceVerdict::Useful(Arc::new(analyzed)),
            None => SentenceVerdict::NotUseful,
        }
    }

    /// Runs steps 2 and 4–6 on one sentence. Returns `None` for sentences
    /// that are not useful. A useful sentence keeps `text` as its
    /// [`text`](AnalyzedSentence::text): a `&str` is copied there, an
    /// `Arc<str>` is kept as it is; a sentence that is not useful copies
    /// nothing.
    pub fn analyze_sentence(
        &self,
        text: impl AsRef<str> + Into<Arc<str>>,
    ) -> Option<AnalyzedSentence> {
        let sentence = text.as_ref();
        let p = parse(sentence);
        let m = match_sentence(&p, &self.patterns)?;
        let negative = negation::is_negative(&p, m.verb)
            || p.root.is_some_and(|r| r != m.verb && negation::is_negative(&p, r));
        let els = elements::extract(&p, &m);
        let conditional = has_consent_exception(sentence);
        if self.model_constraints && negative && conditional {
            // A consent-gated denial neither promises nor forbids the
            // behaviour unconditionally.
            return None;
        }

        // Subject blacklist: sentences about the user's own actions.
        if let Some(exec) = els.executor() {
            if SUBJECT_BLACKLIST.contains(&exec) {
                return None;
            }
            if exec.contains("website") || exec.contains("site") {
                return None;
            }
        }

        // Constraint filter: behaviours performed on the website, not by
        // the app (registration through a website; website visit logging).
        if els.constraints.iter().any(|c: &Constraint| {
            c.text.contains("website") || c.text.contains("web site") || c.text.contains("our site")
        }) {
            return None;
        }

        // Object blacklist: resources that are not personal information.
        let resources: Vec<Symbol> = els
            .resources
            .iter()
            .copied()
            .filter(|r| {
                let text = r.as_str();
                let head = text.split_whitespace().last().unwrap_or(text);
                !OBJECT_BLACKLIST.contains(&head)
            })
            .collect();
        if resources.is_empty() {
            return None;
        }

        let purpose = detect_purpose(sentence);
        Some(AnalyzedSentence {
            text: text.into(),
            category: m.category,
            negative,
            conditional,
            purpose,
            elements: Elements { resources, ..els },
        })
    }
}

/// Detects consent-style exceptions that condition a sentence's meaning.
fn has_consent_exception(sentence: &str) -> bool {
    const EXCEPTIONS: &[&str] = &[
        "without your consent",
        "without your permission",
        "without your prior consent",
        "without your explicit consent",
        "unless you consent",
        "unless you agree",
        "unless you opt in",
        "unless you allow us",
        "with your consent",
        "except as described",
        "except as required by law",
        "if you do not allow us",
    ];
    if !sentence.is_ascii() {
        // Non-ASCII text can lowercase into ASCII (U+212A KELVIN SIGN
        // becomes `k`), so it keeps the full Unicode mapping.
        let lower = sentence.to_lowercase();
        return EXCEPTIONS.iter().any(|e| lower.contains(e));
    }
    // The splitter hands over lowercase ASCII, which `contains` searches
    // as is; other ASCII folds case in place, window by window.
    if !sentence.bytes().any(|b| b.is_ascii_uppercase()) {
        return EXCEPTIONS.iter().any(|e| sentence.contains(e));
    }
    let bytes = sentence.as_bytes();
    EXCEPTIONS.iter().any(|e| bytes.windows(e.len()).any(|w| w.eq_ignore_ascii_case(e.as_bytes())))
}

/// The full stock pattern table (seeds + curated mined patterns), built
/// once per process.
pub fn default_pattern_set() -> &'static [Pattern] {
    static SET: OnceLock<Vec<Pattern>> = OnceLock::new();
    SET.get_or_init(|| {
        let mut patterns = Pattern::seeds();
        patterns.extend(default_mined_patterns());
        patterns
    })
}

/// The curated mined patterns the deployed analyzer ships with (a compact
/// stand-in for the top-230 bootstrap selection; the full bootstrap is
/// exercised by the Fig. 12 bench).
pub fn default_mined_patterns() -> Vec<Pattern> {
    use VerbCategory::*;
    let interner = Interner::global();
    let lex = |verb: &'static str, category| {
        Pattern::new(PatternKind::LexicalVerb { verb: interner.intern_static(verb), category })
    };
    vec![
        lex("harvest", Collect),
        lex("view", Collect),
        lex("monitor", Collect),
        lex("check", Collect),
        lex("scan", Collect),
        lex("sync", Collect),
        lex("know", Collect),
        lex("log", Retain),
        lex("upload", Disclose),
        lex("post", Disclose),
        lex("publish", Disclose),
        lex("report", Disclose),
        Pattern::new(PatternKind::VerbNounResource {
            verb: interner.intern_static("have"),
            noun: interner.intern_static("access"),
            category: Collect,
        }),
        Pattern::new(PatternKind::VerbNounResource {
            verb: interner.intern_static("make"),
            noun: interner.intern_static("use"),
            category: Use,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer() -> PolicyAnalyzer {
        PolicyAnalyzer::new()
    }

    #[test]
    fn extracts_collect_set() {
        let a = analyzer().analyze_text(
            "We value your privacy. We will collect your location and your device id. \
             We will not share your contacts.",
        );
        let collected = a.resources(VerbCategory::Collect, false);
        assert!(collected.contains("location"));
        assert!(collected.contains("device id"));
        let not_disclosed = a.resources(VerbCategory::Disclose, true);
        assert!(not_disclosed.contains("contacts"));
    }

    #[test]
    fn negative_retain_set() {
        // com.easyxapp.secret's sentence (§II-B).
        let a =
            analyzer().analyze_text("We will not store your real phone number, name and contacts.");
        let not_retained = a.resources(VerbCategory::Retain, true);
        assert!(not_retained.contains("real phone number"));
        assert!(not_retained.contains("name"));
        assert!(not_retained.contains("contacts"));
    }

    #[test]
    fn user_subject_sentences_dropped() {
        let a = analyzer().analyze_text("You may provide your email address.");
        assert!(a.sentences.is_empty());
    }

    #[test]
    fn website_constraint_dropped() {
        let a = analyzer()
            .analyze_text("We collect your email address when you register through our website.");
        assert!(a.sentences.is_empty());
    }

    #[test]
    fn blacklisted_objects_dropped() {
        let a = analyzer().analyze_text("We will improve the service.");
        assert!(a.sentences.is_empty());
    }

    #[test]
    fn disclaimer_flag_set() {
        let a = analyzer().analyze_text(
            "We are not responsible for the privacy practices of those third party sites. \
             We collect your location.",
        );
        assert!(a.has_disclaimer);
        assert_eq!(a.sentences.len(), 1);
    }

    #[test]
    fn html_pipeline_end_to_end() {
        let htmldoc = "<html><body><h1>Privacy Policy</h1>\
            <p>We may collect your location and IP address.</p>\
            <script>track();</script>\
            <p>We will not disclose your phone number.</p></body></html>";
        let a = analyzer().analyze_html(htmldoc);
        assert!(a.resources(VerbCategory::Collect, false).contains("location"));
        assert!(a.resources(VerbCategory::Disclose, true).contains("phone number"));
    }

    #[test]
    fn enumeration_list_resources_extracted() {
        let a = analyzer().analyze_text(
            "We will collect the following information: your name; your IP address; your device ID.",
        );
        // The splitter repairs the enumeration into one sentence; the
        // resource extraction reaches at least the first conjunct chain.
        assert!(!a.sentences.is_empty());
    }

    #[test]
    fn mentioned_resources_unions_categories() {
        let a = analyzer().analyze_text(
            "We collect your location. We store your email address. We may share your device id.",
        );
        let all = a.mentioned_resources();
        assert!(all.contains("location"));
        assert!(all.contains("email address"));
        assert!(all.contains("device id"));
        let syms: Vec<&str> = a.mentioned_resource_symbols().iter().map(|s| s.as_str()).collect();
        assert_eq!(syms, all.into_iter().collect::<Vec<_>>(), "symbols come in text order");
    }

    #[test]
    fn fingerprint_tracks_configuration() {
        let stock = PolicyAnalyzer::new();
        assert_eq!(stock.fingerprint(), PolicyAnalyzer::new().fingerprint());
        assert_ne!(
            stock.fingerprint(),
            PolicyAnalyzer::new().with_synonym_expansion().fingerprint()
        );
        assert_ne!(
            stock.fingerprint(),
            PolicyAnalyzer::new().with_constraint_modeling().fingerprint()
        );
        assert_ne!(
            stock.fingerprint(),
            PolicyAnalyzer::with_patterns(Pattern::seeds()).fingerprint()
        );
    }

    #[test]
    fn purpose_claims_ride_the_analyzed_sentence() {
        let a = analyzer().analyze_text(
            "We use your device id only to provide app functionality. \
             We collect your location for advertising purposes. \
             We may retain your email address.",
        );
        let claims: Vec<_> = a.sentences.iter().map(|s| s.purpose).collect();
        assert!(claims.contains(&Some(crate::purpose::PurposeClaim {
            purpose: crate::purpose::Purpose::Functionality,
            exclusive: true,
        })));
        assert!(claims.contains(&Some(crate::purpose::PurposeClaim {
            purpose: crate::purpose::Purpose::Advertising,
            exclusive: false,
        })));
        assert!(claims.contains(&None));
    }

    /// A verdict that analyzes a policy of its own while the thread's
    /// document buffers are in use gets fresh buffers: both the nested
    /// and the outer analyses equal their unnested forms.
    #[test]
    fn a_verdict_may_analyze_a_policy_of_its_own() {
        use crate::wire::encode_analysis;
        let analyzer = analyzer();
        let outer = "<p>We collect your location. We will not share your contacts.</p>\
                     <p>We are not responsible for the privacy practices of third party sites.</p>";
        let inner = "<h1>Other</h1><p>We may store your device id. You may provide your email.</p>";
        let inner_alone = encode_analysis(&analyzer.analyze_html(inner));
        let mut nested = Vec::new();
        let outer_nested = PolicyAnalysis::from_html(outer, |sentence| {
            nested.push(encode_analysis(&analyzer.analyze_html(inner)));
            analyzer.verdict(sentence)
        });
        assert_eq!(nested, vec![inner_alone; 3]);
        assert_eq!(encode_analysis(&outer_nested), encode_analysis(&analyzer.analyze_html(outer)));
    }

    #[test]
    fn total_sentences_counted() {
        let a = analyzer().analyze_text("One. Two. Three.");
        assert_eq!(a.total_sentences, 3);
    }
}

#[cfg(test)]
mod constraint_tests {
    use super::*;

    const CONDITIONAL_DENIAL: &str = "we will not share your location without your consent.";

    #[test]
    fn consent_exceptions_match_in_any_case() {
        // Mixed-case ASCII folds in place.
        assert!(has_consent_exception("We will NOT share it Without Your Prior Consent."));
        assert!(has_consent_exception("except AS REQUIRED BY LAW"));
        assert!(!has_consent_exception("We Share It With Your Friends."));
        // Already lowercase ASCII, as the splitter hands it over.
        assert!(has_consent_exception(CONDITIONAL_DENIAL));
        assert!(!has_consent_exception("we will not share your location."));
    }

    #[test]
    fn non_ascii_sentences_keep_the_unicode_lowercase() {
        // U+212A KELVIN SIGN lowercases to ASCII `k`: the sentence takes
        // the `to_lowercase` path, which still finds the phrase.
        let kelvin = "Readings in \u{212A} are never shared WITHOUT YOUR CONSENT.";
        assert!(!kelvin.is_ascii());
        assert!(has_consent_exception(kelvin));
        assert!(has_consent_exception("Ünless nothing — unless You Agree"));
        assert!(!has_consent_exception("Readings in \u{212A} are shared."));
        // A phrase split by a non-ASCII character does not match.
        assert!(!has_consent_exception("without your\u{00A0}consent"));
    }

    #[test]
    fn conditional_denial_is_marked() {
        let a = PolicyAnalyzer::new().analyze_text(CONDITIONAL_DENIAL);
        assert_eq!(a.sentences.len(), 1);
        assert!(a.sentences[0].negative);
        assert!(a.sentences[0].conditional);
    }

    #[test]
    fn constraint_modeling_drops_conditional_denials() {
        let analyzer = PolicyAnalyzer::new().with_constraint_modeling();
        let a = analyzer.analyze_text(CONDITIONAL_DENIAL);
        assert!(a.sentences.is_empty());
        // Unconditional denials survive.
        let b = analyzer.analyze_text("we will not share your location.");
        assert_eq!(b.sentences.len(), 1);
        // Positive sentences with consent wording also survive.
        let c = analyzer.analyze_text("we may collect your location with your consent.");
        assert_eq!(c.sentences.len(), 1);
        assert!(c.sentences[0].conditional);
    }

    #[test]
    fn unless_phrasing_detected() {
        let a = PolicyAnalyzer::new()
            .analyze_text("we do not disclose your contacts unless you agree.");
        assert!(a.sentences[0].conditional);
    }
}
