//! The ESA interpreter: term → concept-space vectors and text similarity.
//!
//! The numeric core lives in [`crate::kernel`]: the inverted index is
//! compiled to CSR once at construction, interpretation vectors are flat
//! sorted [`SparseVector`]s, and the threshold predicate combines a
//! norm-bound prune with a symbol-pair verdict memo. The `f64` public API
//! and the 0.67 verdict semantics are unchanged (DESIGN.md §10).
//!
//! Every threshold comparison goes through one function,
//! [`Interpreter::similarity_above`]: the memoized verdicts and the
//! description analyzer's one-phrase-against-many-profiles loop alike.
//! It alone applies the norm-bound prune and counts what it pruned
//! ([`Interpreter::pruned_comparisons`]).

use crate::kb::{concepts, Concept};
use crate::kernel::{self, CsrIndex, SparseVector};
use ppchecker_nlp::intern::Symbol;
use ppchecker_obs::{CacheStats, Memo};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Similarity threshold adopted by the paper (following AutoCog): two texts
/// whose ESA cosine similarity reaches this value "refer to the same thing".
pub const SIMILARITY_THRESHOLD: f64 = 0.67;

/// A sparse vector in concept space: `concept index → weight`.
///
/// Retained as the *reference representation*: [`Interpreter::interpret`]
/// produces it and [`cosine`] consumes it, and the property tests hold the
/// CSR kernel to it within 1e-6. The hot path uses [`SparseVector`].
pub type ConceptVector = HashMap<usize, f64>;

/// Upper bound on memoized interpretation vectors; past this the cache
/// stops admitting new texts.
const VECTOR_CACHE_CAP: usize = 65_536;

/// Upper bound on memoized symbol-pair verdicts.
const PAIR_MEMO_CAP: usize = 131_072;

/// Explicit Semantic Analysis interpreter over the bundled knowledge base.
///
/// Builds a TF-IDF inverted index from terms to concepts once (in CSR
/// layout); texts are interpreted as the TF-weighted sum of their terms'
/// concept vectors and compared by cosine similarity.
///
/// # Examples
///
/// ```
/// use ppchecker_esa::Interpreter;
/// let esa = Interpreter::shared();
/// assert!(esa.similarity("location", "location information") > 0.67);
/// assert!(esa.similarity("location", "device id") < 0.67);
/// ```
#[derive(Debug)]
pub struct Interpreter {
    /// term → sorted (concept, tf-idf weight) postings, CSR-compiled.
    index: CsrIndex,
    n_concepts: usize,
    /// Memoized interpretation vectors, keyed by the text itself. Policy
    /// phrases and resource names repeat massively across a corpus, so
    /// [`vector_of`](Self::vector_of) interprets each text once. Keying
    /// by text keeps the phrases out of the interner; an `Arc<str>` key
    /// clones without copying the text.
    vector_cache: Memo<Arc<str>, Arc<SparseVector>>,
    /// `same_thing` verdicts at the paper threshold, keyed by
    /// canonically ordered symbol pair (cosine is symmetric, so `(a, b)`
    /// and `(b, a)` share one entry). A corpus re-asks identical resource
    /// pairs thousands of times across apps.
    pair_memo: Memo<(Symbol, Symbol), bool>,
    /// Threshold comparisons answered by the norm bound alone.
    pruned: AtomicU64,
}

impl Interpreter {
    /// Builds an interpreter over the given concept corpus.
    pub fn new(corpus: &[Concept]) -> Self {
        Interpreter {
            index: build_index(corpus),
            n_concepts: corpus.len(),
            vector_cache: Memo::new(VECTOR_CACHE_CAP),
            pair_memo: Memo::new(PAIR_MEMO_CAP),
            pruned: AtomicU64::new(0),
        }
    }

    /// Returns the process-wide interpreter over the bundled knowledge base.
    pub fn shared() -> &'static Interpreter {
        static ESA: OnceLock<Interpreter> = OnceLock::new();
        ESA.get_or_init(|| Interpreter::new(concepts()))
    }

    /// Number of concepts in the knowledge base.
    pub fn concept_count(&self) -> usize {
        self.n_concepts
    }

    /// Maps a text to its concept-space interpretation vector.
    ///
    /// Reference (HashMap) representation; the hot path uses
    /// [`interpret_sparse`](Self::interpret_sparse). Both read the same
    /// CSR rows, so they agree to within the kernel's f32 quantization.
    pub fn interpret(&self, text: &str) -> ConceptVector {
        let mut v: ConceptVector = HashMap::new();
        for term in terms(text) {
            if let Some(id) = self.index.term_id(&term) {
                let (concepts, weights) = self.index.row(id);
                for (&ci, &w) in concepts.iter().zip(weights) {
                    *v.entry(ci as usize).or_insert(0.0) += w as f64;
                }
            }
        }
        v
    }

    /// Maps a text to its kernel-form interpretation vector: sorted
    /// `(concept, weight)` pairs with precomputed norm and max weight.
    pub fn interpret_sparse(&self, text: &str) -> SparseVector {
        let mut contributions: Vec<(u32, f64)> = Vec::new();
        for term in terms(text) {
            if let Some(id) = self.index.term_id(&term) {
                let (concepts, weights) = self.index.row(id);
                contributions.reserve(concepts.len());
                for (&ci, &w) in concepts.iter().zip(weights) {
                    contributions.push((ci, w as f64));
                }
            }
        }
        SparseVector::from_contributions(contributions)
    }

    /// Counters of the interpretation-vector cache.
    pub fn vector_cache_stats(&self) -> CacheStats {
        self.vector_cache.stats()
    }

    /// Counters of the symbol-pair verdict memo.
    pub fn pair_memo_stats(&self) -> CacheStats {
        self.pair_memo.stats()
    }

    /// Threshold comparisons decided by the norm bound without a dot
    /// product.
    pub fn pruned_comparisons(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Cosine similarity of two texts in concept space, in `[0, 1]`.
    ///
    /// Returns `0.0` when either text has no known terms. Both
    /// interpretation vectors come from the vector memo, a pure-function
    /// cache: results are identical with or without it.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        kernel::cosine(&self.vector_of(a), &self.vector_of(b))
    }

    /// [`similarity`](Self::similarity) of two symbols' texts.
    pub fn similarity_sym(&self, a: Symbol, b: Symbol) -> f64 {
        self.similarity(a.as_str(), b.as_str())
    }

    /// The memoized kernel-form interpretation of `text`.
    ///
    /// Callers that compare one text against many (e.g. the description
    /// analyzer's permission profiles) should resolve each vector once and
    /// combine them with [`similarity_above`](Self::similarity_above) or
    /// [`kernel::cosine`], instead of paying a cache probe per pair.
    pub fn vector_of(&self, text: &str) -> Arc<SparseVector> {
        self.vector_cache.get_or_compute(text, |_| {
            let _span = ppchecker_obs::span!("esa.vector_build");
            Arc::new(self.interpret_sparse(text))
        })
    }

    /// The cosine similarity of two interpretation vectors when it reaches
    /// `threshold`, `None` otherwise.
    ///
    /// Pairs whose norm bound cannot reach the threshold are rejected
    /// without a dot product; the bound dominates the cosine, so the
    /// outcome is exactly `(cos >= threshold).then_some(cos)`.
    pub fn similarity_above(
        &self,
        a: &SparseVector,
        b: &SparseVector,
        threshold: f64,
    ) -> Option<f64> {
        if kernel::cosine_upper_bound(a, b) < threshold - kernel::PRUNE_MARGIN {
            self.pruned.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let cos = kernel::cosine(a, b);
        (cos >= threshold).then_some(cos)
    }

    /// Decides the paper's "matching" predicate: whether two pieces of
    /// information refer to the same thing (similarity ≥ threshold).
    pub fn same_thing(&self, a: &str, b: &str) -> bool {
        self.same_thing_at(a, b, SIMILARITY_THRESHOLD)
    }

    /// [`same_thing`](Self::same_thing) at a caller-chosen threshold
    /// (norm-bound pruned, verdict-exact for any threshold). Text-keyed
    /// verdicts are not memoized; the vectors are.
    pub fn same_thing_at(&self, a: &str, b: &str, threshold: f64) -> bool {
        self.similarity_above(&self.vector_of(a), &self.vector_of(b), threshold).is_some()
    }

    /// Symbol-keyed [`same_thing`](Self::same_thing); verdicts at the
    /// paper threshold are memoized per canonical symbol pair.
    pub fn same_thing_sym(&self, a: Symbol, b: Symbol) -> bool {
        self.same_thing_sym_at(a, b, SIMILARITY_THRESHOLD)
    }

    /// [`same_thing_sym`](Self::same_thing_sym) at a caller-chosen
    /// threshold. Only the paper threshold consults the pair memo (a
    /// verdict is threshold-specific); other thresholds still get the
    /// vector memo and the norm-bound prune.
    pub fn same_thing_sym_at(&self, a: Symbol, b: Symbol, threshold: f64) -> bool {
        let decide = || self.same_thing_at(a.as_str(), b.as_str(), threshold);
        if threshold != SIMILARITY_THRESHOLD {
            return decide();
        }
        self.pair_memo.get_or_compute(&if a <= b { (a, b) } else { (b, a) }, |_| decide())
    }
}

/// Cosine similarity between sparse concept vectors (reference path).
///
/// Routed through the same merge kernel as the CSR hot path
/// ([`kernel::merge_dot`]) after sorting the map entries.
pub fn cosine(a: &ConceptVector, b: &ConceptVector) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    fn sorted(m: &ConceptVector) -> (Vec<u32>, Vec<f64>) {
        let mut v: Vec<(u32, f64)> = m.iter().map(|(&c, &w)| (c as u32, w)).collect();
        v.sort_unstable_by_key(|&(c, _)| c);
        v.into_iter().unzip()
    }
    let ((ia, wa), (ib, wb)) = (sorted(a), sorted(b));
    let dot = kernel::merge_dot(&ia, &wa, &ib, &wb);
    let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Compiles the L2-normalized tf-idf index of `corpus` in one pass over
/// its words.
///
/// Terms are numbered in first-seen order and borrow from the concept
/// texts (a term owns its text only when lowercasing or [`singularize`]
/// rewrote it). Each concept's terms are counted by sorting their ids,
/// and every weight is `(1 + ln tf) · idf` divided by its row's norm,
/// summed in concept order, so the rows are bit-identical to the
/// per-term maps this replaced (the `build_oracle` tests hold them to
/// it).
fn build_index(corpus: &[Concept]) -> CsrIndex {
    let _span = ppchecker_obs::span!("esa.index_build");
    // About one distinct term per 12 bytes of article text (621 in the
    // bundled KB's 7,688), so the map is sized once.
    let text_bytes: usize = corpus.iter().map(|c| c.text.len()).sum();
    let mut term_ids: HashMap<Cow<'static, str>, u32> = HashMap::with_capacity(text_bytes / 12);
    // Every term occurrence as its id, concept after concept.
    let mut occurrences: Vec<u32> = Vec::new();
    let mut concept_ends = Vec::with_capacity(corpus.len());
    for concept in corpus {
        for term in terms(concept.text) {
            let next = term_ids.len() as u32;
            occurrences.push(*term_ids.entry(term).or_insert(next));
        }
        concept_ends.push(occurrences.len());
    }
    // Each concept's distinct terms with their counts, and each term's
    // document frequency.
    let mut df = vec![0u32; term_ids.len()];
    let mut counts: Vec<(u32, u32)> = Vec::with_capacity(occurrences.len());
    let mut count_ends = Vec::with_capacity(corpus.len());
    let mut start = 0;
    for &end in &concept_ends {
        let ids = &mut occurrences[start..end];
        ids.sort_unstable();
        for run in ids.chunk_by(|a, b| a == b) {
            counts.push((run[0], run.len() as u32));
            df[run[0] as usize] += 1;
        }
        count_ends.push(counts.len());
        start = end;
    }
    // A term's row holds one posting per concept that uses it, in
    // concept order.
    let mut offsets = Vec::with_capacity(df.len() + 1);
    offsets.push(0u32);
    for &d in &df {
        offsets.push(offsets[offsets.len() - 1] + d);
    }
    let n = corpus.len() as f64;
    let idf: Vec<f64> = df.iter().map(|&d| ((n + 1.0) / (d as f64 + 1.0)).ln() + 1.0).collect();
    let mut cursor = offsets[..df.len()].to_vec();
    let mut concept_ids = vec![0u32; counts.len()];
    let mut weights = vec![0f64; counts.len()];
    let mut start = 0;
    for (ci, &end) in count_ends.iter().enumerate() {
        for &(term, count) in &counts[start..end] {
            let at = cursor[term as usize] as usize;
            cursor[term as usize] += 1;
            concept_ids[at] = ci as u32;
            weights[at] = (1.0 + (count as f64).ln()) * idf[term as usize];
        }
        start = end;
    }
    // L2-normalize each term's interpretation vector so frequent terms
    // don't dominate purely by article length.
    for bounds in offsets.windows(2) {
        let row = &mut weights[bounds[0] as usize..bounds[1] as usize];
        let norm = row.iter().map(|w| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for w in row.iter_mut() {
                *w /= norm;
            }
        }
    }
    let weights = weights.into_iter().map(|w| w as f32).collect();
    CsrIndex::from_parts(term_ids, offsets, concept_ids, weights)
}

/// Whether `term` is a stopword, excluded from interpretation. A `match`
/// on the literals compiles to length and byte compares, about 7×
/// cheaper per word than scanning a list of them.
#[rustfmt::skip]
fn is_stopword(term: &str) -> bool {
    matches!(
        term,
        "the" | "a" | "an" | "of" | "to" | "and" | "or" | "in" | "on" | "at" | "by" | "for"
            | "with" | "from" | "is" | "are" | "was" | "were" | "be" | "been" | "will"
            | "would" | "can" | "could" | "may" | "might" | "we" | "you" | "your" | "our"
            | "their" | "this" | "that" | "these" | "those" | "it" | "its" | "as" | "not"
            | "no" | "any" | "all" | "such" | "other" | "about" | "into" | "if" | "when"
            | "than" | "then"
    )
}

/// Extracts normalized terms: lowercase alphanumeric tokens, stopwords
/// removed, naive plural stripping so "cookies" matches "cookie". A term
/// borrows from `text` unless lowercasing or singularizing rewrote it.
fn terms(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    words(text).map(lowercase).filter(|t| t.len() > 1 && !is_stopword(t)).map(singularize)
}

/// The maximal runs of alphanumeric characters and `-` in `text`, as
/// `text.split(|c: char| !c.is_alphanumeric() && c != '-')` yields them
/// without the empty pieces. ASCII bytes are classified one by one;
/// only a non-ASCII byte decodes its character.
fn words(text: &str) -> impl Iterator<Item = &str> {
    // The length of the character at `i` and whether it belongs to a word.
    let class_at = move |i: usize| -> (usize, bool) {
        let b = text.as_bytes()[i];
        if b.is_ascii() {
            return (1, b.is_ascii_alphanumeric() || b == b'-');
        }
        let c = text[i..].chars().next().expect("a character starts here");
        (c.len_utf8(), c.is_alphanumeric())
    };
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = loop {
            if i == text.len() {
                return None;
            }
            let (len, in_word) = class_at(i);
            if in_word {
                break i;
            }
            i += len;
        };
        while i < text.len() {
            let (len, in_word) = class_at(i);
            if !in_word {
                break;
            }
            i += len;
        }
        Some(&text[start..i])
    })
}

/// `t.to_lowercase()`, borrowed when that changes nothing.
fn lowercase(t: &str) -> Cow<'_, str> {
    if !t.bytes().any(|b| b.is_ascii_uppercase() || !b.is_ascii()) {
        return Cow::Borrowed(t);
    }
    // Non-ASCII text can lowercase to other bytes, or none (U+212A
    // KELVIN SIGN becomes `k`), so compare the whole mapping.
    let lower = t.to_lowercase();
    if lower == t {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(lower)
    }
}

/// Nouns whose singular ends in "-ie": their "-ies" plural is just the
/// singular plus "s", so stripping it must not rewrite the ending to "y"
/// ("cookies" → "cookie", not "cooky").
const IE_SINGULARS: &[&str] = &[
    "birdie", "brownie", "calorie", "cookie", "freebie", "genie", "goalie", "laddie", "movie",
    "newbie", "pixie", "prairie", "rookie", "selfie", "smoothie", "sortie", "veggie", "zombie",
];

/// Strips a plural ending. Stripping keeps the term's storage (a prefix
/// of a borrowed term stays borrowed); only consonant + "ies" → "y"
/// writes a new string.
fn singularize(t: Cow<'_, str>) -> Cow<'_, str> {
    let len = t.len();
    let keep = if t.ends_with("ies") && len > 4 {
        let minus_s = &t[..len - 1];
        let before = t.as_bytes()[len - 4];
        if IE_SINGULARS.contains(&minus_s) || matches!(before, b'a' | b'e' | b'i' | b'o' | b'u') {
            // "-ie" singulars and vowel+"ies" words pluralize by bare "s";
            // only consonant+"ies" comes from a "-y" singular.
            len - 1
        } else {
            return Cow::Owned(format!("{}y", &t[..len - 3]));
        }
    } else if t.ends_with('s')
        && !t.ends_with("ss")
        && !matches!(&*t, "gps" | "sms" | "its" | "this" | "analytics" | "diagnostics" | "address")
        && len > 3
    {
        len - 1
    } else {
        len
    };
    match t {
        Cow::Borrowed(t) => Cow::Borrowed(&t[..keep]),
        Cow::Owned(mut t) => {
            t.truncate(keep);
            Cow::Owned(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esa() -> &'static Interpreter {
        Interpreter::shared()
    }

    #[test]
    fn self_similarity_is_one() {
        let s = esa().similarity("location", "location");
        assert!((s - 1.0).abs() < 1e-9, "self similarity was {s}");
    }

    #[test]
    fn symmetry() {
        let ab = esa().similarity("location data", "gps coordinates");
        let ba = esa().similarity("gps coordinates", "location data");
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn same_concept_phrases_match() {
        assert!(esa().same_thing("location", "location information"));
        assert!(esa().same_thing("contact", "contacts list"));
        assert!(esa().same_thing("device id", "device identifier"));
        assert!(esa().same_thing("phone number", "telephone number"));
    }

    #[test]
    fn related_terms_match_via_shared_concept() {
        assert!(esa().same_thing("latitude", "location"));
        assert!(esa().same_thing("gps", "location"));
    }

    #[test]
    fn different_concepts_do_not_match() {
        assert!(!esa().same_thing("location", "device id"));
        assert!(!esa().same_thing("contact", "calendar"));
        assert!(!esa().same_thing("camera", "sms"));
        assert!(!esa().same_thing("location", "cookie"));
    }

    #[test]
    fn unrelated_domains_are_dissimilar() {
        assert!(esa().similarity("location", "game score") < 0.3);
        assert!(esa().similarity("contact list", "weather forecast") < 0.3);
    }

    #[test]
    fn paper_false_positive_reproduced() {
        // §V-E: ESA mistakenly matched "information" (StaffMark) with
        // "personal information" (AdMob) — the reproduction preserves this
        // failure mode.
        assert!(esa().same_thing("information", "personal information"));
    }

    #[test]
    fn unknown_terms_yield_zero() {
        assert_eq!(esa().similarity("zzzqqq", "location"), 0.0);
        assert_eq!(esa().similarity("", ""), 0.0);
    }

    #[test]
    fn similarity_in_unit_range() {
        for (a, b) in [
            ("location", "contacts"),
            ("personal information", "data"),
            ("camera photos", "pictures"),
        ] {
            let s = esa().similarity(a, b);
            assert!((0.0..=1.0).contains(&s), "similarity({a},{b}) = {s}");
        }
    }

    #[test]
    fn plural_invariance() {
        let s1 = esa().similarity("cookie", "cookies");
        assert!(s1 > 0.99);
    }

    #[test]
    fn singularize_consonant_ies_becomes_y() {
        assert_eq!(singularize("categories".into()), "category");
        assert_eq!(singularize("policies".into()), "policy");
        assert_eq!(singularize("parties".into()), "party");
    }

    #[test]
    fn singularize_ie_nouns_keep_their_ending() {
        assert_eq!(singularize("cookies".into()), "cookie");
        assert_eq!(singularize("movies".into()), "movie");
        assert_eq!(singularize("selfies".into()), "selfie");
        assert_eq!(singularize("zombies".into()), "zombie");
    }

    #[test]
    fn singular_and_plural_map_to_the_same_term() {
        for (singular, plural) in [
            ("cookie", "cookies"),
            ("movie", "movies"),
            ("category", "categories"),
            ("policy", "policies"),
        ] {
            assert!(terms(singular).eq(terms(plural)), "{singular} vs {plural}");
        }
    }

    #[test]
    fn threshold_predicate_matches_exact_similarity() {
        // The norm-bound prune and the pair memo must be invisible at the
        // verdict level: every predicate answer equals the exact
        // similarity compared against the threshold — asked twice, so the
        // second round is served by the memo.
        let phrases = ["location", "device id", "cookie", "personal information", "game score"];
        for _ in 0..2 {
            for a in phrases {
                for b in phrases {
                    assert_eq!(
                        esa().same_thing(a, b),
                        esa().similarity(a, b) >= SIMILARITY_THRESHOLD,
                        "verdict diverged for ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_memo_serves_repeats() {
        use ppchecker_nlp::intern::intern;
        let esa = esa();
        let (a, b) = (intern("memo probe alpha location"), intern("memo probe beta gps"));
        let first = esa.same_thing_sym(a, b);
        let before = esa.pair_memo_stats();
        let second = esa.same_thing_sym(a, b);
        let after = esa.pair_memo_stats();
        assert_eq!(first, second);
        assert_eq!(after.misses, before.misses, "repeat must not miss");
        assert!(after.hits > 0);
        // Symmetric ask shares the canonical entry.
        assert_eq!(esa.same_thing_sym(b, a), first);
        assert!(esa.pair_memo_stats().entries > 0);
    }

    #[test]
    fn custom_threshold_bypasses_the_memo_but_stays_exact() {
        use ppchecker_nlp::intern::intern;
        let esa = esa();
        let (a, b) = (intern("location"), intern("latitude"));
        let sim = esa.similarity_sym(a, b);
        for threshold in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(esa.same_thing_sym_at(a, b, threshold), sim >= threshold);
        }
    }

    #[test]
    fn pruning_fires_and_stays_exact() {
        let esa = esa();
        let before = esa.pruned_comparisons();
        // Disjoint-domain pairs have tiny norm bounds: the predicate
        // should answer at least some of them without a dot product.
        for (a, b) in [("location", "game score text chat"), ("cookie", "weather forecast")] {
            assert_eq!(esa.same_thing(a, b), esa.similarity(a, b) >= SIMILARITY_THRESHOLD);
        }
        assert!(esa.pruned_comparisons() >= before, "prune counter is monotonic");
    }
}

#[cfg(test)]
mod interpretation_tests {
    use super::*;

    #[test]
    fn interpret_yields_concept_weights() {
        let esa = Interpreter::shared();
        let v = esa.interpret("location gps latitude");
        assert!(!v.is_empty());
        assert!(v.values().all(|w| *w > 0.0));
        assert!(v.keys().all(|&c| c < esa.concept_count()));
    }

    #[test]
    fn interpret_of_unknown_text_is_empty() {
        let esa = Interpreter::shared();
        assert!(esa.interpret("qqq zzz xxx").is_empty());
        assert!(esa.interpret_sparse("qqq zzz xxx").is_empty());
    }

    #[test]
    fn sparse_and_reference_interpretations_agree() {
        let esa = Interpreter::shared();
        for text in ["location gps latitude", "personal information data", "camera photo"] {
            let reference = esa.interpret(text);
            let sparse = esa.interpret_sparse(text);
            assert_eq!(reference.len(), sparse.len());
            for (c, w) in sparse.pairs() {
                let r = reference[&(c as usize)];
                assert!((r - w as f64).abs() < 1e-6, "concept {c}: {r} vs {w}");
            }
        }
    }

    #[test]
    fn cosine_of_disjoint_vectors_is_zero() {
        let mut a = ConceptVector::new();
        a.insert(0, 1.0);
        let mut b = ConceptVector::new();
        b.insert(1, 1.0);
        assert_eq!(cosine(&a, &b), 0.0);
        assert_eq!(cosine(&a, &a), 1.0);
    }

    #[test]
    fn vector_cache_memoizes_and_preserves_results() {
        let corpus = [
            Concept { title: "A", text: "alpha beta gamma" },
            Concept { title: "B", text: "delta epsilon zeta" },
        ];
        let esa = Interpreter::new(&corpus);
        let first = esa.similarity("alpha beta", "gamma");
        let cold = esa.vector_cache_stats();
        assert_eq!((cold.hits, cold.misses), (0, 2));
        let second = esa.similarity("alpha beta", "gamma");
        let warm = esa.vector_cache_stats();
        assert_eq!((warm.hits, warm.misses), (2, 2), "repeat lookup served from cache");
        assert_eq!(first, second);
        assert_eq!(warm.entries, 2);
    }

    #[test]
    fn custom_corpus_interpreter() {
        let corpus = [
            Concept { title: "A", text: "alpha beta gamma" },
            Concept { title: "B", text: "delta epsilon zeta" },
        ];
        let esa = Interpreter::new(&corpus);
        assert_eq!(esa.concept_count(), 2);
        assert!(esa.similarity("alpha beta", "gamma") > 0.9);
        assert_eq!(esa.similarity("alpha", "delta"), 0.0);
    }

    /// The byte scan finds the words the char-predicate split does, on
    /// ASCII, non-ASCII letters, non-ASCII separators and their mixes.
    #[test]
    fn words_match_the_char_split() {
        let split = |t: &str| -> Vec<String> {
            t.split(|c: char| !c.is_alphanumeric() && c != '-')
                .filter(|w| !w.is_empty())
                .map(String::from)
                .collect()
        };
        for text in [
            "",
            "   ",
            "we collect your GPS location, e-mail & device-id.",
            "--a--b-- c_d 3.14 x/y",
            "données privées — café\u{a0}crème",
            "\u{212A}elvin ß\u{3000}中文 \u{661}\u{662}",
            "trailing é",
            "é leading",
        ] {
            assert_eq!(words(text).map(String::from).collect::<Vec<_>>(), split(text), "{text:?}");
        }
    }
}

#[cfg(test)]
mod build_oracle;
