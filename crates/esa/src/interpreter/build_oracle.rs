//! The replaced `String`-keyed ESA build, kept as the oracle that the
//! one-pass build in [`build_index`] is held to: over the bundled
//! knowledge base and over random corpora (uppercase, non-ASCII words,
//! `-ies`/`-s` plurals, stopwords, hyphens) both must yield the same
//! concept count, the same term set, bit-identical rows and the same
//! `interpret_sparse` vectors.

use super::*;
use proptest::prelude::*;

/// The replaced stopword list, scanned per word.
const STOPWORDS: &[&str] = &[
    "the", "a", "an", "of", "to", "and", "or", "in", "on", "at", "by", "for", "with", "from", "is",
    "are", "was", "were", "be", "been", "will", "would", "can", "could", "may", "might", "we",
    "you", "your", "our", "their", "this", "that", "these", "those", "it", "its", "as", "not",
    "no", "any", "all", "such", "other", "about", "into", "if", "when", "than", "then",
];

/// The replaced term extractor: one owned `String` per term.
fn old_terms(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric() && c != '-')
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .filter(|t| !STOPWORDS.contains(&t.as_str()) && t.len() > 1)
        .map(|t| old_singularize(&t))
        .collect()
}

fn old_singularize(t: &str) -> String {
    if t.ends_with("ies") && t.len() > 4 {
        let minus_s = &t[..t.len() - 1];
        let before = t.as_bytes()[t.len() - 4];
        if IE_SINGULARS.contains(&minus_s) || matches!(before, b'a' | b'e' | b'i' | b'o' | b'u') {
            return minus_s.to_string();
        }
        format!("{}y", &t[..t.len() - 3])
    } else if t.ends_with('s')
        && !t.ends_with("ss")
        && !matches!(t, "gps" | "sms" | "its" | "this" | "analytics" | "diagnostics" | "address")
        && t.len() > 3
    {
        t[..t.len() - 1].to_string()
    } else {
        t.to_string()
    }
}

/// The replaced build: a term-frequency map per concept, a document-
/// frequency map and a posting list per term, all keyed by owned
/// strings, with rows L2-normalized in `f64`.
fn old_postings(corpus: &[Concept]) -> HashMap<String, Vec<(u32, f64)>> {
    let n = corpus.len();
    let mut tf: Vec<HashMap<String, f64>> = Vec::with_capacity(n);
    let mut df: HashMap<String, usize> = HashMap::new();
    for concept in corpus {
        let mut counts: HashMap<String, f64> = HashMap::new();
        for term in old_terms(concept.text) {
            *counts.entry(term).or_insert(0.0) += 1.0;
        }
        for term in counts.keys() {
            *df.entry(term.clone()).or_insert(0) += 1;
        }
        tf.push(counts);
    }
    let mut postings: HashMap<String, Vec<(u32, f64)>> = HashMap::new();
    for (ci, counts) in tf.iter().enumerate() {
        for (term, &count) in counts {
            let idf = ((n as f64 + 1.0) / (df[term] as f64 + 1.0)).ln() + 1.0;
            let w = (1.0 + count.ln()) * idf;
            postings.entry(term.clone()).or_default().push((ci as u32, w));
        }
    }
    for row in postings.values_mut() {
        let norm = row.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in row.iter_mut() {
                *w /= norm;
            }
        }
    }
    postings
}

/// `interpret_sparse` over the replaced build's rows (stored as `f32`,
/// as the CSR index stores them).
fn old_interpret_sparse(postings: &HashMap<String, Vec<(u32, f64)>>, text: &str) -> SparseVector {
    let mut contributions = Vec::new();
    for term in old_terms(text) {
        if let Some(row) = postings.get(&term) {
            contributions.extend(row.iter().map(|&(c, w)| (c, w as f32 as f64)));
        }
    }
    SparseVector::from_contributions(contributions)
}

/// Builds both indexes over `corpus` and compares them, then interprets
/// each of `texts` through both.
fn assert_matches_oracle(corpus: &[Concept], texts: &[&str]) {
    let new = Interpreter::new(corpus);
    let old = old_postings(corpus);
    assert_eq!(new.concept_count(), corpus.len());
    assert_eq!(new.index.term_count(), old.len(), "the term sets differ in size");
    for (term, row) in &old {
        let id = new.index.term_id(term).unwrap_or_else(|| panic!("term {term:?} missing"));
        let (concepts, weights) = new.index.row(id);
        let old_concepts: Vec<u32> = row.iter().map(|&(c, _)| c).collect();
        assert_eq!(concepts, old_concepts, "concepts of {term:?}");
        let bits: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
        let old_bits: Vec<u32> = row.iter().map(|&(_, w)| (w as f32).to_bits()).collect();
        assert_eq!(bits, old_bits, "weights of {term:?}");
    }
    for text in texts {
        let new_terms: Vec<String> = terms(text).map(String::from).collect();
        assert_eq!(new_terms, old_terms(text), "terms of {text:?}");
        let (new_vec, old_vec) = (new.interpret_sparse(text), old_interpret_sparse(&old, text));
        assert_eq!(new_vec.ids(), old_vec.ids(), "concepts of {text:?}");
        let bits = |v: &SparseVector| v.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&new_vec), bits(&old_vec), "weights of {text:?}");
        assert_eq!(new_vec.norm().to_bits(), old_vec.norm().to_bits(), "norm of {text:?}");
    }
}

/// Words that exercise every branch of term normalization.
const WORDS: &[&str] = &[
    "location",
    "Location",
    "GPS",
    "gps",
    "cookies",
    "Cookies",
    "COOKIES",
    "cookie",
    "policies",
    "Policies",
    "parties",
    "movies",
    "calories",
    "zombies",
    "boys",
    "ies",
    "bies",
    "aies",
    "address",
    "boss",
    "analytics",
    "diagnostics",
    "its",
    "this",
    "sms",
    "data",
    "the",
    "them",
    "than",
    "those",
    "THOSE",
    "about",
    "abouts",
    "The",
    "AND",
    "of",
    "a",
    "s",
    "ss",
    "third-party",
    "opt-in",
    "e-mail",
    "-",
    "--s",
    "ÉTÉ",
    "straße",
    "Λόγοι",
    "ΣΊΣΥΦΟΣ",
    "\u{212A}",
    "\u{212A}elvins",
    "İstanbul",
    "café",
    "x",
    "42",
    "4s",
];

/// Separators between the generated words.
const SEPARATORS: &[&str] = &[" ", "  ", ", ", ". ", "\n", "/", "'", "—", "_", " ☂ "];

fn text_of(words: &[(usize, usize)]) -> String {
    words
        .iter()
        .map(|&(w, s)| format!("{}{}", WORDS[w % WORDS.len()], SEPARATORS[s % SEPARATORS.len()]))
        .collect()
}

#[test]
fn bundled_kb_matches_the_string_keyed_build() {
    let mut texts: Vec<&str> = concepts().iter().map(|c| c.text).collect();
    let words = WORDS.join(" ");
    texts.extend(["", "location data", "Cookies, COOKIES and cookies.", &words]);
    texts.extend(WORDS.iter().copied());
    assert_matches_oracle(concepts(), &texts);
}

#[test]
fn stopword_match_equals_the_replaced_list() {
    let kb_words = concepts().iter().flat_map(|c| c.text.split_whitespace());
    for word in STOPWORDS.iter().chain(WORDS).copied().chain(kb_words) {
        assert_eq!(is_stopword(word), STOPWORDS.contains(&word), "{word}");
    }
}

#[test]
fn terms_borrow_unless_rewritten() {
    let borrowed = |t: &Cow<'_, str>| matches!(t, Cow::Borrowed(_));
    let kinds: Vec<(String, bool)> = terms("Cookies movies policies location GPS")
        .map(|t| (t.to_string(), borrowed(&t)))
        .collect();
    assert_eq!(
        kinds,
        [
            ("cookie".to_string(), false),
            ("movie".to_string(), true),
            ("policy".to_string(), false),
            ("location".to_string(), true),
            ("gps".to_string(), false),
        ]
    );
}

proptest! {
    /// Random corpora over [`WORDS`] build the same index both ways and
    /// interpret random texts identically.
    #[test]
    fn random_corpora_match_the_string_keyed_build(
        concepts in prop::collection::vec(
            prop::collection::vec((0usize..1000, 0usize..1000), 0..40),
            0..8,
        ),
        probes in prop::collection::vec(
            prop::collection::vec((0usize..1000, 0usize..1000), 0..12),
            1..6,
        ),
        noise in ".{0,40}",
    ) {
        // `Concept` holds `'static` text, as the bundled corpus does.
        let corpus: Vec<Concept> = concepts
            .iter()
            .map(|words| Concept { title: "random", text: Box::leak(text_of(words).into()) })
            .collect();
        let mut texts: Vec<String> = probes.iter().map(|words| text_of(words)).collect();
        texts.push(noise);
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        assert_matches_oracle(&corpus, &texts);
    }
}
