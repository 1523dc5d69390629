//! Lemmatization: mapping inflected forms back to their base form.
//!
//! The pipeline matches sentence verbs against the four main-verb categories
//! of the paper ($V_P^{collect}$ etc.), which are stored in base form; this
//! module undoes English inflection so that "collects", "collected" and
//! "collecting" all match "collect".
//!
//! The symbol entry points ([`lemmatize_verb_sym`], [`lemmatize_noun_sym`])
//! memoize form → lemma per distinct word in two memo words of the
//! symbol's interner slot, so in steady state a token's lemma costs one
//! atomic load instead of suffix analysis and a fresh `String`.

use crate::intern::{Interner, LemmaKind, Symbol};

/// Irregular verb forms → base form.
const IRREGULAR_VERBS: &[(&str, &str)] = &[
    ("kept", "keep"),
    ("held", "hold"),
    ("sent", "send"),
    ("sold", "sell"),
    ("gave", "give"),
    ("given", "give"),
    ("took", "take"),
    ("taken", "take"),
    ("got", "get"),
    ("gotten", "get"),
    ("made", "make"),
    ("knew", "know"),
    ("known", "know"),
    ("saw", "see"),
    ("seen", "see"),
    ("found", "find"),
    ("read", "read"),
    ("wrote", "write"),
    ("written", "write"),
    ("said", "say"),
    ("thought", "think"),
    ("was", "be"),
    ("were", "be"),
    ("been", "be"),
    ("being", "be"),
    ("is", "be"),
    ("are", "be"),
    ("am", "be"),
    ("has", "have"),
    ("had", "have"),
    ("does", "do"),
    ("did", "do"),
    ("done", "do"),
    ("ran", "run"),
    ("left", "leave"),
    ("meant", "mean"),
    ("met", "meet"),
    ("paid", "pay"),
    ("understood", "understand"),
];

/// Irregular noun plurals → singular.
const IRREGULAR_NOUNS: &[(&str, &str)] = &[
    ("children", "child"),
    ("people", "person"),
    ("men", "man"),
    ("women", "woman"),
    ("parties", "party"),
    ("companies", "company"),
    ("policies", "policy"),
    ("libraries", "library"),
    ("histories", "history"),
    ("identities", "identity"),
    ("activities", "activity"),
    ("cookies", "cookie"),
    ("data", "data"),
    ("media", "media"),
    ("analytics", "analytics"),
    ("sms", "sms"),
    ("contacts", "contact"),
    ("address", "address"),
    ("addresses", "address"),
    ("preferences", "preference"),
    ("practices", "practice"),
    ("services", "service"),
    ("devices", "device"),
    ("messages", "message"),
    ("images", "image"),
    ("pages", "page"),
    ("purposes", "purpose"),
    ("gps", "gps"),
];

/// Words ending in "s" that are not plurals.
const S_FINAL_SINGULARS: &[&str] = &[
    "this",
    "its",
    "is",
    "was",
    "has",
    "does",
    "as",
    "us",
    "various",
    "previous",
    "plus",
    "address",
    "access",
    "process",
    "business",
    "wireless",
    "status",
    "basis",
    "analysis",
    "gps",
    "sms",
    "os",
    "ios",
    "iris",
    "diagnostics",
    "analytics",
];

/// Lemmatizes a (lowercased) verb form to its base form.
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::lemma::lemmatize_verb;
/// assert_eq!(lemmatize_verb("collects"), "collect");
/// assert_eq!(lemmatize_verb("stored"), "store");
/// assert_eq!(lemmatize_verb("sharing"), "share");
/// assert_eq!(lemmatize_verb("kept"), "keep");
/// ```
pub fn lemmatize_verb(lower: &str) -> String {
    lemmatize_verb_impl(lower)
}

/// Symbol-keyed, memoized verb lemmatization.
pub fn lemmatize_verb_sym(lower: Symbol) -> Symbol {
    memoized(Interner::global(), lower, LemmaKind::Verb)
}

/// Symbol-keyed, memoized noun lemmatization.
pub fn lemmatize_noun_sym(lower: Symbol) -> Symbol {
    memoized(Interner::global(), lower, LemmaKind::Noun)
}

/// The `kind` lemma of `lower`, from its memo word in `interner` or
/// computed, interned and memoized on first sight.
pub(crate) fn memoized(interner: &Interner, lower: Symbol, kind: LemmaKind) -> Symbol {
    if let Some(lemma) = interner.memoized_lemma(lower, kind) {
        return lemma;
    }
    let text = interner.resolve(lower);
    let computed = match kind {
        LemmaKind::Verb => lemmatize_verb_impl(text),
        LemmaKind::Noun => lemmatize_noun_impl(text),
    };
    // Reuse the input symbol when the form is already its own lemma.
    let lemma = if computed == text { lower } else { interner.intern(&computed) };
    interner.memoize_lemma(lower, kind, lemma);
    lemma
}

fn lemmatize_verb_impl(lower: &str) -> String {
    if let Some(&(_, base)) = IRREGULAR_VERBS.iter().find(|(f, _)| *f == lower) {
        return base.to_string();
    }
    if let Some(stem) = lower.strip_suffix("ies") {
        if !stem.is_empty() {
            return format!("{stem}y");
        }
    }
    if let Some(stem) = lower.strip_suffix("ied") {
        if !stem.is_empty() {
            return format!("{stem}y");
        }
    }
    if let Some(stem) = lower.strip_suffix("ing") {
        if stem.len() >= 2 {
            return undouble_or_restore_e(stem, lower);
        }
    }
    if let Some(stem) = lower.strip_suffix("ed") {
        if stem.len() >= 2 {
            return undouble_or_restore_e(stem, lower);
        }
    }
    if let Some(stem) = lower.strip_suffix("es") {
        if stem.ends_with("ss")
            || stem.ends_with("sh")
            || stem.ends_with("ch")
            || stem.ends_with('x')
            || stem.ends_with('z')
        {
            return stem.to_string();
        }
    }
    if lower.ends_with('s')
        && !lower.ends_with("ss")
        && !S_FINAL_SINGULARS.contains(&lower)
        && lower.len() > 2
    {
        return lower[..lower.len() - 1].to_string();
    }
    lower.to_string()
}

/// Lemmatizes a (lowercased) noun form to its singular.
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::lemma::lemmatize_noun;
/// assert_eq!(lemmatize_noun("locations"), "location");
/// assert_eq!(lemmatize_noun("parties"), "party");
/// assert_eq!(lemmatize_noun("address"), "address");
/// assert_eq!(lemmatize_noun("data"), "data");
/// ```
pub fn lemmatize_noun(lower: &str) -> String {
    lemmatize_noun_impl(lower)
}

fn lemmatize_noun_impl(lower: &str) -> String {
    if let Some(&(_, base)) = IRREGULAR_NOUNS.iter().find(|(f, _)| *f == lower) {
        return base.to_string();
    }
    if S_FINAL_SINGULARS.contains(&lower) {
        return lower.to_string();
    }
    if let Some(stem) = lower.strip_suffix("ies") {
        if stem.len() > 1 {
            return format!("{stem}y");
        }
    }
    if let Some(stem) = lower.strip_suffix("es") {
        if stem.ends_with("ss")
            || stem.ends_with("sh")
            || stem.ends_with("ch")
            || stem.ends_with('x')
        {
            return stem.to_string();
        }
    }
    if lower.ends_with('s') && !lower.ends_with("ss") && lower.len() > 3 {
        return lower[..lower.len() - 1].to_string();
    }
    lower.to_string()
}

/// After stripping `-ed`/`-ing`: undo consonant doubling ("stopped" →
/// "stop") or restore a dropped final "e" ("stored" → "store").
fn undouble_or_restore_e(stem: &str, original: &str) -> String {
    if stem.is_empty() {
        return original.to_string();
    }
    let chars: Vec<char> = stem.chars().collect();
    let n = chars.len();
    // Doubled final consonant: "stopp" -> "stop", but keep "ss"/"ll" words
    // like "access"/"sell" intact only when the base is known that way.
    if n >= 3
        && chars[n - 1] == chars[n - 2]
        && !matches!(chars[n - 1], 'a' | 'e' | 'i' | 'o' | 'u' | 's' | 'l')
    {
        return stem[..stem.len() - 1].to_string();
    }
    // Known verb as-is? (`lookup_str` probes without interning, so the
    // candidate stems below never pollute the interner.)
    let lex = crate::lexicon::Lexicon::shared();
    if lex.lookup_str(stem).is_some_and(|t| t.is_verb()) {
        return stem.to_string();
    }
    // Try restoring "e": "stor" -> "store", "shar" -> "share".
    let with_e = format!("{stem}e");
    if lex.lookup_str(&with_e).is_some_and(|t| t.is_verb()) {
        return with_e;
    }
    // Heuristic: consonant + single vowel + consonant often dropped an "e"
    // if the word isn't known; default to the bare stem.
    stem.to_string()
}

/// The lemma tables' vocabulary (both inflected and base forms), fed into
/// the global interner's static pre-seed.
pub(crate) fn preseed_lemma_vocabulary() -> impl Iterator<Item = &'static str> {
    IRREGULAR_VERBS
        .iter()
        .chain(IRREGULAR_NOUNS.iter())
        .flat_map(|&(form, base)| [form, base])
        .chain(S_FINAL_SINGULARS.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::intern;

    #[test]
    fn verb_regular_s() {
        assert_eq!(lemmatize_verb("collects"), "collect");
        assert_eq!(lemmatize_verb("shares"), "share");
        assert_eq!(lemmatize_verb("uses"), "use");
    }

    #[test]
    fn verb_ed_restores_e() {
        assert_eq!(lemmatize_verb("stored"), "store");
        assert_eq!(lemmatize_verb("shared"), "share");
        assert_eq!(lemmatize_verb("used"), "use");
        assert_eq!(lemmatize_verb("disclosed"), "disclose");
    }

    #[test]
    fn verb_ing() {
        assert_eq!(lemmatize_verb("collecting"), "collect");
        assert_eq!(lemmatize_verb("storing"), "store");
        assert_eq!(lemmatize_verb("gathering"), "gather");
    }

    #[test]
    fn verb_irregulars() {
        assert_eq!(lemmatize_verb("kept"), "keep");
        assert_eq!(lemmatize_verb("sold"), "sell");
        assert_eq!(lemmatize_verb("given"), "give");
        assert_eq!(lemmatize_verb("was"), "be");
    }

    #[test]
    fn verb_doubled_consonant() {
        assert_eq!(lemmatize_verb("submitted"), "submit");
        assert_eq!(lemmatize_verb("logged"), "log");
    }

    #[test]
    fn noun_plurals() {
        assert_eq!(lemmatize_noun("locations"), "location");
        assert_eq!(lemmatize_noun("companies"), "company");
        assert_eq!(lemmatize_noun("children"), "child");
        assert_eq!(lemmatize_noun("addresses"), "address");
    }

    #[test]
    fn noun_non_plurals_unchanged() {
        assert_eq!(lemmatize_noun("gps"), "gps");
        assert_eq!(lemmatize_noun("sms"), "sms");
        assert_eq!(lemmatize_noun("access"), "access");
        assert_eq!(lemmatize_noun("data"), "data");
    }

    #[test]
    fn verb_y_inflection() {
        assert_eq!(lemmatize_verb("carries"), "carry");
        assert_eq!(lemmatize_verb("applies"), "apply");
    }

    /// The memoized symbol path agrees with the plain string path for every
    /// pre-seeded word and its "-s", "-ed" and "-ing" forms, on the first
    /// (computing) call and on the second (memo word) call.
    #[test]
    fn symbol_lemmatization_matches_string_path() {
        let vocabulary = crate::intern::preseed_vocabulary();
        let forms = vocabulary
            .flat_map(|w| [w.to_string(), format!("{w}s"), format!("{w}ed"), format!("{w}ing")]);
        let extra = ["stopped", "submitted", "logged", "addresses", "carries", "applied"];
        for w in forms.chain(extra.map(String::from)) {
            let sym = intern(&w);
            for _ in 0..2 {
                assert_eq!(lemmatize_verb_sym(sym).as_str(), lemmatize_verb(&w), "verb {w}");
                assert_eq!(lemmatize_noun_sym(sym).as_str(), lemmatize_noun(&w), "noun {w}");
            }
        }
    }

    #[test]
    fn uninflected_form_reuses_symbol() {
        let sym = intern("collect");
        assert_eq!(lemmatize_verb_sym(sym), sym);
        // Memoized second call returns the identical symbol.
        assert_eq!(lemmatize_verb_sym(sym), sym);
    }
}
