//! Tokens, part-of-speech tags, and the tokenizer.
//!
//! [`tokenize`] has two bodies, chosen by the input alone: ASCII text
//! (almost all pipeline text) takes a byte-at-a-time scanner over the
//! sentence's bytes, and anything else takes the char-at-a-time
//! reference. The two mirror each other branch for branch, and the
//! differential tests below hold them to identical output on arbitrary
//! ASCII. The byte path stays because dropping it measurably slows
//! end-to-end batch throughput (DESIGN.md §15).

use crate::intern::{intern, Symbol};
use std::fmt;

/// Part-of-speech tags, modeled on the Penn Treebank tag set that the
/// Stanford Parser (used by the paper) emits. Only the tags the PPChecker
/// pipeline consumes are distinguished; everything else is [`Tag::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tag {
    /// Singular or mass noun (`NN`).
    Noun,
    /// Plural noun (`NNS`).
    NounPlural,
    /// Proper noun (`NNP`).
    NounProper,
    /// Personal pronoun (`PRP`): we, you, they, it, ...
    Pronoun,
    /// Possessive pronoun (`PRP$`): your, our, their, ...
    PronounPoss,
    /// Verb, base form (`VB`).
    VerbBase,
    /// Verb, past tense (`VBD`).
    VerbPast,
    /// Verb, gerund / present participle (`VBG`).
    VerbGerund,
    /// Verb, past participle (`VBN`).
    VerbPastPart,
    /// Verb, 3rd-person singular present (`VBZ`).
    Verb3sg,
    /// Verb, non-3rd-person singular present (`VBP`).
    VerbPres,
    /// Modal (`MD`): will, may, can, must, should, would, could, might.
    Modal,
    /// Determiner (`DT`): the, a, an, this, no, any, ...
    Det,
    /// Adjective (`JJ`).
    Adj,
    /// Adverb (`RB`), including negation adverbs like "not".
    Adv,
    /// Preposition or subordinating conjunction (`IN`).
    Prep,
    /// Coordinating conjunction (`CC`): and, or, but.
    Conj,
    /// The word "to" (`TO`).
    To,
    /// Cardinal number (`CD`).
    Num,
    /// Wh-word (`WDT`/`WP`/`WRB`): which, who, when, where, ...
    Wh,
    /// Punctuation.
    Punct,
    /// Anything else.
    Other,
}

impl Tag {
    /// Returns `true` for any verbal tag (`VB*`).
    pub fn is_verb(self) -> bool {
        matches!(
            self,
            Tag::VerbBase
                | Tag::VerbPast
                | Tag::VerbGerund
                | Tag::VerbPastPart
                | Tag::Verb3sg
                | Tag::VerbPres
        )
    }

    /// Returns `true` for any nominal tag (`NN*`, pronouns).
    pub fn is_nominal(self) -> bool {
        matches!(self, Tag::Noun | Tag::NounPlural | Tag::NounProper | Tag::Pronoun)
    }

    /// Returns `true` for tags that may appear inside a noun phrase before
    /// its head (determiners, possessives, adjectives, numbers, nouns).
    pub fn is_np_interior(self) -> bool {
        matches!(
            self,
            Tag::Det
                | Tag::PronounPoss
                | Tag::Adj
                | Tag::Num
                | Tag::Noun
                | Tag::NounPlural
                | Tag::NounProper
                | Tag::VerbGerund
        )
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tag::Noun => "NN",
            Tag::NounPlural => "NNS",
            Tag::NounProper => "NNP",
            Tag::Pronoun => "PRP",
            Tag::PronounPoss => "PRP$",
            Tag::VerbBase => "VB",
            Tag::VerbPast => "VBD",
            Tag::VerbGerund => "VBG",
            Tag::VerbPastPart => "VBN",
            Tag::Verb3sg => "VBZ",
            Tag::VerbPres => "VBP",
            Tag::Modal => "MD",
            Tag::Det => "DT",
            Tag::Adj => "JJ",
            Tag::Adv => "RB",
            Tag::Prep => "IN",
            Tag::Conj => "CC",
            Tag::To => "TO",
            Tag::Num => "CD",
            Tag::Wh => "W",
            Tag::Punct => ".",
            Tag::Other => "X",
        };
        f.write_str(s)
    }
}

/// A single token: its interned surface text, lowercased form, and (after
/// tagging) its part of speech and lemma.
///
/// The three text fields are [`Symbol`]s into the process-wide interner —
/// a `Token` is `Copy`-cheap to clone and carries no owned strings. The
/// source position survives as the `start` byte offset (with
/// [`Token::end`] derived from the resolved text), so span-based slicing
/// of the original sentence still works. Same-named accessor methods
/// ([`Token::text`], [`Token::lower`], [`Token::lemma`]) resolve the
/// symbols to `&'static str` for string-shaped call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Surface form as it appeared in the input (interned).
    pub text: Symbol,
    /// Lowercased surface form (interned).
    pub lower: Symbol,
    /// Part-of-speech tag; [`Tag::Other`] until tagged.
    pub tag: Tag,
    /// Lemma (base form); equals `lower` until lemmatized (interned).
    pub lemma: Symbol,
    /// Byte offset of the token start in the original sentence string.
    pub start: usize,
}

impl Token {
    /// Creates an untagged token, interning its surface form.
    pub fn new(text: &str, start: usize) -> Self {
        let text_sym = intern(text);
        // Policy sentences are normalized to lowercase upstream, so the
        // common case needs no second allocation or interner probe; and
        // mixed-case ASCII tokens (most of the rest) lowercase in a
        // stack buffer instead of a heap String.
        let lower = if text.is_ascii() {
            if text.bytes().any(|b| b.is_ascii_uppercase()) {
                let mut buf = [0u8; 64];
                if let Some(buf) = buf.get_mut(..text.len()) {
                    buf.copy_from_slice(text.as_bytes());
                    buf.make_ascii_lowercase();
                    intern(std::str::from_utf8(buf).expect("ascii stays utf-8"))
                } else {
                    intern(&text.to_ascii_lowercase())
                }
            } else {
                text_sym
            }
        } else if text.chars().any(|c| c.is_uppercase()) {
            intern(&text.to_lowercase())
        } else {
            text_sym
        };
        Token { text: text_sym, lemma: lower, lower, tag: Tag::Other, start }
    }

    /// The surface text.
    pub fn text(&self) -> &'static str {
        self.text.as_str()
    }

    /// The lowercased surface text.
    pub fn lower(&self) -> &'static str {
        self.lower.as_str()
    }

    /// The lemma text.
    pub fn lemma(&self) -> &'static str {
        self.lemma.as_str()
    }

    /// One past the last byte of the token in the original sentence.
    pub fn end(&self) -> usize {
        self.start + self.text().len()
    }

    /// Returns `true` if this token is punctuation-only.
    pub fn is_punct(&self) -> bool {
        let text = self.text();
        !text.is_empty() && text.chars().all(|c| c.is_ascii_punctuation())
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.text, self.tag)
    }
}

/// Splits a sentence into word and punctuation tokens.
///
/// Contractions of the form `n't` and possessive `'s` are split off, matching
/// the Penn Treebank convention used by the Stanford tokenizer. Hyphenated
/// words (`e-mail`, `third-party`) are kept as single tokens.
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::token::tokenize;
/// let toks = tokenize("We don't sell your e-mail address.");
/// let words: Vec<&str> = toks.iter().map(|t| t.text()).collect();
/// assert_eq!(words, ["We", "do", "n't", "sell", "your", "e-mail", "address", "."]);
/// ```
pub fn tokenize(sentence: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    tokenize_into(sentence, &mut tokens);
    tokens
}

/// [`tokenize`] into `tokens`, replacing what it held and keeping its
/// buffer, so a caller that reuses one vector allocates nothing per
/// ASCII sentence once it has held the longest.
pub fn tokenize_into(sentence: &str, tokens: &mut Vec<Token>) {
    let _span = ppchecker_obs::span!("nlp.tokenize");
    tokens.clear();
    if sentence.is_ascii() {
        // Almost all pipeline text is ASCII: scan bytes directly — no
        // per-sentence `Vec<(usize, char)>`.
        tokenize_ascii(sentence, tokens)
    } else {
        tokenize_chars(sentence, tokens)
    }
}

/// Word-character class of the ASCII path: alphanumerics plus `_`
/// (`char::is_alphanumeric || == '_'` restricted to ASCII).
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// ASCII subset of Unicode `White_Space`: `\t \n \x0B \x0C \r` and
/// space. (`u8::is_ascii_whitespace` excludes `\x0B`, which
/// `char::is_whitespace` includes; the char path uses the latter, so the
/// byte path must too.)
fn is_space_byte(b: u8) -> bool {
    b == b' ' || (0x09..=0x0D).contains(&b)
}

/// First index `>= i` whose byte is not a word character, or
/// `bytes.len()`.
fn word_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && is_word_byte(bytes[i]) {
        i += 1;
    }
    i
}

/// First index `>= i` whose byte is not ASCII whitespace, or
/// `bytes.len()`.
fn skip_spaces(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && is_space_byte(bytes[i]) {
        i += 1;
    }
    i
}

/// Byte-at-a-time tokenizer for ASCII input, structurally mirroring
/// [`tokenize_chars`] (every branch corresponds one-to-one; the
/// differential tests assert identical output on arbitrary ASCII).
fn tokenize_ascii(sentence: &str, tokens: &mut Vec<Token>) {
    let bytes = sentence.as_bytes();
    let n = bytes.len();
    let mut i = 0;
    while i < n {
        let start = i;
        let c = bytes[i];
        if is_space_byte(c) {
            i = skip_spaces(bytes, i + 1);
            continue;
        }
        if is_word_byte(c) {
            let mut j = i;
            loop {
                j = word_end(bytes, j);
                if j >= n {
                    break;
                }
                let cj = bytes[j];
                let next = bytes.get(j + 1).copied();
                if (cj == b'-' || cj == b'/')
                    && next.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'/')
                {
                    // Keep hyphens and URI slashes inside a token
                    // (e.g. "third-party", "content://contacts").
                    j += 1;
                } else if cj == b':' && next == Some(b'/') && bytes.get(j + 2) == Some(&b'/') {
                    // URI scheme separator: "content://".
                    j += 1;
                } else if cj == b'.'
                    && next.is_some_and(|c| c.is_ascii_alphanumeric())
                    && word_so_far_is_dotted(&sentence[start..j])
                {
                    // Dotted identifiers like package names: com.example.app
                    j += 1;
                } else {
                    break;
                }
            }
            // Split trailing "n't" / "'s" style contractions.
            push_word(tokens, &sentence[start..j], start);
            i = j;
        } else if c == b'\'' && i + 1 < n {
            // Apostrophe beginning a contraction suffix: 's, 't, 're, 'll...
            let mut j = i + 1;
            while j < n && bytes[j].is_ascii_alphanumeric() {
                j += 1;
            }
            let suffix = &sentence[start..j];
            // "don't"/"won't": move the "n" from the previous token so the
            // negation surfaces as the Penn-style "n't" token.
            if suffix == "'t"
                && tokens.last().is_some_and(|t| t.lower().ends_with('n') && t.lower().len() > 1)
            {
                let prev = tokens.pop().expect("checked non-empty");
                let prev_text = prev.text();
                let keep_len = prev_text.len() - 1;
                let prev_start = prev.start;
                tokens.push(Token::new(&prev_text[..keep_len], prev_start));
                tokens.push(Token::new("n't", prev_start + keep_len));
            } else {
                tokens.push(Token::new(suffix, start));
            }
            i = j;
        } else {
            tokens.push(Token::new(&sentence[start..start + 1], start));
            i += 1;
        }
    }
}

/// Char-at-a-time reference tokenizer, used for non-ASCII input (and as
/// the differential baseline for [`tokenize_ascii`]).
fn tokenize_chars(sentence: &str, tokens: &mut Vec<Token>) {
    // (byte offset, char) pairs — all slicing below happens on char
    // boundaries.
    let chars: Vec<(usize, char)> = sentence.char_indices().collect();
    let n = chars.len();
    let end_of = |k: usize| {
        if k < n {
            chars[k].0
        } else {
            sentence.len()
        }
    };
    let mut i = 0;
    while i < n {
        let (start, c) = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_alphanumeric() || c == '_' {
            let mut j = i;
            while j < n {
                let cj = chars[j].1;
                let next = chars.get(j + 1).map(|&(_, c)| c);
                if cj.is_alphanumeric() || cj == '_' {
                    j += 1;
                } else if (cj == '-' || cj == '/')
                    && next.is_some_and(|c| c.is_alphanumeric() || c == '/')
                {
                    // Keep hyphens and URI slashes inside a token
                    // (e.g. "third-party", "content://contacts").
                    j += 1;
                } else if cj == ':'
                    && next == Some('/')
                    && chars.get(j + 2).map(|&(_, c)| c) == Some('/')
                {
                    // URI scheme separator: "content://".
                    j += 1;
                } else if cj == '.'
                    && next.is_some_and(|c| c.is_alphanumeric())
                    && word_so_far_is_dotted(&sentence[start..chars[j].0])
                {
                    // Dotted identifiers like package names: com.example.app
                    j += 1;
                } else {
                    break;
                }
            }
            let word = &sentence[start..end_of(j)];
            // Split trailing "n't" / "'s" style contractions.
            push_word(tokens, word, start);
            i = j;
        } else if c == '\'' && i + 1 < n {
            // Apostrophe beginning a contraction suffix: 's, 't, 're, 'll...
            let mut j = i + 1;
            while j < n && chars[j].1.is_alphanumeric() {
                j += 1;
            }
            let suffix = &sentence[start..end_of(j)];
            // "don't"/"won't": move the "n" from the previous token so the
            // negation surfaces as the Penn-style "n't" token.
            if suffix == "'t"
                && tokens.last().is_some_and(|t| t.lower().ends_with('n') && t.lower().len() > 1)
            {
                let prev = tokens.pop().expect("checked non-empty");
                let prev_text = prev.text();
                let keep_len = prev_text.len() - 1;
                let prev_start = prev.start;
                tokens.push(Token::new(&prev_text[..keep_len], prev_start));
                tokens.push(Token::new("n't", prev_start + keep_len));
            } else {
                tokens.push(Token::new(suffix, start));
            }
            i = j;
        } else {
            tokens.push(Token::new(&sentence[start..end_of(i + 1)], start));
            i += 1;
        }
    }
}

/// Heuristic: treat `com.example` style strings (contains a previous dot or
/// looks like a reverse-domain prefix) as dotted identifiers.
fn word_so_far_is_dotted(prefix: &str) -> bool {
    prefix.contains('.')
        || matches!(prefix, "com" | "org" | "net" | "android" | "io" | "www" | "edu")
}

fn push_word(tokens: &mut Vec<Token>, word: &str, start: usize) {
    // Case-insensitive "n't" suffix with a non-empty stem. The only
    // chars that lowercase to 'n', '\'', 't' are their ASCII case pairs,
    // so the byte test is equivalent to lowercasing the whole word —
    // without allocating the lowercase copy on every word.
    let b = word.as_bytes();
    let has_nt = b.len() > 3
        && b[b.len() - 3].eq_ignore_ascii_case(&b'n')
        && b[b.len() - 2] == b'\''
        && b[b.len() - 1].eq_ignore_ascii_case(&b't');
    if has_nt {
        let keep = &word[..word.len() - 3];
        tokens.push(Token::new(keep, start));
        tokens.push(Token::new(&word[word.len() - 3..], start + keep.len()));
        return;
    }
    tokens.push(Token::new(word, start));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_simple_sentence() {
        let toks = tokenize("We will collect your location.");
        let words: Vec<&str> = toks.iter().map(|t| t.text()).collect();
        assert_eq!(words, ["We", "will", "collect", "your", "location", "."]);
    }

    #[test]
    fn tokenize_keeps_hyphenated_words() {
        let toks = tokenize("third-party libraries");
        assert_eq!(toks[0].text(), "third-party");
    }

    #[test]
    fn tokenize_splits_negative_contraction() {
        let toks = tokenize("we won't share data");
        let words: Vec<&str> = toks.iter().map(|t| t.text()).collect();
        assert_eq!(words, ["we", "wo", "n't", "share", "data"]);
    }

    #[test]
    fn tokenize_handles_uri_like_tokens() {
        let toks = tokenize("query content://com.android.calendar now");
        assert!(toks.iter().any(|t| t.text().contains("content://")));
    }

    #[test]
    fn tokenize_empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn tokenize_records_offsets() {
        let toks = tokenize("a bc");
        assert_eq!(toks[0].start, 0);
        assert_eq!(toks[1].start, 2);
    }

    #[test]
    fn punctuation_detection() {
        let toks = tokenize("data, and logs;");
        assert!(toks.iter().any(|t| t.text() == "," && t.is_punct()));
        assert!(toks.iter().any(|t| t.text() == ";" && t.is_punct()));
    }

    #[test]
    fn lowercase_input_shares_symbols() {
        let toks = tokenize("collect location");
        assert_eq!(toks[0].text, toks[0].lower);
        let toks2 = tokenize("Collect location");
        assert_ne!(toks2[0].text, toks2[0].lower);
        assert_eq!(toks2[0].lower(), "collect");
        assert_eq!(toks2[0].end(), 7);
    }

    #[test]
    fn tag_predicates() {
        assert!(Tag::VerbPastPart.is_verb());
        assert!(!Tag::Noun.is_verb());
        assert!(Tag::Pronoun.is_nominal());
        assert!(Tag::Adj.is_np_interior());
        assert!(!Tag::Conj.is_np_interior());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Tag::Noun.to_string(), "NN");
        let t = Token::new("Data", 0);
        assert_eq!(t.to_string(), "Data/X");
    }

    #[test]
    fn non_ascii_input_takes_the_char_path() {
        let toks = tokenize("données privées — café");
        let words: Vec<&str> = toks.iter().map(|t| t.text()).collect();
        assert_eq!(words, ["données", "privées", "—", "café"]);
    }

    #[test]
    fn long_token_lowercases_without_stack_buffer() {
        let long: String = "AbC".repeat(40);
        let t = Token::new(&long, 0);
        assert_eq!(t.lower(), long.to_lowercase());
    }

    fn assert_paths_agree(sentence: &str) {
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        tokenize_ascii(sentence, &mut fast);
        tokenize_chars(sentence, &mut reference);
        let view = |ts: &[Token]| -> Vec<(String, usize)> {
            ts.iter().map(|t| (t.text().to_string(), t.start)).collect()
        };
        assert_eq!(view(&fast), view(&reference), "paths diverge on {sentence:?}");
    }

    #[test]
    fn ascii_fast_path_matches_char_path_on_fixtures() {
        for s in [
            "",
            "   \t\n ",
            "We don't sell your e-mail address.",
            "query content://com.android.calendar now",
            "we won't share; they can't either, isn't it, 'tis",
            "visit https://example.com/a/b?q=1 or www.example.org today",
            "a_b __ c-d- e--f g-/h i:/j k://l 3.14 v1.2.3 com.example.app.",
            "don't DON'T DoN't n't 'n't won'tn't",
            "'s 're 'll ''' 'a1 x' trailing'",
            "punct!@#$%^&*()[]{}|\\<>~`+=",
        ] {
            assert_paths_agree(s);
        }
    }

    #[test]
    fn ascii_fast_path_matches_char_path_on_random_text() {
        // Seed-deterministic xorshift over a token-shaped alphabet.
        let mut state = 41u64;
        let mut next = move || {
            let mut x = state.wrapping_add(0x9e3779b97f4a7c15);
            state = x;
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            x ^ (x >> 31)
        };
        const ALPHABET: &[u8] = b"abcNT '.-/:_09\t,;!?n't";
        for _ in 0..400 {
            let len = (next() % 60) as usize;
            let s: String =
                (0..len).map(|_| ALPHABET[(next() as usize) % ALPHABET.len()] as char).collect();
            assert_paths_agree(&s);
        }
    }

    #[test]
    fn long_runs_cross_block_boundaries() {
        let word: Vec<u8> = std::iter::repeat_n(b'x', 100).chain([b' ']).collect();
        assert_eq!(word_end(&word, 0), 100);
        let spaces: Vec<u8> = std::iter::repeat_n(b' ', 77).chain([b'q']).collect();
        assert_eq!(skip_spaces(&spaces, 0), 77);
    }

    #[test]
    fn class_predicates_match_char_semantics_on_ascii() {
        for b in 0u8..128 {
            let c = b as char;
            assert_eq!(is_word_byte(b), c.is_alphanumeric() || c == '_', "byte {b:#x}");
            assert_eq!(is_space_byte(b), c.is_whitespace(), "byte {b:#x}");
        }
    }
}
