//! The text front end (HTML strip and sentence split) against the
//! implementation it replaced, kept here verbatim as the reference: the
//! character-at-a-time stripper, the naive split with its per-dot
//! abbreviation rescan, the per-fragment normalization and the
//! enumeration repair over owned sentences. Stripped text and sentence
//! lists must be identical on every policy and description of the scale
//! stream, on the pathological-policy pack and on random markup.
//!
//! On the same inputs, each `_into` function (strip, split, tokenize,
//! tag, chunk), writing into buffers a longer input left dirty, must
//! give what its allocating form gives.

use ppchecker_corpus::{stream_scaled, ScenarioPack};
use ppchecker_nlp::chunk::{chunk_nps, chunk_nps_into, NounPhrase};
use ppchecker_nlp::sentence::{split_sentences, split_sentences_into, Sentences};
use ppchecker_nlp::tagger::{tag_str, tag_str_into};
use ppchecker_nlp::token::{tokenize, tokenize_into};
use ppchecker_nlp::Token;
use ppchecker_policy::html::{extract_text, extract_text_into};
use proptest::prelude::*;
use std::collections::HashSet;

/// The front end as it was, verbatim.
#[allow(clippy::all)]
mod reference {
    /// Abbreviations that do not end a sentence.
    const ABBREVIATIONS: &[&str] = &[
        "e.g", "i.e", "etc", "mr", "mrs", "ms", "dr", "inc", "ltd", "corp", "co", "vs", "no", "v",
        "st", "jr", "sr", "u.s", "u.k",
    ];

    pub fn split_sentences(text: &str) -> Vec<String> {
        let naive = naive_split(text);
        repair_enumerations(naive)
    }

    /// The naive NLTK-like split (exposed for testing the repair step).
    ///
    /// Single pass over `char_indices` with one-character lookbehind and
    /// lookahead — no `Vec<char>` materialization of the document.
    pub fn naive_split(text: &str) -> Vec<String> {
        let mut sentences = Vec::new();
        let mut current = String::new();
        let mut prev: Option<char> = None;
        let mut iter = text.chars().peekable();
        while let Some(c) = iter.next() {
            match c {
                '.' | '!' | '?' => {
                    // A dot inside a decimal number, after an abbreviation, or
                    // interior to a package name / URL does not end a sentence.
                    let next = iter.peek().copied();
                    let interior_dot = c == '.'
                        && ((prev.is_some_and(|p| p.is_ascii_digit())
                            && next.is_some_and(|x| x.is_ascii_digit()))
                            || ends_with_abbreviation(&current)
                            || next.is_some_and(|x| x.is_alphanumeric() || x == '/'));
                    current.push(c);
                    if !interior_dot {
                        flush(&mut sentences, &mut current);
                    }
                }
                '\n' => {
                    // Paragraph break ends a sentence; single newline is a space.
                    if iter.peek() == Some(&'\n') {
                        flush(&mut sentences, &mut current);
                        iter.next();
                        prev = Some('\n');
                        continue;
                    } else {
                        current.push(' ');
                    }
                }
                _ => current.push(c),
            }
            prev = Some(c);
        }
        flush(&mut sentences, &mut current);
        sentences
    }

    fn flush(sentences: &mut Vec<String>, current: &mut String) {
        let trimmed = current.trim();
        if !trimmed.is_empty() {
            sentences.push(normalize(trimmed));
        }
        current.clear();
    }

    /// Lowercases and collapses whitespace, and strips non-ASCII symbols
    /// (the paper's Step 1 keeps only English letters and specified punctuation).
    ///
    /// One allocation: ASCII filtering, whitespace collapsing, and
    /// lowercasing fold into a single pass (every kept char is ASCII, so
    /// per-char `to_ascii_lowercase` equals the Unicode lowering).
    fn normalize(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut pending_space = false;
        for c in s.chars().filter(char::is_ascii) {
            if c.is_whitespace() {
                pending_space = !out.is_empty();
            } else {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push(c.to_ascii_lowercase());
            }
        }
        out
    }

    fn ends_with_abbreviation(current: &str) -> bool {
        // The candidate is the trailing alphanumeric-or-dot run; compare it
        // (minus trailing dots) case-insensitively without allocating.
        let tail_start = current
            .rfind(|c: char| !(c.is_alphanumeric() || c == '.'))
            .map(|i| i + current[i..].chars().next().map_or(1, char::len_utf8))
            .unwrap_or(0);
        let last_word = current[tail_start..].trim_end_matches('.');
        ABBREVIATIONS.iter().any(|a| a.eq_ignore_ascii_case(last_word))
    }

    /// The paper's repair: if the previous sentence ends with `;`, `,` or `:`,
    /// append the current fragment to it.
    pub fn repair_enumerations(raw: Vec<String>) -> Vec<String> {
        let mut out: Vec<String> = Vec::with_capacity(raw.len());
        for sent in raw {
            match out.last_mut() {
                Some(prev)
                    if prev.trim_end().ends_with(';')
                        || prev.trim_end().ends_with(',')
                        || prev.trim_end().ends_with(':') =>
                {
                    prev.push(' ');
                    prev.push_str(&sent);
                }
                _ => out.push(sent),
            }
        }
        out
    }

    pub fn extract_text(html: &str) -> String {
        let mut out = String::with_capacity(html.len() / 2);
        let bytes = html.as_bytes();
        let mut i = 0;
        let mut skip_until: Option<&str> = None;
        while i < bytes.len() {
            if bytes[i] == b'<' {
                // Comment?
                if html[i..].starts_with("<!--") {
                    match html[i..].find("-->") {
                        Some(end) => {
                            i += end + 3;
                            continue;
                        }
                        None => break,
                    }
                }
                let close = match html[i..].find('>') {
                    Some(c) => i + c,
                    None => break,
                };
                let tag_body = &html[i + 1..close];
                let tag_name: String = tag_body
                    .trim_start_matches('/')
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric())
                    .collect::<String>()
                    .to_lowercase();
                if let Some(terminator) = skip_until {
                    if tag_body.starts_with('/') && tag_name == terminator {
                        skip_until = None;
                    }
                    i = close + 1;
                    continue;
                }
                match tag_name.as_str() {
                    "script" | "style" if !tag_body.starts_with('/') => {
                        skip_until = Some(if tag_name == "script" { "script" } else { "style" });
                    }
                    // Block-level boundaries become paragraph breaks.
                    "p" | "div" | "li" | "h1" | "h2" | "h3" | "h4" | "h5" | "h6" | "tr"
                    | "table" | "ul" | "ol" | "section" | "article" | "header" | "footer"
                    | "blockquote" => {
                        out.push_str("\n\n");
                    }
                    "br" => out.push('\n'),
                    _ => {}
                }
                i = close + 1;
            } else if skip_until.is_some() {
                i += 1;
            } else if bytes[i] == b'&' {
                let (decoded, len) = decode_entity(&html[i..]);
                out.push_str(decoded);
                i += len;
            } else {
                // SAFETY of slicing: iterate bytes but push full UTF-8 chars.
                let ch_len = utf8_len(bytes[i]);
                out.push_str(&html[i..i + ch_len]);
                i += ch_len;
            }
        }
        out
    }

    fn utf8_len(b: u8) -> usize {
        match b {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }

    fn decode_entity(s: &str) -> (&'static str, usize) {
        const ENTITIES: &[(&str, &str)] = &[
            ("&amp;", "&"),
            ("&lt;", "<"),
            ("&gt;", ">"),
            ("&quot;", "\""),
            ("&apos;", "'"),
            ("&#39;", "'"),
            ("&nbsp;", " "),
            ("&mdash;", "-"),
            ("&ndash;", "-"),
            ("&rsquo;", "'"),
            ("&lsquo;", "'"),
            ("&rdquo;", "\""),
            ("&ldquo;", "\""),
        ];
        for (ent, rep) in ENTITIES {
            if s.starts_with(ent) {
                return (rep, ent.len());
            }
        }
        ("&", 1)
    }
}

/// Buffers the `_into` functions reuse across the inputs of one test,
/// and the sentences whose tokens they have already compared.
#[derive(Default)]
struct Reused {
    text: String,
    sentences: Sentences,
    tokens: Vec<Token>,
    nps: Vec<NounPhrase>,
    tagged: HashSet<String>,
}

/// A longer input than `s` to dirty a buffer with first: `s` twice and
/// then a sentence of its own.
fn longer(s: &str) -> String {
    format!("{s}\n\n{s} And a Longer, trailing sentence; with more words.")
}

/// Strips `html` and splits both the stripped text and the raw input, and
/// asserts each result equals the reference's, and that the reused
/// buffers give the same. Returns the stripped text.
fn assert_front_end_matches(html: &str, reused: &mut Reused) -> String {
    let text = extract_text(html);
    assert_eq!(text, reference::extract_text(html), "stripped text of {html:?}");
    extract_text_into(&longer(html), &mut reused.text);
    extract_text_into(html, &mut reused.text);
    assert_eq!(reused.text, text, "stripped text of {html:?} in a reused buffer");
    assert_split_matches(&text, reused);
    text
}

fn assert_split_matches(text: &str, reused: &mut Reused) {
    let got = split_sentences(text);
    assert_eq!(
        got.iter().collect::<Vec<_>>(),
        reference::split_sentences(text),
        "sentences of {text:?}"
    );
    split_sentences_into(&longer(text), &mut reused.sentences);
    split_sentences_into(text, &mut reused.sentences);
    assert!(got.iter().eq(reused.sentences.iter()), "sentences of {text:?} in a reused buffer");
    for sentence in got.iter() {
        if reused.tagged.insert(sentence.to_string()) {
            assert_tokens_match(sentence, reused);
        }
    }
}

/// Tokenize, tag and chunk `sentence` into buffers a longer sentence
/// filled first, and compare with the allocating forms.
fn assert_tokens_match(sentence: &str, reused: &mut Reused) {
    let dirt = longer(sentence);
    tokenize_into(&dirt, &mut reused.tokens);
    tokenize_into(sentence, &mut reused.tokens);
    assert_eq!(reused.tokens, tokenize(sentence), "tokens of {sentence:?}");
    tag_str_into(&dirt, &mut reused.tokens);
    chunk_nps_into(&reused.tokens, &mut reused.nps);
    tag_str_into(sentence, &mut reused.tokens);
    let tagged = tag_str(sentence);
    assert_eq!(reused.tokens, tagged, "tagged tokens of {sentence:?}");
    chunk_nps_into(&reused.tokens, &mut reused.nps);
    assert_eq!(reused.nps, chunk_nps(&tagged), "noun phrases of {sentence:?}");
}

/// Every policy and description of the first 20,000 scale apps, which
/// cover every scale bucket, strip and split as the reference does.
#[test]
fn scale_stream_strips_and_splits_as_before() {
    let (mut policies, mut sentences) = (0usize, 0usize);
    let mut reused = Reused::default();
    for app in stream_scaled(42, 20_000) {
        let text = assert_front_end_matches(&app.input.policy_html, &mut reused);
        assert_split_matches(&app.input.description, &mut reused);
        policies += 1;
        sentences += split_sentences(&text).len();
    }
    assert_eq!(policies, 20_000);
    assert!(sentences > 100_000, "{sentences} sentences");
}

/// The pathological-policy pack (huge and malformed policies) beyond the
/// stream prefix above.
#[test]
fn pathological_policy_pack_strips_and_splits_as_before() {
    let mut manifest = ScenarioPack::PathologicalPolicy.manifest(42, 40_000);
    manifest.ids.retain(|&id| id >= 20_000);
    let mut apps = 0usize;
    let mut reused = Reused::default();
    for app in manifest.apps() {
        assert_front_end_matches(&app.input.policy_html, &mut reused);
        assert_split_matches(&app.input.description, &mut reused);
        apps += 1;
    }
    assert!(apps > 0, "the pack selects apps past the stream prefix");
}

/// Pieces of markup, entities, abbreviations, digits, dots, newlines,
/// list separators, control and non-ASCII characters (letters, symbols
/// and whitespace), concatenated at random.
const ATOMS: &[&str] = &[
    "<p>",
    "</p>",
    "<P class=\"x\">",
    "<br>",
    "<BR/>",
    "<li>",
    "</ li>",
    "<//div>",
    "<h2>",
    "<blockquote>",
    "<blockquotes>",
    "<script>",
    "</script>",
    "</SCRIPT >",
    "<style>",
    "</style>",
    "<!--",
    "-->",
    "<!-->",
    "<",
    ">",
    "/",
    "&amp;",
    "&nbsp;",
    "&lt;",
    "&#39;",
    "&rsquo;",
    "&",
    "&amp",
    "e.g",
    "i.e.",
    "etc",
    "Mr",
    "U.S",
    "u.k",
    "corp",
    "No",
    "v",
    "vs.",
    ".",
    "..",
    "...",
    "!",
    "?",
    "1",
    "2.5",
    "0",
    "3",
    "\n",
    "\n\n",
    "\r",
    "\t",
    "\u{b}",
    "\u{c}",
    "\u{1c}",
    "\u{0}",
    " ",
    "  ",
    ";",
    ",",
    ":",
    "we",
    "Collect",
    "a",
    "DATA",
    "x",
    "www",
    "com",
    "é",
    "ß",
    "Ω",
    "中",
    "™",
    "—",
    "\u{a0}",
    "\u{85}",
    "\u{2028}",
    "\u{3000}",
    "\u{661}",
];

proptest! {
    /// Random concatenations of [`ATOMS`] strip and split as the
    /// reference does, and so does every prefix of each, cut at an atom.
    #[test]
    fn random_markup_strips_and_splits_as_before(
        picks in prop::collection::vec(0..ATOMS.len(), 0..120)
    ) {
        let mut input = String::new();
        let mut reused = Reused::default();
        for &pick in &picks {
            input.push_str(ATOMS[pick]);
            assert_front_end_matches(&input, &mut reused);
        }
    }
}
