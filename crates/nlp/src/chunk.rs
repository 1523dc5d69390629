//! Noun-phrase chunking.
//!
//! The dependency parser and the information-element extraction step both
//! operate on base noun phrases: maximal `(DT|PRP$|JJ|CD|NN*)* NN*` spans
//! whose head is the final nominal token.

use crate::intern::Symbol;
use crate::token::{Tag, Token};

/// A base noun phrase: token span `[start, end)` with `head` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NounPhrase {
    /// Index of the first token of the phrase.
    pub start: usize,
    /// One past the index of the last token.
    pub end: usize,
    /// Index of the head (rightmost nominal) token.
    pub head: usize,
}

impl NounPhrase {
    /// Returns the phrase text joined with single spaces.
    pub fn text(&self, tokens: &[Token]) -> String {
        let mut out = String::new();
        push_words(&tokens[self.start..self.end], &mut out);
        out
    }

    /// Returns the phrase text without leading determiners/possessives.
    ///
    /// "your personal information" → "personal information".
    pub fn content_text(&self, tokens: &[Token]) -> String {
        let mut out = String::new();
        self.push_content_text(tokens, &mut out);
        out
    }

    /// Appends [`content_text`](NounPhrase::content_text) to `out`, so a
    /// caller that reuses one buffer allocates nothing per phrase.
    pub fn push_content_text(&self, tokens: &[Token], out: &mut String) {
        push_words(&tokens[self.content_start(tokens)..self.end], out);
    }

    /// The phrase's content as a single interned symbol.
    ///
    /// Single-token phrases reuse the token's own `lower` symbol; multi-word
    /// phrases intern the joined content text once and hit the interner's
    /// read path on every later occurrence.
    pub fn content_symbol(&self, tokens: &[Token]) -> Symbol {
        let s = self.content_start(tokens);
        if self.end - s == 1 {
            return tokens[s].lower;
        }
        crate::intern::intern(&self.content_text(tokens))
    }

    /// Index of the first content token: past leading determiners and
    /// possessives, but never past the head.
    fn content_start(&self, tokens: &[Token]) -> usize {
        let mut s = self.start;
        while s < self.head && matches!(tokens[s].tag, Tag::Det | Tag::PronounPoss) {
            s += 1;
        }
        s
    }

    /// Returns `true` if `idx` lies within the phrase.
    pub fn contains(&self, idx: usize) -> bool {
        idx >= self.start && idx < self.end
    }
}

/// Appends the tokens' lowercase forms to `out`, separated by single
/// spaces.
fn push_words(tokens: &[Token], out: &mut String) {
    for (k, t) in tokens.iter().enumerate() {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(t.lower());
    }
}

/// Chunks tagged tokens into base noun phrases.
///
/// A chunk starts at a determiner, possessive pronoun, adjective, number or
/// nominal, and extends while tokens are NP-interior, ending at the last
/// nominal seen. Standalone pronouns form single-token chunks.
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::{tagger::tag_str, chunk::chunk_nps};
/// let toks = tag_str("we will collect your precise location data");
/// let nps = chunk_nps(&toks);
/// // "we" and "your precise location data"
/// assert_eq!(nps.len(), 2);
/// assert_eq!(nps[1].text(&toks), "your precise location data");
/// ```
pub fn chunk_nps(tokens: &[Token]) -> Vec<NounPhrase> {
    let mut chunks = Vec::new();
    chunk_nps_into(tokens, &mut chunks);
    chunks
}

/// [`chunk_nps`] into `chunks`, replacing what it held and keeping its
/// buffer.
pub fn chunk_nps_into(tokens: &[Token], chunks: &mut Vec<NounPhrase>) {
    chunks.clear();
    let n = tokens.len();
    let mut i = 0;
    while i < n {
        let t = &tokens[i];
        if t.tag == Tag::Pronoun {
            chunks.push(NounPhrase { start: i, end: i + 1, head: i });
            i += 1;
            continue;
        }
        if t.tag.is_np_interior() && t.tag != Tag::VerbGerund {
            let start = i;
            let mut last_nominal: Option<usize> = None;
            let mut j = i;
            while j < n && tokens[j].tag.is_np_interior() {
                if matches!(tokens[j].tag, Tag::Noun | Tag::NounPlural | Tag::NounProper) {
                    last_nominal = Some(j);
                }
                j += 1;
            }
            if let Some(head) = last_nominal {
                chunks.push(NounPhrase { start, end: head + 1, head });
                i = head + 1;
                continue;
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagger::tag_str;

    #[test]
    fn chunks_subject_and_object() {
        let toks = tag_str("we will collect your location");
        let nps = chunk_nps(&toks);
        assert_eq!(nps.len(), 2);
        assert_eq!(nps[0].text(&toks), "we");
        assert_eq!(nps[1].text(&toks), "your location");
        assert_eq!(toks[nps[1].head].lower(), "location");
    }

    #[test]
    fn enumerated_nps_are_separate_chunks() {
        let toks = tag_str("we collect your name , your ip address and your device id");
        let nps = chunk_nps(&toks);
        let texts: Vec<String> = nps.iter().map(|c| c.text(&toks)).collect();
        assert!(texts.contains(&"your name".to_string()));
        assert!(texts.contains(&"your ip address".to_string()));
        assert!(texts.contains(&"your device id".to_string()));
    }

    #[test]
    fn content_text_strips_determiners() {
        let toks = tag_str("the personal information");
        let nps = chunk_nps(&toks);
        assert_eq!(nps[0].content_text(&toks), "personal information");
    }

    #[test]
    fn no_chunks_in_verb_only_sentence() {
        let toks = tag_str("collect and store");
        let nps = chunk_nps(&toks);
        assert!(nps.is_empty());
    }

    #[test]
    fn content_symbol_matches_content_text() {
        let toks = tag_str("we collect your location and the personal information");
        for np in chunk_nps(&toks) {
            assert_eq!(np.content_symbol(&toks).as_str(), np.content_text(&toks));
        }
    }

    #[test]
    fn single_token_content_reuses_token_symbol() {
        let toks = tag_str("your location");
        let nps = chunk_nps(&toks);
        assert_eq!(nps[0].content_symbol(&toks), toks[nps[0].head].lower);
    }

    #[test]
    fn head_is_last_nominal() {
        let toks = tag_str("your real phone number");
        let nps = chunk_nps(&toks);
        assert_eq!(toks[nps[0].head].lower(), "number");
    }
}
