//! Sentence segmentation with the enumeration-list repair described in the
//! paper's Step 1.
//!
//! NLTK (used by the paper) splits an enumeration such as
//! `"we will collect the following information: your name; your IP address;
//! your device ID"` into four pieces. PPChecker repairs this by re-joining a
//! fragment onto the previous sentence whenever that sentence ends with `;`
//! or `,` or `:`. This module splits, normalizes and repairs in one pass
//! over the text's bytes, writing every sentence into one buffer.

/// Abbreviations that do not end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "e.g", "i.e", "etc", "mr", "mrs", "ms", "dr", "inc", "ltd", "corp", "co", "vs", "no", "v",
    "st", "jr", "sr", "u.s", "u.k",
];

/// A document's sentences: their normalized texts back to back in one
/// buffer, and the end of each. [`split_sentences_into`] refills one
/// `Sentences` in place, so a caller that keeps it allocates only when a
/// document outgrows every earlier one.
#[derive(Debug, Default)]
pub struct Sentences {
    text: String,
    ends: Vec<usize>,
}

impl Sentences {
    /// An empty buffer, allocating nothing until it is first filled.
    pub const fn new() -> Self {
        Sentences { text: String::new(), ends: Vec::new() }
    }

    /// Heap bytes the buffer holds, used or not: what keeping it for
    /// the next document costs.
    pub fn allocated_bytes(&self) -> usize {
        self.text.capacity() + self.ends.capacity() * std::mem::size_of::<usize>()
    }

    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if the document holds no sentence.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The sentences in document order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &str> + ExactSizeIterator + '_ {
        (0..self.len()).map(|i| &self[i])
    }
}

impl std::ops::Index<usize> for Sentences {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// Splits raw text into sentences.
///
/// The splitter breaks on `.`, `!` and `?` (not inside known abbreviations
/// or decimal numbers) and on newlines that separate paragraphs. Each
/// sentence is lowercased, stripped of non-ASCII characters and has its
/// whitespace collapsed (the paper's Step 1 keeps only English letters and
/// specified punctuation). Then the enumeration repair: a fragment
/// following a sentence that ends in `;`, `,` or `:` is appended to that
/// sentence, matching the paper's fix for NLTK's behaviour on bullet lists.
///
/// One pass, linear in the text's length, into two buffers: the
/// sentence text, allocated once, and the sentence ends. To reuse the
/// buffers across documents, see [`split_sentences_into`].
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::sentence::split_sentences;
/// let text = "We value privacy. We will collect the following: your name; \
///             your IP address; your device ID. Contact us anytime.";
/// let sents = split_sentences(text);
/// assert_eq!(sents.len(), 3);
/// assert!(sents[1].contains("device id"));
/// ```
pub fn split_sentences(text: &str) -> Sentences {
    let mut out = Sentences::new();
    split_sentences_into(text, &mut out);
    out
}

/// [`split_sentences`] into `out`, replacing what it held and keeping
/// its buffers: the same sentences, and no allocation once `out` has
/// held a document at least as long.
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::sentence::{split_sentences, split_sentences_into, Sentences};
/// let mut out = Sentences::new();
/// split_sentences_into("A longer first document. With two sentences.", &mut out);
/// split_sentences_into("We collect data. We share it.", &mut out);
/// assert!(out.iter().eq(split_sentences("We collect data. We share it.").iter()));
/// ```
pub fn split_sentences_into(text: &str, out: &mut Sentences) {
    let _span = ppchecker_obs::span!("nlp.split");
    let src = text.as_bytes();
    out.text.clear();
    out.ends.clear();
    out.text.reserve(src.len());
    let mut s = Splitter {
        out,
        open: false,
        content: false,
        written: false,
        space: false,
        word_start: 0,
        word_end: 0,
    };
    let mut i = 0;
    while i < src.len() {
        let b = src[i];
        if is_plain(b) {
            // Plain bytes joined by single spaces normalize to themselves,
            // lowercased: copy the segment whole.
            let mut end = i + 1;
            while let Some(&b) = src.get(end) {
                let next = src.get(end + 1).copied().unwrap_or(b'\n');
                if !(is_plain(b) | ((b == b' ') & is_plain(next))) {
                    break;
                }
                end += 1;
            }
            s.put_run(&text[i..end]);
            // Without a break in the segment, the word began before it
            // (`com.example`).
            if let Some(k) = src[i..end].iter().rposition(|b| !b.is_ascii_alphanumeric()) {
                s.word_start = i + k + 1;
            }
            s.word_end = end;
            i = end;
            continue;
        }
        match b {
            b'.' => {
                // A dot inside a decimal number, after an abbreviation, or
                // interior to a package name / URL does not end a sentence.
                let next = text[i + 1..].chars().next();
                let interior = (i > 0
                    && src[i - 1].is_ascii_digit()
                    && next.is_some_and(|c| c.is_ascii_digit()))
                    || is_abbreviation(&src[s.word_start..s.word_end])
                    || next.is_some_and(|c| c.is_alphanumeric() || c == '/');
                s.put_run(&text[i..=i]);
                if !interior {
                    s.end_fragment(i + 1);
                }
            }
            b'!' | b'?' => {
                s.put_run(&text[i..=i]);
                s.end_fragment(i + 1);
            }
            // A paragraph break ends a sentence; a single newline is a space.
            b'\n' if src.get(i + 1) == Some(&b'\n') => {
                s.end_fragment(i + 2);
                i += 2;
                continue;
            }
            0x80.. => {
                // Non-ASCII characters are dropped from the sentence, but a
                // letter still extends the word and anything but
                // whitespace still makes the fragment a sentence.
                let c = text[i..].chars().next().expect("a character starts here");
                let next = i + c.len_utf8();
                if c.is_alphanumeric() {
                    s.word_end = next;
                } else {
                    s.word_start = next;
                    s.word_end = next;
                }
                s.content |= !c.is_whitespace();
                i = next;
                continue;
            }
            _ => s.blank(i + 1),
        }
        i += 1;
    }
    s.end_fragment(src.len());
}

/// `true` for the bytes that normalize to themselves up to case and
/// leave every sentence break alone: ASCII but whitespace, `.`, `!` and
/// `?` (the whitespace of `char::is_whitespace`).
fn is_plain(b: u8) -> bool {
    PLAIN[usize::from(b)]
}

/// [`is_plain`] by byte: a table lookup keeps the segment scan free of
/// branches.
const PLAIN: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = !matches!(b as u8, b' ' | b'\t'..=b'\r' | b'.' | b'!' | b'?');
        b += 1;
    }
    table
};

/// `true` if `word` (letters, digits and inner dots) is a known
/// abbreviation, in any case.
fn is_abbreviation(word: &[u8]) -> bool {
    let mut lower = [0u8; 4];
    let Some(lower) = lower.get_mut(..word.len()) else {
        return false;
    };
    lower.copy_from_slice(word);
    lower.make_ascii_lowercase();
    ABBREVIATIONS.iter().any(|a| a.as_bytes() == lower)
}

/// The state of [`split_sentences`]'s pass. A fragment is the text
/// between two sentence breaks; it becomes a sentence of its own, or
/// joins the last one under the enumeration repair.
struct Splitter<'a> {
    out: &'a mut Sentences,
    /// The last sentence ends in `;`, `,` or `:`, so the next fragment
    /// joins it.
    open: bool,
    /// The fragment holds a character that is not whitespace.
    content: bool,
    /// The fragment has written a byte into `out.text`.
    written: bool,
    /// A space goes before the fragment's next byte: collapsed
    /// whitespace, or the separator of a joining fragment.
    space: bool,
    /// The word before the current byte: the fragment's trailing run of
    /// letters, digits and dots starts at `word_start`, and its last
    /// letter or digit ends at `word_end` (`word_start` if it has none).
    /// The abbreviation check reads this span, so each dot costs O(1).
    word_start: usize,
    word_end: usize,
}

impl Splitter<'_> {
    /// Writes `run`, lowercased, into the fragment's normalized text.
    /// `run` is ASCII and holds no whitespace but single inner spaces.
    fn put_run(&mut self, run: &str) {
        if self.space {
            self.out.text.push(' ');
            self.space = false;
        }
        let start = self.out.text.len();
        self.out.text.push_str(run);
        self.out.text[start..].make_ascii_lowercase();
        self.written = true;
        self.content = true;
    }

    /// An ASCII whitespace byte ending at `next`.
    fn blank(&mut self, next: usize) {
        self.space |= self.written;
        self.word_start = next;
        self.word_end = next;
    }

    /// Closes the fragment; the next one starts at `next`. A fragment of
    /// whitespace only is dropped.
    fn end_fragment(&mut self, next: usize) {
        if self.content {
            if self.open {
                if !self.written {
                    // A joining fragment of only non-ASCII characters still
                    // leaves its separator.
                    self.out.text.push(' ');
                }
                *self.out.ends.last_mut().expect("an open sentence") = self.out.text.len();
            } else {
                self.out.ends.push(self.out.text.len());
            }
            if self.written {
                self.open = matches!(self.out.text.as_bytes().last(), Some(b';' | b',' | b':'));
            }
        }
        self.content = false;
        self.written = false;
        self.space = self.open;
        self.word_start = next;
        self.word_end = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_basic_sentences() {
        let s = split_sentences("First sentence. Second sentence. Third one!");
        assert_eq!(s.len(), 3);
        assert_eq!(&s[0], "first sentence.");
    }

    #[test]
    fn keeps_abbreviations_together() {
        let s = split_sentences("We share data with partners, e.g. advertisers. Done.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("e.g. advertisers"));
    }

    #[test]
    fn keeps_decimals_together() {
        let s = split_sentences("Version 1.2 is out. Enjoy.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn enumeration_repair_joins_fragments() {
        // Paragraph breaks split a semicolon list into fragments, as NLTK
        // does; the repair joins them back.
        let s = split_sentences(
            "We will collect the following information: your name;\n\nyour IP address;\n\n\
             your device ID.\n\nContact us.",
        );
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [
                "we will collect the following information: your name; your ip address; \
                 your device id.",
                "contact us."
            ]
        );
    }

    #[test]
    fn normalizes_to_lowercase_ascii() {
        let s = split_sentences("We collect DATA\u{2122} and cookies.");
        assert_eq!(&s[0], "we collect data and cookies.");
    }

    #[test]
    fn paragraph_breaks_split() {
        let s = split_sentences("no trailing period here\n\nanother paragraph.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn package_names_survive() {
        let s = split_sentences("The app com.example.game is popular. Yes.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("com.example.game"));
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
    }

    /// A fragment of only non-ASCII characters is a sentence that
    /// normalizes to nothing, and joining it leaves its separator.
    #[test]
    fn non_ascii_fragments_keep_their_place() {
        let s = split_sentences("\u{2122}\n\nfirst;\n\n\u{2122}\n\nsecond.");
        assert_eq!(s.iter().collect::<Vec<_>>(), ["", "first;  second."]);
    }

    /// Every dot of a long run answers the abbreviation check in O(1).
    #[test]
    fn dot_runs_split_in_linear_time() {
        let n = 1 << 16;
        let s = split_sentences(&"a.".repeat(n));
        assert_eq!(s.len(), 1);
        let s = split_sentences(&format!("e.g{}", ".".repeat(n)));
        assert_eq!((s.len(), s[0].len()), (1, n + 3));
    }
}
