//! # ppchecker-nlp
//!
//! A from-scratch NLP substrate for the PPChecker reproduction: tokenizer,
//! sentence splitter (with the paper's enumeration repair), part-of-speech
//! tagger, noun-phrase chunker, lemmatizer, and a deterministic
//! typed-dependency parser producing the Stanford-dependency subset the
//! PPChecker pipeline consumes.
//!
//! The original system (Yu et al., DSN 2016) used NLTK and the Stanford
//! Parser; this crate substitutes rule-based equivalents tuned for the
//! constrained register of privacy-policy English.
//!
//! # Examples
//!
//! ```
//! use ppchecker_nlp::depparse::{parse, Rel};
//!
//! let p = parse("we will not collect your location");
//! let root = p.root.unwrap();
//! assert_eq!(p.tokens[root].lemma(), "collect");
//! assert!(p.dependent(root, Rel::Neg).is_some());
//! ```
//!
//! All text flows through the interning layer in [`mod@intern`]: tokens carry
//! [`Symbol`] handles rather than owned strings, and downstream crates
//! compare, hash and memoize on those `u32` handles (see DESIGN.md §9).

#![forbid(unsafe_code)]

pub mod chunk;
pub mod depparse;
pub mod intern;
pub mod lemma;
pub mod lexicon;
pub mod sentence;
pub mod tagger;
pub mod token;

pub use chunk::NounPhrase;
pub use depparse::{parse, Dependency, Parse, Rel};
pub use intern::{
    intern, resolve, Interner, InternerStats, Symbol, SymbolSet, DEFAULT_INTERN_SOFT_CAP_BYTES,
};
pub use sentence::split_sentences;
pub use token::{Tag, Token};
