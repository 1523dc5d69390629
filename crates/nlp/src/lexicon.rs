//! A hand-built part-of-speech lexicon covering the privacy-policy register
//! of English, plus a suffix-based guesser for out-of-vocabulary words.
//!
//! The Stanford Parser used by the paper carries a statistical model; our
//! substitute is a closed lexicon (function words are a closed class anyway)
//! combined with morphological heuristics for open-class words, which is
//! sufficient for the constrained register privacy policies are written in.

use crate::intern::{Interner, Symbol, SymbolSet};
use crate::token::Tag;
use std::sync::OnceLock;

/// Lexicon mapping lowercased word forms (as interned [`Symbol`]s) to
/// their most likely tag. Every lexicon word is pre-seeded in the global
/// interner, so the lexicon is a dense tag table indexed by symbol id:
/// a lookup is one bounds check and one load.
#[derive(Debug)]
pub struct Lexicon {
    /// The tag of each symbol id; `None` past the lexicon's words.
    tags: Box<[Option<Tag>]>,
}

/// Modal verbs (`MD`).
pub const MODALS: &[&str] =
    &["will", "would", "can", "could", "may", "might", "must", "shall", "should", "wo", "ca"];

/// Forms of "be" (used for passive-voice detection).
pub const BE_FORMS: &[&str] = &["be", "am", "is", "are", "was", "were", "been", "being"];

/// Forms of "have" used as auxiliaries.
pub const HAVE_FORMS: &[&str] = &["have", "has", "had", "having"];

/// Forms of "do" used as auxiliaries.
pub const DO_FORMS: &[&str] = &["do", "does", "did", "doing"];

/// Subordinating words that introduce constraints in privacy policies.
/// Pre-conditions per the paper: "if", "upon", "unless"; post-conditions:
/// "when", "before".
pub const SUBORDINATORS: &[&str] = &[
    "if", "when", "unless", "before", "after", "upon", "while", "until", "once", "whenever",
    "because", "although", "though", "since",
];

/// Personal pronouns.
pub const PRONOUNS: &[&str] = &[
    "we",
    "you",
    "they",
    "it",
    "i",
    "he",
    "she",
    "us",
    "them",
    "me",
    "him",
    "her",
    "itself",
    "themselves",
    "ourselves",
    "yourself",
    "anyone",
    "everyone",
    "nobody",
    "nothing",
    "someone",
    "something",
    "anything",
];

/// Possessive pronouns.
pub const POSS_PRONOUNS: &[&str] = &["your", "our", "their", "its", "my", "his", "her"];

/// Determiners, including negative determiner "no".
pub const DETERMINERS: &[&str] = &[
    "the",
    "a",
    "an",
    "this",
    "that",
    "these",
    "those",
    "no",
    "any",
    "some",
    "each",
    "every",
    "all",
    "both",
    "such",
    "another",
    "either",
    "neither",
    "certain",
    "other",
    "following",
];

/// Prepositions.
pub const PREPOSITIONS: &[&str] = &[
    "of",
    "in",
    "on",
    "at",
    "by",
    "for",
    "with",
    "about",
    "from",
    "into",
    "through",
    "during",
    "including",
    "against",
    "among",
    "throughout",
    "via",
    "within",
    "without",
    "regarding",
    "concerning",
    "per",
    "as",
    "like",
    "out",
    "off",
    "over",
    "under",
    "between",
    "to",
];

/// Coordinating conjunctions.
pub const CONJUNCTIONS: &[&str] = &["and", "or", "but", "nor", "plus"];

/// Wh-words.
pub const WH_WORDS: &[&str] =
    &["which", "who", "whom", "whose", "what", "where", "why", "how", "whether", "that"];

/// Verbs that matter to the pipeline, stored in base form. Inflected forms
/// are recognized through [`crate::lemma`].
pub const VERBS: &[&str] = &[
    // collect-category and friends
    "collect",
    "gather",
    "obtain",
    "acquire",
    "access",
    "receive",
    "record",
    "solicit",
    "get",
    "take",
    "capture",
    "request",
    "ask",
    "check",
    "know",
    "track",
    "monitor",
    "read",
    "scan",
    // use-category
    "use",
    "process",
    "utilize",
    "employ",
    "analyze",
    "combine",
    "connect",
    "link",
    "associate",
    "serve",
    "improve",
    "personalize",
    "customize",
    "operate",
    "deliver",
    // retain-category
    "retain",
    "store",
    "keep",
    "save",
    "preserve",
    "hold",
    "maintain",
    "archive",
    "cache",
    "remember",
    "log",
    // disclose-category
    "disclose",
    "share",
    "transfer",
    "provide",
    "send",
    "transmit",
    "give",
    "sell",
    "rent",
    "release",
    "reveal",
    "distribute",
    "report",
    "expose",
    "supply",
    "pass",
    "lease",
    "trade",
    "display",
    "show",
    "upload",
    "post",
    "publish",
    // general verbs seen in policies
    "agree",
    "allow",
    "permit",
    "enable",
    "require",
    "need",
    "want",
    "help",
    "make",
    "create",
    "delete",
    "remove",
    "protect",
    "secure",
    "encrypt",
    "review",
    "update",
    "change",
    "modify",
    "contact",
    "notify",
    "inform",
    "register",
    "sign",
    "visit",
    "browse",
    "download",
    "install",
    "uninstall",
    "open",
    "close",
    "click",
    "tap",
    "enter",
    "submit",
    "choose",
    "select",
    "prevent",
    "stop",
    "refuse",
    "decline",
    "deny",
    "opt",
    "consent",
    "comply",
    "apply",
    "include",
    "contain",
    "cover",
    "describe",
    "explain",
    "govern",
    "identify",
    "locate",
    "determine",
    "enhance",
    "measure",
    "offer",
    "support",
    "ensure",
    "limit",
    "restrict",
    "encourage",
    "respond",
    "occur",
    "happen",
    "work",
    "run",
    "play",
    "see",
    "view",
    "find",
    "learn",
    "understand",
    "believe",
    "think",
    "say",
    "state",
    "mention",
    "note",
    "write",
];

/// Nouns that matter to the pipeline (privacy resources, actors, etc.).
pub const NOUNS: &[&str] = &[
    // resources
    "information",
    "data",
    "location",
    "address",
    "name",
    "email",
    "e-mail",
    "phone",
    "number",
    "contact",
    "contacts",
    "calendar",
    "account",
    "accounts",
    "identifier",
    "id",
    "device",
    "cookie",
    "cookies",
    "ip",
    "camera",
    "photo",
    "photos",
    "picture",
    "pictures",
    "image",
    "images",
    "audio",
    "microphone",
    "voice",
    "video",
    "sms",
    "message",
    "messages",
    "text",
    "call",
    "calls",
    "history",
    "list",
    "apps",
    "app",
    "application",
    "applications",
    "latitude",
    "longitude",
    "gps",
    "birthday",
    "birthdate",
    "age",
    "gender",
    "password",
    "username",
    "profile",
    "preferences",
    "settings",
    "content",
    "contents",
    "file",
    "files",
    "log",
    "logs",
    "record",
    "records",
    "detail",
    "details",
    "imei",
    "imsi",
    "mac",
    "wifi",
    "network",
    "browser",
    "os",
    "carrier",
    "sim",
    "storage",
    "clipboard",
    "sensor",
    "sensors",
    // actors and misc
    "user",
    "users",
    "visitor",
    "visitors",
    "customer",
    "customers",
    "member",
    "members",
    "child",
    "children",
    "party",
    "parties",
    "company",
    "companies",
    "partner",
    "partners",
    "advertiser",
    "advertisers",
    "affiliate",
    "affiliates",
    "provider",
    "providers",
    "vendor",
    "vendors",
    "service",
    "services",
    "website",
    "websites",
    "site",
    "sites",
    "server",
    "servers",
    "policy",
    "policies",
    "privacy",
    "terms",
    "law",
    "laws",
    "regulation",
    "regulations",
    "consent",
    "permission",
    "permissions",
    "purpose",
    "purposes",
    "time",
    "period",
    "library",
    "libraries",
    "lib",
    "libs",
    "sdk",
    "analytics",
    "advertising",
    "advertisement",
    "advertisements",
    "ads",
    "ad",
    "game",
    "games",
    "feature",
    "features",
    "functionality",
    "security",
    "practice",
    "practices",
    "right",
    "rights",
    "option",
    "options",
    "question",
    "questions",
    "section",
    "page",
    "pages",
    "agreement",
    "notice",
    "identifiers",
    "friends",
    "field",
    "force",
    "way",
    "tasks",
    "task",
    "order",
    "experience",
    "quality",
    "basis",
    "internet",
];

/// Adjectives seen in policies.
pub const ADJECTIVES: &[&str] = &[
    "personal",
    "private",
    "sensitive",
    "personally",
    "identifiable",
    "anonymous",
    "aggregate",
    "aggregated",
    "technical",
    "mobile",
    "unique",
    "real",
    "actual",
    "third",
    "third-party",
    "necessary",
    "able",
    "unable",
    "responsible",
    "applicable",
    "available",
    "current",
    "precise",
    "approximate",
    "demographic",
    "financial",
    "medical",
    "geographic",
    "such",
    "certain",
    "other",
    "own",
    "new",
    "free",
    "optional",
    "legal",
    "specific",
    "general",
    "additional",
    "effective",
    "important",
    "relevant",
    "various",
    "non-personal",
    "online",
];

/// Adverbs, including negation markers the paper's Step 5 relies on.
pub const ADVERBS: &[&str] = &[
    "not",
    "n't",
    "never",
    "hardly",
    "rarely",
    "seldom",
    "no longer",
    "also",
    "only",
    "automatically",
    "directly",
    "indirectly",
    "always",
    "sometimes",
    "occasionally",
    "periodically",
    "solely",
    "generally",
    "typically",
    "specifically",
    "currently",
    "however",
    "therefore",
    "moreover",
    "furthermore",
    "additionally",
    "please",
    "again",
    "already",
    "together",
    "too",
    "very",
    "well",
    "then",
    "thus",
    "hereby",
    "herein",
    "instead",
];

/// The lexicon's word classes in the order the interner's pre-seed lists
/// them, each with its tag and its rank: a word in several classes takes
/// the tag of its highest-ranked class, and the closed classes rank
/// highest.
pub(crate) const CLASSES: [(&[&str], Tag, u8); 15] = [
    (MODALS, Tag::Modal, 12),
    (BE_FORMS, Tag::VerbPres, 13),
    (HAVE_FORMS, Tag::VerbPres, 14),
    (DO_FORMS, Tag::VerbPres, 15),
    (SUBORDINATORS, Tag::Prep, 7),
    (PRONOUNS, Tag::Pronoun, 10),
    (POSS_PRONOUNS, Tag::PronounPoss, 11),
    (DETERMINERS, Tag::Det, 9),
    (PREPOSITIONS, Tag::Prep, 6),
    (CONJUNCTIONS, Tag::Conj, 8),
    (WH_WORDS, Tag::Wh, 5),
    (VERBS, Tag::VerbBase, 2),
    (NOUNS, Tag::Noun, 1),
    (ADJECTIVES, Tag::Adj, 3),
    (ADVERBS, Tag::Adv, 4),
];

impl Lexicon {
    fn build() -> Self {
        let _span = ppchecker_obs::span!("nlp.lexicon_build");
        let interner = Interner::global();
        let preseeded = interner.stats().preseeded;
        let mut tags = vec![None; preseeded];
        let mut ranks = vec![0u8; preseeded];
        // The classes lead the pre-seed, so their words' ids are the
        // first ones it gave out: read them back instead of probing the
        // interner per word.
        let mut ids = interner.preseed_ids();
        for (words, tag, rank) in CLASSES {
            for id in ids.by_ref().take(words.len()) {
                let id = id as usize;
                if rank > ranks[id] {
                    tags[id] = Some(tag);
                    ranks[id] = rank;
                }
            }
        }
        // Above every class.
        for (word, tag) in [("to", Tag::To), ("not", Tag::Adv), ("n't", Tag::Adv)] {
            tags[interner.get(word).expect("pre-seeded").id() as usize] = Some(tag);
        }
        Lexicon { tags: tags.into() }
    }

    /// Returns the process-wide shared lexicon.
    pub fn shared() -> &'static Lexicon {
        static LEX: OnceLock<Lexicon> = OnceLock::new();
        LEX.get_or_init(Lexicon::build)
    }

    /// Looks up a lowercased word form by its symbol.
    pub fn lookup(&self, lower: Symbol) -> Option<Tag> {
        self.tags.get(lower.id() as usize).copied().flatten()
    }

    /// Looks up a candidate string without interning it — misses (e.g. the
    /// lemmatizer probing restored stems) leave the interner untouched.
    pub fn lookup_str(&self, lower: &str) -> Option<Tag> {
        let sym = Interner::global().get(lower)?;
        self.lookup(sym)
    }

    /// Returns `true` if the word (in any inflection) is a known verb.
    pub fn is_known_verb(&self, lower: Symbol) -> bool {
        if matches!(self.lookup(lower), Some(t) if t.is_verb()) {
            return true;
        }
        let lemma = crate::lemma::lemmatize_verb_sym(lower);
        matches!(self.lookup(lemma), Some(t) if t.is_verb())
    }

    /// Guesses the tag of an out-of-vocabulary word from its morphology.
    pub fn guess(&self, word: &str, lower: &str) -> Tag {
        if lower.chars().all(|c| c.is_ascii_digit() || c == '.' || c == ',') {
            return Tag::Num;
        }
        if word.chars().next().is_some_and(|c| c.is_uppercase()) {
            return Tag::NounProper;
        }
        if lower.ends_with("ly") {
            return Tag::Adv;
        }
        if lower.ends_with("ing") {
            return Tag::VerbGerund;
        }
        if lower.ends_with("ed") {
            return Tag::VerbPastPart;
        }
        if lower.ends_with("ous")
            || lower.ends_with("ful")
            || lower.ends_with("able")
            || lower.ends_with("ible")
            || lower.ends_with("ive")
            || lower.ends_with("al")
        {
            return Tag::Adj;
        }
        if lower.ends_with('s') && lower.len() > 3 && !lower.ends_with("ss") {
            return Tag::NounPlural;
        }
        Tag::Noun
    }
}

fn set(cell: &'static OnceLock<SymbolSet>, words: &'static [&'static str]) -> &'static SymbolSet {
    cell.get_or_init(|| SymbolSet::new(words))
}

/// `true` if `sym` is a form of "be".
pub fn is_be_form(sym: Symbol) -> bool {
    static SET: OnceLock<SymbolSet> = OnceLock::new();
    set(&SET, BE_FORMS).contains(sym)
}

/// `true` if `sym` is an auxiliary form of "have".
pub fn is_have_form(sym: Symbol) -> bool {
    static SET: OnceLock<SymbolSet> = OnceLock::new();
    set(&SET, HAVE_FORMS).contains(sym)
}

/// `true` if `sym` is an auxiliary form of "do".
pub fn is_do_form(sym: Symbol) -> bool {
    static SET: OnceLock<SymbolSet> = OnceLock::new();
    set(&SET, DO_FORMS).contains(sym)
}

/// `true` if `sym` is a subordinating word ([`SUBORDINATORS`]).
pub fn is_subordinator(sym: Symbol) -> bool {
    static SET: OnceLock<SymbolSet> = OnceLock::new();
    set(&SET, SUBORDINATORS).contains(sym)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_class_lookup() {
        let lex = Lexicon::shared();
        assert_eq!(lex.lookup_str("will"), Some(Tag::Modal));
        assert_eq!(lex.lookup_str("your"), Some(Tag::PronounPoss));
        assert_eq!(lex.lookup_str("no"), Some(Tag::Det));
        assert_eq!(lex.lookup_str("to"), Some(Tag::To));
        assert_eq!(lex.lookup_str("and"), Some(Tag::Conj));
    }

    #[test]
    fn open_class_lookup() {
        let lex = Lexicon::shared();
        assert_eq!(lex.lookup_str("collect"), Some(Tag::VerbBase));
        assert_eq!(lex.lookup_str("location"), Some(Tag::Noun));
        assert_eq!(lex.lookup_str("personal"), Some(Tag::Adj));
        assert_eq!(lex.lookup(crate::intern::intern("collect")), Some(Tag::VerbBase));
    }

    #[test]
    fn symbol_word_class_sets() {
        use crate::intern::intern;
        assert!(is_be_form(intern("were")));
        assert!(!is_be_form(intern("collect")));
        assert!(is_have_form(intern("has")));
        assert!(is_do_form(intern("does")));
        assert!(is_subordinator(intern("unless")));
    }

    #[test]
    fn suffix_guesser() {
        let lex = Lexicon::shared();
        assert_eq!(lex.guess("quickly", "quickly"), Tag::Adv);
        assert_eq!(lex.guess("syncing", "syncing"), Tag::VerbGerund);
        assert_eq!(lex.guess("harvested", "harvested"), Tag::VerbPastPart);
        assert_eq!(lex.guess("widgets", "widgets"), Tag::NounPlural);
        assert_eq!(lex.guess("Facebook", "facebook"), Tag::NounProper);
        assert_eq!(lex.guess("42", "42"), Tag::Num);
    }

    /// The dense table answers as the replaced `HashMap<Symbol, Tag>`
    /// did for every pre-seeded symbol, and `None` for a dynamic one.
    #[test]
    fn dense_table_matches_the_replaced_map() {
        use crate::intern::{intern, preseed_vocabulary};
        use std::collections::HashMap;
        let interner = Interner::global();
        let mut entries = HashMap::new();
        let mut insert_all = |words: &[&'static str], tag: Tag| {
            for &w in words {
                entries.insert(interner.intern_static(w), tag);
            }
        };
        insert_all(NOUNS, Tag::Noun);
        insert_all(VERBS, Tag::VerbBase);
        insert_all(ADJECTIVES, Tag::Adj);
        insert_all(ADVERBS, Tag::Adv);
        insert_all(WH_WORDS, Tag::Wh);
        insert_all(PREPOSITIONS, Tag::Prep);
        insert_all(SUBORDINATORS, Tag::Prep);
        insert_all(CONJUNCTIONS, Tag::Conj);
        insert_all(DETERMINERS, Tag::Det);
        insert_all(PRONOUNS, Tag::Pronoun);
        insert_all(POSS_PRONOUNS, Tag::PronounPoss);
        insert_all(MODALS, Tag::Modal);
        insert_all(BE_FORMS, Tag::VerbPres);
        insert_all(HAVE_FORMS, Tag::VerbPres);
        insert_all(DO_FORMS, Tag::VerbPres);
        entries.insert(interner.intern_static("to"), Tag::To);
        entries.insert(interner.intern_static("not"), Tag::Adv);
        entries.insert(interner.intern_static("n't"), Tag::Adv);

        let lex = Lexicon::shared();
        let preseeded = interner.stats().preseeded;
        assert_eq!(lex.tags.len(), preseeded, "every lexicon word is pre-seeded");
        for word in preseed_vocabulary() {
            let sym = interner.get(word).expect("pre-seeded");
            assert_eq!(lex.lookup(sym), entries.get(&sym).copied(), "{word}");
        }
        let dynamic = intern("zorble-lexicon-dynamic");
        assert!(dynamic.id() as usize >= preseeded);
        assert_eq!(lex.lookup(dynamic), None);
    }

    #[test]
    fn inflected_verbs_are_known() {
        use crate::intern::intern;
        let lex = Lexicon::shared();
        assert!(lex.is_known_verb(intern("collects")));
        assert!(lex.is_known_verb(intern("collected")));
        assert!(lex.is_known_verb(intern("sharing")));
        assert!(lex.is_known_verb(intern("kept")));
        assert!(!lex.is_known_verb(intern("location")));
    }
}
