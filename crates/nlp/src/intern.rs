//! The string-interning layer the whole text pipeline flows through.
//!
//! Every word, lemma and resource phrase the pipeline touches is stored
//! once in a process-wide [`Interner`] and handled as a [`Symbol`] — a
//! `Copy` `u32` handle. Equality, hashing and set membership on symbols are
//! integer operations; the text is recovered with [`Symbol::as_str`], which
//! returns `&'static str` because interned storage is never freed.
//!
//! The global interner starts from a *pre-seeded static table* covering the
//! closed vocabulary the pipeline consults on every sentence — the lexicon
//! word classes, the verb-category lists, the synonym list, the negation
//! markers and the sensitive-resource phrases. That table is built once and
//! then only read, so a pre-seeded word interns without taking a lock.
//! Only a word that misses it takes the read lock of the *dynamic* map, and
//! only a word never seen before takes its write lock; the dynamic table
//! grows monotonically for the life of the process (see DESIGN.md §9 for
//! the lifetime rules).
//!
//! Id → text goes through an append-only segmented table whose slots are
//! written once, so [`Interner::resolve`] (and with it every
//! [`Symbol::as_str`]) never locks. Each slot also carries the symbol's two
//! memoized lemmas (see [`crate::lemma`]).
//!
//! Whole documents and sentences do not belong here: a symbol lives as
//! long as the process, so the engine's policy cache keys sentence
//! analyses by the text itself and lets them go with the cache.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned string handle. `Copy`, 4 bytes, order-stable within one
/// process run (symbols compare by interning order, not alphabetically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index into the global interner's table.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Resolves the symbol through the global interner.
    pub fn as_str(self) -> &'static str {
        Interner::global().resolve(self)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

/// Ids in segment 0 of the id table; segment `k` holds `SEGMENT_BASE << k`.
/// Small enough that a fresh process touches only a few pages for it.
const SEGMENT_BASE: usize = 1 << 10;

/// Segments in the id table. Together they hold `SEGMENT_BASE ·
/// (2^SEGMENTS − 1)` ids, which is less than `u32::MAX`, so `id + 1` never
/// overflows in a lemma memo word.
const SEGMENTS: usize = 22;

/// One issued id: its text, written once, and its memoized lemmas.
#[derive(Default)]
struct Slot {
    text: OnceLock<&'static str>,
    /// Verb lemma as `id + 1`; 0 until first computed.
    verb_lemma: AtomicU32,
    /// Noun lemma as `id + 1`; 0 until first computed.
    noun_lemma: AtomicU32,
}

/// Which memoized lemma of a symbol (see [`crate::lemma`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LemmaKind {
    Verb,
    Noun,
}

/// Id → slot: geometrically growing segments, each allocated once on
/// first use and never moved, so a reader needs no lock.
struct Table {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
}

impl Default for Table {
    fn default() -> Self {
        Table { segments: std::array::from_fn(|_| OnceLock::new()) }
    }
}

impl Table {
    /// The segment and offset of `id`. The segment is past the table for
    /// an id at or beyond its capacity.
    fn locate(id: u32) -> (usize, usize) {
        let (id, base) = (u64::from(id), SEGMENT_BASE as u64);
        let segment = (id / base + 1).ilog2();
        (segment as usize, (id - base * ((1 << segment) - 1)) as usize)
    }

    /// The slot of `id`, if its segment has been allocated.
    fn slot(&self, id: u32) -> Option<&Slot> {
        let (segment, offset) = Table::locate(id);
        self.segments.get(segment)?.get()?.get(offset)
    }

    /// Writes the text of a freshly issued `id`. Ids are issued in order
    /// under the dynamic map's write lock (or before the interner is
    /// shared), and the slot is written before the id is handed out.
    fn publish(&self, id: u32, text: &'static str) {
        let (segment, offset) = Table::locate(id);
        let slots = self
            .segments
            .get(segment)
            .expect("interner id space exhausted")
            .get_or_init(|| (0..SEGMENT_BASE << segment).map(|_| Slot::default()).collect());
        slots[offset].text.set(text).expect("an id is issued once");
    }
}

/// Counters describing the interner's occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Total distinct symbols, including the pre-seeded table.
    pub symbols: usize,
    /// Symbols installed by the static pre-seed at initialization.
    pub preseeded: usize,
    /// Total bytes of interned text.
    pub bytes: usize,
    /// The soft occupancy cap, in bytes of interned text.
    pub soft_cap_bytes: usize,
    /// Whether occupancy has crossed the soft cap. Interning still works
    /// past the cap (symbols are load-bearing for correctness), but a
    /// long-lived process should treat this as an operational warning —
    /// something is feeding unbounded novel vocabulary (see
    /// [`Interner::over_cap_interns`]).
    pub over_soft_cap: bool,
}

/// Default soft cap on interned text: 64 MiB. The pipeline interns
/// words, never whole documents, so occupancy tracks vocabulary rather
/// than corpus size: a 100k-app streamed batch (seed 42) ends at 6,702
/// symbols (608 of them pre-seeded) and 33,820 bytes, about 1/2000 of
/// the cap. A daemon crossing it is being fed unbounded novel vocabulary
/// (adversarial input, unbounded corpus churn), not growing normally.
pub const DEFAULT_INTERN_SOFT_CAP_BYTES: usize = 64 * 1024 * 1024;

/// A thread-safe append-only string interner.
///
/// Interned text is leaked (for dynamic strings) or borrowed from rodata
/// (for the pre-seeded vocabulary), so resolution hands out `&'static str`.
/// Resolving and interning a pre-seeded word take no lock; see the module
/// docs for which paths do.
pub struct Interner {
    /// The pre-seeded vocabulary, written before the interner is shared
    /// and only read after.
    preseed: HashMap<&'static str, u32>,
    /// Every word interned after construction.
    dynamic: RwLock<HashMap<&'static str, u32>>,
    table: Table,
    bytes: AtomicUsize,
    soft_cap_bytes: AtomicUsize,
    over_cap_interns: AtomicUsize,
    warned: AtomicBool,
}

impl Interner {
    /// An empty interner (tests only; production code uses [`global`]).
    ///
    /// [`global`]: Interner::global
    pub fn new() -> Self {
        Interner {
            preseed: HashMap::new(),
            dynamic: RwLock::default(),
            table: Table::default(),
            bytes: AtomicUsize::new(0),
            soft_cap_bytes: AtomicUsize::new(DEFAULT_INTERN_SOFT_CAP_BYTES),
            over_cap_interns: AtomicUsize::new(0),
            warned: AtomicBool::new(false),
        }
    }

    /// The process-wide interner, pre-seeded with the pipeline vocabulary.
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(Interner::preseeded)
    }

    /// A fresh interner holding the pipeline vocabulary, as [`global`]
    /// starts out (for isolated tests and measurements).
    ///
    /// [`global`]: Interner::global
    pub fn preseeded() -> Self {
        let _span = ppchecker_obs::span!("nlp.interner_build");
        let mut interner = Interner::new();
        // Sized once: the vocabulary repeats few words.
        interner.preseed.reserve(preseed_vocabulary().count());
        for word in preseed_vocabulary() {
            let id = interner.preseed.len() as u32;
            if let Entry::Vacant(entry) = interner.preseed.entry(word) {
                interner.table.publish(id, word);
                entry.insert(id);
            }
        }
        *interner.bytes.get_mut() = interner.preseed.keys().map(|w| w.len()).sum();
        interner
    }

    /// Interns `s`, copying it into leaked storage on first sight.
    pub fn intern(&self, s: &str) -> Symbol {
        self.get(s).unwrap_or_else(|| self.insert(s, || Box::leak(s.into())))
    }

    /// Interns a string that is already `'static`, without copying.
    pub fn intern_static(&self, s: &'static str) -> Symbol {
        self.get(s).unwrap_or_else(|| self.insert(s, || s))
    }

    /// Issues the next id for `s` under the write lock, unless another
    /// thread did since the caller's probe. `store` yields the text to
    /// keep; it runs only for a word that really is new.
    fn insert(&self, s: &str, store: impl FnOnce() -> &'static str) -> Symbol {
        let mut dynamic = self.dynamic.write().expect("interner poisoned");
        if let Some(&id) = dynamic.get(s) {
            return Symbol(id);
        }
        let stored = store();
        let id =
            u32::try_from(self.preseed.len() + dynamic.len()).expect("interner id space exhausted");
        self.table.publish(id, stored);
        dynamic.insert(stored, id);
        drop(dynamic);
        self.account(stored.len());
        Symbol(id)
    }

    /// Books `len` freshly interned bytes against the soft cap: past it,
    /// each further intern counts (for `/metrics`-style scrapes) and the
    /// first crossing logs one warning. Interning itself never fails —
    /// symbols are identity, not cache — the cap exists so a week-long
    /// daemon surfaces unbounded vocabulary growth *before* it OOMs
    /// instead of inside the allocator.
    fn account(&self, len: usize) {
        let total = self.bytes.fetch_add(len, Ordering::Relaxed) + len;
        let cap = self.soft_cap_bytes.load(Ordering::Relaxed);
        if cap > 0 && total > cap {
            self.over_cap_interns.fetch_add(1, Ordering::Relaxed);
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: interner occupancy {total} bytes crossed the soft cap \
                     ({cap} bytes); novel vocabulary is accumulating without bound"
                );
            }
        }
    }

    /// Overrides the soft occupancy cap (`0` disables the warning).
    pub fn set_soft_cap_bytes(&self, cap: usize) {
        self.soft_cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// Interns recorded after occupancy crossed the soft cap.
    pub fn over_cap_interns(&self) -> usize {
        self.over_cap_interns.load(Ordering::Relaxed)
    }

    /// Looks up `s` without interning it on a miss. Use this on paths that
    /// probe candidate strings (lemmatizer stem restoration, unknown-verb
    /// checks) so junk candidates never enter the table.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if let Some(&id) = self.preseed.get(s) {
            return Some(Symbol(id));
        }
        self.dynamic.read().expect("interner poisoned").get(s).map(|&id| Symbol(id))
    }

    /// The text of `sym`. Takes no lock.
    ///
    /// # Panics
    ///
    /// Panics if this interner never issued `sym`.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        match self.table.slot(sym.0).and_then(|slot| slot.text.get()) {
            Some(text) => text,
            None => panic!("symbol {} was never issued by this interner", sym.0),
        }
    }

    /// The id the pre-seed gave each word of [`preseed_vocabulary`], in
    /// that order. A word's first occurrence took the next id, so it is
    /// that id's text in the table; only a repeated word is looked up.
    pub(crate) fn preseed_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let mut next = 0;
        preseed_vocabulary().map(move |word| {
            if self.table.slot(next).and_then(|slot| slot.text.get()) == Some(&word) {
                next += 1;
                next - 1
            } else {
                self.preseed[word]
            }
        })
    }

    /// The memoized `kind` lemma of `sym`, if one has been recorded.
    pub(crate) fn memoized_lemma(&self, sym: Symbol, kind: LemmaKind) -> Option<Symbol> {
        // Acquire pairs with the Release in `memoize_lemma`: the lemma's
        // own slot was written before its id was stored here.
        self.memo_word(sym, kind).load(Ordering::Acquire).checked_sub(1).map(Symbol)
    }

    /// Records `lemma` as the `kind` lemma of `sym`. Racing writers
    /// compute the same lemma, so the last store wins harmlessly.
    pub(crate) fn memoize_lemma(&self, sym: Symbol, kind: LemmaKind, lemma: Symbol) {
        self.memo_word(sym, kind).store(lemma.0 + 1, Ordering::Release);
    }

    fn memo_word(&self, sym: Symbol, kind: LemmaKind) -> &AtomicU32 {
        let slot = self.table.slot(sym.0).expect("symbol was never issued by this interner");
        match kind {
            LemmaKind::Verb => &slot.verb_lemma,
            LemmaKind::Noun => &slot.noun_lemma,
        }
    }

    /// Current occupancy counters.
    pub fn stats(&self) -> InternerStats {
        let dynamic = self.dynamic.read().expect("interner poisoned").len();
        let bytes = self.bytes.load(Ordering::Relaxed);
        let soft_cap_bytes = self.soft_cap_bytes.load(Ordering::Relaxed);
        InternerStats {
            symbols: self.preseed.len() + dynamic,
            preseeded: self.preseed.len(),
            bytes,
            soft_cap_bytes,
            over_soft_cap: soft_cap_bytes > 0 && bytes > soft_cap_bytes,
        }
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Interner")
            .field("symbols", &stats.symbols)
            .field("preseeded", &stats.preseeded)
            .finish()
    }
}

/// Interns through the global interner.
pub fn intern(s: &str) -> Symbol {
    Interner::global().intern(s)
}

/// Resolves through the global interner.
pub fn resolve(sym: Symbol) -> &'static str {
    Interner::global().resolve(sym)
}

/// A small sorted symbol set for closed word classes. Membership is a
/// binary search over `u32`s — no hashing, no string comparison.
#[derive(Debug, Clone)]
pub struct SymbolSet {
    syms: Vec<Symbol>,
}

impl SymbolSet {
    /// Interns every word and builds the sorted set.
    pub fn new(words: &[&'static str]) -> Self {
        let interner = Interner::global();
        let mut syms: Vec<Symbol> = words.iter().map(|w| interner.intern_static(w)).collect();
        syms.sort_unstable();
        syms.dedup();
        SymbolSet { syms }
    }

    /// Membership test.
    pub fn contains(&self, sym: Symbol) -> bool {
        self.syms.binary_search(&sym).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// `true` when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }
}

/// The sensitive-resource vocabulary: the canonical phrases of the paper's
/// private-information taxonomy (kept in sync with
/// `ppchecker_apk::PrivateInfo::canonical_phrase`) plus the multi-word
/// resource phrases the synthetic corpus and detectors compare against.
pub const SENSITIVE_RESOURCES: &[&str] = &[
    "location",
    "device id",
    "phone number",
    "ip address",
    "cookie",
    "account",
    "contact",
    "calendar",
    "camera",
    "audio",
    "app list",
    "sms",
    "call log",
    "browsing history",
    "sensor",
    "bluetooth",
    "carrier",
    "clipboard",
    "email address",
    "name",
    "birthday",
    // frequent policy-side surface forms of the same resources
    "personal information",
    "location information",
    "location data",
    "contacts",
    "cookies",
    "e-mail address",
    "device identifier",
    "usage data",
    "information",
    "data",
];

/// Everything installed into the global interner's static table.
pub(crate) fn preseed_vocabulary() -> impl Iterator<Item = &'static str> {
    let punct: &[&'static str] =
        &[".", ",", ";", ":", "!", "?", "'", "\"", "(", ")", "-", "/", "to", "n't", "'s"];
    crate::lexicon::CLASSES
        .into_iter()
        .flat_map(|(words, _, _)| words.iter().copied())
        .chain(crate::lemma::preseed_lemma_vocabulary())
        .chain(SENSITIVE_RESOURCES.iter().copied())
        .chain(punct.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn intern_is_idempotent() {
        let a = intern("collect");
        let b = intern("collect");
        assert_eq!(a, b);
        assert_eq!(resolve(a), "collect");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(intern("alpha-unique-x"), intern("beta-unique-y"));
    }

    #[test]
    fn roundtrip_both_ways() {
        let s = "some dynamic phrase";
        let sym = intern(s);
        assert_eq!(resolve(sym), s);
        assert_eq!(intern(resolve(sym)), sym);
    }

    #[test]
    fn preseeded_vocabulary_is_present_without_interning() {
        let g = Interner::global();
        assert!(g.get("collect").is_some());
        assert!(g.get("location").is_some());
        assert!(g.get("device id").is_some());
        assert!(g.get("not").is_some());
        assert!(g.get("zorble-never-seen").is_none());
    }

    #[test]
    fn get_does_not_intern() {
        let g = Interner::global();
        let before = g.stats().symbols;
        assert!(g.get("candidate-stem-miss").is_none());
        assert_eq!(g.stats().symbols, before);
    }

    #[test]
    fn stats_count_preseed() {
        let stats = Interner::global().stats();
        assert!(stats.preseeded > 400, "preseed covers the lexicon");
        assert!(stats.symbols >= stats.preseeded);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn symbol_set_membership() {
        let set = SymbolSet::new(&["be", "am", "is", "are"]);
        assert!(set.contains(intern("is")));
        assert!(!set.contains(intern("collect")));
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
    }

    #[test]
    fn display_resolves() {
        assert_eq!(intern("location").to_string(), "location");
    }

    #[test]
    fn soft_cap_warns_without_refusing() {
        let local = Interner::new();
        local.set_soft_cap_bytes(8);
        let a = local.intern("four");
        assert!(!local.stats().over_soft_cap);
        assert_eq!(local.over_cap_interns(), 0);
        let b = local.intern("crosses-the-cap");
        // Interning still works past the cap; the stats flag flips.
        assert_eq!(local.resolve(a), "four");
        assert_eq!(local.resolve(b), "crosses-the-cap");
        assert!(local.stats().over_soft_cap);
        assert_eq!(local.over_cap_interns(), 1);
        let _ = local.intern("and-another-one");
        assert_eq!(local.over_cap_interns(), 2);
    }

    #[test]
    fn zero_cap_disables_the_warning() {
        let local = Interner::new();
        local.set_soft_cap_bytes(0);
        let _ = local.intern("whatever length this is");
        assert!(!local.stats().over_soft_cap);
        assert_eq!(local.over_cap_interns(), 0);
    }

    #[test]
    fn stats_bytes_track_interned_text() {
        let local = Interner::new();
        let _ = local.intern("abcde");
        let _ = local.intern("xyz");
        let _ = local.intern("abcde"); // duplicate: no growth
        let stats = local.stats();
        assert_eq!(stats.bytes, 8);
        assert_eq!(stats.soft_cap_bytes, DEFAULT_INTERN_SOFT_CAP_BYTES);
    }

    /// Ids in first-seen order of the pre-seed vocabulary.
    fn expected_preseed_ids() -> HashMap<&'static str, u32> {
        let mut ids = HashMap::new();
        for word in preseed_vocabulary() {
            let next = ids.len() as u32;
            ids.entry(word).or_insert(next);
        }
        ids
    }

    #[test]
    fn preseed_ids_follow_first_sight() {
        let expected = expected_preseed_ids();
        assert_eq!(expected.len(), 608, "the documented pre-seed size");
        for interner in [Interner::global(), &Interner::preseeded()] {
            for (word, &id) in &expected {
                assert_eq!(interner.get(word), Some(Symbol(id)), "{word}");
            }
            let stats = interner.stats();
            assert_eq!(stats.preseeded, expected.len());
            let bytes: usize = expected.keys().map(|w| w.len()).sum();
            assert!(stats.bytes >= bytes);
        }
        let fresh = Interner::preseeded().stats();
        assert_eq!((fresh.symbols, fresh.preseeded), (608, 608));
        assert_eq!(fresh.bytes, expected.keys().map(|w| w.len()).sum::<usize>());
    }

    /// Eight threads race to intern an overlapping set of novel words while
    /// resolving and lemmatizing them, growing the dynamic map through
    /// many resizes: each word gets exactly one id, every id resolves to
    /// its word, each word is counted once, and the pre-seeded ids stay
    /// where they were. Eight rounds, each on a fresh interner.
    #[test]
    fn concurrent_interning_issues_one_id_per_word() {
        for _ in 0..8 {
            intern_race();
        }
    }

    fn intern_race() {
        use crate::lemma::{lemmatize_noun, lemmatize_verb, memoized};
        use std::sync::Barrier;

        let local = Interner::preseeded();
        let before = local.stats();
        // Every stem also appears with an "-s" whose lemmas are the stem,
        // so lemmatizing adds no word outside the set. 4,000 words on top
        // of the pre-seed also cross the first segment boundary.
        let words: Vec<String> =
            (0..2_000).flat_map(|i| [format!("zorblet{i}"), format!("zorblet{i}s")]).collect();
        assert!(before.preseeded + words.len() > SEGMENT_BASE);
        let threads = 8;
        let stride = words.len() / threads;
        let window = 2 * stride;
        let barrier = Barrier::new(threads);
        let issued: Vec<Vec<(&str, Symbol)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (local, words, barrier) = (&local, &words, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        (0..window)
                            .map(|i| {
                                let word = words[(t * stride + i) % words.len()].as_str();
                                let sym = local.intern(word);
                                assert_eq!(local.resolve(sym), word);
                                assert_eq!(local.get(word), Some(sym));
                                let verb = memoized(local, sym, LemmaKind::Verb);
                                assert_eq!(local.resolve(verb), lemmatize_verb(word));
                                let noun = memoized(local, sym, LemmaKind::Noun);
                                assert_eq!(local.resolve(noun), lemmatize_noun(word));
                                (word, sym)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("interning thread panicked")).collect()
        });
        let mut ids: HashMap<&str, Symbol> = HashMap::new();
        for (word, sym) in issued.into_iter().flatten() {
            assert_eq!(*ids.entry(word).or_insert(sym), sym, "{word} got two ids");
        }
        assert_eq!(ids.len(), words.len(), "every word was interned");
        let distinct: HashSet<Symbol> = ids.values().copied().collect();
        assert_eq!(distinct.len(), words.len(), "no two words share an id");
        for (word, sym) in &ids {
            assert!(sym.0 as usize >= before.preseeded, "{word} took a pre-seeded id");
            assert_eq!(local.intern(word), *sym);
            assert_eq!(local.resolve(*sym), *word);
        }
        let word_bytes: usize = words.iter().map(String::len).sum();
        assert_eq!(
            local.stats(),
            InternerStats {
                symbols: before.preseeded + words.len(),
                bytes: before.bytes + word_bytes,
                ..before
            }
        );
        for (word, id) in expected_preseed_ids() {
            assert_eq!(local.get(word), Some(Symbol(id)), "{word}");
        }
    }

    #[test]
    #[should_panic(expected = "never issued")]
    fn resolving_an_unissued_id_panics() {
        let local = Interner::new();
        let _ = local.intern("only-one");
        let _ = local.resolve(Symbol(1));
    }

    #[test]
    #[should_panic(expected = "never issued")]
    fn resolving_an_id_past_the_table_panics() {
        let _ = Interner::new().resolve(Symbol(u32::MAX));
    }

    #[test]
    fn private_interner_is_independent() {
        let local = Interner::new();
        let a = local.intern("only-local");
        assert_eq!(local.resolve(a), "only-local");
        assert_eq!(local.stats().symbols, 1);
        assert_eq!(local.stats().preseeded, 0);
    }
}
