//! # ppchecker-desc
//!
//! The description analysis module (AutoCog substitute): maps an app's
//! Google Play description to the permissions its text implies, then maps
//! those permissions to private information (`Info_desc`).
//!
//! AutoCog builds a semantic model relating description noun phrases to
//! permissions; this reproduction compares each description noun phrase
//! against a semantic profile per permission using the same ESA similarity
//! and 0.67 threshold the rest of the pipeline uses. Each (phrase,
//! profile) pair goes through [`Interpreter::similarity_above`], the one
//! threshold predicate the ESA crate has, so its norm-bound prune and
//! prune counter cover this loop too.
//!
//! # Examples
//!
//! ```
//! use ppchecker_desc::analyze_description;
//! use ppchecker_apk::{Permission, PrivateInfo};
//!
//! let a = analyze_description(
//!     "Location aware tasks will help you to utilize your field force in optimum way.",
//! );
//! assert!(a.permissions.contains(&Permission::AccessFineLocation));
//! assert!(a.info.contains(&PrivateInfo::Location));
//! ```

#![forbid(unsafe_code)]

use ppchecker_apk::{Permission, PrivateInfo};
use ppchecker_esa::{Interpreter, SparseVector};
use ppchecker_nlp::chunk::{chunk_nps_into, NounPhrase};
use ppchecker_nlp::sentence::{split_sentences_into, Sentences};
use ppchecker_nlp::tagger::tag_str_into;
use ppchecker_nlp::Token;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// One matched description phrase and the permission it implies.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// The description noun phrase.
    pub phrase: String,
    /// The inferred permission.
    pub permission: Permission,
    /// ESA similarity against the permission's semantic profile.
    pub similarity: f64,
}

/// The result of analyzing a description.
#[derive(Debug, Clone, Default)]
pub struct DescriptionAnalysis {
    /// Permissions the description implies.
    pub permissions: BTreeSet<Permission>,
    /// `Info_desc`: private information implied by those permissions.
    pub info: BTreeSet<PrivateInfo>,
    /// Phrase-level evidence.
    pub evidence: Vec<Evidence>,
}

/// Semantic profiles: `(permission, profile text)` pairs the description
/// phrases are compared against (the AutoCog semantic-model substitute).
pub fn permission_profiles() -> &'static [(Permission, &'static str)] {
    use Permission::*;
    const PROFILES: &[(Permission, &str)] = &[
        (AccessFineLocation, "location latitude longitude gps"),
        (AccessCoarseLocation, "nearby city area around"),
        (Camera, "camera photo picture"),
        (ReadContacts, "contacts phonebook"),
        (WriteContacts, "merge duplicate entries cleanup"),
        (GetAccounts, "account sign-in login"),
        (ReadCalendar, "calendar events schedule"),
        (RecordAudio, "microphone voice recording"),
        (ReadSms, "sms text messages"),
        (ReadPhoneState, "phone number device"),
        (ReadCallLog, "call history log"),
        (GetTasks, "running apps list"),
        (ReadHistoryBookmarks, "browsing history bookmarks"),
    ];
    PROFILES
}

/// Analyzes a description with the shared ESA interpreter.
pub fn analyze_description(text: &str) -> DescriptionAnalysis {
    analyze_description_with(text, Interpreter::shared())
}

/// Permission profiles as interpretation vectors.
type ProfileSet = Vec<(Permission, Arc<SparseVector>)>;

/// The resolved [`ProfileSet`]: once per process for the shared
/// interpreter (the common case), per call for a custom one.
fn profile_vectors(esa: &Interpreter) -> std::borrow::Cow<'static, ProfileSet> {
    use std::borrow::Cow;
    fn resolve(esa: &Interpreter) -> ProfileSet {
        permission_profiles()
            .iter()
            .map(|(perm, text)| (perm.clone(), esa.vector_of(text)))
            .collect()
    }
    if std::ptr::eq(esa, Interpreter::shared()) {
        static SHARED: OnceLock<ProfileSet> = OnceLock::new();
        Cow::Borrowed(SHARED.get_or_init(|| resolve(esa)))
    } else {
        Cow::Owned(resolve(esa))
    }
}

/// Heap bytes past which a thread drops its description buffers after
/// use instead of keeping them for the next description.
const SCRATCH_CAP_BYTES: usize = 64 << 10;

/// The buffers one description runs through: its sentences, one
/// sentence's tagged tokens and noun phrases, and one phrase's text.
struct DescScratch {
    sentences: Sentences,
    tokens: Vec<Token>,
    nps: Vec<NounPhrase>,
    phrase: String,
}

impl DescScratch {
    const fn new() -> Self {
        DescScratch {
            sentences: Sentences::new(),
            tokens: Vec::new(),
            nps: Vec::new(),
            phrase: String::new(),
        }
    }

    fn allocated_bytes(&self) -> usize {
        self.sentences.allocated_bytes()
            + self.tokens.capacity() * std::mem::size_of::<Token>()
            + self.nps.capacity() * std::mem::size_of::<NounPhrase>()
            + self.phrase.capacity()
    }
}

thread_local! {
    /// This thread's description buffers, refilled by each description.
    static DESC_SCRATCH: RefCell<DescScratch> = const { RefCell::new(DescScratch::new()) };
}

/// Runs `f` on this thread's description buffers, or on fresh ones in a
/// nested call while they are in use. Buffers grown past
/// [`SCRATCH_CAP_BYTES`] are dropped after use.
fn with_desc_scratch<R>(f: impl FnOnce(&mut DescScratch) -> R) -> R {
    DESC_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let out = f(&mut scratch);
            if scratch.allocated_bytes() > SCRATCH_CAP_BYTES {
                *scratch = DescScratch::new();
            }
            out
        }
        Err(_) => f(&mut DescScratch::new()),
    })
}

/// Analyzes a description with an explicit ESA interpreter.
///
/// Every noun phrase of every sentence is compared against each permission
/// profile; a similarity at or above [`ppchecker_esa::SIMILARITY_THRESHOLD`]
/// infers the permission. Split, tag, chunk and phrase text run through
/// buffers the thread keeps, so a description allocates only when a
/// permission fires.
pub fn analyze_description_with(text: &str, esa: &Interpreter) -> DescriptionAnalysis {
    let _span = ppchecker_obs::span!("desc.analyze");
    // Resolve each profile's interpretation vector once per description
    // (not once per noun phrase), then compare phrase vectors against them
    // directly: same cosines as `esa.similarity`, without a vector-cache
    // probe per (phrase, profile) pair. For the shared interpreter the
    // profile vectors are resolved once per process.
    let profiles = profile_vectors(esa);
    with_desc_scratch(|scratch| {
        let DescScratch { sentences, tokens, nps, phrase } = scratch;
        let mut out = DescriptionAnalysis::default();
        split_sentences_into(text, sentences);
        for sent in sentences.iter() {
            tag_str_into(sent, tokens);
            chunk_nps_into(tokens, nps);
            for np in nps.iter() {
                // Evidence copies the phrase only when a permission fires.
                phrase.clear();
                np.push_content_text(tokens, phrase);
                if phrase.is_empty() {
                    continue;
                }
                let phrase_vec = esa.vector_of(phrase);
                if phrase_vec.is_empty() {
                    // No known terms: similarity against every profile is 0.
                    continue;
                }
                // The norm bound rejects most profiles before any dot
                // product; the verdict is exactly `cosine >= threshold`.
                for (perm, profile_vec) in profiles.iter() {
                    let Some(sim) = esa.similarity_above(
                        &phrase_vec,
                        profile_vec,
                        ppchecker_esa::SIMILARITY_THRESHOLD,
                    ) else {
                        continue;
                    };
                    out.permissions.insert(perm.clone());
                    for &info in PrivateInfo::from_permission(perm) {
                        out.info.insert(info);
                    }
                    out.evidence.push(Evidence {
                        phrase: phrase.clone(),
                        permission: perm.clone(),
                        similarity: sim,
                    });
                }
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_nlp::chunk::chunk_nps;
    use ppchecker_nlp::sentence::split_sentences;
    use ppchecker_nlp::tagger::tag_str;

    #[test]
    fn paper_dooing_description_implies_location() {
        // Fig. 2's description sentence.
        let a = analyze_description(
            "Location aware tasks will help you to utilize your field force in optimum way.",
        );
        assert!(a.permissions.iter().any(|p| matches!(
            p,
            Permission::AccessFineLocation | Permission::AccessCoarseLocation
        )));
        assert!(a.info.contains(&PrivateInfo::Location));
    }

    #[test]
    fn paper_birthdaylist_description_implies_contacts() {
        // §V-D: "This app synchronizes all birthdays with your contacts
        // list and facebook."
        let a = analyze_description(
            "This app synchronizes all birthdays with your contacts list and facebook.",
        );
        assert!(a.permissions.contains(&Permission::ReadContacts));
        assert!(a.info.contains(&PrivateInfo::Contact));
    }

    #[test]
    fn neutral_description_implies_nothing() {
        let a = analyze_description(
            "A fun and addictive puzzle game with hundreds of levels. Beat your high score!",
        );
        assert!(a.permissions.is_empty());
        assert!(a.info.is_empty());
    }

    #[test]
    fn camera_description() {
        let a = analyze_description("Take beautiful photos with powerful camera filters.");
        assert!(a.permissions.contains(&Permission::Camera));
        assert!(a.info.contains(&PrivateInfo::Camera));
    }

    #[test]
    fn evidence_records_similarity() {
        let a = analyze_description("See the weather at your current location now.");
        assert!(a.evidence.iter().any(|e| e.similarity >= 0.67));
    }

    #[test]
    fn per_pair_prune_counts_every_bounded_pair_and_keeps_exact_verdicts() {
        use ppchecker_esa::kernel::{cosine, cosine_upper_bound, PRUNE_MARGIN};
        use ppchecker_esa::{kb, SIMILARITY_THRESHOLD};
        // A private interpreter, so no other test moves its prune counter.
        let esa = Interpreter::new(kb::concepts());
        let profiles: Vec<(Permission, SparseVector)> = permission_profiles()
            .iter()
            .map(|(perm, text)| (perm.clone(), esa.interpret_sparse(text)))
            .collect();
        for text in [
            "Location aware tasks will help you to utilize your field force in optimum way.",
            "This app synchronizes all birthdays with your contacts list and facebook.",
            "Take beautiful photos with powerful camera filters. Record voice memos too.",
            "A fun and addictive puzzle game with hundreds of levels. Beat your high score!",
            "Read your sms text messages and call history from any nearby city.",
        ] {
            // Brute force over the same noun phrases: every pair whose
            // bound falls below the cut is a prune, and every pair whose
            // exact cosine reaches the threshold is evidence.
            let mut expected_pruned = 0u64;
            let mut expected = Vec::new();
            for sent in split_sentences(text).iter() {
                let tokens = tag_str(sent);
                for np in chunk_nps(&tokens) {
                    let phrase = np.content_text(&tokens);
                    let phrase_vec = esa.interpret_sparse(&phrase);
                    if phrase.is_empty() || phrase_vec.is_empty() {
                        continue;
                    }
                    for (perm, profile_vec) in &profiles {
                        let bound = cosine_upper_bound(&phrase_vec, profile_vec);
                        expected_pruned += (bound < SIMILARITY_THRESHOLD - PRUNE_MARGIN) as u64;
                        let sim = cosine(&phrase_vec, profile_vec);
                        if sim >= SIMILARITY_THRESHOLD {
                            expected.push((phrase.clone(), perm.clone(), sim.to_bits()));
                        }
                    }
                }
            }
            let before = esa.pruned_comparisons();
            let analysis = analyze_description_with(text, &esa);
            let pruned = esa.pruned_comparisons() - before;
            assert_eq!(pruned, expected_pruned, "prune count diverged on {text:?}");
            let evidence: Vec<_> = analysis
                .evidence
                .iter()
                .map(|e| (e.phrase.clone(), e.permission.clone(), e.similarity.to_bits()))
                .collect();
            assert_eq!(evidence, expected, "evidence diverged on {text:?}");
        }
    }

    /// A description phrase is a cache key, not vocabulary: comparing it
    /// against the permission profiles must not leave it in the
    /// process-wide interner.
    #[test]
    fn description_phrases_stay_out_of_the_interner() {
        use ppchecker_nlp::Interner;
        let a = analyze_description("Share your gps location coordinates with friends nearby.");
        let phrases: Vec<&str> =
            a.evidence.iter().map(|e| e.phrase.as_str()).filter(|p| p.contains(' ')).collect();
        assert!(!phrases.is_empty(), "a multi-word phrase must match: {:?}", a.evidence);
        for phrase in phrases {
            assert!(Interner::global().get(phrase).is_none(), "{phrase:?} was interned");
        }
    }
}
