//! Rule-based part-of-speech tagging with Brill-style contextual repair.

use crate::lemma::{lemmatize_noun_sym, lemmatize_verb, lemmatize_verb_sym};
use crate::lexicon::{self, Lexicon, BE_FORMS, DO_FORMS, HAVE_FORMS};
use crate::token::{Tag, Token};

/// Tags every token in place (assigning [`Token::tag`] and [`Token::lemma`]).
///
/// The tagger looks up each word in the [`Lexicon`], falls back to
/// inflection analysis (a word whose lemma is a known verb is tagged as the
/// matching verb form), then to suffix guessing, and finally applies
/// contextual repair rules (e.g. a noun/verb-ambiguous word after a modal is
/// a verb; after a determiner it is a noun).
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::{token::tokenize, tagger::tag, token::Tag};
/// let mut toks = tokenize("we will collect your location");
/// tag(&mut toks);
/// assert_eq!(toks[2].tag, Tag::VerbBase);
/// assert_eq!(toks[4].tag, Tag::Noun);
/// ```
pub fn tag(tokens: &mut [Token]) {
    let _span = ppchecker_obs::span!("nlp.tag");
    let lex = Lexicon::shared();
    for tok in tokens.iter_mut() {
        tok.tag = initial_tag(lex, tok);
        tok.lemma = match tok.tag {
            t if t.is_verb() => lemmatize_verb_sym(tok.lower),
            Tag::Noun | Tag::NounPlural => lemmatize_noun_sym(tok.lower),
            _ => tok.lower,
        };
    }
    contextual_repair(tokens);
    // Re-lemmatize tokens whose tag changed during repair.
    for tok in tokens.iter_mut() {
        if tok.tag.is_verb() {
            tok.lemma = lemmatize_verb_sym(tok.lower);
        } else if matches!(tok.tag, Tag::Noun | Tag::NounPlural) {
            tok.lemma = lemmatize_noun_sym(tok.lower);
        }
    }
}

fn initial_tag(lex: &Lexicon, tok: &Token) -> Tag {
    if tok.is_punct() {
        return Tag::Punct;
    }
    if let Some(t) = lex.lookup(tok.lower) {
        return refine_verb_form(tok.lower(), t);
    }
    // Inflected form of a known word?
    let vlemma = lemmatize_verb_sym(tok.lower);
    if vlemma != tok.lower && lex.lookup(vlemma).is_some_and(|t| t.is_verb()) {
        return inflected_verb_tag(tok.lower());
    }
    let nlemma = lemmatize_noun_sym(tok.lower);
    if nlemma != tok.lower && lex.lookup(nlemma).is_some_and(|t| t.is_nominal() || t == Tag::Noun) {
        return Tag::NounPlural;
    }
    lex.guess(tok.text(), tok.lower())
}

/// For base-form lexicon hits, work out the actual inflection of this form.
fn refine_verb_form(lower: &str, base_tag: Tag) -> Tag {
    if base_tag != Tag::VerbBase {
        return base_tag;
    }
    inflected_verb_tag(lower)
}

fn inflected_verb_tag(lower: &str) -> Tag {
    if BE_FORMS.contains(&lower) || HAVE_FORMS.contains(&lower) || DO_FORMS.contains(&lower) {
        return Tag::VerbPres;
    }
    if lower.ends_with("ing") {
        Tag::VerbGerund
    } else if lower.ends_with("ed")
        || matches!(
            lower,
            "kept"
                | "held"
                | "sent"
                | "sold"
                | "given"
                | "taken"
                | "known"
                | "seen"
                | "written"
                | "done"
                | "gotten"
                | "made"
                | "found"
                | "paid"
                | "meant"
                | "met"
                | "left"
                | "understood"
        )
    {
        Tag::VerbPastPart
    } else if lower.ends_with('s') && !lower.ends_with("ss") && lemmatize_verb(lower) != lower {
        Tag::Verb3sg
    } else {
        Tag::VerbBase
    }
}

/// Contextual repair rules applied left-to-right.
fn contextual_repair(tokens: &mut [Token]) {
    let n = tokens.len();
    for i in 0..n {
        let cur = tokens[i].tag;
        let prev = if i > 0 { Some(tokens[i - 1].tag) } else { None };
        let prev_lower = if i > 0 { Some(tokens[i - 1].lower) } else { None };

        // Rule: after "to", an ambiguous word is a base-form verb
        // ("to collect"), unless it heads a noun phrase ("to third parties").
        if prev == Some(Tag::To)
            && matches!(cur, Tag::Noun | Tag::Verb3sg | Tag::VerbPres | Tag::VerbPast)
            && Lexicon::shared().is_known_verb(tokens[i].lower)
        {
            tokens[i].tag = Tag::VerbBase;
            continue;
        }

        // Rule: after a modal (possibly with intervening adverbs), a
        // verb/noun-ambiguous word is a base verb ("may use", "will not
        // share", "may harvest") — even for out-of-vocabulary words, which
        // is how bootstrapping discovers new verbs.
        if matches!(cur, Tag::Noun | Tag::NounPlural | Tag::Verb3sg | Tag::Adj) {
            let mut j = i;
            while j > 0 && tokens[j - 1].tag == Tag::Adv {
                j -= 1;
            }
            if j > 0 && tokens[j - 1].tag == Tag::Modal {
                tokens[i].tag = Tag::VerbBase;
                continue;
            }
        }

        // Rule: a base-form verb directly after a non-auxiliary verb is
        // really a noun ("have access", "make use").
        if cur == Tag::VerbBase
            && !lexicon::is_be_form(tokens[i].lower)
            && prev.is_some_and(|p| p.is_verb())
            && prev_lower.is_some_and(|w| !lexicon::is_be_form(w) && !lexicon::is_do_form(w))
        {
            tokens[i].tag = Tag::Noun;
            continue;
        }

        // Rule: determiner/possessive/adjective before a verb-tagged word
        // makes it a noun ("your use of the app", "the share").
        if cur.is_verb()
            && cur != Tag::VerbGerund
            && matches!(prev, Some(Tag::Det) | Some(Tag::PronounPoss) | Some(Tag::Adj))
        {
            let lower = tokens[i].lower();
            tokens[i].tag = if lower.ends_with('s') && !lower.ends_with("ss") {
                Tag::NounPlural
            } else {
                Tag::Noun
            };
            continue;
        }

        // Rule: pronoun subject directly before a base/plural-ambiguous word
        // makes it a present-tense verb ("we collect", "we harvest" — OOV
        // words included so bootstrapping can discover new verbs).
        if matches!(cur, Tag::Noun | Tag::NounPlural | Tag::VerbBase) && prev == Some(Tag::Pronoun)
        {
            tokens[i].tag =
                if tokens[i].lower().ends_with('s') { Tag::Verb3sg } else { Tag::VerbPres };
            continue;
        }

        // Rule: a VBN directly after a form of "have" stays VBN; after a
        // noun it is likely a reduced relative; after "be" it stays VBN
        // (passive). A VBD/VBN ambiguous "-ed" after a pronoun/noun subject
        // with no auxiliary is past tense.
        if cur == Tag::VerbPastPart {
            let aux_before = prev_lower
                .is_some_and(|w| lexicon::is_be_form(w) || lexicon::is_have_form(w))
                || prev == Some(Tag::Adv) && i >= 2 && {
                    let w = tokens[i - 2].lower;
                    lexicon::is_be_form(w) || lexicon::is_have_form(w)
                };
            if !aux_before
                && matches!(
                    prev,
                    Some(Tag::Pronoun)
                        | Some(Tag::Noun)
                        | Some(Tag::NounPlural)
                        | Some(Tag::NounProper)
                )
            {
                tokens[i].tag = Tag::VerbPast;
                continue;
            }
        }

        // Rule: gerund directly before a noun acts as an adjective-like
        // modifier ("operating system", "advertising partners") — retag as
        // Adj so NP chunking includes it.
        if cur == Tag::VerbGerund
            && i + 1 < n
            && tokens[i + 1].tag.is_nominal()
            && prev != Some(Tag::Modal)
            && !prev_lower.is_some_and(lexicon::is_be_form)
        {
            tokens[i].tag = Tag::Adj;
            continue;
        }
    }
}

/// Convenience: tokenize then tag, returning the tagged tokens.
///
/// # Examples
///
/// ```
/// use ppchecker_nlp::tagger::tag_str;
/// let toks = tag_str("Your personal information will be used.");
/// assert!(toks.iter().any(|t| t.lemma() == "use"));
/// ```
pub fn tag_str(sentence: &str) -> Vec<Token> {
    let mut toks = Vec::new();
    tag_str_into(sentence, &mut toks);
    toks
}

/// [`tag_str`] into `tokens`, replacing what it held and keeping its
/// buffer (see [`tokenize_into`](crate::token::tokenize_into)).
pub fn tag_str_into(sentence: &str, tokens: &mut Vec<Token>) {
    crate::token::tokenize_into(sentence, tokens);
    tag(tokens);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(s: &str) -> Vec<Tag> {
        tag_str(s).into_iter().map(|t| t.tag).collect()
    }

    #[test]
    fn simple_active_sentence() {
        let t = tags("we will collect your location");
        assert_eq!(t, vec![Tag::Pronoun, Tag::Modal, Tag::VerbBase, Tag::PronounPoss, Tag::Noun]);
    }

    #[test]
    fn passive_sentence() {
        let toks = tag_str("your personal information will be used");
        assert_eq!(toks.last().unwrap().tag, Tag::VerbPastPart);
        assert_eq!(toks.last().unwrap().lemma(), "use");
    }

    #[test]
    fn noun_after_determiner_not_verb() {
        let toks = tag_str("the use of your data");
        assert_eq!(toks[1].tag, Tag::Noun);
    }

    #[test]
    fn verb_after_pronoun() {
        let toks = tag_str("we collect information");
        assert_eq!(toks[1].tag, Tag::VerbPres);
        assert_eq!(toks[1].lemma(), "collect");
    }

    #[test]
    fn third_person_singular() {
        let toks = tag_str("it collects your device id");
        assert_eq!(toks[1].tag, Tag::Verb3sg);
        assert_eq!(toks[1].lemma(), "collect");
    }

    #[test]
    fn infinitive_after_to() {
        let toks = tag_str("we are able to access your contacts");
        let access = toks.iter().find(|t| t.lower() == "access").unwrap();
        assert_eq!(access.tag, Tag::VerbBase);
    }

    #[test]
    fn negation_tokens_are_adverbs() {
        let toks = tag_str("we will not collect data");
        assert_eq!(toks[2].tag, Tag::Adv);
        let toks = tag_str("we don't sell data");
        assert!(toks.iter().any(|t| t.lower() == "n't" && t.tag == Tag::Adv));
    }

    #[test]
    fn modal_then_adverb_then_verb() {
        let toks = tag_str("we will never share your contacts");
        let share = toks.iter().find(|t| t.lower() == "share").unwrap();
        assert_eq!(share.tag, Tag::VerbBase);
    }

    #[test]
    fn lemmas_assigned() {
        let toks = tag_str("we stored your contacts");
        assert_eq!(toks[1].lemma(), "store");
        assert_eq!(toks[3].lemma(), "contact");
    }
}

#[cfg(test)]
mod rule_tests {
    use super::*;

    fn tag_of(sentence: &str, word: &str) -> Tag {
        tag_str(sentence)
            .into_iter()
            .find(|t| t.lower() == word)
            .unwrap_or_else(|| panic!("{word} not in {sentence}"))
            .tag
    }

    #[test]
    fn oov_verb_after_modal_becomes_verb() {
        assert_eq!(tag_of("we may zorble your data", "zorble"), Tag::VerbBase);
    }

    #[test]
    fn adjective_after_modal_becomes_verb() {
        // "aggregate" is lexicon-adjective but verbal after a modal.
        assert_eq!(tag_of("we may aggregate your data", "aggregate"), Tag::VerbBase);
    }

    #[test]
    fn adjective_after_be_stays_adjective() {
        assert_eq!(tag_of("we are able to help", "able"), Tag::Adj);
    }

    #[test]
    fn noun_after_have_not_verb() {
        assert_eq!(tag_of("we have access to data", "access"), Tag::Noun);
        assert_eq!(tag_of("we make use of data", "use"), Tag::Noun);
    }

    #[test]
    fn vbn_after_have_stays_participle() {
        assert_eq!(tag_of("we have collected your data", "collected"), Tag::VerbPastPart);
    }

    #[test]
    fn gerund_before_noun_is_modifier() {
        // "operating" is OOV, suffix-guessed as a gerund, then repaired to
        // an adjective-like modifier before the noun.
        assert_eq!(tag_of("the operating system is fast", "operating"), Tag::Adj);
    }

    #[test]
    fn gerund_after_be_stays_verbal() {
        assert_eq!(tag_of("we are collecting your data", "collecting"), Tag::VerbGerund);
    }

    #[test]
    fn past_tense_after_subject_without_aux() {
        assert_eq!(tag_of("we collected your data", "collected"), Tag::VerbPast);
    }

    #[test]
    fn determiner_blocks_verb_reading() {
        assert_eq!(tag_of("review the collect statistics page", "collect"), Tag::Noun);
    }
}
