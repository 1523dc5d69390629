//! Wire codec for [`PolicyAnalysis`]: the canonical byte form of a parsed
//! policy. The checker's configuration fingerprint hashes it for every
//! registered lib policy, and the equivalence tests compare cached and
//! direct analyses by it.
//!
//! Interned [`ppchecker_nlp::intern::Symbol`] handles are process-local, so the encoding carries
//! the symbol *text* and decoding re-interns it — a decoded analysis is
//! behaviourally identical to a freshly computed one (same resource sets,
//! same sentence structure), never pointer-identical.

use crate::elements::{Constraint, ConstraintKind, Elements};
use crate::pipeline::{AnalyzedSentence, PolicyAnalysis};
use crate::purpose::{Purpose, PurposeClaim};
use crate::verbs::VerbCategory;
use ppchecker_nlp::intern::intern;
use ppchecker_store::{WireError, WireReader, WireWriter};
use std::sync::Arc;

/// The stored byte of a [`VerbCategory`]; the report codec in
/// `ppchecker-core` shares it, so both record kinds agree on the tags.
pub fn category_byte(c: VerbCategory) -> u8 {
    match c {
        VerbCategory::Collect => 0,
        VerbCategory::Use => 1,
        VerbCategory::Retain => 2,
        VerbCategory::Disclose => 3,
    }
}

/// Decodes a [`category_byte`] tag.
///
/// # Errors
///
/// Returns [`WireError`] for a byte no category encodes to.
pub fn category_from(b: u8) -> Result<VerbCategory, WireError> {
    match b {
        0 => Ok(VerbCategory::Collect),
        1 => Ok(VerbCategory::Use),
        2 => Ok(VerbCategory::Retain),
        3 => Ok(VerbCategory::Disclose),
        other => Err(WireError(format!("bad verb category {other}"))),
    }
}

fn purpose_byte(p: Option<PurposeClaim>) -> u8 {
    match p {
        None => 0,
        Some(c) => {
            let base = match c.purpose {
                Purpose::Advertising => 1,
                Purpose::Analytics => 2,
                Purpose::Functionality => 3,
            };
            base | if c.exclusive { 0x80 } else { 0 }
        }
    }
}

fn purpose_from(b: u8) -> Result<Option<PurposeClaim>, WireError> {
    let exclusive = b & 0x80 != 0;
    let purpose = match b & 0x7F {
        0 if !exclusive => return Ok(None),
        1 => Purpose::Advertising,
        2 => Purpose::Analytics,
        3 => Purpose::Functionality,
        other => return Err(WireError(format!("bad purpose {other}"))),
    };
    Ok(Some(PurposeClaim { purpose, exclusive }))
}

/// Encodes a policy analysis.
pub fn encode_analysis(a: &PolicyAnalysis) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(a.total_sentences as u64);
    w.bool(a.has_disclaimer);
    w.seq(a.sentences.len());
    for s in &a.sentences {
        w.str(&s.text);
        w.u8(category_byte(s.category));
        w.bool(s.negative);
        w.bool(s.conditional);
        w.u8(purpose_byte(s.purpose));
        w.str(s.elements.main_verb.as_str());
        w.opt_str(s.elements.executor.map(|e| e.as_str()));
        w.seq(s.elements.resources.len());
        for r in &s.elements.resources {
            w.str(r.as_str());
        }
        w.seq(s.elements.constraints.len());
        for c in &s.elements.constraints {
            w.bool(matches!(c.kind, ConstraintKind::Pre));
            w.str(&c.text);
        }
    }
    w.into_bytes()
}

/// Decodes an encoded policy analysis, re-interning every symbol.
///
/// # Errors
///
/// Returns [`WireError`] on any defect.
pub fn decode_analysis(bytes: &[u8]) -> Result<PolicyAnalysis, WireError> {
    let mut r = WireReader::new(bytes);
    let total_sentences = r.u64()? as usize;
    let has_disclaimer = r.bool()?;
    let n = r.seq()?;
    let mut sentences = Vec::with_capacity(n);
    for _ in 0..n {
        let text = Arc::from(r.str()?);
        let category = category_from(r.u8()?)?;
        let negative = r.bool()?;
        let conditional = r.bool()?;
        let purpose = purpose_from(r.u8()?)?;
        let main_verb = intern(r.str()?);
        let executor = r.opt_str()?.map(intern);
        let n_res = r.seq()?;
        let mut resources = Vec::with_capacity(n_res);
        for _ in 0..n_res {
            resources.push(intern(r.str()?));
        }
        let n_con = r.seq()?;
        let mut constraints = Vec::with_capacity(n_con);
        for _ in 0..n_con {
            let kind = if r.bool()? { ConstraintKind::Pre } else { ConstraintKind::Post };
            constraints.push(Constraint { kind, text: r.str()?.to_string() });
        }
        sentences.push(Arc::new(AnalyzedSentence {
            text,
            category,
            negative,
            conditional,
            purpose,
            elements: Elements { main_verb, executor, resources, constraints },
        }));
    }
    if !r.is_exhausted() {
        return Err(WireError("trailing bytes after analysis".into()));
    }
    Ok(PolicyAnalysis { sentences, total_sentences, has_disclaimer })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PolicyAnalyzer;

    fn sample() -> PolicyAnalysis {
        PolicyAnalyzer::new().analyze_text(
            "We are not responsible for third party sites. \
             We may collect your location and your device id if you agree. \
             We will not share your contacts without your consent.",
        )
    }

    #[test]
    fn analysis_round_trips() {
        let original = sample();
        let decoded = decode_analysis(&encode_analysis(&original)).unwrap();
        assert_eq!(decoded.total_sentences, original.total_sentences);
        assert_eq!(decoded.has_disclaimer, original.has_disclaimer);
        assert_eq!(decoded.sentences.len(), original.sentences.len());
        for (d, o) in decoded.sentences.iter().zip(&original.sentences) {
            assert_eq!(d.text, o.text);
            assert_eq!(d.category, o.category);
            assert_eq!(d.negative, o.negative);
            assert_eq!(d.conditional, o.conditional);
            assert_eq!(d.purpose, o.purpose);
            assert_eq!(d.elements, o.elements);
        }
        // The derived sets — what the checker actually consumes — match.
        for cat in VerbCategory::ALL {
            for neg in [false, true] {
                assert_eq!(decoded.resources(cat, neg), original.resources(cat, neg));
                assert_eq!(decoded.resource_symbols(cat, neg), original.resource_symbols(cat, neg));
            }
        }
    }

    #[test]
    fn purpose_claims_round_trip() {
        let original = PolicyAnalyzer::new().analyze_text(
            "We use your device id only to provide app functionality. \
             We collect your location for advertising purposes.",
        );
        assert!(original.sentences.iter().any(|s| s.purpose.is_some()));
        let decoded = decode_analysis(&encode_analysis(&original)).unwrap();
        for (d, o) in decoded.sentences.iter().zip(&original.sentences) {
            assert_eq!(d.purpose, o.purpose);
        }
    }

    #[test]
    fn truncated_encoding_is_an_error() {
        let bytes = encode_analysis(&sample());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_analysis(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_constraint_kind_is_an_error() {
        let analysis =
            PolicyAnalyzer::new().analyze_text("we may collect your location if you agree.");
        let [sentence] = &analysis.sentences[..] else { panic!("one useful sentence") };
        let [constraint] = &sentence.elements.constraints[..] else { panic!("one constraint") };
        let mut bytes = encode_analysis(&analysis);
        // The encoding ends with the constraint: kind byte, u32 length, text.
        let kind_at = bytes.len() - constraint.text.len() - 5;
        assert_eq!(bytes[kind_at], 1, "a consent pre-condition");
        bytes[kind_at] = 7;
        assert!(decode_analysis(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_analysis(&sample());
        bytes.push(0);
        assert!(decode_analysis(&bytes).is_err());
    }

    #[test]
    fn empty_analysis_round_trips() {
        let empty = PolicyAnalysis::default();
        let decoded = decode_analysis(&encode_analysis(&empty)).unwrap();
        assert!(decoded.sentences.is_empty());
        assert_eq!(decoded.total_sentences, 0);
    }
}
