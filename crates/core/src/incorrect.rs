//! Discovering incorrect privacy policies (Algorithms 3 and 4).
//!
//! A policy is incorrect when a *negative* sentence denies a behaviour the
//! app performs: the denial is contradicted by the description (Algorithm
//! 3) or by the bytecode (Algorithm 4: `NotCollect_PP` vs `Collect_code`
//! and `NotRetain_PP` vs `Retain_code`).

use crate::matcher::Matcher;
use crate::problems::{Channel, IncorrectFinding};
use ppchecker_apk::PrivateInfo;
use ppchecker_desc::DescriptionAnalysis;
use ppchecker_nlp::{intern, Symbol};
use ppchecker_policy::{PolicyAnalysis, VerbCategory};
use ppchecker_static::StaticReport;

/// Algorithm 3: denial contradicted by the description.
///
/// For every piece of information inferred from the description, flag any
/// negative sentence (in any category) whose resource matches it.
pub fn via_description(
    policy: &PolicyAnalysis,
    desc: &DescriptionAnalysis,
    esa: &Matcher,
) -> Vec<IncorrectFinding> {
    let mut out = Vec::new();
    for &info in &desc.info {
        let info_sym = intern(info.canonical_phrase());
        for sent in policy.negative_sentences() {
            for &res in sent.resource_symbols() {
                if esa.same_thing_sym(info_sym, res) {
                    out.push(IncorrectFinding {
                        info,
                        channel: Channel::Description,
                        sentence: String::from(&*sent.text),
                        category: sent.category,
                    });
                }
            }
        }
    }
    dedup(out)
}

/// Algorithm 4: denial contradicted by the bytecode.
///
/// `NotCollect_PP`/`NotUse_PP` vs `Collect_code`, and `NotRetain_PP` vs
/// `Retain_code`.
pub fn via_code(
    policy: &PolicyAnalysis,
    code: &StaticReport,
    esa: &Matcher,
) -> Vec<IncorrectFinding> {
    let mut out = Vec::new();
    // Canonical phrases are preseeded in the interner; still, resolve each
    // info's symbol once up front instead of once per negative sentence.
    let with_syms = |infos: std::collections::BTreeSet<PrivateInfo>| -> Vec<(PrivateInfo, Symbol)> {
        infos.into_iter().map(|i| (i, intern(i.canonical_phrase()))).collect()
    };
    let collected = with_syms(code.collect_code());
    let retained = with_syms(code.retain_code());
    for sent in policy.negative_sentences() {
        // "we will not collect/use X" is refuted by Collect_code; "we will
        // not store/transmit X" only by X actually reaching a sink.
        let code_infos: &[(PrivateInfo, Symbol)] = match sent.category {
            VerbCategory::Collect | VerbCategory::Use => &collected,
            VerbCategory::Retain | VerbCategory::Disclose => &retained,
        };
        for &(info, info_sym) in code_infos {
            for &res in sent.resource_symbols() {
                if esa.same_thing_sym(info_sym, res) {
                    out.push(IncorrectFinding {
                        info,
                        channel: Channel::Code,
                        sentence: String::from(&*sent.text),
                        category: sent.category,
                    });
                }
            }
        }
    }
    dedup(out)
}

fn dedup(mut v: Vec<IncorrectFinding>) -> Vec<IncorrectFinding> {
    // Keys copy into the per-app arena instead of per-key heap Strings:
    // the arena outlives the retain scan and resets with the next app.
    crate::scratch::with_app_arena(|bump| {
        let mut seen: Vec<(PrivateInfo, VerbCategory, &str)> = Vec::new();
        v.retain(|f| {
            let dup =
                seen.iter().any(|&(i, c, s)| i == f.info && c == f.category && s == f.sentence);
            if !dup {
                seen.push((f.info, f.category, bump.alloc_str(&f.sentence)));
            }
            !dup
        });
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};
    use ppchecker_desc::analyze_description;
    use ppchecker_policy::PolicyAnalyzer;

    fn esa() -> Matcher {
        Matcher::new()
    }

    #[test]
    fn birthdaylist_case_via_description() {
        // §V-D: com.marcow.birthdaylist denies collecting contacts but its
        // description says it synchronizes birthdays with the contact list.
        let policy = PolicyAnalyzer::new().analyze_text(
            "We are not collecting your date of birth, phone number, name or other personal \
             information, nor those of your contacts.",
        );
        let desc = analyze_description(
            "This app synchronizes all birthdays with your contacts list and facebook.",
        );
        let findings = via_description(&policy, &desc, &esa());
        assert!(findings.iter().any(|f| f.info == PrivateInfo::Contact));
    }

    #[test]
    fn consistent_denial_not_flagged_via_description() {
        let policy = PolicyAnalyzer::new().analyze_text("We will not collect your location.");
        let desc = analyze_description("Edit your photos with beautiful filters.");
        assert!(via_description(&policy, &desc, &esa()).is_empty());
    }

    fn app_collecting_contacts_and_logging() -> StaticReport {
        let mut manifest = Manifest::new("com.easyxapp.secret");
        manifest.add_component(ComponentKind::Activity, "com.easyxapp.secret.Main", true);
        let dex = Dex::builder()
            .class("com.easyxapp.secret.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.field_get(
                        "android.provider.ContactsContract$CommonDataKinds$Phone",
                        "CONTENT_URI",
                        1,
                    );
                    m.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
                    m.invoke_static("android.util.Log", "i", &[2], None);
                });
            })
            .build();
        ppchecker_static::analyze(&Apk::new(manifest, dex)).unwrap()
    }

    #[test]
    fn easyxapp_case_via_code() {
        // §II-B / §V-D: policy says "we will not store your real phone
        // number, name and contacts", code retains contacts into the log.
        let report = app_collecting_contacts_and_logging();
        let policy = PolicyAnalyzer::new()
            .analyze_text("We will not store your real phone number, name and contacts.");
        let findings = via_code(&policy, &report, &esa());
        assert!(findings
            .iter()
            .any(|f| f.info == PrivateInfo::Contact && f.channel == Channel::Code));
    }

    #[test]
    fn not_collect_refuted_by_collect_code() {
        let report = app_collecting_contacts_and_logging();
        let policy = PolicyAnalyzer::new().analyze_text("We do not collect your contacts.");
        let findings = via_code(&policy, &report, &esa());
        assert!(findings.iter().any(|f| f.info == PrivateInfo::Contact));
    }

    #[test]
    fn denial_of_unperformed_behaviour_is_fine() {
        let report = app_collecting_contacts_and_logging();
        let policy =
            PolicyAnalyzer::new().analyze_text("We will not collect your calendar events.");
        assert!(via_code(&policy, &report, &esa()).is_empty());
    }

    #[test]
    fn not_retain_needs_actual_retention() {
        // App only *collects* location (no sink): "we will not store your
        // location" is not refuted.
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                });
            })
            .build();
        let report = ppchecker_static::analyze(&Apk::new(manifest, dex)).unwrap();
        let policy = PolicyAnalyzer::new().analyze_text("We will not store your location.");
        assert!(via_code(&policy, &report, &esa()).is_empty());
    }
}
