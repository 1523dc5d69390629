//! Revealing inconsistent privacy policies (Algorithm 5).
//!
//! An app's policy is inconsistent when one of its *negative* sentences
//! conflicts with a *positive* sentence of an embedded third-party lib's
//! policy: same verb category, same resource (ESA similarity). Policies
//! that disclaim third-party responsibility are exempt.

use crate::matcher::Matcher;
use crate::problems::Inconsistency;
use ppchecker_policy::PolicyAnalysis;

/// Algorithm 5 over one app policy and one lib policy.
///
/// Requirements per the paper:
/// 1. the sentences' main verbs belong to the same category;
/// 2. the app sentence is negative and the lib sentence is positive;
/// 3. the sentences refer to the same resource.
pub fn check_pair(
    app_policy: &PolicyAnalysis,
    lib_id: &str,
    lib_policy: &PolicyAnalysis,
    esa: &Matcher,
) -> Vec<Inconsistency> {
    let mut out = Vec::new();
    if app_policy.has_disclaimer {
        return out;
    }
    for app_sent in app_policy.negative_sentences() {
        for lib_sent in lib_policy.positive_sentences() {
            if app_sent.category != lib_sent.category {
                continue;
            }
            for &app_res in app_sent.resource_symbols() {
                for &lib_res in lib_sent.resource_symbols() {
                    if esa.same_thing_sym(app_res, lib_res) {
                        out.push(Inconsistency {
                            lib_id: lib_id.to_string(),
                            category: app_sent.category,
                            app_sentence: String::from(&*app_sent.text),
                            lib_sentence: String::from(&*lib_sent.text),
                            app_resource: app_res.as_str().to_string(),
                            lib_resource: lib_res.as_str().to_string(),
                        });
                    }
                }
            }
        }
    }
    dedup(out)
}

/// Algorithm 5 over all of an app's detected libs.
pub fn check_all<'a>(
    app_policy: &PolicyAnalysis,
    libs: impl IntoIterator<Item = (&'a str, &'a PolicyAnalysis)>,
    esa: &Matcher,
) -> Vec<Inconsistency> {
    let mut out = Vec::new();
    for (id, lib_policy) in libs {
        out.extend(check_pair(app_policy, id, lib_policy, esa));
    }
    out
}

fn dedup(mut v: Vec<Inconsistency>) -> Vec<Inconsistency> {
    // Three owned Strings per key become three arena copies reclaimed
    // wholesale at the next app's reset.
    crate::scratch::with_app_arena(|bump| {
        let mut seen: Vec<(&str, &str, &str)> = Vec::new();
        v.retain(|i| {
            let dup = seen
                .iter()
                .any(|&(l, a, s)| l == i.lib_id && a == i.app_sentence && s == i.lib_sentence);
            if !dup {
                seen.push((
                    bump.alloc_str(&i.lib_id),
                    bump.alloc_str(&i.app_sentence),
                    bump.alloc_str(&i.lib_sentence),
                ));
            }
            !dup
        });
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_policy::{PolicyAnalyzer, VerbCategory};

    fn esa() -> Matcher {
        Matcher::new()
    }

    fn analyze(text: &str) -> PolicyAnalysis {
        PolicyAnalyzer::new().analyze_text(text)
    }

    #[test]
    fn templerun_unity_case() {
        // Fig. 3: the app denies collecting location; Unity3d declares it
        // will receive location information.
        let app = analyze("We do not collect your location information.");
        let lib = analyze("We may receive your location information and device id.");
        let found = check_pair(&app, "unity3d", &lib, &esa());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].category, VerbCategory::Collect);
        assert_eq!(found[0].lib_id, "unity3d");
    }

    #[test]
    fn category_mismatch_not_flagged() {
        // App denies *disclosing* location; lib *collects* location —
        // different categories, no conflict under requirement (1).
        let app = analyze("We will not share your location.");
        let lib = analyze("We collect your location.");
        assert!(check_pair(&app, "lib", &lib, &esa()).is_empty());
    }

    #[test]
    fn resource_mismatch_not_flagged() {
        let app = analyze("We do not collect your calendar events.");
        let lib = analyze("We collect your device id.");
        assert!(check_pair(&app, "lib", &lib, &esa()).is_empty());
    }

    #[test]
    fn disclaimer_suppresses_findings() {
        let app = analyze(
            "We are not responsible for the privacy practices of those third party sites. \
             We do not collect your location information.",
        );
        assert!(app.has_disclaimer);
        let lib = analyze("We may receive your location information.");
        assert!(check_pair(&app, "unity3d", &lib, &esa()).is_empty());
    }

    #[test]
    fn disclose_category_conflict() {
        let app = analyze("We will never share your device id with anyone.");
        let lib = analyze("We may share your device id with advertising partners.");
        let found = check_pair(&app, "admob", &lib, &esa());
        assert!(!found.is_empty());
        assert_eq!(found[0].category, VerbCategory::Disclose);
    }

    #[test]
    fn check_all_iterates_libs() {
        let app = analyze("We do not collect your location information.");
        let lib1 = analyze("We may receive your location information.");
        let lib2 = analyze("We collect your device id.");
        let found = check_all(&app, [("unity3d", &lib1), ("flurry", &lib2)], &esa());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lib_id, "unity3d");
    }

    #[test]
    fn positive_app_sentences_do_not_conflict() {
        let app = analyze("We collect your location information.");
        let lib = analyze("We collect your location information.");
        assert!(check_pair(&app, "lib", &lib, &esa()).is_empty());
    }
}
