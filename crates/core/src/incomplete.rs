//! Detecting incomplete privacy policies (Algorithms 1 and 2).

use crate::matcher::Matcher;
use crate::problems::{Channel, MissedInfo};
use ppchecker_apk::{Manifest, PrivateInfo};
use ppchecker_desc::DescriptionAnalysis;
use ppchecker_nlp::{intern, Symbol};
use ppchecker_policy::PolicyAnalysis;
use ppchecker_static::StaticReport;

/// Algorithm 1: detect incompleteness by contrasting `Info_desc` with the
/// information the policy mentions.
///
/// For each piece of information inferred from the description, look for a
/// semantically similar resource among the policy's positive
/// collect/use/retain/disclose sentences; report it missed if none reaches
/// the ESA threshold.
pub fn via_description(
    policy: &PolicyAnalysis,
    desc: &DescriptionAnalysis,
    esa: &Matcher,
) -> Vec<MissedInfo> {
    let pp_infos = policy.mentioned_resource_symbols();
    let mut out = Vec::new();
    for &info in &desc.info {
        if covered(info, &pp_infos, esa) {
            continue;
        }
        // Attach the permission whose evidence inferred this info
        // (Table III keys its rows on the permission); with several
        // candidate permissions, the strongest evidence wins.
        let permission = desc
            .evidence
            .iter()
            .filter(|e| PrivateInfo::from_permission(&e.permission).contains(&info))
            .max_by(|a, b| a.similarity.total_cmp(&b.similarity))
            .map(|e| e.permission.clone());
        out.push(MissedInfo { info, channel: Channel::Description, permission, retained: false });
    }
    out
}

/// Algorithm 2: detect incompleteness by contrasting `Collect_code` ∪
/// `Retain_code` with the policy.
///
/// Information guarded by a permission is only considered when the app
/// actually requests that permission.
pub fn via_code(
    policy: &PolicyAnalysis,
    code: &StaticReport,
    manifest: &Manifest,
    esa: &Matcher,
) -> Vec<MissedInfo> {
    let pp_infos = policy.mentioned_resource_symbols();
    let retained = code.retain_code();
    let mut out = Vec::new();
    let mut all: Vec<PrivateInfo> = code.collect_code().into_iter().collect();
    for r in &retained {
        if !all.contains(r) {
            all.push(*r);
        }
    }
    for info in all {
        if let Some(p) = info.required_permission() {
            if !manifest.has_permission(&p) {
                continue;
            }
        }
        if covered(info, &pp_infos, esa) {
            continue;
        }
        out.push(MissedInfo {
            info,
            channel: Channel::Code,
            permission: info.required_permission(),
            retained: retained.contains(&info),
        });
    }
    out
}

/// The `Similarity(Info, PPInfo) > threshold` test of the algorithms.
///
/// Canonical phrases are part of the interner's static pre-seed, so the
/// `intern` here is a read-side probe, not an allocation.
fn covered(info: PrivateInfo, pp_infos: &[Symbol], esa: &Matcher) -> bool {
    let info_sym = intern(info.canonical_phrase());
    pp_infos.iter().any(|&pp| esa.same_thing_sym(info_sym, pp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Permission};
    use ppchecker_desc::analyze_description;
    use ppchecker_policy::PolicyAnalyzer;

    fn esa() -> Matcher {
        Matcher::new()
    }

    #[test]
    fn description_detects_missing_location() {
        // Fig. 2: description implies location, policy only covers email.
        let policy = PolicyAnalyzer::new()
            .analyze_text("We will collect your email address. We store your account name.");
        let desc = analyze_description(
            "Location aware tasks will help you to utilize your field force in optimum way.",
        );
        let missed = via_description(&policy, &desc, &esa());
        assert!(missed.iter().any(|m| m.info == PrivateInfo::Location));
        assert!(missed.iter().all(|m| m.channel == Channel::Description));
    }

    #[test]
    fn complete_policy_yields_nothing_via_description() {
        let policy = PolicyAnalyzer::new()
            .analyze_text("We may collect your location to show nearby results.");
        let desc = analyze_description("Find the weather at your location.");
        assert!(via_description(&policy, &desc, &esa()).is_empty());
    }

    fn location_app() -> (Apk, StaticReport) {
        let mut manifest = ppchecker_apk::Manifest::new("com.x");
        manifest.add_permission(Permission::AccessFineLocation);
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                });
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let report = ppchecker_static::analyze(&apk).unwrap();
        (apk, report)
    }

    #[test]
    fn code_detects_missing_location() {
        let (apk, report) = location_app();
        let policy = PolicyAnalyzer::new().analyze_text("We collect your email address.");
        let missed = via_code(&policy, &report, &apk.manifest, &esa());
        assert_eq!(missed.len(), 1);
        assert_eq!(missed[0].info, PrivateInfo::Location);
        assert!(!missed[0].retained);
    }

    #[test]
    fn code_detection_requires_permission() {
        let (apk, report) = location_app();
        // Same code, but the manifest lacks the location permission: the
        // algorithm only considers apps that request the permission.
        let mut manifest = apk.manifest.clone();
        manifest.permissions.clear();
        let policy = PolicyAnalyzer::new().analyze_text("We collect your email address.");
        assert!(via_code(&policy, &report, &manifest, &esa()).is_empty());
    }

    #[test]
    fn covered_info_not_reported() {
        let (apk, report) = location_app();
        let policy = PolicyAnalyzer::new()
            .analyze_text("We may collect your location when you use the app.");
        assert!(via_code(&policy, &report, &apk.manifest, &esa()).is_empty());
    }

    #[test]
    fn retained_flag_set_for_leaks() {
        let mut manifest = ppchecker_apk::Manifest::new("com.x");
        manifest.add_permission(Permission::GetTasks);
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.content.pm.PackageManager",
                        "getInstalledPackages",
                        &[0],
                        Some(1),
                    );
                    m.invoke_static("android.util.Log", "e", &[1], None);
                });
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let report = ppchecker_static::analyze(&apk).unwrap();
        let policy = PolicyAnalyzer::new().analyze_text("We collect your email address.");
        let missed = via_code(&policy, &report, &apk.manifest, &esa());
        assert!(missed.iter().any(|m| m.info == PrivateInfo::AppList && m.retained));
    }
}
