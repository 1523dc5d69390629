//! Turns an [`AppSpec`] into a concrete [`AppInput`]: English policy HTML,
//! English description, and a simulated APK whose dex actually performs
//! the planted behaviours.

use crate::phrases::{
    description_phrases, pick, pick_policy_phrase, COLLECT_TEMPLATES, DISCLOSE_TEMPLATES,
    NEGATIVE_TEMPLATES, NEUTRAL_DESCRIPTIONS, POLICY_BOILERPLATE, RETAIN_TEMPLATES, USE_TEMPLATES,
};
use crate::plan::{AppSpec, PolicyShape};
use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest, Permission, PrivateInfo};
use ppchecker_core::AppInput;
use ppchecker_policy::VerbCategory;
use ppchecker_static::KNOWN_LIBS;
use rand::prelude::*;
use rand::rngs::StdRng;

/// The per-app RNG seed: a pure function of `(seed, index)`, so whichever
/// thread generates an index (any engine worker pulling the stream, or a
/// manifest regenerating a subset) produces the same bytes.
pub fn app_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Generates the app for a spec, deterministically under `seed`.
pub fn generate_app(spec: &AppSpec, seed: u64) -> AppInput {
    let mut rng = StdRng::seed_from_u64(app_seed(seed, spec.index));
    let package = format!("com.app{:04}.{}", spec.index, flavor(spec.index));
    let policy_html = match spec.near_dup_of {
        // Near-duplicate family member: the body comes from the family
        // root's random stream (so sibling policies are near-identical
        // text), differentiated by one revision sentence keyed to this
        // app's own index.
        Some(root) => {
            let mut root_rng = StdRng::seed_from_u64(app_seed(seed, root));
            let mut html = generate_policy(spec, &mut root_rng);
            let closer = "</body></html>";
            if let Some(stripped) = html.strip_suffix(closer) {
                html = format!(
                    "{stripped}<p>this revision {} of the policy applies to release channel \
                     {}.</p>{closer}",
                    spec.index,
                    spec.index % 7
                );
            }
            html
        }
        None => generate_policy(spec, &mut rng),
    };
    AppInput {
        policy_html,
        description: generate_description(spec, &mut rng),
        apk: generate_apk(spec, &package, &mut rng),
        package,
        labels: Vec::new(),
    }
}

fn flavor(index: usize) -> &'static str {
    const FLAVORS: &[&str] = &[
        "weather", "game", "notes", "music", "fitness", "travel", "news", "photo", "chat", "shop",
    ];
    FLAVORS[index % FLAVORS.len()]
}

/// Builds the policy HTML for a spec.
pub fn generate_policy(spec: &AppSpec, rng: &mut StdRng) -> String {
    // Near-duplicate family members render exactly as their root would:
    // every index-dependent branch below keys off the root's index, so
    // sibling policies differ only by the appended revision sentence.
    let policy_index = spec.near_dup_of.unwrap_or(spec.index);
    let mut sentences: Vec<String> = Vec::new();
    sentences.push(pick(POLICY_BOILERPLATE, rng).to_string());

    // Positive coverage. Some policies render it as one enumeration list
    // (the NLTK-splitting hazard the paper's Step 1 repairs); the rest as
    // one sentence per item, cycling the four behaviour categories.
    if spec.policy_cover.len() >= 2 && policy_index % 5 == 1 {
        let items: Vec<&str> =
            spec.policy_cover.iter().map(|&info| pick_policy_phrase(info, rng)).collect();
        sentences.push(format!("we will collect the following information: {}.", items.join("; ")));
    } else {
        for (k, &info) in spec.policy_cover.iter().enumerate() {
            let phrase = pick_policy_phrase(info, rng);
            let template = match k % 4 {
                0 => pick(COLLECT_TEMPLATES, rng),
                1 => pick(USE_TEMPLATES, rng),
                2 => pick(RETAIN_TEMPLATES, rng),
                _ => pick(DISCLOSE_TEMPLATES, rng),
            };
            sentences.push(template.replace("{}", phrase));
        }
    }

    // Extraction-resistant coverage (plants incomplete-code FPs): the
    // information appears only in a leading adjunct the element extractor
    // cannot reach (§V-C's false-positive discussion).
    for &info in &spec.tricky_cover {
        let phrase = pick_policy_phrase(info, rng);
        sentences.push(format!(
            "in addition to {phrase}, we may also collect the name you have associated with \
             your device."
        ));
    }

    // Context trap (zoho-style, §V-D): a negative sentence about a context
    // the app's positive sentence elsewhere already covers.
    if let Some(info) = spec.context_trap {
        let phrase = pick_policy_phrase(info, rng);
        sentences.push(format!(
            "we also do not process the contents of {phrase} to serve targeted advertisements."
        ));
    }

    // Denials.
    for &(category, info, detectable) in &spec.policy_deny {
        let phrase = pick_policy_phrase(info, rng);
        if detectable {
            let idx = match category {
                VerbCategory::Collect => 0,
                VerbCategory::Use => 1,
                VerbCategory::Retain => 2,
                VerbCategory::Disclose => 3,
            };
            sentences.push(pick(NEGATIVE_TEMPLATES[idx], rng).replace("{}", phrase));
        } else {
            // False-negative plants: denial verbs outside the pattern set
            // ("display" per §V-E).
            let s = match category {
                VerbCategory::Collect | VerbCategory::Use | VerbCategory::Retain => {
                    format!("we refrain from collecting {phrase}.")
                }
                VerbCategory::Disclose => format!("we will not display {phrase}."),
            };
            sentences.push(s);
        }
    }

    // Generic-information denials (inconsistency FP bait, §V-E's
    // StaffMark ↔ AdMob case).
    for category in &spec.policy_deny_generic {
        let s = match category {
            VerbCategory::Collect => "we do not collect information about you.",
            VerbCategory::Use => "we do not use information about you.",
            VerbCategory::Retain => "we do not store information about you.",
            VerbCategory::Disclose => "we do not transmit that information over the internet.",
        };
        sentences.push(s.to_string());
    }

    if spec.disclaimer {
        sentences.push(
            "we are not responsible for the privacy practices of those third party sites."
                .to_string(),
        );
    }
    sentences.push(pick(POLICY_BOILERPLATE, rng).to_string());

    // Scale-corpus pathological shapes (always Normal in the calibrated
    // paper plan, so the 1,197-app byte stream is untouched).
    match spec.policy_shape {
        PolicyShape::Normal | PolicyShape::Malformed => {}
        PolicyShape::Huge(sections) => {
            for k in 0..sections {
                sentences.push(format!(
                    "section {}: {} {}",
                    k + 1,
                    pick(POLICY_BOILERPLATE, rng),
                    pick(POLICY_BOILERPLATE, rng),
                ));
            }
        }
        PolicyShape::Enumeration(count) => {
            const ENUM_POOL: &[PrivateInfo] = &[
                PrivateInfo::Location,
                PrivateInfo::DeviceId,
                PrivateInfo::Email,
                PrivateInfo::Contact,
                PrivateInfo::PhoneNumber,
                PrivateInfo::Cookie,
            ];
            let pool: &[PrivateInfo] =
                if spec.policy_cover.is_empty() { ENUM_POOL } else { &spec.policy_cover };
            for k in 0..count {
                let items: Vec<&str> =
                    (0..4).map(|t| pick_policy_phrase(pool[(k + t) % pool.len()], rng)).collect();
                sentences.push(format!(
                    "we may collect, use, retain, or disclose the following: {}.",
                    items.join("; ")
                ));
            }
        }
    }

    if matches!(spec.policy_shape, PolicyShape::Malformed) {
        // Structurally broken HTML: an unclosed heading wrapper, unclosed
        // and case-mangled paragraph tags, a truncated tag at a paragraph
        // boundary, and no closing </html>. The parser must degrade, not
        // die.
        let mut html = String::from("<html><body><h1>Privacy Policy<div>");
        for (k, s) in sentences.iter().enumerate() {
            match k % 4 {
                0 => {
                    html.push_str("<p>");
                    html.push_str(s);
                }
                1 => {
                    html.push_str("<p><b>");
                    html.push_str(s);
                    html.push_str("</p>");
                }
                2 => {
                    html.push_str("<P >");
                    html.push_str(s);
                    html.push_str("</P><br><br");
                }
                _ => {
                    html.push_str("<p>");
                    html.push_str(s);
                    html.push_str("</p></div>");
                }
            }
        }
        html.push_str("</body>");
        return html;
    }

    let mut html = String::from("<html><body><h1>Privacy Policy</h1>");
    for s in sentences {
        html.push_str("<p>");
        html.push_str(&s);
        html.push_str("</p>");
    }
    html.push_str("</body></html>");
    html
}

/// Builds the description text for a spec.
pub fn generate_description(spec: &AppSpec, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = Vec::new();
    lines.push(pick(NEUTRAL_DESCRIPTIONS, rng).to_string());
    for perm in &spec.desc_perms {
        let pool = description_phrases(perm);
        if !pool.is_empty() {
            lines.push(format!("Enjoy {}.", pick(pool, rng)));
        }
    }
    lines.push(pick(NEUTRAL_DESCRIPTIONS, rng).to_string());
    lines.join(" ")
}

/// The API call the generated dex uses to obtain each kind of information:
/// `(class, method)`, or a content-provider URI for provider-backed data.
enum AccessPath {
    Api(&'static str, &'static str),
    Uri(&'static str),
}

fn access_path(info: PrivateInfo) -> AccessPath {
    use AccessPath::*;
    match info {
        PrivateInfo::Location => Api("android.location.Location", "getLatitude"),
        PrivateInfo::DeviceId => Api("android.telephony.TelephonyManager", "getDeviceId"),
        PrivateInfo::PhoneNumber => Api("android.telephony.TelephonyManager", "getLine1Number"),
        PrivateInfo::IpAddress => Api("android.net.wifi.WifiInfo", "getIpAddress"),
        PrivateInfo::Cookie => Api("android.webkit.CookieManager", "getCookie"),
        PrivateInfo::Account => Api("android.accounts.AccountManager", "getAccounts"),
        PrivateInfo::Contact => Uri("content://com.android.contacts"),
        PrivateInfo::Calendar => Uri("content://com.android.calendar"),
        PrivateInfo::Camera => Api("android.hardware.Camera", "open"),
        PrivateInfo::Audio => Api("android.media.AudioRecord", "read"),
        PrivateInfo::AppList => Api("android.content.pm.PackageManager", "getInstalledPackages"),
        PrivateInfo::Sms => Uri("content://sms"),
        PrivateInfo::CallLog => Uri("content://call_log"),
        PrivateInfo::BrowsingHistory => Api("android.provider.Browser", "getAllBookmarks"),
        PrivateInfo::Sensor => Api("android.hardware.SensorManager", "getSensorList"),
        PrivateInfo::Bluetooth => Api("android.bluetooth.BluetoothAdapter", "getAddress"),
        PrivateInfo::Carrier => Api("android.telephony.TelephonyManager", "getNetworkOperator"),
        PrivateInfo::Clipboard => Api("android.content.ClipboardManager", "getText"),
        PrivateInfo::Email => Api("android.accounts.AccountManager", "getAccountsByType"),
        PrivateInfo::Name => Api("android.accounts.AccountManager", "getUserData"),
        PrivateInfo::Birthday => Uri("content://com.android.contacts"),
    }
}

/// Builds the APK (manifest + dex) for a spec.
pub fn generate_apk(spec: &AppSpec, package: &str, rng: &mut StdRng) -> Apk {
    let main_class = format!("{package}.MainActivity");
    let mut manifest = Manifest::new(package);
    manifest.add_component(ComponentKind::Activity, &main_class, true);
    manifest.add_permission(Permission::Internet);
    for (info, _) in &spec.code_collect {
        if let Some(p) = info.required_permission() {
            manifest.add_permission(p);
        }
    }
    for perm in &spec.desc_perms {
        manifest.add_permission(perm.clone());
    }

    let mut builder = Dex::builder();
    let collect = spec.code_collect.clone();
    let has_dead_code = spec.index.is_multiple_of(13) && collect.is_empty();
    let main_for_class = main_class.clone();
    builder = builder.class(&main_class, move |c| {
        c.extends("android.app.Activity");
        c.method("onCreate", 1, |m| {
            let mut reg = 2u32;
            for (info, retained) in &collect {
                match access_path(*info) {
                    AccessPath::Api(class, method) => {
                        m.invoke_virtual(class, method, &[0], Some(reg));
                    }
                    AccessPath::Uri(uri) => {
                        m.const_string(reg + 1, uri);
                        m.invoke_virtual(
                            "android.content.ContentResolver",
                            "query",
                            &[0, reg + 1],
                            Some(reg),
                        );
                    }
                }
                if *retained {
                    m.invoke_static("android.util.Log", "i", &[reg], None);
                }
                reg += 2;
            }
        });
        if has_dead_code {
            // Unreachable sensitive call: only the reachability ablation
            // surfaces it.
            c.method("unusedDebugDump", 1, |m| {
                m.invoke_virtual(
                    "android.telephony.TelephonyManager",
                    "getDeviceId",
                    &[0],
                    Some(1),
                );
            });
        }
        let _ = &main_for_class;
    });

    // Embedded third-party lib classes; ad/devtool SDK bodies themselves
    // collect a device id (attributed to the lib, not the app).
    for lib_id in &spec.libs {
        if let Some(lib) = KNOWN_LIBS.iter().find(|l| l.id == *lib_id) {
            let cls = format!("{}.SdkEntry", lib.prefix);
            builder = builder.class(&cls, |c| {
                c.method("init", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                });
            });
        }
    }

    let dex = builder.build();
    if spec.packed {
        Apk::new_packed(manifest, &dex, (rng.gen::<u8>()) | 1)
    } else {
        Apk::new(manifest, dex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::GroundTruth;

    fn spec() -> AppSpec {
        AppSpec {
            index: 7,
            code_collect: vec![(PrivateInfo::Location, true), (PrivateInfo::Contact, false)],
            policy_cover: vec![PrivateInfo::Email],
            policy_deny: vec![(VerbCategory::Retain, PrivateInfo::Contact, true)],
            libs: vec!["admob"],
            truth: GroundTruth::default(),
            ..AppSpec::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec();
        let a = generate_app(&s, 1);
        let b = generate_app(&s, 1);
        assert_eq!(a.policy_html, b.policy_html);
        assert_eq!(a.description, b.description);
        assert_eq!(a.apk, b.apk);
    }

    #[test]
    fn different_seeds_vary_text() {
        let s = spec();
        let a = generate_app(&s, 1);
        let b = generate_app(&s, 2);
        // Same structure, probably different phrasing; both non-empty.
        assert!(!a.policy_html.is_empty() && !b.policy_html.is_empty());
    }

    #[test]
    fn generated_dex_collects_and_retains() {
        let s = spec();
        let app = generate_app(&s, 3);
        let report = ppchecker_static::analyze(&app.apk).unwrap();
        assert!(report.collect_code().contains(&PrivateInfo::Location));
        assert!(report.collect_code().contains(&PrivateInfo::Contact));
        assert!(report.retain_code().contains(&PrivateInfo::Location));
        assert!(report.libs.iter().any(|l| l.id == "admob"));
    }

    #[test]
    fn generated_policy_parses_round_trip() {
        let s = spec();
        let app = generate_app(&s, 4);
        let analysis = ppchecker_policy::PolicyAnalyzer::new().analyze_html(&app.policy_html);
        // Covered email must be mentioned; contact denial must be negative
        // retain.
        assert!(analysis.mentioned_resources().iter().any(|r| r.contains("mail")));
        assert!(!analysis.resources(VerbCategory::Retain, true).is_empty());
    }

    #[test]
    fn packed_spec_produces_packed_apk() {
        let mut s = spec();
        s.packed = true;
        let app = generate_app(&s, 5);
        assert!(app.apk.is_packed());
        assert!(app.apk.dex().is_ok());
    }
}
