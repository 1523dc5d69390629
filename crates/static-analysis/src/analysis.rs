//! The top-level static analysis module: computes `Collect_code` and
//! `Retain_code` for an app, plus the set of embedded third-party libs.

use crate::apg::Apg;
use crate::consts::{self, UriValue};
use crate::libs::{self, KnownLib};
use crate::reach;
use crate::sensitive;
use crate::taint::{self, Leak};
use crate::uris;
use ppchecker_apk::{Apk, Insn, ParseDexError, PrivateInfo};
use std::collections::{BTreeMap, BTreeSet};

/// Ablation switches (all on by default, matching the paper's system).
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Discard sensitive calls with no feasible path from an entry point.
    pub reachability: bool,
    /// Treat content-provider queries of sensitive URIs as sensitive APIs.
    pub uri_analysis: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions { reachability: true, uri_analysis: true }
    }
}

/// Evidence of one collection behaviour.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Callsite {
    /// Class containing the call.
    pub class: String,
    /// Method containing the call.
    pub method: String,
    /// The sensitive API or URI that was accessed.
    pub api: String,
}

/// The result of analyzing one app.
#[derive(Debug, Clone, Default)]
pub struct StaticReport {
    /// `Collect_code`: information collected by the *app's own* code (class
    /// prefix matches the package), with evidence.
    pub collected: BTreeMap<PrivateInfo, Vec<Callsite>>,
    /// Information collected by embedded third-party lib code.
    pub lib_collected: BTreeMap<PrivateInfo, Vec<Callsite>>,
    /// `Retain_code`: source→sink flows.
    pub retained: Vec<Leak>,
    /// Detected third-party libraries.
    pub libs: Vec<&'static KnownLib>,
    /// Sensitive call sites discarded as unreachable (dead code).
    pub unreachable_sensitive_calls: usize,
}

impl StaticReport {
    /// The set of collected info categories (`Collect_code`).
    pub fn collect_code(&self) -> BTreeSet<PrivateInfo> {
        self.collected.keys().copied().collect()
    }

    /// The set of retained info categories (`Retain_code`).
    pub fn retain_code(&self) -> BTreeSet<PrivateInfo> {
        self.retained.iter().map(|l| l.info).collect()
    }
}

/// Runs the full static analysis on an APK.
///
/// # Errors
///
/// Returns [`ParseDexError`] when a packed dex cannot be recovered.
pub fn analyze(apk: &Apk) -> Result<StaticReport, ParseDexError> {
    analyze_with(apk, AnalysisOptions::default())
}

/// Runs the static analysis with explicit [`AnalysisOptions`] (ablations).
///
/// # Errors
///
/// Returns [`ParseDexError`] when a packed dex cannot be recovered.
pub fn analyze_with(apk: &Apk, opts: AnalysisOptions) -> Result<StaticReport, ParseDexError> {
    let apg = {
        let _span = ppchecker_obs::span!("static.apg_build");
        Apg::build(apk)?
    };
    let package = apk.manifest.package.as_str();

    // The methods in scope, indexed by id.
    let in_scope = if opts.reachability {
        reach::reachable_methods(&apg)
    } else {
        vec![true; apg.method_count()]
    };

    let mut report = StaticReport { libs: libs::detect_libs(apg.dex()), ..StaticReport::default() };

    // Collect_code: scan sensitive API invocations and query() URIs.
    let scan_span = ppchecker_obs::span!("static.scan");
    for ix in 0..apg.method_count() as u32 {
        let (class, m) = apg.method_def(ix);
        let reachable = in_scope[ix as usize];
        let app_owned = class.name.starts_with(package);
        let record = |info: PrivateInfo, api: String, report: &mut StaticReport| {
            let site = Callsite { class: class.name.clone(), method: m.name.clone(), api };
            let map = if app_owned { &mut report.collected } else { &mut report.lib_collected };
            let sites = map.entry(info).or_default();
            if !sites.contains(&site) {
                sites.push(site);
            }
        };

        for insn in &m.instructions {
            let Insn::Invoke { class: cc, method: mm, .. } = insn else {
                continue;
            };
            if let Some(api) = sensitive::lookup(cc, mm) {
                if reachable {
                    record(api.info, format!("{cc}.{mm}"), &mut report);
                } else {
                    report.unreachable_sensitive_calls += 1;
                }
            }
        }

        if opts.uri_analysis {
            for (_, uri) in consts::query_sites(m) {
                let (info, api) = match &uri {
                    UriValue::Literal(s) => (uris::match_uri_string(s).map(|u| u.info), s.clone()),
                    UriValue::Field(f) => (uris::match_uri_field(f).map(|u| u.info), f.clone()),
                };
                if let Some(info) = info {
                    if reachable {
                        record(info, api, &mut report);
                    } else {
                        report.unreachable_sensitive_calls += 1;
                    }
                }
            }
        }
    }

    drop(scan_span);

    // Retain_code via taint analysis.
    let _span = ppchecker_obs::span!("static.taint");
    report.retained = taint::analyze(&apg, &in_scope);

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};

    fn manifest() -> Manifest {
        let mut m = Manifest::new("com.dooing.dooing");
        m.add_component(ComponentKind::Activity, "com.dooing.dooing.Main", true);
        m
    }

    /// The paper's Fig. 2 app: com.dooing.dooing calls getLatitude() /
    /// getLongitude() but its policy never mentions location.
    fn dooing_apk() -> Apk {
        let dex = Dex::builder()
            .class("com.dooing.dooing.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("com.dooing.dooing.ee", "locate", &[0], None);
                });
            })
            .class("com.dooing.dooing.ee", |c| {
                c.method("locate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.invoke_virtual("android.location.Location", "getLongitude", &[0], Some(2));
                });
            })
            .class("com.google.android.gms.ads.AdView", |c| {
                c.method("loadAd", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                });
            })
            .build();
        Apk::new(manifest(), dex)
    }

    #[test]
    fn app_collection_detected_and_attributed() {
        let r = analyze(&dooing_apk()).unwrap();
        assert!(r.collect_code().contains(&PrivateInfo::Location));
        // The ad lib's getDeviceId is lib-owned, not app-owned...
        assert!(!r.collect_code().contains(&PrivateInfo::DeviceId));
        // ...but it is reported separately. (The lib method itself is not
        // reachable from app entry points, so it only shows up with
        // reachability off.)
        let no_reach = analyze_with(
            &dooing_apk(),
            AnalysisOptions { reachability: false, uri_analysis: true },
        )
        .unwrap();
        assert!(no_reach.lib_collected.contains_key(&PrivateInfo::DeviceId));
    }

    #[test]
    fn lib_detection_reports_admob() {
        let r = analyze(&dooing_apk()).unwrap();
        assert!(r.libs.iter().any(|l| l.id == "admob"));
    }

    #[test]
    fn reachability_ablation_changes_counts() {
        let dex = Dex::builder()
            .class("com.dooing.dooing.Main", |c| {
                c.method("onCreate", 1, |_| {});
                c.method("dead", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                });
            })
            .build();
        let apk = Apk::new(manifest(), dex);
        let with = analyze(&apk).unwrap();
        assert!(with.collect_code().is_empty());
        assert_eq!(with.unreachable_sensitive_calls, 1);
        let without =
            analyze_with(&apk, AnalysisOptions { reachability: false, uri_analysis: true })
                .unwrap();
        assert!(without.collect_code().contains(&PrivateInfo::Location));
    }

    #[test]
    fn uri_analysis_ablation() {
        let dex = Dex::builder()
            .class("com.dooing.dooing.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.const_string(1, "content://sms");
                    m.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
                });
            })
            .build();
        let apk = Apk::new(manifest(), dex);
        let with = analyze(&apk).unwrap();
        assert!(with.collect_code().contains(&PrivateInfo::Sms));
        let without =
            analyze_with(&apk, AnalysisOptions { reachability: true, uri_analysis: false })
                .unwrap();
        assert!(!without.collect_code().contains(&PrivateInfo::Sms));
    }

    #[test]
    fn retained_info_appears_in_retain_code() {
        let dex = Dex::builder()
            .class("com.dooing.dooing.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.invoke_static("android.util.Log", "i", &[1], None);
                });
            })
            .build();
        let r = analyze(&Apk::new(manifest(), dex)).unwrap();
        assert!(r.retain_code().contains(&PrivateInfo::Location));
    }

    #[test]
    fn packed_apk_is_recovered_then_analyzed() {
        let dex = Dex::builder()
            .class("com.dooing.dooing.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                });
            })
            .build();
        let apk = Apk::new_packed(manifest(), &dex, 0x5C);
        let r = analyze(&apk).unwrap();
        assert!(r.collect_code().contains(&PrivateInfo::DeviceId));
    }
}
