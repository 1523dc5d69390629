//! The wire schema, revision [`SCHEMA`]. Every report, outcome and app
//! object the workspace serializes is encoded and decoded here, so the
//! daemon, the CLI's `check --json` and batch JSONL cannot drift apart.
//!
//! Revision 2 added three things: outcome envelopes carry a `schema`
//! tag, reports append a `findings` array when successor-literature
//! detectors fire, and wire app objects may declare Data-Safety
//! `labels`. Every addition is append-only and conditional, so v1
//! clients parse v2 documents unchanged (unknown keys are skipped,
//! absent arrays mean absent findings).
//!
//! ## Request shape
//!
//! One app per request object; the field formats are exactly the CLI's
//! file formats (textual manifest, textual dex):
//!
//! ```json
//! {
//!   "package": "com.example.app",        // optional; manifest wins
//!   "policy_html": "<p>we collect…</p>",
//!   "description": "An app that…",
//!   "manifest": "package com.example.app\npermission …",
//!   "dex": "class com.example.app.Main\n…",
//!   "labels": ["location"]               // optional Data-Safety labels
//! }
//! ```
//!
//! `POST /batch` and the JSONL transport reuse the same object — batch
//! wraps a list in `{"apps": […]}`, JSONL sends one object per line.

use ppchecker_apk::{packer, Apk, Manifest};
use ppchecker_core::{
    AppInput, Channel, CheckOutcome, DataSafetyLabel, Error, FindingPayload, Report, StageTimings,
};

pub use ppchecker_obs::json::{escape, escape_into, parse, Value};

/// The schema tag stamped on every outcome envelope. A revision adds
/// fields append-only, in this module, and bumps the tag.
pub const SCHEMA: u64 = 2;

/// Decodes one wire app object into an [`AppInput`].
///
/// # Errors
///
/// Returns a message naming the offending field on missing keys or
/// manifest/dex/label parse failures.
pub fn parse_app(value: &Value) -> Result<AppInput, String> {
    let field = |key: &str| -> Result<&str, String> {
        value
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    };
    let manifest = Manifest::from_text(field("manifest")?).map_err(|e| format!("manifest: {e}"))?;
    let dex = packer::deserialize(field("dex")?).map_err(|e| format!("dex: {e}"))?;
    let package = match value.get("package").and_then(Value::as_str) {
        Some(p) => p.to_string(),
        None => manifest.package.clone(),
    };
    // Optional since v2: structured Data-Safety label declarations.
    let labels = match value.get("labels") {
        None => Vec::new(),
        Some(Value::Arr(items)) => {
            let mut labels = Vec::with_capacity(items.len());
            for item in items {
                let name =
                    item.as_str().ok_or_else(|| "labels entries must be strings".to_string())?;
                labels.push(
                    DataSafetyLabel::parse(name)
                        .ok_or_else(|| format!("unknown label {name:?}"))?,
                );
            }
            labels
        }
        Some(_) => return Err("labels must be an array".to_string()),
    };
    Ok(AppInput {
        package,
        policy_html: field("policy_html")?.to_string(),
        description: field("description")?.to_string(),
        apk: Apk::new(manifest, dex),
        labels,
    })
}

/// Encodes an [`AppInput`] as a wire app object (the client side of
/// [`parse_app`]). `labels` is emitted only when declared, keeping
/// label-free objects byte-identical to v1.
pub fn app_to_json(app: &AppInput) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"package\":\"");
    escape_into(&mut out, &app.package);
    out.push_str("\",\"policy_html\":\"");
    escape_into(&mut out, &app.policy_html);
    out.push_str("\",\"description\":\"");
    escape_into(&mut out, &app.description);
    out.push_str("\",\"manifest\":\"");
    escape_into(&mut out, &app.apk.manifest.to_text());
    out.push_str("\",\"dex\":\"");
    escape_into(&mut out, &packer::serialize(&app.apk.dex().expect("wire apps carry plain dex")));
    out.push('"');
    if !app.labels.is_empty() {
        out.push_str(",\"labels\":[");
        for (n, label) in app.labels.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push('"');
            // Canonical phrases are fixed identifiers, nothing to escape.
            out.push_str(label.info.canonical_phrase());
            out.push('"');
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Renders a report as a JSON object (also the CLI's `--json` and
/// JSONL output).
pub fn report_to_json(report: &Report) -> String {
    let mut out = String::with_capacity(256);
    report_to_json_into(&mut out, report);
    out
}

/// [`report_to_json`] writing into a caller-owned buffer. The batch
/// writers reuse one buffer per worker, so steady-state
/// serialization allocates nothing.
pub fn report_to_json_into(out: &mut String, report: &Report) {
    use std::fmt::Write;
    out.push_str("{\"package\":\"");
    escape_into(out, &report.package);
    let _ = write!(
        out,
        "\",\"incomplete\":{},\"incorrect\":{},\"inconsistent\":{},\"has_disclaimer\":{}",
        report.is_incomplete(),
        report.is_incorrect(),
        report.is_inconsistent(),
        report.has_disclaimer,
    );
    out.push_str(",\"libs\":[");
    for (n, lib) in report.libs.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, lib);
        out.push('"');
    }
    out.push_str("],\"missed\":[");
    for (n, m) in report.missed.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        // PrivateInfo and VerbCategory display as fixed identifiers with
        // nothing to escape, so they write straight through.
        let _ = write!(
            out,
            "{{\"info\":\"{}\",\"channel\":\"{}\",\"retained\":{},\"permission\":",
            m.info,
            match m.channel {
                Channel::Description => "description",
                Channel::Code => "code",
            },
            m.retained,
        );
        match &m.permission {
            Some(p) => {
                out.push('"');
                escape_into(out, p.short_name());
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("],\"incorrect_findings\":[");
    for (n, f) in report.incorrect.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"info\":\"{}\",\"category\":\"{}\",\"sentence\":\"",
            f.info, f.category
        );
        escape_into(out, &f.sentence);
        out.push_str("\"}");
    }
    out.push_str("],\"inconsistencies\":[");
    for (n, i) in report.inconsistencies.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str("{\"lib\":\"");
        escape_into(out, &i.lib_id);
        let _ = write!(out, "\",\"category\":\"{}\",\"app_sentence\":\"", i.category);
        escape_into(out, &i.app_sentence);
        out.push_str("\",\"lib_sentence\":\"");
        escape_into(out, &i.lib_sentence);
        out.push_str("\"}");
    }
    out.push(']');
    // Since v2: findings from detectors beyond the paper's three,
    // emitted only when present so default-registry reports stay
    // byte-identical to v1.
    if !report.findings.is_empty() {
        out.push_str(",\"findings\":[");
        for (n, finding) in report.findings.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"detector\":\"{}\"", finding.detector);
            match &finding.payload {
                FindingPayload::DataSafety(d) => {
                    let _ =
                        write!(out, ",\"kind\":\"{}\",\"info\":\"{}\"", d.kind.as_str(), d.info);
                }
                FindingPayload::Purpose(p) => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"{}\",\"purpose\":\"{}\"",
                        p.kind.as_str(),
                        p.purpose
                    );
                    if let ppchecker_core::PurposeKind::Contradicted { lib_id } = &p.kind {
                        out.push_str(",\"lib\":\"");
                        escape_into(out, lib_id);
                        out.push('"');
                    }
                    out.push_str(",\"sentence\":\"");
                    escape_into(out, &p.sentence);
                    out.push('"');
                }
                FindingPayload::Boilerplate(b) => {
                    out.push_str(",\"kind\":\"near-duplicate\",\"family\":\"");
                    escape_into(out, &b.family);
                    // Fixed 4 decimals: similarity is a 64-slot
                    // fraction, so this is exact enough and stable.
                    let _ = write!(out, "\",\"similarity\":{:.4}", b.similarity);
                }
                // Paper payloads never appear here (they fold into the
                // classic arrays above); render the id alone if a
                // custom registry routes one through anyway.
                _ => {}
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
}

fn timings_to_json_into(out: &mut String, t: &StageTimings) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"policy\":{},\"description\":{},\"static\":{},\"matching\":{},\"total\":{}}}",
        t.policy.as_micros(),
        t.description.as_micros(),
        t.static_analysis.as_micros(),
        t.matching.as_micros(),
        t.total().as_micros(),
    );
}

/// Renders one check's result — report or structured pipeline error —
/// as the wire result object shared by `/check`, `/batch` entries,
/// and JSONL response lines. Since v2 the envelope carries a
/// `schema` tag; v1 clients skip the unknown key.
pub fn outcome_to_json(package: &str, outcome: &Result<CheckOutcome, Error>) -> String {
    let mut out = String::with_capacity(256);
    outcome_to_json_into(&mut out, package, outcome);
    out
}

/// [`outcome_to_json`] writing into a caller-owned buffer (see
/// [`report_to_json_into`]).
pub fn outcome_to_json_into(
    out: &mut String,
    package: &str,
    outcome: &Result<CheckOutcome, Error>,
) {
    use std::fmt::Write;
    match outcome {
        Ok(checked) => {
            let _ = write!(out, "{{\"ok\":true,\"schema\":{SCHEMA},\"package\":\"");
            escape_into(out, &checked.report.package);
            out.push_str("\",\"report\":");
            report_to_json_into(out, &checked.report);
            out.push_str(",\"timings_us\":");
            timings_to_json_into(out, &checked.timings.unwrap_or_default());
            out.push('}');
        }
        Err(error) => {
            let _ = write!(out, "{{\"ok\":false,\"schema\":{SCHEMA},\"package\":\"");
            escape_into(out, package);
            let _ = write!(out, "\",\"stage\":\"{}\",\"error\":\"", error.stage());
            escape_into(out, &error.to_string());
            out.push_str("\"}");
        }
    }
}

/// A top-level error body, e.g. `{"error":"overloaded"}`.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", escape(message))
}
#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, Manifest, PrivateInfo};
    use ppchecker_core::{
        AppInput, BoilerplateFinding, Channel, CheckOutcome, DataSafetyFinding, DataSafetyKind,
        DataSafetyLabel, DetectorId, Error, Finding, FindingPayload, MissedInfo, PurposeFinding,
        PurposeKind, Report,
    };

    fn wire_app() -> AppInput {
        let mut manifest = Manifest::new("com.wire.app");
        manifest.add_permission(ppchecker_apk::Permission::AccessFineLocation);
        manifest.add_component(ppchecker_apk::ComponentKind::Activity, "com.wire.app.Main", true);
        let dex = ppchecker_apk::Dex::builder()
            .class("com.wire.app.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                });
            })
            .build();
        AppInput {
            package: "com.wire.app".to_string(),
            policy_html: "<p>we \"collect\" your location.</p>".to_string(),
            description: "A handy\nmulti-line app.".to_string(),
            apk: Apk::new(manifest, dex),
            labels: Vec::new(),
        }
    }

    #[test]
    fn app_round_trips_through_the_wire() {
        let app = wire_app();
        let doc = parse(&app_to_json(&app)).unwrap();
        let back = parse_app(&doc).unwrap();
        assert_eq!(back.package, app.package);
        assert_eq!(back.policy_html, app.policy_html);
        assert_eq!(back.description, app.description);
        assert_eq!(back.apk.manifest, app.apk.manifest);
        assert_eq!(back.apk.dex().unwrap(), app.apk.dex().unwrap());
        assert!(back.labels.is_empty());
    }

    #[test]
    fn labels_round_trip_and_unknown_labels_error() {
        let mut app = wire_app();
        app.labels = vec![
            DataSafetyLabel::new(PrivateInfo::Location),
            DataSafetyLabel::new(PrivateInfo::DeviceId),
        ];
        let json = app_to_json(&app);
        assert!(json.contains("\"labels\":[\"location\""), "{json}");
        let back = parse_app(&parse(&json).unwrap()).unwrap();
        assert_eq!(back.labels, app.labels);

        let bad = json.replacen("\"location\"", "\"blood type\"", 1);
        let err = parse_app(&parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("unknown label"), "{err}");
        assert!(err.contains("blood type"), "{err}");
    }

    #[test]
    fn label_free_apps_omit_the_labels_key() {
        let json = app_to_json(&wire_app());
        assert!(!json.contains("labels"), "{json}");
    }

    #[test]
    fn package_defaults_to_the_manifest() {
        let app = wire_app();
        let json = app_to_json(&app).replacen("\"package\":\"com.wire.app\",", "", 1);
        let back = parse_app(&parse(&json).unwrap()).unwrap();
        assert_eq!(back.package, "com.wire.app");
    }

    #[test]
    fn missing_fields_name_the_key() {
        let err = parse_app(&parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("manifest"), "{err}");
        let err = parse_app(&parse(r#"{"manifest":"package a","dex":""}"#).unwrap())
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("policy_html") || err.contains("dex"), "{err}");
    }

    #[test]
    fn bad_manifest_and_dex_are_named() {
        let err =
            parse_app(&parse(r#"{"manifest":"bogus directive","dex":""}"#).unwrap()).unwrap_err();
        assert!(err.starts_with("manifest:"), "{err}");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn empty_report_renders() {
        let json = report_to_json(&Report::default());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"incomplete\":false"));
        assert!(json.contains("\"missed\":[]"));
    }

    #[test]
    fn findings_render_with_fields() {
        let report = Report {
            package: "com.x".to_string(),
            missed: vec![MissedInfo {
                info: PrivateInfo::Location,
                channel: Channel::Code,
                permission: Some(ppchecker_apk::Permission::AccessFineLocation),
                retained: true,
            }],
            libs: vec!["admob".to_string()],
            ..Report::default()
        };
        let json = report_to_json(&report);
        assert!(json.contains("\"info\":\"location\""));
        assert!(json.contains("\"retained\":true"));
        assert!(json.contains("\"permission\":\"ACCESS_FINE_LOCATION\""));
        assert!(json.contains("\"libs\":[\"admob\"]"));
    }

    #[test]
    fn outcome_renders_ok_and_error() {
        let ok = Ok(CheckOutcome {
            report: Report { package: "com.x".into(), ..Report::default() },
            timings: None,
        });
        let json = outcome_to_json("com.x", &ok);
        assert!(json.contains("\"ok\":true"));
        assert!(json.contains("\"schema\":2"));
        assert!(json.contains("\"timings_us\""));
        assert!(parse(&json).is_ok());

        let err: Result<CheckOutcome, Error> = Err(Error::worker("boom"));
        let json = outcome_to_json("com.y", &err);
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\"schema\":2"));
        assert!(json.contains("\"stage\":\"batch\""));
        assert!(json.contains("boom"));
        assert!(parse(&json).is_ok());
    }

    #[test]
    fn findings_array_only_appears_when_present() {
        let clean = report_to_json(&Report::default());
        assert!(!clean.contains("\"findings\""), "{clean}");
        let report = Report {
            package: "com.x".into(),
            findings: vec![
                Finding {
                    detector: DetectorId::DataSafety,
                    payload: FindingPayload::DataSafety(DataSafetyFinding {
                        info: ppchecker_apk::PrivateInfo::Location,
                        kind: DataSafetyKind::LabelOmitsCollection,
                    }),
                },
                Finding {
                    detector: DetectorId::Purpose,
                    payload: FindingPayload::Purpose(PurposeFinding {
                        purpose: ppchecker_core::Purpose::Functionality,
                        kind: PurposeKind::Contradicted { lib_id: "admob".into() },
                        sentence: "only for app functionality".into(),
                    }),
                },
                Finding {
                    detector: DetectorId::Boilerplate,
                    payload: FindingPayload::Boilerplate(BoilerplateFinding {
                        family: "com.root".into(),
                        similarity: 0.9375,
                    }),
                },
            ],
            ..Report::default()
        };
        let json = report_to_json(&report);
        assert!(json.contains(
            "\"findings\":[{\"detector\":\"data-safety\",\
             \"kind\":\"label-omits-collection\",\"info\":\"location\"}"
        ));
        assert!(json.contains("\"detector\":\"purpose\",\"kind\":\"contradicted\""));
        assert!(json.contains("\"lib\":\"admob\""));
        assert!(json.contains("\"similarity\":0.9375"));
        assert!(parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn outcome_envelope_carries_the_schema_tag() {
        let ok: Result<ppchecker_core::CheckOutcome, ppchecker_core::Error> =
            Ok(ppchecker_core::CheckOutcome {
                report: Report { package: "com.x".into(), ..Report::default() },
                timings: None,
            });
        let json = outcome_to_json("com.x", &ok);
        assert!(json.starts_with("{\"ok\":true,\"schema\":2,"), "{json}");
        let err: Result<ppchecker_core::CheckOutcome, ppchecker_core::Error> =
            Err(ppchecker_core::Error::worker("boom"));
        let json = outcome_to_json("com.y", &err);
        assert!(json.starts_with("{\"ok\":false,\"schema\":2,"), "{json}");
    }
}
