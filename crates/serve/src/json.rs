//! Compatibility facade over the current wire schema revision.
//!
//! All encode/decode now lives in [`crate::wire`], one module per schema
//! revision; this module re-exports the current revision
//! ([`crate::wire::v2`]) so existing paths — `ppchecker_serve::json::*`
//! and the CLI's `ppchecker_cli::json` shim — keep compiling unchanged.
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

pub use crate::wire::v2::{
    app_to_json, delta_to_json, error_body, escape, escape_into, outcome_to_json,
    outcome_to_json_into, parse, parse_app, report_to_json, report_to_json_into, Value, SCHEMA,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, Manifest, PrivateInfo};
    use ppchecker_core::{
        AppInput, Channel, CheckOutcome, DataSafetyLabel, Error, MissedInfo, Report,
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
}
