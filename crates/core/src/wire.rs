//! Wire codec for [`Report`]: the persistent form a per-app problem
//! report takes in the artifact store.
//!
//! A stored report is only replayed when the app's inputs *and* the
//! checker configuration are unchanged (see
//! [`PPChecker::config_fingerprint`]), so the encoding carries plain
//! values — info names, qualified permission names, category tags — and
//! decoding rebuilds an identical [`Report`].
//!
//! [`PPChecker::config_fingerprint`]: crate::PPChecker::config_fingerprint

use crate::detector::{
    BoilerplateFinding, DataSafetyFinding, DataSafetyKind, DetectorId, Finding, FindingPayload,
    PurposeFinding, PurposeKind,
};
use crate::problems::{Channel, Inconsistency, IncorrectFinding, MissedInfo, Report};
use ppchecker_apk::{Permission, PrivateInfo};
use ppchecker_policy::wire::{category_byte, category_from};
use ppchecker_policy::Purpose;
use ppchecker_store::{WireError, WireReader, WireWriter};

fn channel_byte(c: Channel) -> u8 {
    match c {
        Channel::Description => 0,
        Channel::Code => 1,
    }
}

fn channel_from(b: u8) -> Result<Channel, WireError> {
    match b {
        0 => Ok(Channel::Description),
        1 => Ok(Channel::Code),
        other => Err(WireError(format!("bad channel {other}"))),
    }
}

fn info_from(name: &str) -> Result<PrivateInfo, WireError> {
    PrivateInfo::ALL
        .iter()
        .find(|i| i.canonical_phrase() == name)
        .copied()
        .ok_or_else(|| WireError(format!("unknown private info '{name}'")))
}

fn detector_from(name: &str) -> Result<DetectorId, WireError> {
    DetectorId::parse(name).ok_or_else(|| WireError(format!("unknown detector '{name}'")))
}

fn purpose_from(name: &str) -> Result<Purpose, WireError> {
    match name {
        "advertising" => Ok(Purpose::Advertising),
        "analytics" => Ok(Purpose::Analytics),
        "functionality" => Ok(Purpose::Functionality),
        other => Err(WireError(format!("unknown purpose '{other}'"))),
    }
}

fn encode_finding(w: &mut WireWriter, finding: &Finding) {
    w.str(finding.detector.as_str());
    match &finding.payload {
        FindingPayload::DataSafety(d) => {
            w.u8(0);
            w.str(d.info.canonical_phrase());
            w.bool(matches!(d.kind, DataSafetyKind::PolicyOmitsLabel));
        }
        FindingPayload::Purpose(p) => {
            w.u8(1);
            w.str(p.purpose.as_str());
            match &p.kind {
                PurposeKind::Contradicted { lib_id } => {
                    w.bool(true);
                    w.str(lib_id);
                }
                PurposeKind::Unsupported => w.bool(false),
            }
            w.str(&p.sentence);
        }
        FindingPayload::Boilerplate(b) => {
            w.u8(2);
            w.str(&b.family);
            w.u64(b.similarity.to_bits());
        }
        // Paper payloads never reach Report::findings (they fold into
        // the classic vectors encoded above); store them defensively as
        // an opaque tag so a custom registry cannot corrupt the stream.
        FindingPayload::Missed(_)
        | FindingPayload::Incorrect(_)
        | FindingPayload::Inconsistent(_) => w.u8(255),
    }
}

fn decode_finding(r: &mut WireReader<'_>) -> Result<Option<Finding>, WireError> {
    let detector = detector_from(r.str()?)?;
    let payload = match r.u8()? {
        0 => FindingPayload::DataSafety(DataSafetyFinding {
            info: info_from(r.str()?)?,
            kind: if r.bool()? {
                DataSafetyKind::PolicyOmitsLabel
            } else {
                DataSafetyKind::LabelOmitsCollection
            },
        }),
        1 => {
            let purpose = purpose_from(r.str()?)?;
            let kind = if r.bool()? {
                PurposeKind::Contradicted { lib_id: r.str()?.to_string() }
            } else {
                PurposeKind::Unsupported
            };
            FindingPayload::Purpose(PurposeFinding {
                purpose,
                kind,
                sentence: r.str()?.to_string(),
            })
        }
        2 => FindingPayload::Boilerplate(BoilerplateFinding {
            family: r.str()?.to_string(),
            similarity: f64::from_bits(r.u64()?),
        }),
        255 => return Ok(None),
        other => return Err(WireError(format!("bad finding payload tag {other}"))),
    };
    Ok(Some(Finding { detector, payload }))
}

/// Encodes a report for the artifact store.
pub fn encode_report(report: &Report) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.str(&report.package);
    w.bool(report.has_disclaimer);
    w.seq(report.libs.len());
    for lib in &report.libs {
        w.str(lib);
    }
    w.seq(report.missed.len());
    for m in &report.missed {
        w.str(m.info.canonical_phrase());
        w.u8(channel_byte(m.channel));
        w.opt_str(m.permission.as_ref().map(Permission::qualified_name).as_deref());
        w.bool(m.retained);
    }
    w.seq(report.incorrect.len());
    for i in &report.incorrect {
        w.str(i.info.canonical_phrase());
        w.u8(channel_byte(i.channel));
        w.str(&i.sentence);
        w.u8(category_byte(i.category));
    }
    w.seq(report.inconsistencies.len());
    for i in &report.inconsistencies {
        w.str(&i.lib_id);
        w.u8(category_byte(i.category));
        w.str(&i.app_sentence);
        w.str(&i.lib_sentence);
        w.str(&i.app_resource);
        w.str(&i.lib_resource);
    }
    w.seq(report.findings.len());
    for f in &report.findings {
        encode_finding(&mut w, f);
    }
    w.into_bytes()
}

/// Decodes a stored report.
///
/// # Errors
///
/// Returns [`WireError`] on any defect; the store layer treats that as a
/// miss and re-runs the full check.
pub fn decode_report(bytes: &[u8]) -> Result<Report, WireError> {
    let mut r = WireReader::new(bytes);
    let package = r.str()?.to_string();
    let has_disclaimer = r.bool()?;
    let n_libs = r.seq()?;
    let mut libs = Vec::with_capacity(n_libs);
    for _ in 0..n_libs {
        libs.push(r.str()?.to_string());
    }
    let n_missed = r.seq()?;
    let mut missed = Vec::with_capacity(n_missed);
    for _ in 0..n_missed {
        missed.push(MissedInfo {
            info: info_from(r.str()?)?,
            channel: channel_from(r.u8()?)?,
            permission: r.opt_str()?.map(Permission::from_name),
            retained: r.bool()?,
        });
    }
    let n_incorrect = r.seq()?;
    let mut incorrect = Vec::with_capacity(n_incorrect);
    for _ in 0..n_incorrect {
        incorrect.push(IncorrectFinding {
            info: info_from(r.str()?)?,
            channel: channel_from(r.u8()?)?,
            sentence: r.str()?.to_string(),
            category: category_from(r.u8()?)?,
        });
    }
    let n_incons = r.seq()?;
    let mut inconsistencies = Vec::with_capacity(n_incons);
    for _ in 0..n_incons {
        inconsistencies.push(Inconsistency {
            lib_id: r.str()?.to_string(),
            category: category_from(r.u8()?)?,
            app_sentence: r.str()?.to_string(),
            lib_sentence: r.str()?.to_string(),
            app_resource: r.str()?.to_string(),
            lib_resource: r.str()?.to_string(),
        });
    }
    let n_findings = r.seq()?;
    let mut findings = Vec::with_capacity(n_findings);
    for _ in 0..n_findings {
        if let Some(f) = decode_finding(&mut r)? {
            findings.push(f);
        }
    }
    if !r.is_exhausted() {
        return Err(WireError("trailing bytes after report".into()));
    }
    Ok(Report { package, missed, incorrect, inconsistencies, libs, has_disclaimer, findings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_policy::VerbCategory;

    fn sample() -> Report {
        Report {
            package: "com.example.weather".into(),
            missed: vec![
                MissedInfo {
                    info: PrivateInfo::Location,
                    channel: Channel::Code,
                    permission: Some(Permission::AccessFineLocation),
                    retained: true,
                },
                MissedInfo {
                    info: PrivateInfo::Contact,
                    channel: Channel::Description,
                    permission: None,
                    retained: false,
                },
            ],
            incorrect: vec![IncorrectFinding {
                info: PrivateInfo::DeviceId,
                channel: Channel::Code,
                sentence: "we will not collect your device id".into(),
                category: VerbCategory::Collect,
            }],
            inconsistencies: vec![Inconsistency {
                lib_id: "unityads".into(),
                category: VerbCategory::Disclose,
                app_sentence: "we do not share your data".into(),
                lib_sentence: "we may share your data".into(),
                app_resource: "data".into(),
                lib_resource: "data".into(),
            }],
            libs: vec!["unityads".into(), "flurry".into()],
            has_disclaimer: true,
            findings: vec![
                Finding {
                    detector: DetectorId::DataSafety,
                    payload: FindingPayload::DataSafety(DataSafetyFinding {
                        info: PrivateInfo::Location,
                        kind: DataSafetyKind::LabelOmitsCollection,
                    }),
                },
                Finding {
                    detector: DetectorId::Purpose,
                    payload: FindingPayload::Purpose(PurposeFinding {
                        purpose: Purpose::Functionality,
                        kind: PurposeKind::Contradicted { lib_id: "admob".into() },
                        sentence: "we use your data only for app functionality".into(),
                    }),
                },
                Finding {
                    detector: DetectorId::Boilerplate,
                    payload: FindingPayload::Boilerplate(BoilerplateFinding {
                        family: "com.family.root".into(),
                        similarity: 0.921875,
                    }),
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_exactly() {
        let original = sample();
        let decoded = decode_report(&encode_report(&original)).unwrap();
        assert_eq!(decoded.package, original.package);
        assert_eq!(decoded.missed, original.missed);
        assert_eq!(decoded.incorrect, original.incorrect);
        assert_eq!(decoded.inconsistencies, original.inconsistencies);
        assert_eq!(decoded.libs, original.libs);
        assert_eq!(decoded.has_disclaimer, original.has_disclaimer);
        assert_eq!(decoded.findings, original.findings);
        // The rendered form — what batch output serializes — matches too.
        assert_eq!(format!("{decoded}"), format!("{original}"));
    }

    #[test]
    fn custom_permission_survives() {
        let mut report = sample();
        report.missed[0].permission = Some(Permission::Custom("com.vendor.SPECIAL".into()));
        let decoded = decode_report(&encode_report(&report)).unwrap();
        assert_eq!(decoded.missed[0].permission, report.missed[0].permission);
    }

    #[test]
    fn empty_report_round_trips() {
        let decoded = decode_report(&encode_report(&Report::default())).unwrap();
        assert!(!decoded.has_any_problem());
    }

    #[test]
    fn corrupt_bytes_fail_decode() {
        let bytes = encode_report(&sample());
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_report(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(7);
        assert!(decode_report(&trailing).is_err());
    }
}
