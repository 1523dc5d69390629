//! # ppchecker-cli
//!
//! The `ppchecker` command-line tool: audit an app's privacy policy
//! against its description and (simulated) APK from files on disk.
//!
//! ```text
//! ppchecker check --policy policy.html --description desc.txt \
//!                 --manifest manifest.txt --dex app.dex \
//!                 [--lib-policy ID=policy.html]... [--suggest] \
//!                 [--synonyms] [--constraints] [--detectors IDS]
//! ppchecker batch (--corpus <dir> | --stream N | --manifest <file>) \
//!                 [--seed N] [--shards N] [--jobs N] \
//!                 [--out results.jsonl] [--trace trace.json] [--store <dir>] \
//!                 [--detectors IDS]
//! ppchecker trace-check <trace.json>  # validate a batch --trace file
//! ppchecker policy <policy.html>      # inspect the six-step analysis
//! ppchecker pack <dex.txt> <out.pkdx> # pack a dex (packer demo)
//! ppchecker unpack <in.pkdx> <out.txt>
//! ppchecker demo                      # run the bundled sample app
//! ppchecker serve [--addr HOST:PORT] [--jsonl-addr HOST:PORT] \
//!                 [--workers N] [--queue-depth N] [--corpus <dir>] \
//!                 [--stream N] [--seed N] [--manifest <file>] \
//!                 [--store <dir>] [--detectors IDS]
//! ```
//!
//! `serve --workers N` bounds the checks that run at once across every
//! connection; `--queue-depth N` more may wait before HTTP answers 429.
//!
//! The dex file uses the textual serialization of
//! [`ppchecker_apk::packer`]; the manifest uses the line format of
//! [`manifest_text`].

#![forbid(unsafe_code)]

pub mod batch;
pub mod json;
pub mod manifest_text;
pub mod serve;

pub use batch::{builtin_lib_policies, run_batch, run_batch_to, BatchOptions, BatchSource};
pub use serve::{parse_serve_args, run_serve, ServeOptions};

use ppchecker_apk::{packer, Apk};
use ppchecker_core::{suggest_fixes, AppInput, DetectorId, PPChecker};
use ppchecker_policy::{PolicyAnalyzer, VerbCategory};
use std::fmt::Write as _;

/// The bundled demo inputs (`assets/`).
pub mod assets {
    /// Demo policy HTML.
    pub const POLICY: &str = include_str!("../assets/policy.html");
    /// Demo description.
    pub const DESCRIPTION: &str = include_str!("../assets/description.txt");
    /// Demo manifest (text format).
    pub const MANIFEST: &str = include_str!("../assets/manifest.txt");
    /// Demo dex (textual serialization).
    pub const DEX: &str = include_str!("../assets/app.dex");
}

/// CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

/// Parsed `check` options.
#[derive(Debug, Default)]
pub struct CheckOptions {
    /// Policy HTML content.
    pub policy_html: String,
    /// Description text.
    pub description: String,
    /// Manifest text.
    pub manifest_text: String,
    /// Dex text.
    pub dex_text: String,
    /// `(lib id, policy html)` pairs.
    pub lib_policies: Vec<(String, String)>,
    /// Print repair suggestions.
    pub suggest: bool,
    /// Enable verb-synonym expansion.
    pub synonyms: bool,
    /// Enable constraint modeling.
    pub constraints: bool,
    /// Emit JSON instead of the human-readable report.
    pub json: bool,
    /// Detector selection (`--detectors`); `None` runs the checker's
    /// full registry.
    pub detectors: Option<Vec<DetectorId>>,
}

/// Parses a `--detectors` value: comma-separated detector ids.
///
/// # Errors
///
/// Returns [`CliError`] naming the unknown id and listing every
/// registered id.
pub fn parse_detectors(value: &str) -> Result<Vec<DetectorId>, CliError> {
    let mut ids = Vec::new();
    for name in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let id = DetectorId::parse(name).ok_or_else(|| {
            let registered: Vec<&str> = DetectorId::ALL.iter().map(|d| d.as_str()).collect();
            CliError(format!("unknown detector {name:?} (registered: {})", registered.join(", ")))
        })?;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    if ids.is_empty() {
        return Err(CliError("--detectors requires at least one detector id".to_string()));
    }
    Ok(ids)
}

/// Runs a `check` and renders the report to a string.
///
/// # Errors
///
/// Returns [`CliError`] when any input fails to parse.
pub fn run_check(opts: &CheckOptions) -> Result<String, CliError> {
    let manifest =
        manifest_text::parse_manifest(&opts.manifest_text).map_err(|e| CliError(e.to_string()))?;
    let dex = packer::deserialize(&opts.dex_text).map_err(|e| CliError(e.to_string()))?;
    let package = manifest.package.clone();
    let app = AppInput {
        package,
        policy_html: opts.policy_html.clone(),
        description: opts.description.clone(),
        apk: Apk::new(manifest, dex),
        labels: Vec::new(),
    };

    let mut analyzer = PolicyAnalyzer::new();
    if opts.synonyms {
        analyzer = analyzer.with_synonym_expansion();
    }
    if opts.constraints {
        analyzer = analyzer.with_constraint_modeling();
    }
    let mut checker = PPChecker::new().with_analyzer(analyzer);
    if opts.detectors.is_some() {
        // An explicit selection runs against the full registry, so ids
        // beyond the paper's three resolve.
        checker = checker.with_registry(ppchecker_core::DetectorRegistry::full());
    }
    for (id, html) in &opts.lib_policies {
        checker.register_lib_policy(id, html);
    }

    let mut request = ppchecker_core::CheckRequest::builder(&app);
    if let Some(ids) = &opts.detectors {
        request = request.detectors(ids);
    }
    let report = checker.check(request.build()).map_err(|e| CliError(e.to_string()))?;
    if opts.json {
        return Ok(format!("{}\n", json::report_to_json(&report)));
    }
    let mut out = String::new();
    let _ = write!(out, "{report}");
    let verdict = if report.has_any_problem() {
        "VERDICT: questionable privacy policy"
    } else {
        "VERDICT: no problems detected"
    };
    let _ = writeln!(out, "{verdict}");
    if opts.suggest {
        let fixes = suggest_fixes(&report);
        if !fixes.is_empty() {
            let _ = writeln!(out, "\nsuggested fixes:");
            for fix in fixes {
                let _ = writeln!(out, "  {fix}");
            }
        }
    }
    Ok(out)
}

/// Renders the six-step policy analysis of an HTML document.
pub fn run_policy(policy_html: &str) -> String {
    let analysis = PolicyAnalyzer::new().analyze_html(policy_html);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} sentences, {} useful, disclaimer: {}",
        analysis.total_sentences,
        analysis.sentences.len(),
        analysis.has_disclaimer
    );
    for s in &analysis.sentences {
        let _ = writeln!(
            out,
            "[{}{}] {:?} — «{}»",
            if s.negative { "NOT " } else { "" },
            s.category,
            s.resources().collect::<Vec<_>>(),
            s.text
        );
    }
    for cat in VerbCategory::ALL {
        let pos = analysis.resources(cat, false);
        if !pos.is_empty() {
            let _ = writeln!(out, "{cat}: {pos:?}");
        }
        let neg = analysis.resources(cat, true);
        if !neg.is_empty() {
            let _ = writeln!(out, "NOT {cat}: {neg:?}");
        }
    }
    out
}

/// Packs a textual dex into a packed blob.
///
/// # Errors
///
/// Returns [`CliError`] when the dex text fails to parse.
pub fn run_pack(dex_text: &str, key: u8) -> Result<Vec<u8>, CliError> {
    let dex = packer::deserialize(dex_text).map_err(|e| CliError(e.to_string()))?;
    Ok(packer::pack(&dex, key))
}

/// Unpacks a packed blob back into textual form.
///
/// # Errors
///
/// Returns [`CliError`] when the blob is not a packed dex.
pub fn run_unpack(blob: &[u8]) -> Result<String, CliError> {
    let dex = packer::unpack(blob).map_err(|e| CliError(e.to_string()))?;
    Ok(packer::serialize(&dex))
}

/// Validates a Chrome `trace_event` JSON file produced by
/// `batch --trace` (the `trace-check` subcommand): well-formed JSON,
/// required event fields, and balanced `B`/`E` span nesting per thread.
///
/// # Errors
///
/// Returns [`CliError`] describing the first structural problem found.
pub fn run_trace_check(trace_json: &str) -> Result<String, CliError> {
    let check = ppchecker_obs::trace::validate(trace_json).map_err(CliError)?;
    Ok(format!("{check}\n"))
}

/// Runs the bundled demo (the `demo` subcommand).
///
/// # Errors
///
/// Never fails in practice — the bundled assets are well-formed.
pub fn run_demo() -> Result<String, CliError> {
    run_check(&CheckOptions {
        policy_html: assets::POLICY.to_string(),
        description: assets::DESCRIPTION.to_string(),
        manifest_text: assets::MANIFEST.to_string(),
        dex_text: assets::DEX.to_string(),
        lib_policies: vec![(
            "unity3d".to_string(),
            "<p>we may receive your location information and device identifiers.</p>".to_string(),
        )],
        suggest: true,
        ..CheckOptions::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_detects_problems_and_suggests_fixes() {
        let out = run_demo().unwrap();
        assert!(out.contains("incomplete: true"), "demo output:\n{out}");
        assert!(out.contains("VERDICT: questionable"));
        assert!(out.contains("suggested fixes:"));
    }

    #[test]
    fn policy_subcommand_renders_sets() {
        let out = run_policy(assets::POLICY);
        assert!(out.contains("collect:"));
    }

    #[test]
    fn pack_unpack_round_trip() {
        let blob = run_pack(assets::DEX, 0x7C).unwrap();
        let text = run_unpack(&blob).unwrap();
        let a = ppchecker_apk::packer::deserialize(assets::DEX).unwrap();
        let b = ppchecker_apk::packer::deserialize(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn detectors_flag_rejects_unknown_ids_with_a_listing() {
        let err = parse_detectors("incomplete,bogus").unwrap_err();
        assert!(err.0.contains("unknown detector \"bogus\""), "{err}");
        for id in DetectorId::ALL {
            assert!(err.0.contains(id.as_str()), "listing missing {id}: {err}");
        }
        assert!(parse_detectors(" , ").is_err());
        let ids = parse_detectors("purpose, purpose ,incomplete").unwrap();
        assert_eq!(ids, vec![DetectorId::Purpose, DetectorId::Incomplete]);
    }

    #[test]
    fn check_accepts_an_explicit_detector_selection() {
        let out = run_check(&CheckOptions {
            policy_html: assets::POLICY.to_string(),
            description: assets::DESCRIPTION.to_string(),
            manifest_text: assets::MANIFEST.to_string(),
            dex_text: assets::DEX.to_string(),
            detectors: Some(vec![DetectorId::Incorrect]),
            ..CheckOptions::default()
        })
        .unwrap();
        // The incomplete detector was deselected, so its findings vanish
        // even though the demo app's policy is incomplete by default.
        assert!(out.contains("incomplete: false"), "selection output:\n{out}");
    }

    #[test]
    fn check_rejects_bad_manifest() {
        let err = run_check(&CheckOptions {
            manifest_text: "bogus".to_string(),
            dex_text: assets::DEX.to_string(),
            ..CheckOptions::default()
        })
        .unwrap_err();
        assert!(err.0.contains("manifest"));
    }
}
