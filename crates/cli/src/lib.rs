//! # ppchecker-cli
//!
//! The `ppchecker` command-line tool: audit an app's privacy policy
//! against its description and (simulated) APK from files on disk.
//!
//! ```text
//! ppchecker check --policy policy.html --description desc.txt \
//!                 --manifest manifest.txt --dex app.dex \
//!                 [--lib-policy ID=policy.html]... [--suggest] \
//!                 [--synonyms] [--constraints] [--json] [--detectors IDS]
//! ppchecker batch (--corpus <dir> | --stream N | --manifest <file>) \
//!                 [--seed N] [--jobs N] [--out results.jsonl] \
//!                 [--trace trace.json] [--store <dir>] [--detectors IDS]
//! ppchecker trace-check <trace.json>  # validate a batch --trace file
//! ppchecker policy <policy.html>      # inspect the six-step analysis
//! ppchecker pack <dex.txt> <out.pkdx> # pack a dex (packer demo)
//! ppchecker unpack <in.pkdx> <out.txt>
//! ppchecker demo                      # run the bundled sample app
//! ppchecker serve [--addr HOST:PORT] [--jsonl-addr HOST:PORT] \
//!                 [--workers N] [--queue-depth N] [--max-body-bytes N] \
//!                 [--corpus <dir>] [--stream N] [--seed N] \
//!                 [--manifest <file>] [--store <dir>] [--detectors IDS]
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

/// A subcommand's arguments, checked against the flags it takes.
///
/// A flag that takes a value consumes the next argument, whatever it
/// is; a repeated flag keeps every value. Any other argument starting
/// with `-`, and any bare argument past the subcommand's positional
/// ones, is an error, so a misspelt or retired flag fails instead of
/// being ignored.
#[derive(Debug, Default)]
pub struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args` against the subcommand's `valued` flags, its
    /// `switches` and at most `positional` bare arguments.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for an unknown flag, a valued flag without
    /// its value, or a surplus bare argument.
    pub fn parse(
        args: &'a [String],
        valued: &[&str],
        switches: &[&str],
        positional: usize,
    ) -> Result<Self, CliError> {
        let mut flags = Flags::default();
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if valued.contains(&arg) {
                let value = args.next().ok_or_else(|| CliError(format!("{arg} needs a value")))?;
                flags.values.push((arg, value));
            } else if switches.contains(&arg) {
                flags.switches.push(arg);
            } else if arg.starts_with('-') && arg.len() > 1 {
                return Err(CliError(format!("unknown flag {arg}")));
            } else if flags.positional.len() < positional {
                flags.positional.push(arg);
            } else {
                return Err(CliError(format!("unexpected argument {arg:?}")));
            }
        }
        Ok(flags)
    }

    /// The value of the first `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).next()
    }

    /// Every value of `flag`, in order.
    pub fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.values.iter().filter(move |(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// `true` if `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The `i`th bare argument, if given.
    pub fn positional(&self, i: usize) -> Option<&'a str> {
        self.positional.get(i).copied()
    }

    /// The value of `flag` as a positive integer, if given.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when the value is not a positive integer.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>, CliError> {
        self.value(flag)
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError(format!("{flag} needs a positive integer")))
            })
            .transpose()
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

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_take_values_switches_and_positionals() {
        let args = strings(&["in.txt", "--key", "--json", "--json", "--key", "7", "out.txt"]);
        let flags = Flags::parse(&args, &["--key"], &["--json"], 2).unwrap();
        assert_eq!(flags.value("--key"), Some("--json"), "a valued flag consumes its value");
        assert_eq!(flags.values("--key").collect::<Vec<_>>(), ["--json", "7"]);
        assert!(flags.has("--json"));
        assert_eq!((flags.positional(0), flags.positional(1)), (Some("in.txt"), Some("out.txt")));
        assert_eq!(flags.positive("--key").unwrap_err().0, "--key needs a positive integer");
    }

    #[test]
    fn flags_reject_what_the_subcommand_does_not_take() {
        let fail = |args: &[&str]| {
            Flags::parse(&strings(args), &["--jobs"], &["--json"], 1).unwrap_err().0
        };
        assert_eq!(fail(&["--jobs", "2", "--jbos", "2"]), "unknown flag --jbos");
        assert_eq!(fail(&["-j"]), "unknown flag -j");
        assert_eq!(fail(&["--jobs"]), "--jobs needs a value");
        assert_eq!(fail(&["a", "b"]), "unexpected argument \"b\"");
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
