//! The `ppchecker batch` subcommand: run the batch engine over a corpus
//! and emit JSON-lines results.
//!
//! Three input sources:
//!
//! * `--corpus <dir>` — a directory in the `corpus::export` layout
//!   (as written by `export_dataset`):
//!
//!   ```text
//!   corpus/
//!     app-0000/ policy.html description.txt manifest.txt app.dex|app.pkdx
//!     app-0001/ ...
//!     libs/ admob.html unityads.html ...
//!   ```
//!
//! * `--stream <n>` — the first `n` apps of the generated scale corpus
//!   under `--seed`, analyzed through [`Engine::run_streamed`]: each
//!   worker generates the next app when it pulls it, records are written
//!   to the output sink as they complete, and peak memory is constant in
//!   `n`.
//!
//! * `--manifest <file>` — a dataset manifest naming a reproducible
//!   subset (seed + ID list); the named apps stream the same way.
//!
//! Output is one JSON object per app in submission order, followed by one
//! `{"aggregate": ...}` line. Everything on that stream is deterministic —
//! `--jobs 1` and `--jobs 16` produce byte-identical bytes — while the
//! timing-dependent metrics summary is returned separately for stderr.

use crate::json::{escape_into, report_to_json_into};
use crate::{manifest_text, CliError};
use ppchecker_apk::{packer, Apk};
use ppchecker_core::{
    AppInput, BoilerplateIndex, DataSafetyLabel, DetectorId, DetectorRegistry, PPChecker,
};
use ppchecker_corpus::{stream_scaled, DatasetManifest};
use ppchecker_engine::{available_jobs, AggregateSummary, AppRecord, Engine};
use ppchecker_store::Store;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where the batch's apps come from.
#[derive(Debug, Clone)]
pub enum BatchSource {
    /// An exported corpus directory (`corpus::export` layout).
    CorpusDir(PathBuf),
    /// The first `n` apps of the generated scale corpus.
    Stream {
        /// Number of apps to stream.
        n: usize,
        /// Generation seed.
        seed: u64,
    },
    /// A dataset manifest file naming a reproducible subset.
    Manifest(PathBuf),
}

/// Parsed `batch` options.
#[derive(Debug)]
pub struct BatchOptions {
    /// Input source.
    pub source: BatchSource,
    /// Worker threads; defaults to the available cores.
    pub jobs: usize,
    /// When set, write a Chrome `trace_event` JSON of the run to this
    /// file (loadable in `about:tracing` / Perfetto).
    pub trace: Option<PathBuf>,
    /// When set, open (or create) a persistent artifact store at this
    /// directory: whole app reports replay across invocations, so a
    /// re-run over an unchanged corpus skips nearly all per-app work (the
    /// stderr metrics report the skip counts). Nothing else is stored. Composes with every source, including
    /// streamed generation.
    pub store: Option<PathBuf>,
    /// Detector selection (`--detectors`); `None` runs the paper's
    /// default registry. The selection folds into the checker's
    /// configuration fingerprint, so store records keyed under one
    /// detector set never replay under another.
    pub detectors: Option<Vec<DetectorId>>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            source: BatchSource::CorpusDir(PathBuf::new()),
            jobs: available_jobs(),
            trace: None,
            store: None,
            detectors: None,
        }
    }
}

impl BatchOptions {
    /// Convenience constructor for the corpus-directory source.
    pub fn for_corpus_dir(dir: impl Into<PathBuf>) -> Self {
        BatchOptions { source: BatchSource::CorpusDir(dir.into()), ..BatchOptions::default() }
    }
}

/// Builds the batch checker: the default paper registry, or — under a
/// `--detectors` selection — a registry restricted to exactly those
/// detectors, with a boilerplate index attached when that detector is
/// selected (corpus-wide near-duplicate detection needs the shared
/// index).
pub(crate) fn build_checker(detectors: Option<&[DetectorId]>) -> PPChecker {
    match detectors {
        None => PPChecker::new(),
        Some(ids) => {
            let mut checker = PPChecker::new().with_registry(DetectorRegistry::with_ids(ids));
            if ids.contains(&DetectorId::Boilerplate) {
                checker = checker
                    .with_boilerplate_index(Arc::new(BoilerplateIndex::new(BOILERPLATE_THRESHOLD)));
            }
            checker
        }
    }
}

/// Default near-duplicate similarity threshold for `--detectors
/// boilerplate` runs (estimated Jaccard over 3-token shingles).
pub const BOILERPLATE_THRESHOLD: f64 = 0.8;

/// The built-in 81 third-party lib policies as `(id, html)` pairs — the
/// lib corpus used when apps are generated rather than loaded from disk.
pub fn builtin_lib_policies() -> LibPolicies {
    ppchecker_corpus::libs::lib_policies()
        .into_iter()
        .map(|lp| (lp.lib.id.to_string(), lp.html))
        .collect()
}

/// Loads one exported app directory into an [`AppInput`].
///
/// A corrupt dex is *not* an error here: the packed blob is loaded as-is
/// and the engine turns the downstream failure into a per-app error
/// record, so one bad app never aborts the batch.
///
/// # Errors
///
/// Returns [`CliError`] when a required file is missing or the manifest
/// fails to parse (without a manifest there is no package identity).
pub fn load_app_dir(dir: &Path) -> Result<AppInput, CliError> {
    let read = |name: &str| -> Result<String, CliError> {
        fs::read_to_string(dir.join(name))
            .map_err(|e| CliError(format!("{}/{name}: {e}", dir.display())))
    };
    let manifest = manifest_text::parse_manifest(&read("manifest.txt")?)
        .map_err(|e| CliError(format!("{}/manifest.txt: {e}", dir.display())))?;
    let package = manifest.package.clone();

    let dex_path = dir.join("app.dex");
    let apk = if dex_path.exists() {
        let dex = packer::deserialize(&read("app.dex")?)
            .map_err(|e| CliError(format!("{}/app.dex: {e}", dir.display())))?;
        Apk::new(manifest, dex)
    } else {
        let blob = fs::read(dir.join("app.pkdx"))
            .map_err(|e| CliError(format!("{}/app.pkdx: {e}", dir.display())))?;
        Apk::from_packed_blob(manifest, blob)
    };

    // Optional Data-Safety declarations: one label per line.
    let labels_path = dir.join("labels.txt");
    let labels = if labels_path.exists() {
        let mut labels = Vec::new();
        for line in read("labels.txt")?.lines().map(str::trim).filter(|l| !l.is_empty()) {
            labels.push(DataSafetyLabel::parse(line).ok_or_else(|| {
                CliError(format!("{}/labels.txt: unknown label {line:?}", dir.display()))
            })?);
        }
        labels
    } else {
        Vec::new()
    };

    Ok(AppInput {
        package,
        policy_html: read("policy.html")?,
        description: read("description.txt")?,
        apk,
        labels,
    })
}

/// `(lib id, policy html)` pairs loaded from a corpus `libs/` directory.
pub type LibPolicies = Vec<(String, String)>;

/// Loads every `app-*` subdirectory (sorted by name, so directory order is
/// stable) and the `libs/*.html` policies of a corpus directory.
///
/// # Errors
///
/// Returns [`CliError`] on unreadable directories or malformed apps.
pub fn load_corpus(dir: &Path) -> Result<(Vec<AppInput>, LibPolicies), CliError> {
    let entries = fs::read_dir(dir).map_err(|e| CliError(format!("{}: {e}", dir.display())))?;
    let mut app_dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("app-"))
        })
        .collect();
    app_dirs.sort();
    if app_dirs.is_empty() {
        return Err(CliError(format!("no app-* directories under {}", dir.display())));
    }
    let apps = app_dirs.iter().map(|d| load_app_dir(d)).collect::<Result<Vec<_>, _>>()?;

    let mut libs = Vec::new();
    let libs_dir = dir.join("libs");
    if libs_dir.is_dir() {
        let mut lib_files: Vec<PathBuf> = fs::read_dir(&libs_dir)
            .map_err(|e| CliError(format!("{}: {e}", libs_dir.display())))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "html"))
            .collect();
        lib_files.sort();
        for path in lib_files {
            let id = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_string();
            let html = fs::read_to_string(&path)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            libs.push((id, html));
        }
    }
    Ok((apps, libs))
}

fn aggregate_to_json(agg: &AggregateSummary) -> String {
    format!(
        "{{\"aggregate\":{{\"apps\":{},\"errors\":{},\"with_libs\":{},\"incomplete\":{},\
         \"incorrect\":{},\"inconsistent\":{},\"problem_apps\":{},\"missed_records\":{},\
         \"incorrect_findings\":{},\"inconsistencies\":{}}}}}",
        agg.apps,
        agg.errors,
        agg.with_libs,
        agg.incomplete,
        agg.incorrect,
        agg.inconsistent,
        agg.problem_apps,
        agg.missed_records,
        agg.incorrect_findings,
        agg.inconsistencies,
    )
}

/// Serializes one app record as a JSON line (with trailing newline) into
/// `buf`, straight into the buffer: no per-record report String, no
/// per-field escape String.
fn record_json_into(buf: &mut String, record: &AppRecord) {
    match record.report() {
        Some(report) => {
            let _ = write!(buf, "{{\"index\":{},\"ok\":true,\"report\":", record.index);
            report_to_json_into(buf, report);
            buf.push_str("}\n");
        }
        None => {
            let _ = write!(buf, "{{\"index\":{},\"ok\":false,\"package\":\"", record.index);
            escape_into(buf, &record.package);
            buf.push_str("\",\"error\":\"");
            escape_into(buf, &record.error().map(ToString::to_string).unwrap_or_default());
            buf.push_str("\"}\n");
        }
    }
}

/// Runs an app stream through [`Engine::run_streamed`] with `libs`
/// registered, writing each record's JSON line to `out` as it completes
/// and the aggregate line after the last. Peak memory is bounded by the
/// engine's in-flight window, not the stream length.
fn stream_batch_to<I>(
    apps: I,
    libs: LibPolicies,
    jobs: usize,
    store: Option<Arc<Store>>,
    detectors: Option<&[DetectorId]>,
    out: &mut (dyn io::Write + Send),
) -> Result<String, CliError>
where
    I: IntoIterator<Item = AppInput>,
    I::IntoIter: Send,
{
    let mut engine = Engine::with_lib_policies(build_checker(detectors), libs).with_jobs(jobs);
    if let Some(store) = store {
        engine = engine.with_store(store);
    }

    let mut line = String::new();
    let mut write_err: Option<io::Error> = None;
    let summary = engine.run_streamed(apps, |record| {
        if write_err.is_some() {
            return;
        }
        line.clear();
        record_json_into(&mut line, &record);
        if let Err(e) = out.write_all(line.as_bytes()) {
            write_err = Some(e);
        }
    });
    if let Some(e) = write_err {
        return Err(CliError(format!("writing batch output: {e}")));
    }
    writeln!(out, "{}", aggregate_to_json(&summary.aggregate))
        .map_err(|e| CliError(format!("writing batch output: {e}")))?;
    Ok(format!("{}\n", summary.metrics))
}

/// The `batch` entry point: resolve the source, run, and write the
/// deterministic JSON-lines stream (records + aggregate line) to `out`,
/// returning the timing-dependent metrics summary for stderr.
///
/// Every source writes records incrementally through one streamed run.
/// The corpus-directory source loads its apps up front (they live on
/// disk already); the stream and manifest sources generate lazily, so a
/// 100k-app run holds only the in-flight window in memory. Enables obs
/// span metrics for the duration of the process (that is where the
/// stderr quantile table comes from), and captures a Chrome trace when
/// asked to.
///
/// # Errors
///
/// Returns [`CliError`] when the source is unreadable, the output sink
/// fails, or the trace file cannot be written.
pub fn run_batch_to(
    opts: &BatchOptions,
    out: &mut (dyn io::Write + Send),
) -> Result<String, CliError> {
    let store = opts
        .store
        .as_deref()
        .map(|dir| {
            Store::open(dir)
                .map(Arc::new)
                .map_err(|e| CliError(format!("--store {}: {e}", dir.display())))
        })
        .transpose()?;
    ppchecker_obs::set_enabled(true);
    if opts.trace.is_some() {
        ppchecker_obs::set_tracing(true);
    }
    let jobs = opts.jobs.max(1);

    let detectors = opts.detectors.as_deref();
    let metrics = match &opts.source {
        BatchSource::CorpusDir(dir) => {
            let (apps, libs) = load_corpus(dir)?;
            stream_batch_to(apps, libs, jobs, store.clone(), detectors, out)?
        }
        BatchSource::Stream { n, seed } => {
            let apps = stream_scaled(*seed, *n).map(|g| g.input);
            stream_batch_to(apps, builtin_lib_policies(), jobs, store.clone(), detectors, out)?
        }
        BatchSource::Manifest(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            let manifest = DatasetManifest::parse(&text)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            let apps = manifest.apps().map(|g| g.input);
            stream_batch_to(apps, builtin_lib_policies(), jobs, store.clone(), detectors, out)?
        }
    };

    if let Some(store) = &store {
        store.flush_index();
    }
    if let Some(path) = &opts.trace {
        ppchecker_obs::set_tracing(false);
        let events = ppchecker_obs::trace::drain();
        fs::write(path, ppchecker_obs::trace::to_chrome_json(&events))
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    }
    Ok(metrics)
}

/// [`run_batch_to`] with the record stream buffered into a `String` —
/// the materializing convenience wrapper for tests and small batches.
///
/// # Errors
///
/// Returns [`CliError`] under the same conditions as [`run_batch_to`].
pub fn run_batch(opts: &BatchOptions) -> Result<(String, String), CliError> {
    let mut records = Vec::new();
    let metrics = run_batch_to(opts, &mut records)?;
    let records =
        String::from_utf8(records).map_err(|e| CliError(format!("batch output not UTF-8: {e}")))?;
    Ok((records, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{ComponentKind, Dex, Manifest, Permission};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ppchecker-batch-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn write_app(dir: &Path, package: &str, policy: &str, corrupt: bool) {
        fs::create_dir_all(dir).unwrap();
        let mut manifest = Manifest::new(package);
        manifest.add_permission(Permission::AccessFineLocation);
        manifest.add_component(ComponentKind::Activity, &format!("{package}.Main"), true);
        fs::write(dir.join("manifest.txt"), manifest.to_text()).unwrap();
        fs::write(dir.join("policy.html"), format!("<p>{policy}</p>")).unwrap();
        fs::write(dir.join("description.txt"), "A handy app.").unwrap();
        if corrupt {
            fs::write(dir.join("app.pkdx"), [0xBA, 0xD0, 0xBA, 0xD0]).unwrap();
        } else {
            let dex = Dex::builder()
                .class(&format!("{package}.Main"), |c| {
                    c.extends("android.app.Activity");
                    c.method("onCreate", 1, |m| {
                        m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    });
                })
                .build();
            fs::write(dir.join("app.dex"), packer::serialize(&dex)).unwrap();
        }
    }

    fn write_corpus(root: &Path, n: usize, corrupt_at: Option<usize>) {
        for i in 0..n {
            write_app(
                &root.join(format!("app-{i:04}")),
                &format!("com.batch.app{i}"),
                "we may collect your location.",
                corrupt_at == Some(i),
            );
        }
        let libs = root.join("libs");
        fs::create_dir_all(&libs).unwrap();
        fs::write(libs.join("admob.html"), "<p>we may collect your device id.</p>").unwrap();
    }

    #[test]
    fn batch_output_is_jobs_invariant() {
        let dir = temp_dir("determinism");
        write_corpus(&dir, 6, None);
        let serial =
            run_batch(&BatchOptions { jobs: 1, ..BatchOptions::for_corpus_dir(&dir) }).unwrap();
        let parallel =
            run_batch(&BatchOptions { jobs: 4, ..BatchOptions::for_corpus_dir(&dir) }).unwrap();
        assert_eq!(serial.0, parallel.0, "record stream must be byte-identical");
        assert!(serial.0.lines().count() == 7, "6 records + aggregate line");
        assert!(serial.0.contains("\"aggregate\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_app_becomes_error_record() {
        let dir = temp_dir("corrupt");
        write_corpus(&dir, 4, Some(2));
        let (records, metrics) =
            run_batch(&BatchOptions { jobs: 2, ..BatchOptions::for_corpus_dir(&dir) }).unwrap();
        assert!(records.contains("\"ok\":false"));
        assert!(records.contains("com.batch.app2"));
        assert_eq!(records.matches("\"ok\":true").count(), 3);
        assert!(records.contains("\"errors\":1"));
        assert!(metrics.contains("1 errors"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_store_run_skips_and_matches_byte_for_byte() {
        let dir = temp_dir("incremental");
        write_corpus(&dir, 8, None);
        let store_dir = dir.join(".ppstore");
        let opts = BatchOptions {
            jobs: 2,
            store: Some(store_dir.clone()),
            ..BatchOptions::for_corpus_dir(&dir)
        };
        let (cold_records, cold_metrics) = run_batch(&opts).unwrap();
        assert!(cold_metrics.contains("store: 0 apps skipped"), "metrics:\n{cold_metrics}");

        let (warm_records, warm_metrics) = run_batch(&opts).unwrap();
        assert_eq!(cold_records, warm_records, "aggregate reports must be byte-identical");
        assert!(warm_metrics.contains("store: 8 apps skipped"), "metrics:\n{warm_metrics}");
        assert!(store_dir.join("ppstore.index").exists(), "index flushed after the run");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn detector_selection_folds_into_the_store_key() {
        let dir = temp_dir("detector-keying");
        write_corpus(&dir, 4, None);
        let store_dir = dir.join(".ppstore");
        let default_opts = BatchOptions {
            jobs: 2,
            store: Some(store_dir.clone()),
            ..BatchOptions::for_corpus_dir(&dir)
        };
        let (_, cold_metrics) = run_batch(&default_opts).unwrap();
        assert!(cold_metrics.contains("store: 0 apps skipped"), "metrics:\n{cold_metrics}");

        // A different detector set must never replay records keyed under
        // the default registry: the selection folds into the checker's
        // configuration fingerprint, so every app re-analyzes.
        let selected_opts = BatchOptions {
            jobs: 2,
            store: Some(store_dir.clone()),
            detectors: Some(vec![DetectorId::Incomplete]),
            ..BatchOptions::for_corpus_dir(&dir)
        };
        let (_, selected_metrics) = run_batch(&selected_opts).unwrap();
        assert!(
            selected_metrics.contains("store: 0 apps skipped"),
            "detector selection must re-key the store:\n{selected_metrics}"
        );

        // Re-running the same selection replays its own records.
        let (_, warm_metrics) = run_batch(&selected_opts).unwrap();
        assert!(warm_metrics.contains("store: 4 apps skipped"), "metrics:\n{warm_metrics}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_corpus_dir_is_an_error() {
        let err = run_batch(&BatchOptions {
            jobs: 1,
            ..BatchOptions::for_corpus_dir("/nonexistent/corpus")
        })
        .unwrap_err();
        assert!(err.0.contains("/nonexistent/corpus"));
    }

    #[test]
    fn streamed_batch_is_jobs_invariant() {
        let stream = |jobs| {
            run_batch(&BatchOptions {
                source: BatchSource::Stream { n: 40, seed: 42 },
                jobs,
                ..BatchOptions::default()
            })
            .unwrap()
            .0
        };
        let serial = stream(1);
        for jobs in [3, 8] {
            assert_eq!(serial, stream(jobs), "record stream must be byte-identical at {jobs} jobs");
        }
        assert_eq!(serial.lines().count(), 41, "40 records + aggregate line");
        assert!(serial.contains("\"aggregate\""));
        assert!(serial.contains("\"apps\":40"));
    }

    #[test]
    fn streamed_batch_composes_with_the_store() {
        let dir = temp_dir("stream-store");
        fs::create_dir_all(&dir).unwrap();
        let opts = BatchOptions {
            source: BatchSource::Stream { n: 12, seed: 42 },
            jobs: 2,
            store: Some(dir.join(".ppstore")),
            ..BatchOptions::default()
        };
        let (cold, cold_metrics) = run_batch(&opts).unwrap();
        assert!(cold_metrics.contains("store: 0 apps skipped"), "metrics:\n{cold_metrics}");
        let (warm, warm_metrics) = run_batch(&opts).unwrap();
        assert_eq!(cold, warm, "replayed stream must be byte-identical");
        assert!(warm_metrics.contains("store: 12 apps skipped"), "metrics:\n{warm_metrics}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_batch_runs_the_named_subset() {
        use ppchecker_corpus::ScenarioPack;
        let dir = temp_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        let manifest = ScenarioPack::PathologicalPolicy.manifest(42, 1400);
        let count = manifest.ids.len();
        assert!(count > 0, "pack must select something in 1400 apps");
        let path = dir.join("pathological.ppm");
        fs::write(&path, manifest.serialize()).unwrap();

        let (records, _) = run_batch(&BatchOptions {
            source: BatchSource::Manifest(path),
            jobs: 2,
            ..BatchOptions::default()
        })
        .unwrap();
        assert_eq!(records.lines().count(), count + 1, "one line per id + aggregate");
        assert!(records.contains(&format!("\"apps\":{count}")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_manifest_is_an_error() {
        let dir = temp_dir("bad-manifest");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ppm");
        fs::write(&path, "not a manifest\n").unwrap();
        let err = run_batch(&BatchOptions {
            source: BatchSource::Manifest(path),
            jobs: 1,
            ..BatchOptions::default()
        })
        .unwrap_err();
        assert!(err.0.contains("bad.ppm"), "error names the file: {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
