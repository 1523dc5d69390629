//! The `ppchecker serve` subcommand: boot the resident daemon over a
//! warm engine and block until it drains.

use crate::batch::{build_checker, builtin_lib_policies, load_corpus};
use crate::{parse_detectors, CliError};
use ppchecker_core::DetectorId;
use ppchecker_corpus::{stream_scaled, DatasetManifest};
use ppchecker_engine::Engine;
use ppchecker_serve::{install_sigterm_handler, ServeConfig, Server};
use ppchecker_store::Store;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// Parsed `serve` options.
#[derive(Debug)]
pub struct ServeOptions {
    /// Daemon configuration (addresses, pool sizing, body cap).
    pub config: ServeConfig,
    /// Optional corpus directory; its `libs/*.html` policies are
    /// registered on the engine at boot so every request benefits from
    /// pre-analyzed third-party lib policies.
    pub corpus_dir: Option<PathBuf>,
    /// Optional streamed warm-boot: analyze the first N generated scale
    /// apps through the engine (with the built-in lib policies) before
    /// serving. With `--store`, this pre-populates the artifact store so
    /// later requests for the same apps replay from disk.
    pub stream: Option<usize>,
    /// Seed for `--stream` generation.
    pub seed: u64,
    /// Optional manifest warm-boot: like `stream`, over the manifest's
    /// named subset.
    pub manifest: Option<PathBuf>,
    /// Optional persistent artifact store: the daemon boots warm
    /// (previously computed reports replay from disk)
    /// and keeps persisting as it serves.
    pub store_dir: Option<PathBuf>,
    /// Detector selection (`--detectors`); `None` serves the paper's
    /// default registry.
    pub detectors: Option<Vec<DetectorId>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            config: ServeConfig::default(),
            corpus_dir: None,
            stream: None,
            seed: 42,
            manifest: None,
            store_dir: None,
            detectors: None,
        }
    }
}

/// Parses `serve` flags.
///
/// # Errors
///
/// Returns [`CliError`] on unparsable numeric flags.
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, CliError> {
    let flag_value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let positive = |flag: &str| -> Result<Option<usize>, CliError> {
        flag_value(flag)
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError(format!("{flag} needs a positive integer")))
            })
            .transpose()
    };
    let mut opts = ServeOptions::default();
    if let Some(addr) = flag_value("--addr") {
        opts.config.addr = addr.to_string();
    }
    if let Some(addr) = flag_value("--jsonl-addr") {
        opts.config.jsonl_addr = Some(addr.to_string());
    }
    if let Some(workers) = positive("--workers")? {
        opts.config.workers = workers;
        opts.config.queue_depth = 2 * workers;
    }
    if let Some(depth) = positive("--queue-depth")? {
        opts.config.queue_depth = depth;
    }
    if let Some(bytes) = positive("--max-body-bytes")? {
        opts.config.max_body_bytes = bytes;
    }
    if let Some(dir) = flag_value("--corpus") {
        opts.corpus_dir = Some(PathBuf::from(dir));
    }
    if let Some(n) = positive("--stream")? {
        opts.stream = Some(n);
    }
    if let Some(seed) = flag_value("--seed") {
        opts.seed = seed.parse::<u64>().map_err(|_| CliError("bad --seed".into()))?;
    }
    if let Some(path) = flag_value("--manifest") {
        opts.manifest = Some(PathBuf::from(path));
    }
    if let Some(dir) = flag_value("--store") {
        opts.store_dir = Some(PathBuf::from(dir));
    }
    if let Some(ids) = flag_value("--detectors") {
        opts.detectors = Some(parse_detectors(ids)?);
    }
    Ok(opts)
}

/// Boots the daemon and blocks until it has drained (via
/// `POST /shutdown` or SIGTERM). Returns a one-line summary.
///
/// # Errors
///
/// Returns [`CliError`] when the corpus fails to load or a listen
/// address cannot be bound.
pub fn run_serve(opts: ServeOptions) -> Result<String, CliError> {
    let checker = build_checker(opts.detectors.as_deref());
    if let Some(ids) = &opts.detectors {
        eprintln!(
            "serve: detectors {}",
            ids.iter().map(|d| d.as_str()).collect::<Vec<_>>().join(",")
        );
    }
    let warm_boot = opts.stream.is_some() || opts.manifest.is_some();
    let mut engine = match &opts.corpus_dir {
        Some(dir) => {
            let (_, libs) = load_corpus(dir)?;
            let count = libs.len();
            let engine = Engine::with_lib_policies(checker, libs);
            eprintln!("serve: registered {count} lib policies from {}", dir.display());
            engine
        }
        None if warm_boot => {
            let libs = builtin_lib_policies();
            let count = libs.len();
            let engine = Engine::with_lib_policies(checker, libs);
            eprintln!("serve: registered {count} built-in lib policies");
            engine
        }
        None => Engine::new(checker),
    };
    if let Some(dir) = &opts.store_dir {
        let store = Store::open(dir)
            .map(Arc::new)
            .map_err(|e| CliError(format!("--store {}: {e}", dir.display())))?;
        let reports = store.records_on_disk(ppchecker_store::RecordKind::Report);
        engine = engine.with_store(store);
        eprintln!("serve: artifact store at {} ({reports} reports on disk)", dir.display());
    }
    // Warm passes run after the store attaches so their results persist.
    if let Some(n) = opts.stream {
        let apps = stream_scaled(opts.seed, n).map(|g| g.input);
        let summary = engine.run_streamed(apps, |_| {});
        eprintln!(
            "serve: warmed over {n} streamed apps (seed {}, {} problem apps)",
            opts.seed, summary.aggregate.problem_apps
        );
    }
    if let Some(path) = &opts.manifest {
        let text = fs::read_to_string(path)
            .map_err(|e| CliError(format!("--manifest {}: {e}", path.display())))?;
        let manifest = DatasetManifest::parse(&text)
            .map_err(|e| CliError(format!("--manifest {}: {e}", path.display())))?;
        let summary = engine.run_streamed(manifest.apps().map(|g| g.input), |_| {});
        eprintln!(
            "serve: warmed over manifest {} ({} apps, {} problem apps)",
            manifest.name,
            manifest.ids.len(),
            summary.aggregate.problem_apps
        );
    }
    install_sigterm_handler();
    let handle = Server::start(engine, opts.config.clone())
        .map_err(|e| CliError(format!("failed to start daemon: {e}")))?;
    eprintln!(
        "serve: listening on http://{} ({} workers, queue depth {}){}",
        handle.addr(),
        opts.config.workers,
        opts.config.queue_depth,
        match handle.jsonl_addr() {
            Some(addr) => format!(", jsonl on {addr}"),
            None => String::new(),
        },
    );
    let addr = handle.addr();
    handle.join();
    Ok(format!("serve: drained, was listening on {addr}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_without_flags() {
        let opts = parse_serve_args(&[]).unwrap();
        assert_eq!(opts.config.addr, "127.0.0.1:7171");
        assert!(opts.config.jsonl_addr.is_none());
        assert!(opts.corpus_dir.is_none());
    }

    #[test]
    fn flags_override_defaults() {
        let opts = parse_serve_args(&args(&[
            "--addr",
            "0.0.0.0:9000",
            "--jsonl-addr",
            "127.0.0.1:9001",
            "--workers",
            "3",
            "--queue-depth",
            "11",
            "--corpus",
            "corpus-dir",
            "--store",
            ".ppstore",
        ]))
        .unwrap();
        assert_eq!(opts.config.addr, "0.0.0.0:9000");
        assert_eq!(opts.config.jsonl_addr.as_deref(), Some("127.0.0.1:9001"));
        assert_eq!(opts.config.workers, 3);
        assert_eq!(opts.config.queue_depth, 11);
        assert_eq!(opts.corpus_dir.as_deref().unwrap().to_str(), Some("corpus-dir"));
        assert_eq!(opts.store_dir.as_deref().unwrap().to_str(), Some(".ppstore"));
    }

    #[test]
    fn workers_sets_queue_depth_unless_overridden() {
        let opts = parse_serve_args(&args(&["--workers", "4"])).unwrap();
        assert_eq!(opts.config.queue_depth, 8);
    }

    #[test]
    fn bad_numbers_are_rejected() {
        assert!(parse_serve_args(&args(&["--workers", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--queue-depth", "lots"])).is_err());
        assert!(parse_serve_args(&args(&["--stream", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--seed", "nope"])).is_err());
    }

    #[test]
    fn detectors_flag_parses_and_rejects_unknown_ids() {
        let opts = parse_serve_args(&args(&["--detectors", "incomplete,boilerplate"])).unwrap();
        assert_eq!(
            opts.detectors.as_deref(),
            Some(&[DetectorId::Incomplete, DetectorId::Boilerplate][..])
        );
        let err = parse_serve_args(&args(&["--detectors", "nosuch"])).unwrap_err();
        assert!(err.0.contains("unknown detector"), "{err}");
        assert!(err.0.contains("boilerplate"), "listing includes registered ids: {err}");
    }

    #[test]
    fn stream_and_manifest_flags_parse() {
        let opts =
            parse_serve_args(&args(&["--stream", "5000", "--seed", "7", "--manifest", "pack.ppm"]))
                .unwrap();
        assert_eq!(opts.stream, Some(5000));
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.manifest.as_deref().unwrap().to_str(), Some("pack.ppm"));
        let defaults = parse_serve_args(&[]).unwrap();
        assert_eq!(defaults.seed, 42);
        assert!(defaults.stream.is_none() && defaults.manifest.is_none());
    }
}
