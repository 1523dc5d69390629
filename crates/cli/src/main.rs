//! The `ppchecker` binary. See [`ppchecker_cli`] for the command surface.

use ppchecker_cli::{
    parse_detectors, parse_serve_args, run_batch_to, run_check, run_demo, run_pack, run_policy,
    run_serve, run_trace_check, run_unpack, BatchOptions, BatchSource, CheckOptions, CliError,
    Flags,
};
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::process::ExitCode;

const USAGE: &str = "\
ppchecker — is this privacy policy trustworthy?

USAGE:
  ppchecker check --policy <policy.html> --description <desc.txt> \\
                  --manifest <manifest.txt> --dex <app.dex> \\
                  [--lib-policy ID=policy.html]... [--suggest] \\
                  [--synonyms] [--constraints] [--json] [--detectors IDS]
  ppchecker batch (--corpus <dir> | --stream N | --manifest <file>) \\
                  [--seed N] [--jobs N] [--out results.jsonl] \\
                  [--trace trace.json] [--store <dir>] [--detectors IDS]
  ppchecker trace-check <trace.json>
  ppchecker policy <policy.html>
  ppchecker pack <dex.txt> <out.pkdx> [--key N]
  ppchecker unpack <in.pkdx> <out.txt>
  ppchecker demo
  ppchecker serve [--addr HOST:PORT] [--jsonl-addr HOST:PORT] [--workers N] \\
                  [--queue-depth N] [--max-body-bytes N] [--corpus <dir>] \\
                  [--stream N] [--seed N] [--manifest <file>] \\
                  [--store <dir>] [--detectors IDS]

  --detectors takes a comma-separated detector selection, e.g.
  incomplete,incorrect,inconsistent,data-safety,purpose,boilerplate.

  serve --workers N bounds the checks that run at once across every
  connection (default: the core count); --queue-depth N more may wait
  (default 2 x workers) before HTTP answers 429 and JSONL blocks.
  serve --stream N (or --manifest <file>) analyzes the first N
  generated apps at --seed N (or the manifest's apps) before serving.

  Each subcommand takes only the flags shown; any other flag fails.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let rest = args.get(1..).unwrap_or_default();
    let bare = |count: usize| Flags::parse(rest, &[], &[], count);
    match args.first().map(String::as_str) {
        Some("check") => check(rest),
        Some("batch") => batch(rest),
        Some("trace-check") => {
            let path =
                bare(1)?.positional(0).ok_or_else(|| CliError("missing trace file".into()))?;
            run_trace_check(&fs::read_to_string(path)?)
        }
        Some("policy") => {
            let path =
                bare(1)?.positional(0).ok_or_else(|| CliError("missing policy file".into()))?;
            Ok(run_policy(&fs::read_to_string(path)?))
        }
        Some("pack") => {
            let flags = Flags::parse(rest, &["--key"], &[], 2)?;
            let input = flags.positional(0).ok_or_else(|| CliError("missing input".into()))?;
            let output = flags.positional(1).ok_or_else(|| CliError("missing output".into()))?;
            let key = flags
                .value("--key")
                .map(|v| v.parse::<u8>().map_err(|_| CliError("bad --key".into())))
                .transpose()?
                .unwrap_or(0xA5);
            let blob = run_pack(&fs::read_to_string(input)?, key)?;
            fs::write(output, blob)?;
            Ok(format!("packed into {output}\n"))
        }
        Some("unpack") => {
            let flags = bare(2)?;
            let input = flags.positional(0).ok_or_else(|| CliError("missing input".into()))?;
            let output = flags.positional(1).ok_or_else(|| CliError("missing output".into()))?;
            let text = run_unpack(&fs::read(input)?)?;
            fs::write(output, text)?;
            Ok(format!("unpacked into {output}\n"))
        }
        Some("demo") => {
            bare(0)?;
            run_demo()
        }
        Some("serve") => run_serve(parse_serve_args(rest)?),
        _ => Err(CliError("missing or unknown subcommand".into())),
    }
}

fn batch(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        args,
        &[
            "--corpus",
            "--stream",
            "--manifest",
            "--seed",
            "--jobs",
            "--out",
            "--trace",
            "--store",
            "--detectors",
        ],
        &[],
        0,
    )?;
    let corpus = flags.value("--corpus");
    let stream = flags.positive("--stream")?;
    let manifest = flags.value("--manifest");
    let source = match (corpus, stream, manifest) {
        (Some(dir), None, None) => BatchSource::CorpusDir(dir.into()),
        (None, Some(n), None) => BatchSource::Stream {
            n,
            seed: flags
                .value("--seed")
                .map(|v| v.parse::<u64>().map_err(|_| CliError("bad --seed".into())))
                .transpose()?
                .unwrap_or(42),
        },
        (None, None, Some(path)) => BatchSource::Manifest(path.into()),
        _ => {
            return Err(CliError(
                "need exactly one of --corpus <dir>, --stream N, --manifest <file>".into(),
            ))
        }
    };

    let mut opts = BatchOptions { source, ..BatchOptions::default() };
    if let Some(jobs) = flags.positive("--jobs")? {
        opts.jobs = jobs;
    }
    opts.trace = flags.value("--trace").map(Into::into);
    opts.store = flags.value("--store").map(Into::into);
    if let Some(ids) = flags.value("--detectors") {
        opts.detectors = Some(parse_detectors(ids)?);
    }

    // The record stream is deterministic (stdout or --out stays
    // byte-stable across runs and job counts); the timing summary goes
    // to stderr. Records are written as they complete, so even a
    // million-app stream never buffers more than the in-flight window.
    let metrics = match flags.value("--out") {
        Some(path) => {
            let file =
                fs::File::create(path).map_err(|e| CliError(format!("--out {path}: {e}")))?;
            let mut out = BufWriter::new(file);
            let metrics = run_batch_to(&opts, &mut out)?;
            out.flush().map_err(|e| CliError(format!("--out {path}: {e}")))?;
            eprint!("{metrics}");
            return Ok(format!("wrote results to {path}\n"));
        }
        None => {
            let mut out = BufWriter::new(io::stdout());
            let metrics = run_batch_to(&opts, &mut out)?;
            out.flush().map_err(|e| CliError(format!("stdout: {e}")))?;
            metrics
        }
    };
    eprint!("{metrics}");
    Ok(String::new())
}

fn check(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        args,
        &["--policy", "--description", "--manifest", "--dex", "--lib-policy", "--detectors"],
        &["--suggest", "--synonyms", "--constraints", "--json"],
        0,
    )?;
    let need = |flag: &str| -> Result<String, CliError> {
        let path =
            flags.value(flag).ok_or_else(|| CliError(format!("missing required {flag} <file>")))?;
        Ok(fs::read_to_string(path)?)
    };
    let mut opts = CheckOptions {
        policy_html: need("--policy")?,
        description: need("--description")?,
        manifest_text: need("--manifest")?,
        dex_text: need("--dex")?,
        suggest: flags.has("--suggest"),
        synonyms: flags.has("--synonyms"),
        constraints: flags.has("--constraints"),
        json: flags.has("--json"),
        ..CheckOptions::default()
    };
    if let Some(ids) = flags.value("--detectors") {
        opts.detectors = Some(parse_detectors(ids)?);
    }
    for spec in flags.values("--lib-policy") {
        let (id, path) =
            spec.split_once('=').ok_or_else(|| CliError("--lib-policy needs ID=file".into()))?;
        opts.lib_policies.push((id.to_string(), fs::read_to_string(path)?));
    }
    run_check(&opts)
}
