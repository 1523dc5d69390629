//! The `ppchecker` binary. See [`ppchecker_cli`] for the command surface.

use ppchecker_cli::{
    parse_detectors, parse_serve_args, run_batch_to, run_check, run_demo, run_pack, run_policy,
    run_serve, run_trace_check, run_unpack, BatchOptions, BatchSource, CheckOptions, CliError,
};
use ppchecker_engine::available_jobs;
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
                  [--seed N] [--shards N] [--jobs N] [--out results.jsonl] \\
                  [--trace trace.json] [--store <dir>] [--detectors IDS]
  ppchecker trace-check <trace.json>
  ppchecker policy <policy.html>
  ppchecker pack <dex.txt> <out.pkdx> [--key N]
  ppchecker unpack <in.pkdx> <out.txt>
  ppchecker demo
  ppchecker serve [--addr HOST:PORT] [--jsonl-addr HOST:PORT] [--workers N] \\
                  [--queue-depth N] [--max-body-bytes N] [--corpus <dir>] \\
                  [--store <dir>] [--detectors IDS]

  --detectors takes a comma-separated detector selection, e.g.
  incomplete,incorrect,inconsistent,data-safety,purpose,boilerplate.

  serve --workers N bounds the checks that run at once across every
  connection (default: the core count); --queue-depth N more may wait
  (default 2 x workers) before HTTP answers 429 and JSONL blocks.
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
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("batch") => batch(&args[1..]),
        Some("trace-check") => {
            let path = args.get(1).ok_or_else(|| CliError("missing trace file".into()))?;
            run_trace_check(&fs::read_to_string(path)?)
        }
        Some("policy") => {
            let path = args.get(1).ok_or_else(|| CliError("missing policy file".into()))?;
            Ok(run_policy(&fs::read_to_string(path)?))
        }
        Some("pack") => {
            let input = args.get(1).ok_or_else(|| CliError("missing input".into()))?;
            let output = args.get(2).ok_or_else(|| CliError("missing output".into()))?;
            let key = flag_value(args, "--key")
                .map(|v| v.parse::<u8>().map_err(|_| CliError("bad --key".into())))
                .transpose()?
                .unwrap_or(0xA5);
            let blob = run_pack(&fs::read_to_string(input)?, key)?;
            fs::write(output, blob)?;
            Ok(format!("packed into {output}\n"))
        }
        Some("unpack") => {
            let input = args.get(1).ok_or_else(|| CliError("missing input".into()))?;
            let output = args.get(2).ok_or_else(|| CliError("missing output".into()))?;
            let text = run_unpack(&fs::read(input)?)?;
            fs::write(output, text)?;
            Ok(format!("unpacked into {output}\n"))
        }
        Some("demo") => run_demo(),
        Some("serve") => run_serve(parse_serve_args(&args[1..])?),
        _ => Err(CliError("missing or unknown subcommand".into())),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn batch(args: &[String]) -> Result<String, CliError> {
    let positive = |flag: &str| -> Result<Option<usize>, CliError> {
        flag_value(args, flag)
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError(format!("{flag} needs a positive integer")))
            })
            .transpose()
    };

    let corpus = flag_value(args, "--corpus");
    let stream = positive("--stream")?;
    let manifest = flag_value(args, "--manifest");
    let source = match (corpus, stream, manifest) {
        (Some(dir), None, None) => BatchSource::CorpusDir(dir.into()),
        (None, Some(n), None) => BatchSource::Stream {
            n,
            seed: flag_value(args, "--seed")
                .map(|v| v.parse::<u64>().map_err(|_| CliError("bad --seed".into())))
                .transpose()?
                .unwrap_or(42),
            shards: positive("--shards")?.unwrap_or_else(available_jobs),
        },
        (None, None, Some(path)) => BatchSource::Manifest(path.into()),
        _ => {
            return Err(CliError(
                "need exactly one of --corpus <dir>, --stream N, --manifest <file>".into(),
            ))
        }
    };

    let mut opts = BatchOptions { source, ..BatchOptions::default() };
    if let Some(jobs) = positive("--jobs")? {
        opts.jobs = jobs;
    }
    if let Some(path) = flag_value(args, "--trace") {
        opts.trace = Some(path.into());
    }
    if let Some(dir) = flag_value(args, "--store") {
        opts.store = Some(dir.into());
    }
    if let Some(ids) = flag_value(args, "--detectors") {
        opts.detectors = Some(parse_detectors(ids)?);
    }

    // The record stream is deterministic (stdout or --out stays
    // byte-stable across runs and job counts); the timing summary goes
    // to stderr. Records are written as they complete, so even a
    // million-app stream never buffers more than the in-flight window.
    let metrics = match flag_value(args, "--out") {
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
    let need = |flag: &str| -> Result<String, CliError> {
        let path = flag_value(args, flag)
            .ok_or_else(|| CliError(format!("missing required {flag} <file>")))?;
        Ok(fs::read_to_string(path)?)
    };
    let mut opts = CheckOptions {
        policy_html: need("--policy")?,
        description: need("--description")?,
        manifest_text: need("--manifest")?,
        dex_text: need("--dex")?,
        suggest: args.iter().any(|a| a == "--suggest"),
        synonyms: args.iter().any(|a| a == "--synonyms"),
        constraints: args.iter().any(|a| a == "--constraints"),
        json: args.iter().any(|a| a == "--json"),
        ..CheckOptions::default()
    };
    if let Some(ids) = flag_value(args, "--detectors") {
        opts.detectors = Some(parse_detectors(ids)?);
    }
    for (i, a) in args.iter().enumerate() {
        if a == "--lib-policy" {
            let spec =
                args.get(i + 1).ok_or_else(|| CliError("--lib-policy needs ID=file".into()))?;
            let (id, path) = spec
                .split_once('=')
                .ok_or_else(|| CliError("--lib-policy needs ID=file".into()))?;
            opts.lib_policies.push((id.to_string(), fs::read_to_string(path)?));
        }
    }
    run_check(&opts)
}
