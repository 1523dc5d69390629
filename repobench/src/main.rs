//! The repository benchmark: four workloads driven through the program's
//! public API, each in a fresh process, with output checks, end-to-end
//! metrics, and a traced run that reports per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path repobench/Cargo.toml -- \
//!     --workload <batch-cold|serve-open|store-reaudit|hostile-policy|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. `--workload all` runs every workload in
//! a child process of its own and prints one combined line. See README.md
//! in this directory for the workloads, metrics and measured spread.

mod batch;
mod hostile;
mod serve;
mod store;
mod trace;
mod util;

use std::process::{Command, ExitCode};
use util::{Settings, Size};

const WORKLOADS: &[&str] = &["batch-cold", "serve-open", "store-reaudit", "hostile-policy"];

const USAGE: &str = "usage: repobench --workload <batch-cold|serve-open|store-reaudit|\
hostile-policy|all> [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]";

fn parse(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: 42,
        seconds: 10,
        trace: false,
        size: Size::Full,
        setup_probe: false,
        jobs: ppchecker_engine::available_jobs(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => settings.seed = number()?,
            "--seconds" => settings.seconds = number()?.clamp(1, 60),
            "--trace" => settings.trace = number()? != 0,
            "--setup-probe" => settings.setup_probe = number()? != 0,
            "--size" => {
                settings.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size: expected full or smoke, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, settings))
}

/// Runs every workload in a child process and folds their result lines
/// into one: attempted and failed add up, metric names gain the workload
/// as a prefix.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            if flag != "--workload" {
                child_args.extend([flag.clone(), value]);
            }
        }
        child_args.extend(["--workload".to_string(), workload.to_string()]);
        let output = match Command::new(&exe).args(&child_args).output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("repobench: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(doc) = ppchecker_serve::json::parse(last) else {
            eprintln!("repobench: {workload} printed no result");
            return ExitCode::FAILURE;
        };
        let num = |key: &str| doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        correct &= matches!(doc.get("correct"), Some(ppchecker_serve::json::Value::Bool(true)));
        attempted += num("attempted");
        failed += num("failed");
        if let Some(ppchecker_serve::json::Value::Obj(entries)) = doc.get("metrics") {
            for (name, metric) in entries {
                let value = metric.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let unit = metric.get("unit").and_then(|v| v.as_str()).unwrap_or("");
                metrics.push(format!(
                    "\"{workload}.{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                ));
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("repobench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    if settings.setup_probe {
        let secs = match workload.as_str() {
            "batch-cold" | "hostile-policy" => batch::setup_probe(&settings),
            "serve-open" => serve::setup_probe(&settings),
            _ => {
                eprintln!("repobench: {workload} times its set-up in process");
                return ExitCode::from(2);
            }
        };
        println!("setup_probe_s {secs}");
        return ExitCode::SUCCESS;
    }
    println!(
        "{workload}: seed {} seconds {} size {:?} trace {} jobs {}",
        settings.seed, settings.seconds, settings.size, settings.trace, settings.jobs
    );
    let outcome = match workload.as_str() {
        "batch-cold" => batch::run(&settings),
        "serve-open" => serve::run(&settings),
        "store-reaudit" => store::run(&settings),
        "hostile-policy" => hostile::run(&settings),
        _ => unreachable!("workload names are validated in parse"),
    };
    outcome.print(&workload, settings.trace);
    ExitCode::SUCCESS
}
