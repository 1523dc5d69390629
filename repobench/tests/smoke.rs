//! The benchmark's own tests: every workload at smoke size, and argument
//! errors. Run with `cargo test --release --manifest-path repobench/Cargo.toml`.

use std::process::Command;

fn repobench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repobench")).args(args).output().expect("benchmark runs")
}

/// The last stdout line, which must be the result object.
fn result(output: &std::process::Output) -> ppchecker_serve::json::Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    ppchecker_serve::json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for trace in ["0", "1"] {
        let output = repobench(&["--workload", "all", "--size", "smoke", "--trace", trace]);
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let doc = result(&output);
        assert!(matches!(doc.get("correct"), Some(ppchecker_serve::json::Value::Bool(true))));
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        assert!(doc.get("attempted").and_then(|v| v.as_f64()).is_some_and(|n| n >= 1.0));
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "1"], &["--workload"]] {
        let output = repobench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
