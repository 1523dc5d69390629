//! A flag a subcommand does not take fails the run: exit 1, the error and
//! the usage on stderr, and no work done. A misspelt `--jobs` or a
//! retired `--shards` used to be ignored silently.

use std::process::{Command, Output};

fn ppchecker(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppchecker")).args(args).output().expect("run ppchecker")
}

fn assert_fails_with(args: &[&str], message: &str) {
    let out = ppchecker(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} exits 1; stderr:\n{stderr}");
    assert!(stderr.starts_with(&format!("error: {message}\n")), "{args:?}: {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?} prints the usage: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote records");
}

#[test]
fn batch_rejects_unknown_flags() {
    assert_fails_with(&["batch", "--stream", "3", "--shards", "4"], "unknown flag --shards");
    assert_fails_with(&["batch", "--stream", "3", "--jbos", "2"], "unknown flag --jbos");
    assert_fails_with(&["batch", "--stream", "3", "--out"], "--out needs a value");
    assert_fails_with(&["batch", "--stream", "3", "stray"], "unexpected argument \"stray\"");
}

#[test]
fn batch_accepts_its_own_flags() {
    let out = ppchecker(&["batch", "--stream", "3", "--seed", "42", "--jobs", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 4, "3 records + aggregate");
}

#[test]
fn check_rejects_unknown_flags() {
    assert_fails_with(
        &["check", "--policy", "p.html", "--format", "json"],
        "unknown flag --format",
    );
    assert_fails_with(&["check", "--jsno"], "unknown flag --jsno");
}

#[test]
fn serve_rejects_unknown_flags_before_binding() {
    assert_fails_with(
        &["serve", "--addr", "127.0.0.1:0", "--wrokers", "2"],
        "unknown flag --wrokers",
    );
}

#[test]
fn pack_and_demo_reject_unknown_flags() {
    assert_fails_with(&["pack", "in.txt", "out.pkdx", "--kye", "7"], "unknown flag --kye");
    assert_fails_with(&["demo", "--verbose"], "unknown flag --verbose");
}
