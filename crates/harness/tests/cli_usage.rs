//! Malformed command lines are usage errors: `samie-exp` prints one
//! diagnostic line naming the offending flag and exits 2 (the code
//! `docs/REPRODUCING.md` documents), never a panic backtrace.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_samie-exp");

/// Run `samie-exp` with `args`; assert exit 2 and exactly one stderr
/// line that mentions `flag`.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn samie-exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr:\n{stderr}"
    );
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "{args:?}: want one stderr line, got:\n{stderr}"
    );
    assert!(
        lines[0].starts_with("samie-exp: ") && lines[0].contains(flag),
        "{args:?}: the line must name `{flag}`: {}",
        lines[0]
    );
}

#[test]
fn non_numeric_value_is_a_usage_error() {
    assert_usage_error(&["sweep", "--jobs", "x"], "--jobs");
}

#[test]
fn out_of_range_shard_is_a_usage_error() {
    assert_usage_error(&["sweep", "--shard", "3/2"], "--shard");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["sweep", "--bogus"], "--bogus");
}

#[test]
fn flag_without_its_value_is_a_usage_error() {
    assert_usage_error(&["sweep", "--jobs"], "--jobs");
    assert_usage_error(&["sweep", "--out", "--quick"], "--out");
}

#[test]
fn bad_design_or_workload_is_a_usage_error_not_a_panic() {
    assert_usage_error(&["record", "--designs", "bogus"], "--designs");
    assert_usage_error(&["record", "--bench", "nosuch"], "--bench");
    assert_usage_error(
        &["rv", "run", "rv:sieve", "--designs", "bogus"],
        "--designs",
    );
}
