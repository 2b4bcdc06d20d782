//! Malformed command lines are usage errors: `samie-exp` prints one
//! diagnostic line naming the offending flag and exits 2 (the code
//! `docs/REPRODUCING.md` documents), never a panic backtrace. An output
//! path that cannot be written is a runtime error: one line naming it,
//! and exit 1.

use std::path::Path;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_samie-exp");

fn samie_exp(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn samie-exp")
}

/// Run `samie-exp` with `args`; assert exit 2 and exactly one stderr
/// line that mentions `flag`, and return that line.
fn assert_usage_error(args: &[&str], flag: &str) -> String {
    let out = samie_exp(args);
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
    lines[0].to_string()
}

#[test]
fn non_numeric_value_is_a_usage_error() {
    assert_usage_error(&["sweep", "--jobs", "x"], "--jobs");
}

#[test]
fn a_missing_or_unknown_command_is_a_usage_error() {
    assert_usage_error(&[], "usage: samie-exp <");
    assert_usage_error(&["fig5"], "unknown command `fig5`");
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

#[test]
fn bad_grid_values_name_their_flag() {
    assert_usage_error(&["sweep", "--seeds", "1,x"], "--seeds");
    assert_usage_error(&["sweep", "--instrs", "0"], "--instrs");
    assert_usage_error(&["report", "--instrs", "0"], "--instrs");
    assert_usage_error(&["sweep", "--bench", "gziip"], "--bench");
    assert_usage_error(&["sweep", "--designs", "conv:0"], "--designs");
    assert_usage_error(&["sweep", "--designs", ","], "--designs");
    assert_usage_error(&["bench", "--bench", ","], "--bench");
}

#[test]
fn bad_cfg_overrides_are_usage_errors() {
    for (bad, why) in [
        ("rob", "expected key:value"),
        ("zz:4", "unknown key `zz`"),
        ("rob:1,rob:2", "duplicate key `rob`"),
        ("rob:zz", "needs a number"),
        ("ports:5000000000", "exceeds the field's range"),
        ("rob:0", "invalid configuration"),
    ] {
        let line = assert_usage_error(&["sweep", "--cfg", bad], "--cfg");
        assert!(line.contains(why), "`--cfg {bad}` must say `{why}`: {line}");
    }
}

/// An `--out` directory below a regular file, which no command can
/// create.
fn unwritable_out(name: &str) -> String {
    let file = std::env::temp_dir().join(format!("samie-cli-usage-{name}-{}", std::process::id()));
    std::fs::write(&file, "a regular file").unwrap();
    file.join("out").display().to_string()
}

/// Run `command` on a one-point grid with `--out out_dir`; assert exit
/// 1, no panic, and a last stderr line naming `out_dir`. Returns the
/// number of stderr lines.
fn assert_write_failure(command: &str, out_dir: &str) -> usize {
    let one_point = ["--designs", "conv:32", "--bench", "gzip"];
    let short = ["--instrs", "2000", "--warmup", "500", "--no-cache"];
    let out = samie_exp(&[&[command][..], &one_point, &short, &["--out", out_dir]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{command}: stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{command}: stderr:\n{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.contains(out_dir),
        "{command}: the line must name {out_dir}: {last}"
    );
    stderr.lines().count()
}

#[test]
fn record_into_an_unwritable_out_fails_with_one_line() {
    let out_dir = unwritable_out("record");
    assert_eq!(assert_write_failure("record", &out_dir), 1);
    std::fs::remove_file(Path::new(&out_dir).parent().unwrap()).unwrap();
}

#[test]
fn sweep_and_bench_into_an_unwritable_out_fail() {
    let out_dir = unwritable_out("sweep");
    for mode in ["sweep", "bench"] {
        // The grid's progress line, then the one failure line.
        assert_eq!(assert_write_failure(mode, &out_dir), 2);
    }
    std::fs::remove_file(Path::new(&out_dir).parent().unwrap()).unwrap();
}

#[test]
fn report_into_an_unwritable_out_fails_before_simulating() {
    let out_dir = unwritable_out("report");
    let store = std::env::temp_dir().join(format!(
        "samie-cli-usage-report-store-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&store).unwrap();
    let store_arg = store.display().to_string();
    let out = samie_exp(&[
        "report", "--instrs", "1000", "--warmup", "100", "--store", &store_arg, "--out", &out_dir,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.contains(&out_dir),
        "the line must name {out_dir}: {last}"
    );
    let entries = std::fs::read_dir(&store).unwrap().count();
    assert_eq!(
        entries, 0,
        "no point may be simulated before --out is checked"
    );
    std::fs::remove_dir_all(&store).unwrap();
    std::fs::remove_file(Path::new(&out_dir).parent().unwrap()).unwrap();
}
