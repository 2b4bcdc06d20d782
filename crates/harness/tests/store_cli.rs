//! `samie-exp store` reads the entry files themselves: a corrupt entry
//! is named and fails the command until `--gc` removes it, and
//! inspecting a store that does not exist neither succeeds nor creates
//! it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_samie-exp");

/// A fresh scratch path (removed first if a previous run left it).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samie-store-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn samie_exp(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn samie-exp")
}

fn store_cmd(store: &Path, extra: &[&str]) -> Output {
    let store = store.display().to_string();
    let mut args = vec!["store", "--store", &store];
    args.extend_from_slice(extra);
    samie_exp(&args)
}

#[test]
fn a_corrupt_entry_fails_store_until_gc_removes_it() {
    let store = scratch("corrupt");
    let out = scratch("corrupt-out");
    let sweep = samie_exp(&[
        "sweep",
        "--designs",
        "conv:32,samie",
        "--bench",
        "gzip,swim",
        "--instrs",
        "2000",
        "--warmup",
        "500",
        "--jobs",
        "2",
        "--store",
        &store.display().to_string(),
        "--out",
        &out.display().to_string(),
    ]);
    assert!(sweep.status.success(), "sweep failed: {sweep:?}");
    let clean = store_cmd(&store, &[]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    assert!(String::from_utf8_lossy(&clean.stdout).contains(": 4 entries"));

    let mut entries: Vec<PathBuf> = std::fs::read_dir(store.join("entries"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 4, "{entries:?}");
    let victim = &entries[0];
    std::fs::write(victim, "garbage").unwrap();

    let broken = store_cmd(&store, &[]);
    let stderr = String::from_utf8_lossy(&broken.stderr);
    assert_eq!(broken.status.code(), Some(1), "stderr:\n{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "want one stderr line, got:\n{stderr}");
    let name = victim.file_name().unwrap().to_str().unwrap();
    assert!(
        lines[0].contains(name) && lines[0].contains("--gc"),
        "the line must name {name} and point at --gc: {}",
        lines[0]
    );

    let gc = store_cmd(&store, &["--gc"]);
    assert_eq!(gc.status.code(), Some(0), "{gc:?}");
    assert!(!victim.exists(), "gc removes the corrupt entry");
    let healed = store_cmd(&store, &[]);
    assert_eq!(healed.status.code(), Some(0), "{healed:?}");
    let listing = String::from_utf8_lossy(&healed.stdout);
    assert!(listing.contains(": 3 entries"), "{listing}");
    assert!(listing.contains(": 3 points"), "{listing}");
    std::fs::remove_dir_all(&store).unwrap();
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn inspecting_a_missing_store_fails_and_creates_nothing() {
    let missing = scratch("missing");
    for extra in [&[][..], &["--dump"], &["--gc"]] {
        let out = store_cmd(&missing, extra);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {out:?}");
        assert!(!missing.exists(), "{extra:?} created {}", missing.display());
    }
}

#[test]
fn dump_with_gc_is_refused_and_collects_nothing() {
    let missing = scratch("dump-gc-missing");
    let out = store_cmd(&missing, &["--dump", "--gc"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!missing.exists(), "created {}", missing.display());

    let store = scratch("dump-gc");
    let sweep_out = scratch("dump-gc-out");
    let sweep = samie_exp(&[
        "sweep",
        "--designs",
        "conv:32",
        "--bench",
        "gzip",
        "--instrs",
        "2000",
        "--warmup",
        "500",
        "--store",
        &store.display().to_string(),
        "--out",
        &sweep_out.display().to_string(),
    ]);
    assert!(sweep.status.success(), "sweep failed: {sweep:?}");
    let victim = std::fs::read_dir(store.join("entries"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    std::fs::write(&victim, "garbage").unwrap();

    for flags in [["--dump", "--gc"], ["--gc", "--dump"]] {
        let out = store_cmd(&store, &flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a dump: {out:?}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "want one stderr line, got:\n{stderr}");
        assert!(lines[0].contains("--gc") && lines[0].contains("--dump"));
        assert!(victim.exists(), "{flags:?} collected the corrupt entry");
    }
    std::fs::remove_dir_all(&store).unwrap();
    let _ = std::fs::remove_dir_all(&sweep_out);
}
