//! `samie-exp` writing into a closed pipe (`samie-exp ... | head`) ends
//! quietly: no panic, no backtrace, and the command's own exit code.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_samie-exp");

#[test]
fn closing_the_pipe_after_one_line_is_quiet() {
    let mut child = Command::new(EXE)
        .arg("designs")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn samie-exp");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader is dropped here: the pipe closes after one line.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("registered design kinds"), "{first}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(out.status.success(), "{out:?}");
}

/// The same with the read end closed before the command starts, so its
/// very first write meets the closed pipe, however fast it prints.
#[test]
fn a_pipe_closed_before_the_first_write_is_quiet() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(EXE)
        .arg("designs")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run samie-exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "stderr:\n{stderr}");
    assert!(out.status.success(), "{out:?}");
}
