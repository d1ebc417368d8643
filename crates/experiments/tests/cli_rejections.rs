//! Flags that have no effect on a binary, and settings that do not parse,
//! are refused with exit status 2 and a message naming the flag or the
//! variable, never accepted and silently ignored.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .expect("spawn the binary")
}

fn assert_rejected(output: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(flag),
        "stderr does not name {flag}: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no output before the rejection");
}

/// `minmem` bisects one solve at a time and every solve is sequential, so
/// a thread count would change nothing.
#[test]
fn minmem_rejects_threads() {
    let output = run(env!("CARGO_BIN_EXE_minmem"), &["--threads", "2"]);
    assert_rejected(&output, "--threads");
}

/// `replay` has no `--threads` flag: a replay is one sequential solve.
#[test]
fn replay_rejects_threads() {
    let output = run(env!("CARGO_BIN_EXE_replay"), &["--threads", "2"]);
    assert_rejected(&output, "--threads");
}

/// A `MALS_THREADS` that is not a thread count is refused by every binary
/// that reads it, as `--threads two` is, instead of falling back to all
/// cores. Only the child's environment is set.
#[test]
fn figure_binaries_reject_an_invalid_mals_threads() {
    for binary in [
        env!("CARGO_BIN_EXE_fig10"),
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_fig12"),
        env!("CARGO_BIN_EXE_fig13"),
        env!("CARGO_BIN_EXE_fig14"),
        env!("CARGO_BIN_EXE_fig15"),
    ] {
        let output = Command::new(binary)
            .env("MALS_THREADS", "two")
            .output()
            .expect("spawn the binary");
        assert_rejected(&output, "MALS_THREADS");
    }
}
