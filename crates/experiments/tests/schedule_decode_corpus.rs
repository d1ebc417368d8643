//! `schedule -` on the request-decoding corpus (byte flips, truncations,
//! missing and mistyped fields, bad edges): every document must end in a
//! report (exit 0) or a named rejection (exit 2), never in a panic.

use std::io::Write;
use std::process::{Command, Stdio};

#[path = "../../../tests/support/decode_corpus.rs"]
mod decode_corpus;

#[test]
fn schedule_stdin_exits_0_or_2_on_every_corpus_document() {
    let (mut solved, mut rejected) = (0, 0);
    for case in decode_corpus::corpus() {
        let mut child = Command::new(env!("CARGO_BIN_EXE_schedule"))
            .args(["-", "--compact"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn schedule");
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(case.text.as_bytes()).unwrap();
        drop(stdin);
        let output = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        match output.status.code() {
            Some(0) => solved += 1,
            Some(2) => {
                assert!(stderr.starts_with("schedule: "), "{}: {stderr}", case.label);
                rejected += 1;
            }
            code => panic!("{}: exit {code:?}: {stderr}", case.label),
        }
    }
    assert!(
        solved > 50 && rejected > 200,
        "{solved} solved, {rejected} rejected"
    );
}
