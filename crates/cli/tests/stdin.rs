//! `check -` and `simulate -` read the ELT from stdin — exercised
//! against the real binary, since the library API has no stdin hook.

use std::io::Write;
use std::process::{Command, Stdio};
use transform_core::exec::EltBuilder;
use transform_core::figures;
use transform_core::ids::Va;
use transform_core::rel::MAX_EVENTS;
use transform_litmus::format::print_elt;

fn run_with_stdin(args: &[&str], input: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_transform"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("stdin writable");
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn check_reads_the_elt_from_stdin() {
    let elt = print_elt("ptwalk2", &figures::fig10a_ptwalk2());
    let (stdout, stderr, ok) = run_with_stdin(&["check", "-"], &elt);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("forbidden"), "{stdout}");
    assert!(stdout.contains("invlpg"), "{stdout}");
}

#[test]
fn simulate_reads_the_elt_from_stdin() {
    let elt = print_elt("ptwalk2", &figures::fig10a_ptwalk2());
    let (stdout, stderr, ok) = run_with_stdin(&["simulate", "-"], &elt);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("observed ⊆ permitted"), "{stdout}");
}

#[test]
fn stdin_parse_errors_name_stdin_not_a_file() {
    let (_, stderr, ok) = run_with_stdin(&["check", "-"], "not an elt");
    assert!(!ok);
    assert!(stderr.contains("-:"), "{stderr}");
}

#[test]
fn an_elt_wider_than_a_relation_row_is_an_error_not_a_panic() {
    // A write with its dirty bit and walk, then reads of the same VA up
    // to one event more than a row holds.
    let mut b = EltBuilder::new();
    let t = b.thread();
    b.write_walk(t, Va(0));
    for _ in 3..=MAX_EVENTS {
        b.read(t, Va(0));
    }
    let x = b.build();
    assert_eq!(x.size(), MAX_EVENTS + 1);
    let elt = print_elt("wide", &x);
    for cmd in ["check", "simulate"] {
        let (stdout, stderr, ok) = run_with_stdin(&[cmd, "-"], &elt);
        assert!(!ok, "{cmd}: {stdout}");
        assert!(
            stderr.starts_with(
                "error: `wide` is not a well-formed ELT: the execution has 65 events; \
                 at most 64 are supported\n"
            ),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn a_runtime_failure_reports_its_error_without_the_usage_banner() {
    let missing =
        std::env::temp_dir().join(format!("transform-missing-{}.elt", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    let (stdout, stderr, ok) = run_with_stdin(&["check", missing], "");
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "{stderr}");
    assert!(
        lines[0].starts_with(&format!("error: cannot read `{missing}`")),
        "{stderr}"
    );
    assert_eq!(lines[1], "run `transform --help` for usage");
}
