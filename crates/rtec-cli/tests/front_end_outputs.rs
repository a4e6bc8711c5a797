//! Pins the exact bytes `rtec-cli check`, `check --format json` and
//! `analyze` print for the gold maritime description (with and without
//! its input declarations), and the exact failure text of `check` on a
//! description with a dependency cycle and on one with a syntax error.
//! The expected output lives in `fixtures/front_end_outputs.txt`, one
//! `=== <case> (exit <code>)` header per case followed by its stdout.

use std::path::PathBuf;
use std::process::Command;

const GOLDEN: &str = include_str!("fixtures/front_end_outputs.txt");

const CYCLE: &str = "inputEvent(e/1).
holdsFor(a(V)=true, I) :- holdsFor(b(V)=true, I1), union_all([I1], I).
holdsFor(b(V)=true, I) :- holdsFor(a(V)=true, I1), union_all([I1], I).
initiatedAt(c(V)=true, T) :- happensAt(e(V), T).";

const SYNTAX: &str = "initiatedAt(c(V)=true, T) :- happensAt(e(V), T).
terminatedAt(c(V)=true, T) :- happensAt(f(V) T).
initiatedAt(d(V)=true, T) :- happensAt(e(V), T), holdsAt(c(V)=true, T).";

fn write_temp(tag: &str, src: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("rtec-front-end-{}-{tag}.rtec", std::process::id()));
    std::fs::write(&path, src).expect("temp description written");
    path
}

/// Runs `rtec-cli <command> <path> <flags>` and renders
/// `=== <case> (exit <code>)` plus stdout.
fn case(name: &str, command: &str, path: &PathBuf, flags: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rtec-cli"))
        .arg(command)
        .arg(path)
        .args(flags)
        .env("RTEC_LOG", "off")
        .output()
        .expect("rtec-cli runs");
    format!(
        "=== {name} (exit {})\n{}",
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    )
}

/// Renders `=== <case> (exit <code>)` plus the `check` library result.
fn check_case(name: &str, src: &str) -> String {
    match rtec_cli::check_source(src, false) {
        Ok(text) => format!("=== {name} (exit 0)\n{text}"),
        Err(e) => format!("=== {name} (exit {})\n{}\n", e.code, e.message),
    }
}

fn rendered() -> String {
    let gold = maritime::gold::GOLD_RULES;
    let declared = format!("{gold}\n{}", maritime::gold::input_declarations());
    let mut out = String::new();
    for (tag, src) in [("gold+declarations", declared.as_str()), ("gold", gold)] {
        let path = write_temp(tag, src);
        out.push_str(&case(&format!("check {tag}"), "check", &path, &[]));
        out.push_str(&case(
            &format!("check --format json {tag}"),
            "check",
            &path,
            &["--format", "json"],
        ));
        out.push_str(&case(&format!("analyze {tag}"), "analyze", &path, &[]));
        let _ = std::fs::remove_file(&path);
    }
    out.push_str(&check_case("check cycle", CYCLE));
    out.push_str(&check_case("check syntax", SYNTAX));
    out
}

#[test]
fn check_and_analyze_outputs_match_the_golden_fixture() {
    let actual = rendered();
    for (i, (a, e)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(a, e, "first difference at fixture line {}", i + 1);
    }
    assert_eq!(actual, GOLDEN);
}
