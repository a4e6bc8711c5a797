//! `rtec-cli run` over background facts whose first argument is a
//! number: a body literal whose first argument is bound to `1` must find
//! the fact `limit(1.0, high)` (and `2.0` the fact `limit(2, high)`), as
//! matching unifies numbers by value. A first-argument lookup keyed by
//! the exact term missed both, and no `alarm` interval was recognised.

use std::path::PathBuf;
use std::process::Command;

const DESCRIPTION: &str = "limit(1.0, high).
limit(2, high).
initiatedAt(alarm(S)=true, T) :-
    happensAt(reading(S, L), T),
    limit(L, high).
";

const EVENTS: &str = "10 reading(s1, 1)
20 reading(s2, 2.0)
30 reading(s3, 3)
";

fn write_temp(tag: &str, src: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("rtec-numeric-facts-{}-{tag}", std::process::id()));
    std::fs::write(&path, src).expect("temp file written");
    path
}

#[test]
fn numeric_first_arguments_match_facts_by_value() {
    let desc = write_temp("desc.rtec", DESCRIPTION);
    let events = write_temp("events.evt", EVENTS);
    let out = Command::new(env!("CARGO_BIN_EXE_rtec-cli"))
        .arg("run")
        .arg(&desc)
        .arg(&events)
        .env("RTEC_LOG", "off")
        .output()
        .expect("rtec-cli runs");
    let _ = std::fs::remove_file(&desc);
    let _ = std::fs::remove_file(&events);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for row in [
        "holdsFor(alarm(s1)=true) = [[11, 32)]",
        "holdsFor(alarm(s2)=true) = [[21, 32)]",
    ] {
        assert!(stdout.contains(row), "missing `{row}` in:\n{stdout}");
    }
    assert!(!stdout.contains("alarm(s3)"), "{stdout}");
}
