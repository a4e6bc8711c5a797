//! Cold-recovery tests for the per-session write-ahead journal.
//!
//! Each test runs a scripted workload against a `Registry` with
//! durable dirs, simulates a crash by dropping the registry without
//! closing the session (no `close`, no `shutdown` — exactly what a
//! SIGKILL leaves behind on disk), then restores into a fresh registry
//! and compares the recognised output against an uninterrupted oracle
//! run of the same feed. The invariant throughout: every *acked*
//! ingest survives, and the restored session's query output and
//! dead-letter accounting are byte-identical to the fault-free run.
//!
//! Corruption cases (truncated tail, bit-flipped frame, duplicated
//! tail) exercise the scan-side recovery rule: fall back to the newest
//! consistent prefix, physically truncate the rest, and never replay a
//! sequence number twice.

use rtec_service::journal::{journal_path, FsyncPolicy};
use rtec_service::Registry;
use serde_json::Value;
use std::path::{Path, PathBuf};

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

const TICK_EVERY: i64 = 50;

fn temp_dirs(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("rtec-jrec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    (base.join("checkpoints"), base.join("journal"))
}

fn registry(cp: &Path, jnl: &Path) -> Registry {
    Registry::with_options(Some(cp.to_path_buf()), None)
        .with_journal(Some(jnl.to_path_buf()), FsyncPolicy::Never)
}

fn dispatch_ok(registry: &Registry, line: &str) -> Value {
    let raw = registry.dispatch(line);
    let v: Value = serde_json::from_str(&raw).expect("reply parses");
    assert_eq!(v["ok"], true, "dispatch {line} -> {raw}");
    v
}

fn open_line(session: &str) -> String {
    format!(
        "{{\"cmd\":\"open\",\"session\":\"{session}\",\"description\":{},\"shards\":2,\"window\":{TICK_EVERY},\"dedup\":true,\"reorder_slack\":0}}",
        serde_json::to_string(&Value::from(DESC)).unwrap()
    )
}

/// The deterministic event feed: alternating up/down over three
/// entities, one event per timestamp.
fn events_for_tick(k: i64) -> Vec<(i64, String)> {
    (k * TICK_EVERY..(k + 1) * TICK_EVERY)
        .map(|t| {
            let entity = ["a", "b", "c"][(t % 3) as usize];
            let ev = if t % 10 < 5 { "up" } else { "down" };
            (t, format!("{ev}({entity})"))
        })
        .collect()
}

fn feed_tick(registry: &Registry, session: &str, k: i64) {
    for (t, ev) in events_for_tick(k) {
        dispatch_ok(
            registry,
            &format!(
                "{{\"cmd\":\"event\",\"session\":\"{session}\",\"t\":{t},\"event\":\"{ev}\"}}"
            ),
        );
    }
}

fn tick(registry: &Registry, session: &str, to: i64) -> Value {
    dispatch_ok(
        registry,
        &format!("{{\"cmd\":\"tick\",\"session\":\"{session}\",\"to\":{to}}}"),
    )
}

fn query_rows(registry: &Registry, session: &str) -> Vec<(String, String)> {
    let v = dispatch_ok(
        registry,
        &format!("{{\"cmd\":\"query\",\"session\":\"{session}\"}}"),
    );
    let mut rows: Vec<(String, String)> = v["rows"]
        .as_array()
        .expect("rows array")
        .iter()
        .map(|r| {
            (
                r["fvp"].as_str().unwrap_or_default().to_string(),
                r["intervals"].as_str().unwrap_or_default().to_string(),
            )
        })
        .collect();
    rows.sort();
    rows
}

fn deadletter_counts(registry: &Registry, session: &str) -> Value {
    dispatch_ok(
        registry,
        &format!("{{\"cmd\":\"deadletter\",\"session\":\"{session}\",\"limit\":0}}"),
    )["counts"]
        .clone()
}

/// Fault-free oracle: the same feed through an in-memory registry with
/// the same tick schedule; returns its final sorted query rows.
fn oracle_rows(ticks_fed: i64, final_to: i64) -> Vec<(String, String)> {
    let oracle = Registry::new();
    dispatch_ok(&oracle, &open_line("oracle"));
    for k in 0..ticks_fed {
        feed_tick(&oracle, "oracle", k);
        tick(&oracle, "oracle", (k + 1) * TICK_EVERY);
    }
    // Any events past the last synced tick.
    if final_to > ticks_fed * TICK_EVERY {
        feed_tick(&oracle, "oracle", ticks_fed);
        tick(&oracle, "oracle", final_to);
    }
    query_rows(&oracle, "oracle")
}

#[test]
fn cold_restore_replays_journal_tail_byte_identically() {
    let (cp, jnl) = temp_dirs("tail");
    {
        let r = registry(&cp, &jnl);
        dispatch_ok(&r, &open_line("s"));
        // Two checkpointed ticks, then a tail of acked-but-unticked
        // events that exists only in the journal.
        for k in 0..2 {
            feed_tick(&r, "s", k);
            let v = tick(&r, "s", (k + 1) * TICK_EVERY);
            assert_eq!(v["checkpointed"], true, "{v:?}");
        }
        feed_tick(&r, "s", 2);
        // Crash: drop without close/shutdown.
    }

    let r = registry(&cp, &jnl);
    let v = dispatch_ok(&r, r#"{"cmd":"restore","session":"s"}"#);
    // The journal tail past the newest checkpoint is a full tick of
    // events; all of them replay.
    assert_eq!(v["replayed"], TICK_EVERY, "{v:?}");
    assert_eq!(v["processed_to"], 2 * TICK_EVERY, "{v:?}");
    tick(&r, "s", 3 * TICK_EVERY);
    assert_eq!(query_rows(&r, "s"), oracle_rows(3, 3 * TICK_EVERY));
    let _ = std::fs::remove_dir_all(cp.parent().unwrap());
}

#[test]
fn restore_from_journal_alone_before_first_checkpoint() {
    let (cp, jnl) = temp_dirs("nocp");
    {
        let r = registry(&cp, &jnl);
        dispatch_ok(&r, &open_line("s"));
        feed_tick(&r, "s", 0);
        // Crash before the first tick: no checkpoint exists, only the
        // journal's open record plus the acked events.
    }
    assert!(
        !cp.join("s.session.json").exists(),
        "no checkpoint should exist before the first tick"
    );

    let r = registry(&cp, &jnl);
    let v = dispatch_ok(&r, r#"{"cmd":"restore","session":"s"}"#);
    assert_eq!(v["replayed"], TICK_EVERY, "{v:?}");
    tick(&r, "s", TICK_EVERY);
    assert_eq!(query_rows(&r, "s"), oracle_rows(1, TICK_EVERY));
    let _ = std::fs::remove_dir_all(cp.parent().unwrap());
}

#[test]
fn corrupted_tails_recover_the_newest_consistent_prefix() {
    let (cp, jnl) = temp_dirs("corrupt");
    {
        let r = registry(&cp, &jnl);
        dispatch_ok(&r, &open_line("s"));
        feed_tick(&r, "s", 0);
    }
    let path = journal_path(&jnl, "s");
    let pristine = std::fs::read(&path).unwrap();

    // (a) Torn tail: the last few bytes never hit the disk. Recovery
    // replays everything but the torn final record.
    std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
    {
        // Each sub-case restores from the journal alone: drop any
        // checkpoint the previous sub-case's tick wrote.
        let _ = std::fs::remove_dir_all(&cp);
        let r = registry(&cp, &jnl);
        let v = dispatch_ok(&r, r#"{"cmd":"restore","session":"s"}"#);
        assert_eq!(v["replayed"], TICK_EVERY - 1, "{v:?}");
        tick(&r, "s", TICK_EVERY);
        // The prefix oracle: same feed minus its final event.
        let oracle = Registry::new();
        dispatch_ok(&oracle, &open_line("o"));
        for (t, ev) in events_for_tick(0).iter().take(TICK_EVERY as usize - 1) {
            dispatch_ok(
                &oracle,
                &format!("{{\"cmd\":\"event\",\"session\":\"o\",\"t\":{t},\"event\":\"{ev}\"}}"),
            );
        }
        tick(&oracle, "o", TICK_EVERY);
        assert_eq!(query_rows(&r, "s"), query_rows(&oracle, "o"));
    }

    // (b) Bit flip mid-file: the damaged frame fails its checksum and
    // recovery keeps only the records before it — still a valid
    // prefix, never garbage.
    std::fs::write(&path, &pristine).unwrap();
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    std::fs::write(&path, &flipped).unwrap();
    {
        let _ = std::fs::remove_dir_all(&cp);
        let r = registry(&cp, &jnl);
        let v = dispatch_ok(&r, r#"{"cmd":"restore","session":"s"}"#);
        let replayed = v["replayed"].as_i64().unwrap();
        assert!(
            (0..TICK_EVERY).contains(&replayed),
            "flip must cost at least the damaged record: {v:?}"
        );
        tick(&r, "s", TICK_EVERY);
        let _ = query_rows(&r, "s"); // must stay queryable
    }

    // (c) Duplicated tail (a retried append that landed twice): replay
    // skips non-increasing sequence numbers, so the outcome is
    // identical to the pristine journal.
    let mut doubled = pristine.clone();
    doubled.extend_from_slice(&pristine);
    std::fs::write(&path, &doubled).unwrap();
    {
        let _ = std::fs::remove_dir_all(&cp);
        let r = registry(&cp, &jnl);
        let v = dispatch_ok(&r, r#"{"cmd":"restore","session":"s"}"#);
        assert_eq!(v["replayed"], TICK_EVERY, "{v:?}");
        tick(&r, "s", TICK_EVERY);
        assert_eq!(query_rows(&r, "s"), oracle_rows(1, TICK_EVERY));
    }
    let _ = std::fs::remove_dir_all(cp.parent().unwrap());
}

#[test]
fn dead_letter_accounting_survives_cold_restore_exactly() {
    let (cp, jnl) = temp_dirs("dl");
    let bad_feed = |r: &Registry, s: &str| {
        // A duplicate (dedup on), a malformed event, and — after the
        // first tick — a late arrival below the watermark. Each lands
        // in the dead-letter ledger with its own reason.
        let _ = r.dispatch(&format!(
            "{{\"cmd\":\"event\",\"session\":\"{s}\",\"t\":10,\"event\":\"up(b)\"}}"
        ));
        let _ = r.dispatch(&format!(
            "{{\"cmd\":\"event\",\"session\":\"{s}\",\"t\":11,\"event\":\"up((\"}}"
        ));
    };
    let drive = |r: &Registry, s: &str| {
        feed_tick(r, s, 0);
        bad_feed(r, s);
        tick(r, s, TICK_EVERY);
        // Late: below the post-tick watermark.
        let _ = r.dispatch(&format!(
            "{{\"cmd\":\"event\",\"session\":\"{s}\",\"t\":1,\"event\":\"up(b)\"}}"
        ));
        feed_tick(r, s, 1);
    };

    {
        let r = registry(&cp, &jnl);
        dispatch_ok(&r, &open_line("s"));
        drive(&r, "s");
    }

    let oracle = Registry::new();
    dispatch_ok(&oracle, &open_line("o"));
    drive(&oracle, "o");
    tick(&oracle, "o", 2 * TICK_EVERY);

    let r = registry(&cp, &jnl);
    dispatch_ok(&r, r#"{"cmd":"restore","session":"s"}"#);
    tick(&r, "s", 2 * TICK_EVERY);
    assert_eq!(
        deadletter_counts(&r, "s"),
        deadletter_counts(&oracle, "o"),
        "dead-letter ledger must replay to exactly the fault-free counts"
    );
    assert_eq!(query_rows(&r, "s"), query_rows(&oracle, "o"));
    let _ = std::fs::remove_dir_all(cp.parent().unwrap());
}

#[test]
fn close_keep_durable_retains_state_for_migration() {
    let (cp, jnl) = temp_dirs("migrate");
    let r = registry(&cp, &jnl);
    dispatch_ok(&r, &open_line("s"));
    feed_tick(&r, "s", 0);
    tick(&r, "s", TICK_EVERY);
    feed_tick(&r, "s", 1);
    // Graceful hand-off: close with keep_durable leaves checkpoint and
    // journal on disk for another process to restore from.
    dispatch_ok(&r, r#"{"cmd":"close","session":"s","keep_durable":true}"#);
    assert!(journal_path(&jnl, "s").exists(), "journal must survive");

    let r2 = registry(&cp, &jnl);
    let v = dispatch_ok(&r2, r#"{"cmd":"restore","session":"s"}"#);
    assert_eq!(v["replayed"], TICK_EVERY, "{v:?}");
    tick(&r2, "s", 2 * TICK_EVERY);
    assert_eq!(query_rows(&r2, "s"), oracle_rows(2, 2 * TICK_EVERY));

    // A plain close deletes both durable artifacts.
    dispatch_ok(&r2, r#"{"cmd":"close","session":"s"}"#);
    assert!(!journal_path(&jnl, "s").exists(), "journal must be gone");
    assert!(
        !cp.join("s.session.json").exists(),
        "checkpoint must be gone"
    );
    let _ = std::fs::remove_dir_all(cp.parent().unwrap());
}

mod faults {
    use super::*;
    use rtec_service::{FaultPlan, IoFaultKind};

    #[test]
    fn torn_checkpoint_write_keeps_journal_coverage() {
        let (cp, jnl) = temp_dirs("torncp");
        let plan = FaultPlan::new().io_fault(1, IoFaultKind::Torn { keep_bytes: 40 });
        let r = registry(&cp, &jnl).with_faults(plan);
        dispatch_ok(&r, &open_line("s"));
        feed_tick(&r, "s", 0);
        // The checkpoint write tears mid-file: no rename happens and the
        // journal must NOT rotate, so recovery still sees every acked
        // event.
        let v = tick(&r, "s", TICK_EVERY);
        assert_eq!(v["checkpointed"], false, "{v:?}");
        drop(r);

        let r = registry(&cp, &jnl);
        let v = dispatch_ok(&r, r#"{"cmd":"restore","session":"s"}"#);
        assert_eq!(v["replayed"], TICK_EVERY, "{v:?}");
        tick(&r, "s", TICK_EVERY);
        assert_eq!(query_rows(&r, "s"), oracle_rows(1, TICK_EVERY));
        let _ = std::fs::remove_dir_all(cp.parent().unwrap());
    }

    #[test]
    fn journal_write_fault_fails_the_ack_not_the_session() {
        let (cp, jnl) = temp_dirs("jfault");
        let plan = FaultPlan::new().journal_fault(2, IoFaultKind::Error);
        let r = registry(&cp, &jnl).with_faults(plan);
        dispatch_ok(&r, &open_line("s"));
        // First journaled write is the open record; the second (the event
        // below) hits the injected error: the client sees a structured
        // error instead of an ack.
        let raw = r.dispatch(r#"{"cmd":"event","session":"s","t":5,"event":"up(a)"}"#);
        let v: Value = serde_json::from_str(&raw).unwrap();
        assert_eq!(v["ok"], false, "{raw}");
        // The session survives and the next append succeeds (the pending
        // frame is retried with the next commit).
        dispatch_ok(&r, r#"{"cmd":"event","session":"s","t":6,"event":"up(b)"}"#);
        tick(&r, "s", TICK_EVERY);
        let rows = query_rows(&r, "s");
        assert!(!rows.is_empty(), "session still recognises: {rows:?}");
        drop(r);
        let _ = std::fs::remove_dir_all(cp.parent().unwrap());
    }
}
