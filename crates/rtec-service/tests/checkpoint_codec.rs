//! Byte-level contract of the checkpoint codec.
//!
//! Two frozen documents under `tests/fixtures/` pin the on-disk format:
//! a session checkpoint captured from the fixed script below, and the
//! engine checkpoint of its first shard (which carries `eval_mode`).
//! Both were written by the `serde_json::Value`-tree codec that preceded
//! the direct writer, so equality here proves the format never moved.
//! The script reaches every section of the grammar: two shards, an
//! incremental sliding window (non-empty `snapshots` and `retained`),
//! events held back by `reorder_slack`, dead letters, a non-zero
//! `journal_seq`, a description with quotes, backslashes, newlines and
//! non-ASCII text, and float (negative, `-0.0`), negative-integer and
//! list terms.
//!
//! The hardening tests feed the reader damaged and non-canonical
//! documents; each must be refused with an `Err`, never a panic.

use rtec::checkpoint::{fnv1a_hex, EngineCheckpoint};
use rtec::engine::EvalMode;
use rtec_service::persist::SessionCheckpoint;
use rtec_service::session::{Session, SessionConfig};

const SESSION_FIXTURE: &str = include_str!("fixtures/session_checkpoint.json");
const ENGINE_FIXTURE: &str = include_str!("fixtures/engine_checkpoint.json");

const DESC: &str = "% Fixture: \"quoted\" words, a back\\slash, and non-ASCII text —
% café, Brest ⚓, niño;\ttab and \u{1} control.\r
inputEvent(velocity/3).
inputEvent(route/2).
inputEvent(fix/2).
inputFluent(near/1).
initiatedAt(moving(V)=true, T) :- happensAt(velocity(V, S, H), T), S > 0.5.
terminatedAt(moving(V)=true, T) :- happensAt(velocity(V, S, H), T), S =< 0.5.
initiatedAt(plan(V)=L, T) :- happensAt(route(V, L), T).
initiatedAt(offset(V)=D, T) :- happensAt(fix(V, D), T).
holdsFor(close(V)=true, I) :-
    holdsFor(near(V)=true, I1), holdsFor(moving(V)=true, I2),
    intersect_all([I1, I2], I).
";

/// Runs the fixed script and captures the session image. Counters that
/// depend on worker-thread timing (`queue_high_water`,
/// `backpressure_waits`) are pinned so the image is reproducible.
fn scripted_image() -> SessionCheckpoint {
    let config = SessionConfig {
        window: Some(20),
        slide: Some(10),
        incremental: true,
        shards: 2,
        reorder_slack: Some(5),
        dedup: true,
        max_events_per_tick: Some(1000),
        max_buffered_bytes: Some(1 << 20),
        tick_deadline_ms: Some(60_000),
        eval: EvalMode::Plan,
        profile: false,
        slow_tick_ms: Some(250),
        ..SessionConfig::default()
    };
    let mut s = Session::open("fixture/ß", DESC, config).expect("fixture description opens");
    let feed: &[(&str, i64)] = &[
        ("velocity(v1, 3.5, -2.25)", 1),
        ("route(v1, [a, b, 1])", 2),
        ("velocity(v2, -0.0, 7)", 3),
        ("fix(v2, -7)", 4),
        ("velocity(v3, 1.25, -1)", 5),
        ("fix(v3, -0.0)", 6),
        ("velocity(v1, 0.25, 3)", 12),
        ("route(v2, [x, 'Y z', -4])", 14),
    ];
    for &(ev, t) in feed {
        s.ingest_event(ev, t).unwrap();
    }
    s.ingest_intervals("near(v1)", "true", &[(2, 15)]).unwrap();
    s.ingest_intervals("near(v3)", "true", &[(4, 30)]).unwrap();
    s.tick(10).unwrap();
    for &(ev, t) in &[
        ("velocity(v2, 2.5, 0)", 16),
        ("velocity(v3, 0.1, -5)", 18),
        ("fix(v1, -3)", 19),
        ("velocity(v1, 4.75, 1)", 22),
    ] {
        s.ingest_event(ev, t).unwrap();
    }
    s.tick(20).unwrap();
    for &(ev, t) in &[
        ("velocity(v2, 0.5, 2)", 24),
        ("fix(v2, 1.5)", 26),
        ("route(v3, [])", 31),
        ("velocity(v1, 9.0, -9.75)", 33),
        ("velocity(v3, 2.0, 4)", 40),
        ("fix(v1, -12)", 42),
    ] {
        s.ingest_event(ev, t).unwrap();
    }
    // Dead letters: past the horizon, a duplicate, a malformed term.
    s.ingest_event("fix(v1, -3)", 5).unwrap();
    s.ingest_event("fix(v1, -12)", 42).unwrap();
    assert!(s.ingest_event("fix(v1", 43).is_err());
    s.tick(30).unwrap();
    let mut image = SessionCheckpoint::capture(&s).expect("capturable after a tick");
    image.stats.queue_high_water = vec![6, 5];
    image.stats.backpressure_waits = 0;
    image.journal_seq = 42;
    s.close().unwrap();
    image
}

#[test]
fn writer_reproduces_frozen_fixtures() {
    let image = scripted_image();
    assert_eq!(image.to_json(), SESSION_FIXTURE, "session document moved");
    assert_eq!(
        image.shards[0].to_json(),
        ENGINE_FIXTURE,
        "engine document moved"
    );
}

#[test]
fn fixtures_round_trip_byte_identically() {
    let session = SessionCheckpoint::from_json(SESSION_FIXTURE).unwrap();
    assert_eq!(session.to_json(), SESSION_FIXTURE);
    let engine = EngineCheckpoint::from_json(ENGINE_FIXTURE).unwrap();
    assert_eq!(engine.eval_mode(), Some("plan"));
    assert_eq!(engine.to_json(), ENGINE_FIXTURE);
}

/// Decodes raw bytes the way `persist::load` does: UTF-8 first, then the
/// document.
fn decode(bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    match text.contains("\"eval_mode\"") {
        true => EngineCheckpoint::from_json(text).map(drop),
        false => SessionCheckpoint::from_json(text).map(drop),
    }
}

/// The `state` bytes of a document.
fn state_of(doc: &str) -> &str {
    let start = doc.find(",\"state\":").unwrap() + ",\"state\":".len();
    &doc[start..doc.len() - ",\"version\":1}".len()]
}

/// A session document around `state` with a correct checksum.
fn reseal(state: &str) -> String {
    format!(
        "{{\"crc\":\"{}\",\"state\":{state},\"version\":1}}",
        fnv1a_hex(state.as_bytes())
    )
}

#[test]
fn every_truncation_is_refused() {
    for doc in [SESSION_FIXTURE, ENGINE_FIXTURE] {
        let cuts = (0..doc.len()).step_by(97).chain(doc.len() - 64..doc.len());
        for cut in cuts {
            assert!(
                decode(&doc.as_bytes()[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }
}

#[test]
fn seeded_single_byte_flips_are_refused() {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for doc in [SESSION_FIXTURE, ENGINE_FIXTURE] {
        for _ in 0..128 {
            let mut bytes = doc.as_bytes().to_vec();
            let at = (next() % bytes.len() as u64) as usize;
            bytes[at] ^= 1 + (next() % 255) as u8;
            assert!(decode(&bytes).is_err(), "flip at byte {at} accepted");
        }
    }
}

#[test]
fn wrong_version_and_non_canonical_envelopes_are_refused() {
    let doc = SESSION_FIXTURE;
    let state = state_of(doc);
    let crc = &doc[8..24];
    let wrong = doc.replace(",\"version\":1}", ",\"version\":2}");
    let err = SessionCheckpoint::from_json(&wrong).unwrap_err();
    assert!(err.contains("unsupported version 2"), "{err}");
    let spaced_state = state.replacen("{\"config\":{", "{\"config\": {", 1);
    for bad in [
        format!("{{\"crc\": \"{crc}\",\"state\":{state},\"version\":1}}"),
        format!("{{\"version\":1,\"crc\":\"{crc}\",\"state\":{state}}}"),
        format!("{{\"state\":{state},\"crc\":\"{crc}\",\"version\":1}}"),
        format!("{doc}\n"),
        format!(" {doc}"),
        doc.replace(crc, &crc.to_uppercase()),
        // Re-formatted state: the checksum no longer matches the bytes...
        format!("{{\"crc\":\"{crc}\",\"state\":{spaced_state},\"version\":1}}"),
        // ...and re-sealing it does not make the grammar canonical.
        reseal(&spaced_state),
        // Engine-only envelope key on a session document.
        doc.replacen(",\"state\":", ",\"eval_mode\":\"plan\",\"state\":", 1),
    ] {
        assert!(
            SessionCheckpoint::from_json(&bad).is_err(),
            "{}",
            &bad[..60]
        );
    }
    let unknown_mode = ENGINE_FIXTURE.replacen("\"plan\"", "\"fast\"", 1);
    assert!(EngineCheckpoint::from_json(&unknown_mode).is_err());
}

#[test]
fn a_term_object_needs_exactly_one_known_tag() {
    let state = state_of(SESSION_FIXTURE);
    assert!(state.contains("{\"a\":36}"));
    for bad in ["{\"a\":36,\"c\":[2]}", "{\"a\":36,\"a\":37}", "{\"x\":36}"] {
        let doc = reseal(&state.replacen("{\"a\":36}", bad, 1));
        let err = SessionCheckpoint::from_json(&doc).unwrap_err();
        assert!(!err.contains("checksum"), "{err}");
    }
}

#[test]
fn documents_from_older_writers_read_with_defaults() {
    // Strip, from the fixture, every key a previous writer did not know:
    // the ingest section, the journal sequence, the evaluation mode, the
    // profiler switch, the sliding configuration and section.
    let mut state = state_of(SESSION_FIXTURE).to_string();
    let cut = |state: &mut String, from: &str, to: &str| {
        let start = state.find(from).unwrap();
        let end = start + state[start..].find(to).unwrap();
        state.replace_range(start..end, "");
    };
    cut(&mut state, "\"ingest\":", "\"master_symbols\"");
    while state.contains(",\"sliding\":") {
        cut(&mut state, ",\"sliding\":", ",\"stats\":");
    }
    for key in [
        "\"eval\":\"plan\",",
        "\"profile\":false,",
        "\"incremental\":true,",
        "\"slide\":10,",
    ] {
        assert!(state.contains(key), "{key}");
        state = state.replacen(key, "", 1);
    }
    let old = SessionCheckpoint::from_json(&reseal(&state)).unwrap();
    assert_eq!(old.deadletter_counts, [0; 5]);
    assert_eq!(old.deadletter_records_dropped, 0);
    assert!(old.reorder.is_none());
    assert_eq!(old.journal_seq, 0);
    assert_eq!(old.config.eval, SessionConfig::default().eval);
    assert!(old.config.profile);
    assert!(!old.config.incremental);
    assert_eq!(old.config.slide, None);
    assert!(old
        .shards
        .iter()
        .all(|s| !s.to_json().contains("\"sliding\"")));
    // Explicit nulls read like absent keys.
    let nulls = state.replacen("\"window\":20", "\"window\":null", 1);
    let old = SessionCheckpoint::from_json(&reseal(&nulls)).unwrap();
    assert_eq!(old.config.window, None);
}
