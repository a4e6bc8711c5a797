//! Protocol hardening: a corpus of malformed NDJSON frames — truncated
//! JSON, wrong field types, missing fields, huge and deeply nested
//! terms, invalid UTF-8, unknown commands, oversized lines — must never
//! panic the server. Every bad frame gets a structured `error` reply
//! with a machine-readable `code`, only the offending request is
//! rejected, and subsequent valid frames on the same connection keep
//! working.

use rtec_service::{serve_stdio, Registry, Server, ServerConfig, MAX_FRAME};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

fn open_frame(session: &str) -> String {
    format!(
        "{{\"cmd\":\"open\",\"session\":{},\"description\":{}}}",
        serde_json::to_string(&Value::from(session)).unwrap(),
        serde_json::to_string(&Value::from(DESC)).unwrap()
    )
}

/// Malformed frames that must each draw an `{"ok":false,"code":...}`
/// reply. The comments name what each one probes.
fn corpus() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = [
        // Not JSON at all.
        "garbage",
        "{",
        "{\"cmd\":",
        "{\"cmd\":\"open\"",
        // Valid JSON, wrong shape.
        "[]",
        "[1,2,3]",
        "\"just a string\"",
        "null",
        "123",
        "true",
        // Objects without a usable command.
        "{}",
        "{\"cmd\":42}",
        "{\"cmd\":null}",
        "{\"cmd\":[\"open\"]}",
        "{\"session\":\"s\"}",
        // Unknown commands (the protocol is case-sensitive).
        "{\"cmd\":\"zap\"}",
        "{\"cmd\":\"OPEN\"}",
        // open: missing/ill-typed fields, bad description, duplicate.
        "{\"cmd\":\"open\"}",
        "{\"cmd\":\"open\",\"session\":\"x\"}",
        "{\"cmd\":\"open\",\"session\":9,\"description\":\"d\"}",
        "{\"cmd\":\"open\",\"session\":\"x\",\"description\":\"((((\"}",
        // open: descriptions that parse but fail semantic analysis
        // (undefined fluent under declarations; dependency cycle).
        "{\"cmd\":\"open\",\"session\":\"x\",\"description\":\"inputEvent(up/1). initiatedAt(on(X)=true, T) :- happensAt(up(X), T), holdsAt(ghost(X)=true, T).\"}",
        "{\"cmd\":\"open\",\"session\":\"x\",\"description\":\"initiatedAt(a(X)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T). initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).\"}",
        // event: missing fields, ghost session, wrong types, bad term.
        "{\"cmd\":\"event\"}",
        "{\"cmd\":\"event\",\"session\":\"ghost\",\"t\":1,\"event\":\"up(a)\"}",
        "{\"cmd\":\"event\",\"session\":\"s\",\"t\":\"one\",\"event\":\"up(a)\"}",
        "{\"cmd\":\"event\",\"session\":\"s\",\"event\":\"up(a)\"}",
        "{\"cmd\":\"event\",\"session\":\"s\",\"t\":2,\"event\":\"((((\"}",
        // batch / tick / query / close / restore edge cases.
        "{\"cmd\":\"batch\",\"session\":\"s\",\"events\":42}",
        "{\"cmd\":\"batch\",\"session\":\"s\",\"events\":[{\"t\":1}]}",
        "{\"cmd\":\"tick\",\"session\":\"s\"}",
        "{\"cmd\":\"tick\",\"session\":\"s\",\"to\":3.5}",
        "{\"cmd\":\"query\"}",
        "{\"cmd\":\"close\",\"session\":\"ghost\"}",
        "{\"cmd\":\"restore\",\"session\":\"x\"}",
    ]
    .into_iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    // Invalid UTF-8.
    frames.push(vec![0xff, 0xfe, 0xfd]);
    frames.push(b"{\"cmd\":\"ev\xc3\x28\"}".to_vec());
    // Huge non-JSON line (under the frame limit).
    frames.push(vec![b'x'; 100_000]);
    // A frame over the 1 MiB limit.
    frames.push(vec![b'a'; MAX_FRAME + 100]);
    frames
}

#[test]
fn malformed_corpus_gets_structured_errors_and_session_survives() {
    let registry = Registry::new();
    let corpus = corpus();
    assert!(corpus.len() >= 30, "corpus should stay substantial");

    let mut input: Vec<u8> = Vec::new();
    // A valid session first; the barrage must not disturb it.
    input.extend_from_slice(open_frame("s").as_bytes());
    input.push(b'\n');
    for frame in &corpus {
        input.extend_from_slice(frame);
        input.push(b'\n');
    }
    // Blank lines are skipped without a reply.
    input.extend_from_slice(b"\n   \n");
    // The session still works after every bad frame.
    for line in [
        "{\"cmd\":\"event\",\"session\":\"s\",\"t\":5,\"event\":\"up(a)\"}",
        "{\"cmd\":\"tick\",\"session\":\"s\",\"to\":10}",
        "{\"cmd\":\"query\",\"session\":\"s\"}",
        "{\"cmd\":\"stats\",\"session\":\"s\"}",
        "{\"cmd\":\"close\",\"session\":\"s\"}",
        "{\"cmd\":\"shutdown\"}",
    ] {
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
    }

    let mut out = Vec::new();
    serve_stdio(&registry, &input[..], &mut out).unwrap();
    let replies: Vec<Value> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad reply {l:?}: {e}")))
        .collect();
    assert_eq!(replies.len(), 1 + corpus.len() + 6, "one reply per frame");

    assert_eq!(replies[0]["ok"], true, "open: {:?}", replies[0]);
    for (i, reply) in replies[1..=corpus.len()].iter().enumerate() {
        assert_eq!(reply["ok"], false, "corpus[{i}] must error: {reply:?}");
        let code = reply["code"]
            .as_str()
            .unwrap_or_else(|| panic!("corpus[{i}] reply lacks a string code: {reply:?}"));
        assert!(!code.is_empty(), "corpus[{i}]");
        let msg = reply["error"].as_str().unwrap_or_default();
        assert!(!msg.is_empty(), "corpus[{i}] reply lacks a message");
    }

    let tail = &replies[1 + corpus.len()..];
    assert!(
        tail.iter().all(|v| v["ok"] == true),
        "valid frames after the barrage must still succeed: {tail:?}"
    );
    // query still recognises the activity fed after the barrage.
    assert_eq!(tail[2]["rows"][0]["fvp"], "on(a)=true");
    // The per-session rejection counter saw the frames that named "s";
    // the session itself was never quarantined.
    let stats = &tail[3];
    assert!(stats["frames_rejected"].as_i64().unwrap() >= 3, "{stats:?}");
    assert_eq!(stats["quarantined"], Value::Null, "{stats:?}");
    assert_eq!(stats["worker_restarts"].as_i64(), Some(0), "{stats:?}");
}

#[test]
fn specific_codes_are_stable() {
    let registry = Registry::new();
    let case = |line: &str, want: &str| -> Value {
        let v: Value = serde_json::from_str(&registry.dispatch(line)).unwrap();
        assert_eq!(v["ok"], false, "{line}: {v:?}");
        assert_eq!(v["code"], want, "{line}: {v:?}");
        v
    };
    case("garbage", "bad_frame");
    case("{\"cmd\":\"zap\"}", "unknown_command");
    case(
        "{\"cmd\":\"event\",\"session\":\"ghost\",\"t\":1,\"event\":\"up(a)\"}",
        "no_such_session",
    );
    case("{\"cmd\":\"open\"}", "bad_request");
    // Each shard is one OS thread: `shards` is bounded to 1..=64.
    for shards in [0, 65] {
        let open = open_frame("sharded");
        let open = format!("{},\"shards\":{shards}}}", open.trim_end_matches('}'));
        let v = case(&open, "bad_request");
        assert_eq!(v["error"], "shards must be between 1 and 64");
    }
    let open = open_frame("dup");
    let v: Value = serde_json::from_str(&registry.dispatch(&open)).unwrap();
    assert_eq!(v["ok"], true);
    case(&open, "session_exists");
}

#[test]
fn semantically_invalid_descriptions_are_rejected_with_diagnostics() {
    let registry = Registry::new();
    let reject = |desc: &str, want_code: &str| -> Value {
        let frame = format!(
            "{{\"cmd\":\"open\",\"session\":\"lint\",\"description\":{}}}",
            serde_json::to_string(&Value::from(desc)).unwrap()
        );
        let v: Value = serde_json::from_str(&registry.dispatch(&frame)).unwrap();
        assert_eq!(v["ok"], false, "{desc}: {v:?}");
        assert_eq!(v["code"], "invalid_description", "{desc}: {v:?}");
        let diags = v["diagnostics"]
            .as_array()
            .unwrap_or_else(|| panic!("{desc}: no diagnostics array: {v:?}"))
            .clone();
        assert!(!diags.is_empty(), "{desc}");
        for d in &diags {
            assert!(
                d["code"].as_str().is_some_and(|c| c.starts_with("RL")),
                "{d:?}"
            );
            assert!(d["severity"].as_str().is_some(), "{d:?}");
            assert!(
                d["message"].as_str().is_some_and(|m| !m.is_empty()),
                "{d:?}"
            );
        }
        assert!(
            diags.iter().any(|d| d["code"] == want_code),
            "{desc}: expected {want_code} in {diags:?}"
        );
        v
    };

    // An undefined fluent is an error once declarations close the schema.
    reject(
        "inputEvent(up/1).\n\
         initiatedAt(on(X)=true, T) :- happensAt(up(X), T), holdsAt(ghost(X)=true, T).",
        "RL0101",
    );
    // A cyclic definition can never stratify.
    reject(
        "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T).\n\
         initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).",
        "RL0301",
    );

    // The rejected opens must not leave a half-open session behind: the
    // same name opens cleanly with a valid description afterwards.
    let v: Value = serde_json::from_str(&registry.dispatch(&open_frame("lint"))).unwrap();
    assert_eq!(v["ok"], true, "{v:?}");
}

#[test]
fn tcp_connection_survives_binary_garbage() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve());

    let stream = TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |bytes: &[u8]| -> Value {
        writer.write_all(bytes).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    };

    // Binary garbage, truncated JSON, then an oversized frame — the
    // connection stays open through all of them.
    let v = exchange(&[0x00, 0xff, 0x13, 0x37]);
    assert_eq!(v["code"], "bad_frame", "{v:?}");
    let v = exchange(b"{\"cmd\":");
    assert_eq!(v["code"], "bad_frame", "{v:?}");
    let v = exchange(&vec![b'z'; MAX_FRAME + 1]);
    assert_eq!(v["code"], "bad_frame", "{v:?}");

    // The same connection still opens and drives a session.
    let v = exchange(open_frame("tcp").as_bytes());
    assert_eq!(v["ok"], true, "{v:?}");
    let v = exchange(b"{\"cmd\":\"event\",\"session\":\"tcp\",\"t\":5,\"event\":\"up(a)\"}");
    assert_eq!(v["ok"], true, "{v:?}");
    let v = exchange(b"{\"cmd\":\"tick\",\"session\":\"tcp\",\"to\":10}");
    assert_eq!(v["ok"], true, "{v:?}");
    let v = exchange(b"{\"cmd\":\"shutdown\"}");
    assert_eq!(v["ok"], true, "{v:?}");
    handle.join().unwrap().unwrap();
}
