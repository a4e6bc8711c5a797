//! Seeded ingest fuzz: a sorted event feed is shuffled within the
//! reorder slack, sprinkled with duplicates and corrupt records, and
//! driven through the wire protocol. The session must converge to the
//! exact output of the clean sorted run, with every refusal accounted
//! for in the dead-letter ledger — and admission control must shed
//! structured `overloaded` errors under a 10× budget flood without ever
//! wedging the session.
//!
//! Without `RTEC_INGEST_SEED` the test sweeps seeds 101..=104; with it,
//! it runs that one seed.

use rtec_service::Registry;
use serde_json::Value;

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

const SLACK: i64 = 20;
const LAST_T: i64 = 200;
const HORIZON: i64 = 240;

/// Deterministic xorshift64, so a failing seed reproduces exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn parse_reply(raw: &str) -> Value {
    let v: Value =
        serde_json::from_str(raw).unwrap_or_else(|e| panic!("malformed reply {raw:?}: {e}"));
    assert!(v.get("ok").is_some(), "reply without ok: {raw:?}");
    v
}

fn dispatch(registry: &Registry, line: &str) -> Value {
    parse_reply(&registry.dispatch(line))
}

fn open(registry: &Registry, session: &str, extra: &str) {
    let line = format!(
        "{{\"cmd\":\"open\",\"session\":\"{session}\",\"description\":{}{extra}}}",
        serde_json::to_string(&Value::from(DESC)).unwrap()
    );
    let v = dispatch(registry, &line);
    assert_eq!(v["ok"], true, "open failed: {v:?}");
}

fn send_event(registry: &Registry, session: &str, t: i64, event: &str) -> Value {
    dispatch(
        registry,
        &format!("{{\"cmd\":\"event\",\"session\":\"{session}\",\"t\":{t},\"event\":\"{event}\"}}"),
    )
}

fn tick(registry: &Registry, session: &str, to: i64) -> Value {
    let v = dispatch(
        registry,
        &format!("{{\"cmd\":\"tick\",\"session\":\"{session}\",\"to\":{to}}}"),
    );
    assert_eq!(v["ok"], true, "tick failed: {v:?}");
    v
}

fn query_rows(registry: &Registry, session: &str) -> Vec<(String, String)> {
    let v = dispatch(
        registry,
        &format!("{{\"cmd\":\"query\",\"session\":\"{session}\"}}"),
    );
    assert_eq!(v["ok"], true, "query failed: {v:?}");
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
    let v = dispatch(
        registry,
        &format!("{{\"cmd\":\"deadletter\",\"session\":\"{session}\"}}"),
    );
    assert_eq!(v["ok"], true, "deadletter failed: {v:?}");
    v
}

/// The clean feed: one `up`/`down` event per timepoint, deterministic
/// in the seed, sorted by time.
fn sorted_feed(rng: &mut Rng) -> Vec<(i64, String)> {
    (0..LAST_T)
        .map(|t| {
            let entity = ["a", "b", "c"][(rng.next() % 3) as usize];
            let ev = if rng.next().is_multiple_of(2) {
                "up"
            } else {
                "down"
            };
            (t, format!("{ev}({entity})"))
        })
        .collect()
}

/// The reference output: the same feed, sorted, through a plain session.
fn gold_rows(feed: &[(i64, String)]) -> Vec<(String, String)> {
    let registry = Registry::new();
    open(&registry, "gold", "");
    for (t, ev) in feed {
        let v = send_event(&registry, "gold", *t, ev);
        assert_eq!(v["ok"], true, "gold ingest failed: {v:?}");
    }
    tick(&registry, "gold", HORIZON);
    query_rows(&registry, "gold")
}

fn run_seed(seed: u64) {
    let mut rng = Rng::new(seed);
    let feed = sorted_feed(&mut rng);
    let gold = gold_rows(&feed);
    assert!(!gold.is_empty(), "seed {seed}: degenerate gold output");

    // Shuffle within the slack: sort stably by `t + delay`, so no event
    // arrives more than SLACK timepoints behind the frontier.
    let mut keyed: Vec<(i64, usize)> = feed
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| (t + (rng.next() % (SLACK as u64 + 1)) as i64, i))
        .collect();
    keyed.sort();

    let registry = Registry::new();
    open(
        &registry,
        "fuzz",
        &format!(",\"reorder_slack\":{SLACK},\"dedup\":true"),
    );

    let mut expected_duplicates = 0u64;
    let mut expected_malformed = 0u64;
    let mut last_tick = -1i64;
    for &(key, i) in &keyed {
        // Intermediate ticks at key boundaries: every unsent event has
        // sort key >= this one, hence timestamp >= key - SLACK, so
        // ticking to key - SLACK - 1 can never orphan an in-slack event.
        let safe_to = key - SLACK - 1;
        if safe_to >= last_tick + 30 {
            tick(&registry, "fuzz", safe_to);
            last_tick = safe_to;
        }
        let (t, ref ev) = feed[i];
        let v = send_event(&registry, "fuzz", t, ev);
        assert_eq!(v["ok"], true, "seed {seed}: refused {v:?}");
        assert_eq!(v.get("accepted"), None, "seed {seed}: not accepted {v:?}");
        match rng.next() % 8 {
            // Duplicate the arrival: refused as an ok-frame, reason-coded.
            0 | 1 => {
                let v = send_event(&registry, "fuzz", t, ev);
                assert_eq!(v["ok"], true, "seed {seed}: {v:?}");
                assert_eq!(v["accepted"], false, "seed {seed}: {v:?}");
                assert_eq!(v["reason"], "duplicate", "seed {seed}: {v:?}");
                expected_duplicates += 1;
            }
            // Corrupt record: a structured parse error, ledgered as
            // malformed; the session keeps going.
            2 => {
                let v = send_event(&registry, "fuzz", t, "broken((");
                assert_eq!(v["ok"], false, "seed {seed}: {v:?}");
                assert!(v["code"].as_str().is_some(), "seed {seed}: {v:?}");
                expected_malformed += 1;
            }
            _ => {}
        }
    }
    tick(&registry, "fuzz", HORIZON);

    // Headline: byte-identical recognition despite the chaos.
    assert_eq!(
        query_rows(&registry, "fuzz"),
        gold,
        "seed {seed}: output diverged from the sorted run"
    );

    // Every refusal is accounted for, with the expected reasons only.
    let dl = deadletter_counts(&registry, "fuzz");
    assert_eq!(
        dl["counts"]["duplicate"], expected_duplicates as i64,
        "{dl:?}"
    );
    assert_eq!(
        dl["counts"]["malformed"], expected_malformed as i64,
        "{dl:?}"
    );
    assert_eq!(dl["counts"]["late"], 0i64, "seed {seed}: {dl:?}");
    assert_eq!(dl["counts"]["past_horizon"], 0i64, "seed {seed}: {dl:?}");
    assert_eq!(dl["counts"]["shed"], 0i64, "seed {seed}: {dl:?}");
    assert_eq!(
        dl["total"],
        (expected_duplicates + expected_malformed) as i64,
        "seed {seed}: {dl:?}"
    );
    let records = dl["records"].as_array().expect("records array");
    assert_eq!(
        records.len() as u64,
        (expected_duplicates + expected_malformed).min(100),
        "seed {seed}: default limit is 100"
    );

    let close = dispatch(&registry, "{\"cmd\":\"close\",\"session\":\"fuzz\"}");
    assert_eq!(close["ok"], true, "{close:?}");
}

#[test]
fn shuffled_duplicated_corrupted_feed_converges() {
    let seeds: Vec<u64> = match std::env::var("RTEC_INGEST_SEED") {
        Ok(s) => vec![s.parse().expect("RTEC_INGEST_SEED must be a u64")],
        Err(_) => (101..=104).collect(),
    };
    for seed in seeds {
        run_seed(seed);
    }
}

/// Admission control under a 10× flood of the per-tick event budget:
/// the first `budget` events are admitted, the rest shed as structured
/// `overloaded` errors; the tick reply reports the shed count (and the
/// deadline overrun), and the session admits events again afterwards —
/// it never deadlocks or quarantines.
#[test]
fn overload_sheds_structurally_and_recovers() {
    let registry = Registry::new();
    open(
        &registry,
        "flood",
        ",\"max_events_per_tick\":40,\"tick_deadline_ms\":0",
    );

    let mut accepted = 0u64;
    let mut shed = 0u64;
    for t in 0..400 {
        let v = send_event(&registry, "flood", t, "up(a)");
        if v["ok"] == true {
            accepted += 1;
        } else {
            assert_eq!(v["code"], "overloaded", "{v:?}");
            assert!(
                v["error"].as_str().unwrap_or_default().contains("budget"),
                "{v:?}"
            );
            shed += 1;
        }
    }
    assert_eq!(accepted, 40, "budget admits exactly max_events_per_tick");
    assert_eq!(shed, 360, "10x flood: everything past the budget sheds");

    // The tick accounts for the shed load; with a 0ms deadline over a
    // real workload it also reports the overrun.
    let v = tick(&registry, "flood", 500);
    assert_eq!(v["shed"], 360i64, "{v:?}");
    assert!(v["degraded"].as_bool().is_some(), "{v:?}");

    // Ledger: the sheds are reason-coded, with the record ring capped
    // (session cap 1024) while counts stay exact.
    let dl = deadletter_counts(&registry, "flood");
    assert_eq!(dl["counts"]["shed"], 360i64, "{dl:?}");

    // Recovery: the tick reset the budget, the session is still live.
    let v = send_event(&registry, "flood", 600, "up(a)");
    assert_eq!(v["ok"], true, "post-flood ingest: {v:?}");
    let v = tick(&registry, "flood", 700);
    assert_eq!(v["shed"], 0i64, "{v:?}");

    let stats = dispatch(&registry, "{\"cmd\":\"stats\",\"session\":\"flood\"}");
    assert_eq!(stats["shed"], 360i64, "{stats:?}");
    assert_eq!(stats["quarantined"], Value::Null, "{stats:?}");
}

/// The buffered-bytes budget: with a reorder buffer held back by slack
/// and a tiny byte budget, a flood sheds once the buffer fills, and a
/// tick (which drains the buffer) restores admission.
#[test]
fn buffered_bytes_budget_sheds_and_drains() {
    let registry = Registry::new();
    open(
        &registry,
        "bytes",
        ",\"reorder_slack\":1000,\"max_buffered_bytes\":2048",
    );

    let mut first_shed = None;
    for t in 0..2000 {
        let v = send_event(&registry, "bytes", t, "up(a)");
        if v["ok"] == false {
            assert_eq!(v["code"], "overloaded", "{v:?}");
            assert!(
                v["error"].as_str().unwrap_or_default().contains("bytes"),
                "{v:?}"
            );
            first_shed = Some(t);
            break;
        }
    }
    let first_shed = first_shed.expect("a 2KiB budget must fill well before 2000 events");
    assert!(first_shed > 0, "the first event must be admitted");

    // Ticking drains the buffer past the watermark, freeing budget.
    tick(&registry, "bytes", first_shed + 2000);
    let v = send_event(&registry, "bytes", first_shed + 2001, "up(a)");
    assert_eq!(v["ok"], true, "post-drain ingest: {v:?}");

    let dl = deadletter_counts(&registry, "bytes");
    assert_eq!(dl["counts"]["shed"], 1i64, "{dl:?}");
}
