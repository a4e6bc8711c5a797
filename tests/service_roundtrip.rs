//! The streaming service must be *exact*: replaying the maritime
//! scenario through an rtec-service session — in-process or over TCP
//! with concurrent sessions and multiple shards — yields output
//! byte-identical to one batch engine run over the same stream.

use maritime::{BrestScenario, Dataset};
use rtec::{Engine, EngineConfig};
use rtec_service::{
    stream_file, Client, Server, ServerConfig, Session, SessionConfig, StreamFile, StreamOptions,
};

/// The gold description in concrete syntax (rules + this dataset's
/// background knowledge), as a client would send it over the wire.
fn gold_source(dataset: &Dataset) -> String {
    format!("{}\n{}", maritime::gold::GOLD_RULES, dataset.background)
}

/// Reference: one batch engine over the full stream.
fn batch_rows(dataset: &Dataset, horizon: i64) -> Vec<(String, String)> {
    let compiled = dataset.gold_description().compile().unwrap();
    let mut engine = Engine::new(&compiled, EngineConfig::default());
    dataset.stream.load_into(&mut engine);
    engine.run_to(horizon);
    let symbols = engine.symbols().clone();
    let out = engine.into_output();
    let mut rows: Vec<(String, String)> = out
        .iter()
        .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
        .collect();
    rows.sort();
    rows
}

/// The dataset's stream rendered to the client's text format (events
/// sorted by time; input intervals separate).
fn stream_file_of(dataset: &Dataset) -> StreamFile {
    let symbols = &dataset.stream.symbols;
    let mut file = StreamFile::default();
    for (fvp, list) in dataset.stream.intervals() {
        file.intervals.push((
            fvp.fluent.display(symbols).to_string(),
            fvp.value.display(symbols).to_string(),
            list.iter().map(|iv| (iv.start, iv.end)).collect(),
        ));
    }
    let mut events: Vec<_> = dataset.stream.events().to_vec();
    events.sort_by_key(|&(_, t)| t);
    for (ev, t) in events {
        file.events.push((t, ev.display(symbols).to_string()));
    }
    file
}

#[test]
fn in_process_session_matches_batch_engine() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let reference = batch_rows(&dataset, horizon);
    // The pair activities survive sharding only if the router's
    // union-find over proximity couplings co-locates their vessels.
    for pair in ["tugging(", "pilotOps("] {
        assert!(reference.iter().any(|(fvp, _)| fvp.starts_with(pair)));
    }
    let gold = gold_source(&dataset);
    let file = stream_file_of(&dataset);
    let run = |shards: usize, window: Option<i64>| {
        let mut session = Session::open(
            "maritime",
            &gold,
            SessionConfig {
                window,
                shards,
                queue_capacity: 256,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        for (fluent, value, pairs) in &file.intervals {
            session.ingest_intervals(fluent, value, pairs).unwrap();
        }
        for (t, ev) in &file.events {
            session.ingest_event(ev, *t).unwrap();
        }
        session.tick(horizon).unwrap();
        let (out, symbols) = session.query().unwrap();
        let mut rows: Vec<(String, String)> = out
            .iter()
            .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
            .collect();
        rows.sort();
        (session, out, rows)
    };

    let (session, _, rows) = run(4, Some(3600));
    assert_eq!(rows, reference, "windowed, shards=4");
    assert!(session.stats().engine.windows > 1);
    session.close().unwrap();

    for shards in [1, 2, 4, 8] {
        let (session, out, rows) = run(shards, None);
        assert_eq!(rows, reference, "shards={shards}");
        // A shard that received no instance of an input fluent may warn
        // about it ("never holds"). No events may ever be dropped.
        assert!(
            out.warnings.iter().all(|w| !w.contains("dropped")),
            "shards={shards}: {:?}",
            out.warnings
        );
        assert_eq!(session.late_couplings(), 0, "shards={shards}");

        let stats = session.stats();
        assert_eq!(stats.events_ingested, file.events.len() as u64);
        assert!(stats.engine.windows >= 1);
        assert!(stats.tick_latency.count() >= 1);
        assert_eq!(stats.queue_high_water.len(), shards, "shards={shards}");
        session.close().unwrap();
    }
}

#[test]
fn tcp_concurrent_sessions_match_batch_engine() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let reference = batch_rows(&dataset, horizon);
    let gold = gold_source(&dataset);
    let file = stream_file_of(&dataset);

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        metrics_addr: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = std::thread::spawn(move || server.serve());

    // Two sessions replay concurrently on separate connections, with
    // different shard counts, windows, and tick cadences. fleet-a stays
    // open after its replay so the metrics scrape below observes a live
    // session.
    let configs = [
        (
            "fleet-a",
            StreamOptions {
                session: "fleet-a".to_string(),
                shards: 2,
                window: None,
                tick_every: None,
                horizon: Some(horizon),
                batch_size: 128,
                close: false,
                ..StreamOptions::default()
            },
        ),
        (
            "fleet-b",
            StreamOptions {
                session: "fleet-b".to_string(),
                shards: 3,
                window: Some(3_600),
                tick_every: Some(50_000),
                horizon: Some(horizon),
                batch_size: 32,
                ..StreamOptions::default()
            },
        ),
    ];
    let mut replays = Vec::new();
    for (name, opts) in configs {
        let addr = addr.clone();
        let gold = gold.clone();
        let file = file.clone();
        replays.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr)?;
            let report = stream_file(&mut client, &gold, &file, &opts)?;
            Ok::<_, String>((name, report))
        }));
    }
    for replay in replays {
        let (name, report) = replay.join().unwrap().unwrap();
        assert_eq!(report.rows, reference, "session {name}");
        assert!(
            report.warnings.iter().all(|w| !w.contains("dropped")),
            "session {name}: {:?}",
            report.warnings
        );
        assert_eq!(report.events, file.events.len() as u64, "session {name}");

        // The stats frame must show real work: evaluated windows and a
        // populated tick-latency histogram.
        let stats = &report.stats;
        assert!(stats["windows"].as_i64().unwrap() >= 1, "session {name}");
        assert_eq!(stats["late_couplings"].as_i64(), Some(0), "session {name}");
        let latency = &stats["tick_latency"];
        assert!(latency["count"].as_i64().unwrap() >= 1, "session {name}");
        assert!(
            !latency["buckets"].as_array().unwrap().is_empty(),
            "session {name}"
        );
        // Observability extensions to the stats frame: nothing was
        // forgotten in this replay, and each shard reports a queue
        // high-water mark.
        assert_eq!(stats["forget_drops"].as_i64(), Some(0), "session {name}");
        let high_water = stats["queue_high_water"].as_array().unwrap();
        assert!(!high_water.is_empty(), "session {name}");
    }

    // Scrape the Prometheus exposition over the NDJSON protocol while
    // fleet-a is still open: it must be valid text-format output and
    // carry both engine-level and service-level series, including the
    // per-session gauges sampled at scrape time.
    let mut scraper = Client::connect(&addr).unwrap();
    let body = scraper.metrics().unwrap();
    rtec_obs::expo::validate(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    for series in [
        "rtec_engine_windows_total",
        "rtec_engine_tick_duration_us_bucket",
        "rtec_engine_cache_requests_total{result=\"hit\"}",
        "rtec_engine_forget_drops_total",
        "rtec_service_events_ingested_total",
        "rtec_service_ticks_total",
        "rtec_service_sessions_open 1",
        "rtec_service_queue_depth{session=\"fleet-a\",shard=\"0\"}",
        "rtec_service_queue_high_water{session=\"fleet-a\",shard=\"1\"}",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }
    scraper
        .request("{\"cmd\":\"close\",\"session\":\"fleet-a\"}")
        .unwrap();
    // The connection must be gone before shutdown: the server joins its
    // handler pool, and a handler stays parked in read_line while a
    // client holds its connection open.
    drop(scraper);

    let response = rtec_service::request_shutdown(&addr).unwrap();
    assert!(response.contains("\"ok\": true") || response.contains("\"ok\":true"));
    server_thread.join().unwrap().unwrap();
}

/// The incremental window re-evaluation leg: a sliding session with
/// `incremental: true` replays a *reordered* Brest-scale synth slice —
/// including events delivered after the window that covered them was
/// already ticked (inside the `window - slide` overlap) and a
/// mid-stream checkpoint/restore — byte-identical to one batch engine
/// run and to the full-recompute sliding session. This pins the whole
/// service composition on top of the engine-level differential tests.
#[test]
fn incremental_sliding_session_replays_reordered_synth_like_batch() {
    use maritime::synth::{self, SynthConfig};

    let synth = synth::generate(&SynthConfig {
        seed: 11,
        vessels: 30,
        steps: 100,
        period: 60,
    });
    let horizon = synth.horizon() + 1;
    let gold = format!("{}\n{}", maritime::gold::GOLD_RULES, synth.background);

    // Reference: one batch engine over the stream in time order.
    let compiled = synth.gold_description().compile().unwrap();
    let mut engine = Engine::new(&compiled, EngineConfig::default());
    synth.stream.load_into(&mut engine);
    engine.run_to(horizon);
    let symbols = engine.symbols().clone();
    let out = engine.into_output();
    let mut reference: Vec<(String, String)> = out
        .iter()
        .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
        .collect();
    reference.sort();
    assert!(!reference.is_empty());

    // The stream as (t, src) rows in time order.
    let stream_symbols = &synth.stream.symbols;
    let mut events: Vec<(i64, String)> = synth
        .stream
        .events()
        .iter()
        .map(|(ev, t)| (*t, ev.display(stream_symbols).to_string()))
        .collect();
    events.sort_by_key(|&(t, _)| t);

    const WINDOW: i64 = 600;
    const SLIDE: i64 = 120;
    const OVERLAP: i64 = WINDOW - SLIDE; // 480: also the reorder slack
    let mid = 3_000; // first tick; also where the late slice lands
    let cp_at = 4_200; // checkpoint/restore point

    // Split the feed: everything up to `mid` except a held-out sample
    // from the last overlap (delivered late, after the tick), then the
    // rest. Pre-tick delivery is shuffled in 50-event chunks — within
    // the reorder slack, so nothing may be dropped.
    let (until_mid, after_mid): (Vec<_>, Vec<_>) =
        events.iter().cloned().partition(|&(t, _)| t <= mid);
    let (held_out, on_time): (Vec<_>, Vec<_>) = until_mid
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, (t, _))| *t > mid - 200 && i % 3 == 0);
    let held_out: Vec<_> = held_out.into_iter().map(|(_, e)| e).collect();
    let mut shuffled: Vec<_> = on_time.into_iter().map(|(_, e)| e).collect();
    for chunk in shuffled.chunks_mut(50) {
        chunk.reverse();
    }
    assert!(
        !held_out.is_empty(),
        "the late slice must exercise amendment"
    );

    let mut results = Vec::new();
    for incremental in [false, true] {
        let config = SessionConfig {
            window: Some(WINDOW),
            slide: Some(SLIDE),
            incremental,
            shards: 2,
            reorder_slack: Some(OVERLAP),
            ..SessionConfig::default()
        };
        let mut session = Session::open("synth-slice", &gold, config).unwrap();
        for (t, ev) in &shuffled {
            session.ingest_event(ev, *t).unwrap();
        }
        session.tick(mid).unwrap();

        // Late arrivals: behind the ticked horizon but inside the
        // sliding overlap, so the engines amend instead of dropping.
        for (t, ev) in &held_out {
            let outcome = session.ingest_event(ev, *t).unwrap();
            assert!(
                matches!(outcome, rtec_service::Ingest::Accepted),
                "incremental={incremental}: late event at t={t} refused: {outcome:?}"
            );
        }

        let (first, second): (Vec<_>, Vec<_>) =
            after_mid.iter().cloned().partition(|&(t, _)| t <= cp_at);
        for (t, ev) in &first {
            session.ingest_event(ev, *t).unwrap();
        }
        session.tick(cp_at).unwrap();

        // Mid-stream checkpoint/restore composes with the sliding state.
        let cp = rtec_service::persist::SessionCheckpoint::capture(&session)
            .expect("checkpoint right after a tick");
        let cp = rtec_service::persist::SessionCheckpoint::from_json(&cp.to_json()).unwrap();
        session.close().unwrap();
        let mut session = cp.restore().unwrap();

        for (t, ev) in &second {
            session.ingest_event(ev, *t).unwrap();
        }
        session.tick(horizon).unwrap();

        let (out, symbols) = session.query().unwrap();
        let mut rows: Vec<(String, String)> = out
            .iter()
            .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
            .collect();
        rows.sort();
        assert_eq!(rows, reference, "incremental={incremental}");
        assert!(
            out.warnings.iter().all(|w| !w.contains("dropped")),
            "incremental={incremental}: {:?}",
            out.warnings
        );
        let mut warnings = out.warnings.clone();
        warnings.sort();
        results.push((rows, warnings));
        session.close().unwrap();
    }

    // Full recompute and incremental must agree observationally, down
    // to the warning set.
    assert_eq!(results[0], results[1]);
}
