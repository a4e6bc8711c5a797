//! Streaming-service throughput: the maritime critical-event stream
//! replayed through an in-process rtec-service session (ingest → tick →
//! query), at several shard counts, measured in events per second; and
//! the same replay with a write-ahead journal attached.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use maritime::{BrestScenario, Dataset};
use rtec_service::{FsyncPolicy, Journal, Session, SessionConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

struct Workload {
    gold: String,
    events: Vec<(i64, String)>,
    intervals: Vec<rtec_service::client::IntervalDecl>,
    horizon: i64,
}

fn workload() -> Workload {
    let dataset = Dataset::generate(&BrestScenario::small());
    let symbols = &dataset.stream.symbols;
    let mut events: Vec<(i64, String)> = dataset
        .stream
        .events()
        .iter()
        .map(|(ev, t)| (*t, ev.display(symbols).to_string()))
        .collect();
    events.sort_by_key(|&(t, _)| t);
    let intervals = dataset
        .stream
        .intervals()
        .iter()
        .map(|(fvp, list)| {
            (
                fvp.fluent.display(symbols).to_string(),
                fvp.value.display(symbols).to_string(),
                list.iter().map(|iv| (iv.start, iv.end)).collect(),
            )
        })
        .collect();
    Workload {
        gold: format!("{}\n{}", maritime::gold::GOLD_RULES, dataset.background),
        events,
        intervals,
        horizon: dataset.horizon() + 1,
    }
}

fn replay(w: &Workload, shards: usize, ticks: i64) -> usize {
    replay_with(w, shards, ticks, None, None)
}

/// Journal commit granularity: the `stream` client ships events in
/// `batch` frames of 64, and the registry commits once per frame.
const JOURNAL_BATCH: usize = 64;

/// The service's ack discipline under `--journal-dir` on the `stream`
/// path: every ingest is appended before it is applied, with one commit
/// per 64-event batch and one before every tick.
struct Wal {
    journal: Journal,
    pending: usize,
}

impl Wal {
    fn create(dir: &Path) -> Wal {
        let mut journal = Journal::create(dir, "bench", FsyncPolicy::Never).expect("journal");
        let open = serde_json::from_str(r#"{"cmd":"open","session":"bench"}"#).unwrap();
        journal.append_open(&open);
        journal.commit().expect("commit open record");
        Wal {
            journal,
            pending: 0,
        }
    }

    fn event(&mut self, t: i64, ev: &str) {
        self.journal.append_event(t, ev);
        self.pending += 1;
        if self.pending >= JOURNAL_BATCH {
            self.commit();
        }
    }

    fn commit(&mut self) {
        self.journal.commit().expect("commit");
        self.pending = 0;
    }
}

fn replay_with(
    w: &Workload,
    shards: usize,
    ticks: i64,
    reorder_slack: Option<i64>,
    mut wal: Option<Wal>,
) -> usize {
    let mut session = Session::open(
        "bench",
        &w.gold,
        SessionConfig {
            window: None,
            shards,
            queue_capacity: 1024,
            reorder_slack,
            ..SessionConfig::default()
        },
    )
    .expect("open");
    for (fluent, value, pairs) in &w.intervals {
        if let Some(wal) = &mut wal {
            wal.journal.append_intervals(fluent, value, pairs);
            wal.commit();
        }
        session
            .ingest_intervals(fluent, value, pairs)
            .expect("intervals");
    }
    let step = (w.horizon / ticks).max(1);
    let mut next_tick = step;
    for &(t, ref ev) in &w.events {
        if t >= next_tick {
            if let Some(wal) = &mut wal {
                wal.commit();
            }
            session.tick(next_tick - 1).expect("tick");
            next_tick += ((t - next_tick) / step + 1) * step;
        }
        if let Some(wal) = &mut wal {
            wal.event(t, ev);
        }
        session.ingest_event(ev, t).expect("event");
    }
    if let Some(wal) = &mut wal {
        wal.commit();
    }
    session.tick(w.horizon).expect("final tick");
    let (out, _) = session.query().expect("query");
    let n = out.len();
    session.close().expect("close");
    n
}

/// The ingest layer on its own (ROADMAP aim 1): parse, route and hand
/// each event to its shard. Untimed, the session opens, takes the
/// interval declarations and the events before the first tick boundary
/// of [`replay`], and ticks once, which pins their components to
/// shards. Then the rest of the stream is ingested with no tick in
/// between, and only that is timed. One final tick evaluates the
/// stream and must have seen every event.
/// [`replay`]'s first tick boundary (of 12), and the number of events
/// before it.
fn first_tick(w: &Workload) -> (i64, usize) {
    let first_tick = (w.horizon / 12).max(1);
    (
        first_tick,
        w.events.partition_point(|&(t, _)| t < first_tick),
    )
}

fn ingest_only(w: &Workload, shards: usize) -> Duration {
    let mut session = Session::open(
        "bench",
        &w.gold,
        SessionConfig {
            shards,
            ..SessionConfig::default()
        },
    )
    .expect("open");
    for (fluent, value, pairs) in &w.intervals {
        session
            .ingest_intervals(fluent, value, pairs)
            .expect("intervals");
    }
    let (first_tick, split) = first_tick(w);
    for &(t, ref ev) in &w.events[..split] {
        session.ingest_event(ev, t).expect("event");
    }
    session.tick(first_tick - 1).expect("first tick");
    let start = Instant::now();
    for &(t, ref ev) in &w.events[split..] {
        session.ingest_event(ev, t).expect("event");
    }
    let ingesting = start.elapsed();
    let report = session.tick(w.horizon).expect("final tick");
    assert!(
        report.engine.events_processed >= w.events.len(),
        "the final tick saw {} of {} events",
        report.engine.events_processed,
        w.events.len()
    );
    session.close().expect("close");
    ingesting
}

fn bench_service(c: &mut Criterion) {
    // Per-iteration session open/close info events would swamp the
    // bench output; keep only warnings (forget drops, backpressure).
    rtec_obs::set_max_level(rtec_obs::Level::Warn);
    let w = workload();
    let n_events = w.events.len() as u64;
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n_events));
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("replay_maritime", shards),
            &shards,
            |b, &shards| b.iter(|| black_box(replay(&w, shards, 12))),
        );
    }
    let timed = w.events.len() - first_tick(&w).1;
    group.throughput(Throughput::Elements(timed as u64));
    group.bench_with_input(
        BenchmarkId::new("ingest_maritime", 2usize),
        &2usize,
        |b, &shards| b.iter_custom(|iters| (0..iters).map(|_| ingest_only(&w, shards)).sum()),
    );
    group.throughput(Throughput::Elements(n_events));
    // The resilient-ingestion gate at slack=0 (a strict in-order check
    // in front of the router) must stay within a few percent of the
    // ungated replay above — compare the two series in CI.
    group.bench_with_input(
        BenchmarkId::new("replay_maritime_reorder0", 1usize),
        &1usize,
        |b, &shards| b.iter(|| black_box(replay_with(&w, shards, 12, Some(0), None))),
    );
    // Write-ahead journal overhead (docs/ROBUSTNESS.md) at fsync
    // `never`: compare with `replay_maritime/2`. Journaling must not
    // change what the session recognises.
    let dir = std::env::temp_dir().join(format!("rtec-bench-journal-{}", std::process::id()));
    let expected = replay(&w, 2, 12);
    group.bench_with_input(
        BenchmarkId::new("replay_maritime_journaled", 2usize),
        &2usize,
        |b, &shards| {
            b.iter(|| {
                let n = replay_with(&w, shards, 12, None, Some(Wal::create(&dir)));
                assert_eq!(n, expected, "journaling changed the output");
                n
            })
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
    // The replays above exercised every instrumented hot path; the
    // exposition they produced must be well-formed Prometheus text.
    // CI runs this bench as a smoke test, so a malformed exposition
    // fails the build, not just a scrape in production.
    let exposition = rtec_obs::global().render_prometheus();
    rtec_obs::expo::validate(&exposition)
        .unwrap_or_else(|e| panic!("malformed exposition after replay: {e}"));
    assert!(
        exposition.contains("rtec_engine_windows_total")
            && exposition.contains("rtec_service_ticks_total"),
        "replay left no engine/service series in the exposition"
    );
    assert!(
        exposition.contains("rtec_recognition_latency_us")
            && exposition.contains("rtec_service_tick_duration_us"),
        "replay left no latency series in the exposition"
    );
    scrape_is_valid_and_bounded(&w);
}

/// The full scrape path (`Registry::render_metrics`, what `/metrics`
/// serves) after a profiled replay: the exposition must pass the strict
/// validator and the per-rule profile families must stay within the
/// top-N + "other" cardinality bound no matter how many rules the
/// description holds. An unbounded label set fails the build here, not
/// a Prometheus server in production.
fn scrape_is_valid_and_bounded(w: &Workload) {
    let registry = rtec_service::Registry::new();
    let open = format!(
        "{{\"cmd\":\"open\",\"session\":\"scrape\",\"description\":{},\"shards\":2}}",
        serde_json::to_string(&serde_json::Value::from(w.gold.as_str())).unwrap()
    );
    assert!(
        registry.dispatch(&open).contains("\"ok\":true"),
        "open failed"
    );
    for &(t, ref ev) in w.events.iter().take(2000) {
        let line =
            format!("{{\"cmd\":\"event\",\"session\":\"scrape\",\"t\":{t},\"event\":\"{ev}\"}}");
        registry.dispatch(&line);
    }
    let to = w.events[w.events.len().min(2000) - 1].0;
    registry.dispatch(&format!(
        "{{\"cmd\":\"tick\",\"session\":\"scrape\",\"to\":{to}}}"
    ));
    let scrape = registry.render_metrics();
    rtec_obs::expo::validate(&scrape)
        .unwrap_or_else(|e| panic!("malformed scrape exposition: {e}"));
    let bound = rtec_obs::profile::DEFAULT_TOP_N + 1;
    for family in [
        "rtec_profile_rule_self_us",
        "rtec_profile_rule_calls",
        "rtec_profile_rule_interval_ops",
    ] {
        let series = scrape
            .lines()
            .filter(|l| l.starts_with(&format!("{family}{{")))
            .count();
        assert!(series >= 1, "scrape is missing {family}");
        assert!(
            series <= bound,
            "{family}: {series} series breaches the top-N cardinality bound ({bound})"
        );
    }
}

/// The `open` layer on its own: `Registry::dispatch` of an `open` frame
/// carrying the gold description with the background of a
/// `BrestScenario::large` dataset rendered back to source (the shape of
/// every open in the paper's description grid), on 2 shards. Only the
/// open is timed; the session is closed between iterations.
fn bench_open(c: &mut Criterion) {
    rtec_obs::set_max_level(rtec_obs::Level::Warn);
    let dataset = Dataset::generate(&BrestScenario::large());
    let description = dataset
        .with_background(maritime::gold::GOLD_RULES)
        .to_source();
    let open = format!(
        "{{\"cmd\":\"open\",\"session\":\"open\",\"description\":{},\"shards\":2}}",
        serde_json::to_string(&serde_json::Value::from(description)).unwrap()
    );
    let close = "{\"cmd\":\"close\",\"session\":\"open\"}";
    let registry = rtec_service::Registry::new();
    let mut group = c.benchmark_group("service");
    group.sample_size(20);
    group.bench_function("open_gold", |b| {
        b.iter_custom(|iters| {
            let mut opening = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                let reply = registry.dispatch(&open);
                opening += start.elapsed();
                assert!(reply.starts_with("{\"ok\":true"), "open failed: {reply}");
                registry.dispatch(close);
            }
            opening
        })
    });
    group.finish();
}

criterion_group!(benches, bench_service, bench_open);
criterion_main!(benches);
