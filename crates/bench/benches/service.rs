//! Streaming-service throughput: the maritime critical-event stream
//! replayed through an in-process rtec-service session (ingest → tick →
//! query), at several shard counts, measured in events per second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use maritime::{BrestScenario, Dataset};
use rtec_service::{Session, SessionConfig};
use std::hint::black_box;
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
    replay_with(w, shards, ticks, None)
}

fn replay_with(w: &Workload, shards: usize, ticks: i64, reorder_slack: Option<i64>) -> usize {
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
        session
            .ingest_intervals(fluent, value, pairs)
            .expect("intervals");
    }
    let step = (w.horizon / ticks).max(1);
    let mut next_tick = step;
    for &(t, ref ev) in &w.events {
        if t >= next_tick {
            session.tick(next_tick - 1).expect("tick");
            next_tick += ((t - next_tick) / step + 1) * step;
        }
        session.ingest_event(ev, t).expect("event");
    }
    session.tick(w.horizon).expect("final tick");
    let (out, _) = session.query().expect("query");
    let n = out.len();
    session.close().expect("close");
    n
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
    // The resilient-ingestion gate at slack=0 (a strict in-order check
    // in front of the router) must stay within a few percent of the
    // ungated replay above — compare the two series in CI.
    group.bench_with_input(
        BenchmarkId::new("replay_maritime_reorder0", 1usize),
        &1usize,
        |b, &shards| b.iter(|| black_box(replay_with(&w, shards, 12, Some(0)))),
    );
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
