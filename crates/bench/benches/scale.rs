//! Sliding-window replay of the seeded synthetic Brest stream
//! (docs/SCALE.md) through an in-process rtec-service session, full
//! recomputation vs incremental re-evaluation, in events per second.
//!
//! The tier comes from `RTEC_SCALE_TIER` (`small` by default):
//!
//! ```text
//! RTEC_SCALE_TIER=smoke cargo bench -p bench --bench scale
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use maritime::synth::{ScaleTier, SynthStream};
use rtec_service::{Session, SessionConfig};

/// A 3600 s window advancing 600 s per tick: 5/6 of every window is
/// overlap the incremental evaluator can keep instead of recomputing.
const WINDOW: i64 = 3600;
const SLIDE: i64 = 600;
const SHARDS: usize = 2;

struct Workload {
    gold: String,
    events: Vec<(i64, String)>,
    horizon: i64,
}

fn workload(tier: ScaleTier) -> Workload {
    let config = tier.config();
    Workload {
        gold: format!("{}\n{}", maritime::gold::GOLD_RULES, config.background()),
        events: SynthStream::new(config)
            .map(|(ev, t)| (t, ev.render()))
            .collect(),
        horizon: config.horizon(),
    }
}

/// One sliding replay, ticking at every slide boundary; returns the
/// fluent-value-pair count of the final window.
fn replay(w: &Workload, incremental: bool) -> usize {
    let mut session = Session::open(
        "bench-synth",
        &w.gold,
        SessionConfig {
            window: Some(WINDOW),
            slide: Some(SLIDE),
            incremental,
            shards: SHARDS,
            queue_capacity: 1024,
            ..SessionConfig::default()
        },
    )
    .expect("open synth session");
    let mut next_tick = SLIDE;
    for &(t, ref ev) in &w.events {
        while t > next_tick {
            session.tick(next_tick).expect("tick");
            next_tick += SLIDE;
        }
        session.ingest_event(ev, t).expect("event");
    }
    session.tick(w.horizon.max(next_tick)).expect("final tick");
    let n = session.query().expect("query").0.len();
    session.close().expect("close");
    n
}

fn bench_scale(c: &mut Criterion) {
    rtec_obs::set_max_level(rtec_obs::Level::Warn);
    let tier = ScaleTier::from_env();
    let w = workload(tier);
    // The differential suites pin interval-level identity; this is the
    // cheap end-to-end invariant checked before trusting the timings.
    let expected = replay(&w, false);
    assert!(expected > 0, "synth replay recognised nothing");
    let (name, events) = (tier.name(), w.events.len());
    eprintln!("scale tier={name} events={events} fvps={expected}");
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.throughput(Throughput::Elements(w.events.len() as u64));
    for (mode, incremental) in [
        ("synth_sliding/full", false),
        ("synth_sliding/incremental", true),
    ] {
        group.bench_function(mode, |b| {
            b.iter(|| {
                let n = replay(&w, incremental);
                assert_eq!(n, expected, "incremental and full recomputation disagree");
                n
            })
        });
    }
    group.finish();
    let exposition = rtec_obs::global().render_prometheus();
    rtec_obs::expo::validate(&exposition)
        .unwrap_or_else(|e| panic!("malformed exposition after replay: {e}"));
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
