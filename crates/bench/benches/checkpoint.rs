//! Session checkpoint codec: encode (`SessionCheckpoint::to_json`) and
//! decode (`SessionCheckpoint::from_json`) of a durable-streaming image —
//! 20 synthetic Brest vessels on 2 shards, window 3600 / slide 600,
//! incremental, captured halfway through the stream — the document a
//! `serve --checkpoint-dir` session rewrites after every tick.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use maritime::synth::ScaleTier;
use rtec_service::persist::SessionCheckpoint;
use rtec_service::{Session, SessionConfig};
use std::hint::black_box;

const WINDOW: i64 = 3600;
const SLIDE: i64 = 600;

/// Streams the first half of a seeded 20-vessel synth stream, ticking
/// at every slide boundary, and captures the session at the last tick.
fn mid_stream_image() -> SessionCheckpoint {
    let config = maritime::synth::SynthConfig {
        vessels: 20,
        ..ScaleTier::Brest.config().with_seed(1)
    };
    let description = format!("{}\n{}", maritime::gold::GOLD_RULES, config.background());
    let mut session = Session::open(
        "bench",
        &description,
        SessionConfig {
            window: Some(WINDOW),
            slide: Some(SLIDE),
            incremental: true,
            shards: 2,
            reorder_slack: Some(120),
            ..SessionConfig::default()
        },
    )
    .expect("open");
    let stop = config.horizon() / 2;
    let mut next_tick = SLIDE;
    for (ev, t) in config.stream() {
        if t > stop {
            break;
        }
        while t > next_tick + 120 {
            session.tick(next_tick).expect("tick");
            next_tick += SLIDE;
        }
        session.ingest_event(&ev.render(), t).expect("event");
    }
    let image = SessionCheckpoint::capture(&session).expect("capturable after a tick");
    session.close().expect("close");
    image
}

fn bench_checkpoint(c: &mut Criterion) {
    rtec_obs::set_max_level(rtec_obs::Level::Warn);
    let image = mid_stream_image();
    let doc = image.to_json();
    let decoded = SessionCheckpoint::from_json(&doc).expect("the document decodes");
    assert_eq!(
        decoded.to_json(),
        doc,
        "decode then encode must reproduce the bytes"
    );
    let mut group = c.benchmark_group("checkpoint");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(image.to_json())));
    group.bench_function("decode", |b| {
        b.iter(|| black_box(SessionCheckpoint::from_json(&doc).expect("decode")))
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
