//! Recognition throughput (Figure 2c's engine runs) and the window-size
//! ablation: RTEC's cost as a function of the processing window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtec::{Engine, EngineConfig};
use rtec_plan::WithPlan;
use std::hint::black_box;

fn bench_recognition(c: &mut Criterion) {
    let dataset = bench::small_dataset();
    let gold = dataset.gold_description();
    let compiled = gold.compile().expect("gold compiles");
    let horizon = dataset.horizon() + 1;

    let mut group = c.benchmark_group("recognition");
    group.sample_size(10);
    group.throughput(Throughput::Elements(dataset.stream.len() as u64));

    // The AST interpreter (the reference semantics) and the compiled
    // plan every session runs. Both must recognise the same rows.
    let evaluators = [
        ("gold_batch", Engine::new as fn(_, _) -> _),
        ("gold_batch_plan", Engine::with_plan),
    ];
    let rows = evaluators.map(|(_, new)| {
        let mut engine: Engine<'_> = new(&compiled, EngineConfig::default());
        dataset.stream.load_into(&mut engine);
        engine.run_to(horizon);
        let symbols = engine.symbols().clone();
        let out = engine.into_output();
        let mut rows: Vec<_> = out
            .iter()
            .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
            .collect();
        rows.sort();
        rows
    });
    assert_eq!(rows[0], rows[1], "plan and interpreter disagree");
    for (name, new) in evaluators {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut engine = new(&compiled, EngineConfig::default());
                dataset.stream.load_into(&mut engine);
                engine.run_to(horizon);
                black_box(engine.into_output().len())
            })
        });
    }

    for window in [900i64, 3600, 21_600] {
        group.bench_with_input(
            BenchmarkId::new("gold_windowed", window),
            &window,
            |b, &w| {
                b.iter(|| {
                    let mut engine = Engine::new(&compiled, EngineConfig::windowed(w));
                    dataset.stream.load_into(&mut engine);
                    engine.run_to(horizon);
                    black_box(engine.into_output().len())
                })
            },
        );
    }

    // End-to-end dataset generation (AIS synthesis + preprocessing).
    group.bench_function("dataset_generation_small", |b| {
        b.iter(|| black_box(bench::small_dataset().stream.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_recognition);
criterion_main!(benches);
