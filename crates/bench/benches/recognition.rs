//! Recognition throughput (Figure 2c's engine runs) and the window-size
//! ablation: RTEC's cost as a function of the processing window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use maritime::{BrestScenario, Dataset};
use rtec::description::CompiledDescription;
use rtec::{Engine, EngineConfig, Timepoint};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_recognition(c: &mut Criterion) {
    let dataset = bench::small_dataset();
    let gold = dataset.gold_description();
    let compiled = gold.compile().expect("gold compiles");
    let horizon = dataset.horizon() + 1;

    let mut group = c.benchmark_group("recognition");
    group.sample_size(10);
    group.throughput(Throughput::Elements(dataset.stream.len() as u64));

    // Named for the plan, which every engine runs; ROADMAP and CHANGES
    // cite the cell by this name.
    group.bench_function("gold_batch_plan", |b| {
        b.iter(|| {
            let mut engine = loaded(&compiled, &dataset);
            engine.run_to(horizon);
            black_box(engine.into_output().len())
        })
    });

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

/// Loads `dataset` into a fresh windowless engine.
fn loaded<'d>(compiled: &'d CompiledDescription, dataset: &Dataset) -> Engine<'d> {
    let mut engine = Engine::new(compiled, EngineConfig::default());
    dataset.stream.load_into(&mut engine);
    engine
}

/// Plan evaluation alone, the way `llm_grid` drives it: the four
/// accepted grid descriptions over `BrestScenario::large()` seed 1, each
/// windowless with 12 intermediate `run_to` steps plus the horizon.
/// Engine construction and stream loading stay off the clock.
fn bench_grid_plan(c: &mut Criterion) {
    let dataset = Dataset::generate(&BrestScenario {
        seed: 1,
        ..BrestScenario::large()
    });
    let horizon = dataset.horizon() + 1;
    let step = (horizon / 12).max(1);
    let targets: Vec<Timepoint> = (1..=12).map(|k| step * k - 1).chain([horizon]).collect();
    let compiled: Vec<CompiledDescription> = bench::grid_descriptions()
        .iter()
        .map(|(label, rules)| {
            dataset
                .with_background(rules)
                .compile()
                .unwrap_or_else(|e| panic!("{label} compiles: {e}"))
        })
        .collect();
    let run = |engine: &mut Engine<'_>| {
        for &to in &targets {
            engine.run_to(to);
        }
    };
    let mut group = c.benchmark_group("recognition");
    group.sample_size(10);
    group.bench_function("grid_plan", |b| {
        b.iter_custom(|iters| {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                for desc in &compiled {
                    let mut engine = loaded(desc, &dataset);
                    let started = Instant::now();
                    run(&mut engine);
                    spent += started.elapsed();
                    black_box(engine.output().len());
                }
            }
            spent
        })
    });
    group.finish();
}

criterion_group!(benches, bench_recognition, bench_grid_plan);
criterion_main!(benches);
