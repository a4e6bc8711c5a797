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

/// The per-literal probe description: `withinArea` (the paper's rules
/// (1)-(3)), so the ground `holdsAt` probe has something to read, and
/// one probe fluent per literal kind, each triggered by every
/// `velocity` event. From `pCompare` on, each probe adds one literal
/// kind to the trigger and a comparison that never holds; `pHead` and
/// `pPattern` hold theirs, so a head (or a pattern termination) is
/// recorded on every event.
const LITERAL_PROBES: &str = "
initiatedAt(withinArea(V, AreaType)=true, T) :-
    happensAt(entersArea(V, AreaId), T), areaType(AreaId, AreaType).
terminatedAt(withinArea(V, AreaType)=true, T) :-
    happensAt(leavesArea(V, AreaId), T), areaType(AreaId, AreaType).
terminatedAt(withinArea(V, _AreaType)=true, T) :-
    happensAt(gap_start(V), T).
initiatedAt(pCompare(V)=true, T) :-
    happensAt(velocity(V, S, _H, _C), T), S < 0.
initiatedAt(pConstFact(V)=true, T) :-
    happensAt(velocity(V, S, _H, _C), T), thresholds(movingMin, M), S < M - 1000.
initiatedAt(pSlotFact(V)=true, T) :-
    happensAt(velocity(V, S, _H, _C), T), vesselType(V, _Ty), S < 0.
initiatedAt(pHoldsAt(V)=true, T) :-
    happensAt(velocity(V, S, _H, _C), T), holdsAt(withinArea(V, nearCoast)=true, T), S < 0.
initiatedAt(pHead(V)=true, T) :-
    happensAt(velocity(V, S, _H, _C), T), S >= 0.
initiatedAt(pDrift(V)=true, T) :-
    happensAt(velocity(V, _S, H, C), T), min(abs(H - C), 360 - abs(H - C)) < 0.
initiatedAt(pPattern(V)=true, T) :-
    happensAt(gap_end(V), T).
terminatedAt(pPattern(V)=_X, T) :-
    happensAt(velocity(V, S, _H, _C), T), S >= 0.
";

/// `(cell, probe fluent)` of each `recognition/literal_costs` cell.
const LITERAL_CELLS: &[(&str, &str)] = &[
    ("trigger_compare", "pCompare/1"),
    ("const_fact", "pConstFact/1"),
    ("slot_fact", "pSlotFact/1"),
    ("ground_holds_at", "pHoldsAt/1"),
    ("head_record", "pHead/1"),
    ("drifting_compare", "pDrift/1"),
    ("pattern_termination", "pPattern/1"),
];

/// Per-literal plan cost (`recognition/literal_costs/<kind>`): the probe
/// description windowless over `BrestScenario::large()` seed 1, one
/// `run_to` to the horizon, and each cell times one probe fluent's
/// stratum with the engine's per-rule profiler. A cell's difference
/// from `trigger_compare` is the cost of the literal it adds. The
/// window's shared work (interning its events, folding the output)
/// belongs to no stratum; `window` times the whole `run_to`.
fn bench_literal_costs(c: &mut Criterion) {
    let dataset = Dataset::generate(&BrestScenario {
        seed: 1,
        ..BrestScenario::large()
    });
    let horizon = dataset.horizon() + 1;
    let compiled = dataset
        .with_background(LITERAL_PROBES)
        .compile()
        .expect("the probe description compiles");
    assert!(
        !compiled.report.has_errors(),
        "a probe rule is rejected: {:?}",
        compiled.report.issues
    );
    // Runs the description once; the profiler's self time of `fluent`
    // (the whole `run_to` for `None`).
    let run = |fluent: Option<&str>| -> Duration {
        let mut engine = loaded(&compiled, &dataset);
        engine.enable_profiler();
        let started = Instant::now();
        engine.run_to(horizon);
        let window = started.elapsed();
        let profile = engine.profile().expect("profiling is on");
        match fluent {
            None => window,
            Some(name) => {
                let entry = profile
                    .sorted()
                    .into_iter()
                    .find(|e| e.name == name)
                    .unwrap_or_else(|| panic!("{name} has a stratum"));
                Duration::from_nanos(entry.cost.self_ns)
            }
        }
    };
    let mut group = c.benchmark_group("recognition/literal_costs");
    group.sample_size(10);
    for (cell, fluent) in LITERAL_CELLS
        .iter()
        .map(|(cell, fluent)| (*cell, Some(*fluent)))
        .chain([("window", None)])
    {
        group.bench_function(cell, |b| {
            b.iter_custom(|iters| (0..iters).map(|_| run(fluent)).sum())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_recognition,
    bench_grid_plan,
    bench_literal_costs
);
criterion_main!(benches);
