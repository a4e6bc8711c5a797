//! Headline replay benchmark: the maritime critical-event stream
//! replayed through an in-process rtec-service session at several shard
//! counts, plus the same stream through one engine with the AST
//! interpreter vs the compiled plan (docs/PLAN.md), reported as events
//! per second in `BENCH_replay.json`.
//!
//! Run from the repository root (release profile, or the numbers are
//! meaningless):
//!
//! ```text
//! cargo run --release -p bench --bin replay_bench [-- OUTPUT.json] [-- --synth-only]
//! ```
//!
//! The output file is an append-only log: every invocation adds one
//! run record (git revision, date, configuration, throughput, profiler
//! hot spots) under `"runs"`, so regressions can be traced across
//! commits instead of each run clobbering the last. A legacy
//! single-object file is absorbed as the first run.
//!
//! Unlike the Criterion benches (which track regressions), this runner
//! produces the checked-in measurement that pins the plan evaluator's
//! speedup over the interpreter; see docs/PLAN.md. Sessions always run
//! the plan, so the interpreter is timed on engines built directly
//! (`Engine::new` vs `Engine::with_plan`). The timed replays run with the
//! profiler off (pure recognition cost); a separate profiled pass
//! measures the profiler's overhead and attributes wall time per rule
//! for the maritime gold description (docs/PROFILING.md).
//!
//! Each run also records a `brest_synth` cell: the seeded synthetic
//! stream (docs/SCALE.md, Brest tier by default, `RTEC_SCALE_TIER`
//! overrides) replayed through a sliding window twice — full
//! recomputation vs incremental re-evaluation — pinning the
//! incremental evaluator's speedup at a high-overlap slide. Pass
//! `--synth-only` to skip the maritime headline sweep (CI's
//! scale-smoke job does, to bound wall time).

use maritime::synth::{ScaleTier, SynthStream};
use maritime::{BrestScenario, Dataset};
use rtec::engine::{Engine, EngineConfig};
use rtec::interval::IntervalList;
use rtec::term::{GroundFvp, Term};
use rtec::CompiledDescription;
use rtec_plan::WithPlan;
use rtec_service::{Session, SessionConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

struct Workload {
    gold: String,
    events: Vec<(i64, String)>,
    intervals: Vec<rtec_service::client::IntervalDecl>,
    horizon: i64,
}

fn workload() -> Workload {
    let dataset = Dataset::generate(&BrestScenario::default());
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

const TICKS: i64 = 12;

/// One full replay; returns the recognised fluent-value-pair count and,
/// when profiled, the session's merged per-rule aggregate.
fn replay(
    w: &Workload,
    shards: usize,
    profile: bool,
) -> (usize, Option<rtec_obs::profile::ProfileAggregate>) {
    let mut session = Session::open(
        "bench",
        &w.gold,
        SessionConfig {
            window: None,
            shards,
            queue_capacity: 1024,
            profile,
            ..SessionConfig::default()
        },
    )
    .expect("open");
    for (fluent, value, pairs) in &w.intervals {
        session
            .ingest_intervals(fluent, value, pairs)
            .expect("intervals");
    }
    let step = (w.horizon / TICKS).max(1);
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
    let aggregate = session.profile().cloned();
    session.close().expect("close");
    (n, aggregate)
}

/// Times `runs` replays and returns the median wall-clock seconds (the
/// statistic least disturbed by a one-off scheduler hiccup).
fn measure(w: &Workload, shards: usize, warmup: usize, runs: usize) -> f64 {
    let mut fvps = None;
    for _ in 0..warmup {
        let (n, _) = replay(w, shards, false);
        assert!(n > 0, "replay recognised nothing");
        fvps = Some(n);
    }
    let mut seconds: Vec<f64> = (0..runs)
        .map(|_| {
            let started = Instant::now();
            let (n, _) = replay(w, shards, false);
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(Some(n), fvps, "output size changed between runs");
            elapsed
        })
        .collect();
    seconds.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    seconds[seconds.len() / 2]
}

/// The workload parsed once against the description's symbol table,
/// for the engine-level evaluator comparison.
struct ParsedWorkload {
    compiled: CompiledDescription,
    events: Vec<(Term, i64)>,
    intervals: Vec<(GroundFvp, IntervalList)>,
    horizon: i64,
}

fn parse_workload(w: &Workload) -> ParsedWorkload {
    let mut desc = rtec::EventDescription::parse(&w.gold).expect("gold parses");
    let events = w
        .events
        .iter()
        .map(|(t, ev)| (desc.term(ev).expect("event parses"), *t))
        .collect();
    let intervals = w
        .intervals
        .iter()
        .map(|(fluent, value, pairs)| {
            let fvp = desc.fvp(&format!("{fluent}={value}")).expect("fvp parses");
            (fvp, IntervalList::from_pairs(pairs))
        })
        .collect();
    ParsedWorkload {
        compiled: desc.compile().expect("gold compiles"),
        events,
        intervals,
        horizon: w.horizon,
    }
}

/// One replay through a single engine, ticking where [`replay`] ticks;
/// returns the recognised fluent-value-pair count.
fn engine_replay(p: &ParsedWorkload, plan: bool) -> usize {
    let config = EngineConfig::default();
    let mut engine = if plan {
        Engine::with_plan(&p.compiled, config)
    } else {
        Engine::new(&p.compiled, config)
    };
    for (fvp, list) in &p.intervals {
        engine.add_input_intervals(fvp.clone(), list.clone());
    }
    let step = (p.horizon / TICKS).max(1);
    let mut next_tick = step;
    for (ev, t) in &p.events {
        if *t >= next_tick {
            engine.run_to(next_tick - 1);
            next_tick += ((t - next_tick) / step + 1) * step;
        }
        engine.add_event(ev.clone(), *t);
    }
    engine.run_to(p.horizon).len()
}

/// Times the interpreter and the plan on engines built directly,
/// interleaved (interpreter, plan, interpreter, ...) so drift biases
/// both medians alike; returns their median seconds.
fn evaluator_medians(p: &ParsedWorkload, warmup: usize, runs: usize) -> (f64, f64) {
    let expected = engine_replay(p, false);
    assert!(expected > 0, "engine replay recognised nothing");
    for _ in 0..warmup {
        assert_eq!(engine_replay(p, true), expected, "plan diverged");
    }
    let mut interp_s = Vec::with_capacity(runs);
    let mut plan_s = Vec::with_capacity(runs);
    for _ in 0..runs {
        for (plan, seconds) in [(false, &mut interp_s), (true, &mut plan_s)] {
            let started = Instant::now();
            let n = engine_replay(p, plan);
            seconds.push(started.elapsed().as_secs_f64());
            assert_eq!(n, expected, "output size changed between runs");
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    (median(&mut interp_s), median(&mut plan_s))
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Journal commit granularity: the `stream` client ships events in
/// `batch` frames of 64 by default, and the registry commits the
/// journal once per frame — one commit covers one ack.
const JOURNAL_BATCH: usize = 64;

/// One full replay with a write-ahead journal attached, mirroring the
/// service's ack discipline under `--journal-dir` (docs/ROBUSTNESS.md)
/// for the headline `stream` path: every ingest is appended before its
/// ack, with one commit per 64-event `batch` frame and a commit at
/// every tick. Returns the recognised fluent-value-pair count (must
/// match the unjournaled replay).
fn journaled_replay(
    w: &Workload,
    shards: usize,
    dir: &std::path::Path,
    policy: rtec_service::FsyncPolicy,
) -> usize {
    rtec_service::journal::remove(dir, "bench");
    let mut journal = rtec_service::Journal::create(dir, "bench", policy).expect("create journal");
    let open: Value =
        serde_json::from_str(r#"{"cmd":"open","session":"bench"}"#).expect("open record");
    journal.append_open(&open);
    journal.commit().expect("commit open record");
    let mut session = Session::open(
        "bench",
        &w.gold,
        SessionConfig {
            window: None,
            shards,
            queue_capacity: 1024,
            profile: false,
            ..SessionConfig::default()
        },
    )
    .expect("open");
    for (fluent, value, pairs) in &w.intervals {
        journal.append_intervals(fluent, value, pairs);
        journal.commit().expect("commit intervals");
        session
            .ingest_intervals(fluent, value, pairs)
            .expect("intervals");
    }
    let step = (w.horizon / TICKS).max(1);
    let mut next_tick = step;
    let mut pending = 0usize;
    for &(t, ref ev) in &w.events {
        if t >= next_tick {
            journal.commit().expect("commit before tick");
            pending = 0;
            session.tick(next_tick - 1).expect("tick");
            next_tick += ((t - next_tick) / step + 1) * step;
        }
        journal.append_event(t, ev);
        pending += 1;
        if pending >= JOURNAL_BATCH {
            journal.commit().expect("commit batch");
            pending = 0;
        }
        session.ingest_event(ev, t).expect("event");
    }
    session.tick(w.horizon).expect("final tick");
    journal.commit().expect("final commit");
    let (out, _) = session.query().expect("query");
    let n = out.len();
    session.close().expect("close");
    n
}

/// Times the journaled replay (fsync `never`, the throughput-oriented
/// policy) against an unjournaled baseline at the same configuration
/// and returns the `journal_overhead` run cell. The two legs are
/// measured **interleaved** (baseline, journaled, baseline, ...) so
/// frequency drift or background load biases both medians equally
/// instead of whichever leg ran second.
fn journal_cell(w: &Workload, shards: usize, warmup: usize, runs: usize) -> Value {
    // The cell discriminates a few percent; medians over the headline
    // sweep's 5 runs cannot do that on a noisy single-CPU box.
    let runs = runs.max(15);
    let n_events = w.events.len();
    let dir = std::env::temp_dir().join(format!("rtec-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let expected = replay(w, shards, false).0;
    for _ in 0..warmup {
        let n = journaled_replay(w, shards, &dir, rtec_service::FsyncPolicy::Never);
        assert_eq!(n, expected, "journaled replay changed the output");
    }
    let mut baseline_s: Vec<f64> = Vec::with_capacity(runs);
    let mut journaled_s: Vec<f64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let started = Instant::now();
        let (n, _) = replay(w, shards, false);
        baseline_s.push(started.elapsed().as_secs_f64());
        assert_eq!(n, expected, "baseline replay changed the output");
        let started = Instant::now();
        let n = journaled_replay(w, shards, &dir, rtec_service::FsyncPolicy::Never);
        journaled_s.push(started.elapsed().as_secs_f64());
        assert_eq!(n, expected, "journaled replay changed the output");
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let baseline = median(&mut baseline_s);
    let journaled = median(&mut journaled_s);
    let _ = std::fs::remove_dir_all(&dir);
    let baseline_eps = n_events as f64 / baseline;
    let journaled_eps = n_events as f64 / journaled;
    let overhead_pct = (journaled / baseline - 1.0) * 100.0;
    eprintln!(
        "journal fsync=never shards={shards}: {journaled:.3}s vs {baseline:.3}s baseline \
         ({overhead_pct:+.1}% overhead, {journaled_eps:.0} events/s)"
    );
    let mut cell = BTreeMap::new();
    cell.insert("shards".to_string(), Value::from(shards));
    cell.insert("fsync".to_string(), Value::from("never"));
    cell.insert("batch_size".to_string(), Value::from(JOURNAL_BATCH));
    cell.insert("baseline_seconds_median".to_string(), Value::from(baseline));
    cell.insert(
        "baseline_events_per_sec".to_string(),
        Value::from(round1(baseline_eps)),
    );
    cell.insert(
        "journaled_seconds_median".to_string(),
        Value::from(journaled),
    );
    cell.insert(
        "journaled_events_per_sec".to_string(),
        Value::from(round1(journaled_eps)),
    );
    cell.insert(
        "overhead_pct".to_string(),
        Value::from((overhead_pct * 100.0).round() / 100.0),
    );
    Value::Object(cell.into_iter().collect())
}

/// One profiled replay at a single shard: the per-rule
/// hot-spot table for the maritime gold description, plus the profiled
/// throughput (so the profiler's overhead is visible next to the
/// unprofiled numbers).
fn hotspot_pass(w: &Workload, top_n: usize) -> (Vec<Value>, f64) {
    let started = Instant::now();
    let (_, aggregate) = replay(w, 1, true);
    let eps = w.events.len() as f64 / started.elapsed().as_secs_f64();
    let aggregate = aggregate.expect("profiled replay returns an aggregate");
    eprintln!("{}", aggregate.render_table(top_n));
    let rows = aggregate
        .sorted()
        .into_iter()
        .take(top_n)
        .map(|e| {
            let mut row = BTreeMap::new();
            row.insert("rule".to_string(), Value::from(e.name));
            row.insert("kind".to_string(), Value::from(e.kind.as_str()));
            row.insert(
                "calls".to_string(),
                Value::from(i64::try_from(e.cost.calls).unwrap_or(i64::MAX)),
            );
            row.insert(
                "self_us".to_string(),
                Value::from(i64::try_from(e.cost.self_us()).unwrap_or(i64::MAX)),
            );
            row.insert(
                "interval_ops".to_string(),
                Value::from(i64::try_from(e.cost.interval_ops).unwrap_or(i64::MAX)),
            );
            Value::Object(row.into_iter().collect())
        })
        .collect();
    (rows, eps)
}

/// Sliding-window geometry for the synthetic cell: a 3600 s window
/// advancing 600 s per tick, so 5/6 of every window is overlap the
/// incremental evaluator can keep instead of recomputing.
const SYNTH_WINDOW: i64 = 3600;
const SYNTH_SLIDE: i64 = 600;
const SYNTH_SHARDS: usize = 2;

struct SynthWorkload {
    gold: String,
    events: Vec<(i64, String)>,
    horizon: i64,
    tier: &'static str,
    vessels: usize,
}

/// Materialises one synthetic tier (docs/SCALE.md): the event stream is
/// a pure function of the tier's pinned seed, so cells recorded from
/// different checkouts replay the same workload.
fn synth_workload(tier: ScaleTier) -> SynthWorkload {
    let config = tier.config();
    let events: Vec<(i64, String)> = SynthStream::new(config)
        .map(|(ev, t)| (t, ev.render()))
        .collect();
    SynthWorkload {
        gold: format!("{}\n{}", maritime::gold::GOLD_RULES, config.background()),
        events,
        horizon: config.horizon(),
        tier: tier.name(),
        vessels: config.vessels,
    }
}

/// One sliding-window replay over the synthetic stream, ticking at
/// every slide boundary; returns the recognised fluent-value-pair count
/// of the final window (must agree between the two evaluation modes).
fn synth_replay(w: &SynthWorkload, incremental: bool) -> usize {
    let mut session = Session::open(
        "bench-synth",
        &w.gold,
        SessionConfig {
            window: Some(SYNTH_WINDOW),
            slide: Some(SYNTH_SLIDE),
            incremental,
            shards: SYNTH_SHARDS,
            queue_capacity: 1024,
            ..SessionConfig::default()
        },
    )
    .expect("open synth session");
    let mut next_tick = SYNTH_SLIDE;
    for &(t, ref ev) in &w.events {
        while t > next_tick {
            session.tick(next_tick).expect("tick");
            next_tick += SYNTH_SLIDE;
        }
        session.ingest_event(ev, t).expect("event");
    }
    session.tick(w.horizon.max(next_tick)).expect("final tick");
    let (out, _) = session.query().expect("query");
    let n = out.len();
    session.close().expect("close");
    n
}

/// Times the synthetic sliding-window replay in both evaluation modes
/// and returns the `brest_synth` run cell. The incremental evaluator
/// must recognise exactly what full recomputation recognises — the
/// differential suites pin interval-level identity; this pass asserts
/// the cheap end-to-end invariant before trusting the timings.
fn synth_cell(tier: ScaleTier) -> Value {
    let w = synth_workload(tier);
    let n_events = w.events.len();
    eprintln!(
        "synth tier={} vessels={} events={n_events} window={SYNTH_WINDOW} slide={SYNTH_SLIDE}",
        w.tier, w.vessels
    );
    let [(full_s, full_eps, full_n), (incr_s, incr_eps, incr_n)] =
        [false, true].map(|incremental| {
            let label = if incremental { "incremental" } else { "full" };
            let started = Instant::now();
            let n = synth_replay(&w, incremental);
            let seconds = started.elapsed().as_secs_f64();
            let eps = n_events as f64 / seconds;
            eprintln!("synth {label}: {seconds:.3}s, {eps:.0} events/s ({n} fvps)");
            (seconds, eps, n)
        });
    assert_eq!(
        full_n, incr_n,
        "incremental and full recomputation disagree on the final window"
    );
    let speedup = incr_eps / full_eps;
    eprintln!("synth incremental speedup over full recomputation: {speedup:.2}x");
    let mut cell = BTreeMap::new();
    cell.insert("tier".to_string(), Value::from(w.tier));
    cell.insert("vessels".to_string(), Value::from(w.vessels));
    cell.insert("events".to_string(), Value::from(n_events));
    cell.insert("window".to_string(), Value::from(SYNTH_WINDOW));
    cell.insert("slide".to_string(), Value::from(SYNTH_SLIDE));
    cell.insert("shards".to_string(), Value::from(SYNTH_SHARDS));
    cell.insert("full_seconds".to_string(), Value::from(full_s));
    cell.insert(
        "full_events_per_sec".to_string(),
        Value::from(round1(full_eps)),
    );
    cell.insert("incremental_seconds".to_string(), Value::from(incr_s));
    cell.insert(
        "incremental_events_per_sec".to_string(),
        Value::from(round1(incr_eps)),
    );
    cell.insert(
        "incremental_speedup".to_string(),
        Value::from((speedup * 1000.0).round() / 1000.0),
    );
    Value::Object(cell.into_iter().collect())
}

/// The short git revision, when the binary runs inside a work tree with
/// git on PATH; `null` otherwise (the record is still appended).
fn git_revision() -> Value {
    let output = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    match output {
        Ok(out) if out.status.success() => {
            Value::from(String::from_utf8_lossy(&out.stdout).trim().to_string())
        }
        _ => Value::Null,
    }
}

/// Loads the existing run log. A legacy single-run object (no `"runs"`
/// key) becomes the first entry; unreadable or malformed files start a
/// fresh log rather than aborting the benchmark.
fn load_runs(path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        eprintln!("warning: {path} is not JSON; starting a fresh run log");
        return Vec::new();
    };
    match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.clone(),
        None => vec![doc],
    }
}

fn main() {
    let mut out_path = "BENCH_replay.json".to_string();
    let mut synth_only = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--synth-only" => synth_only = true,
            other => out_path = other.to_string(),
        }
    }
    // Per-replay session open/close info events would swamp the output;
    // keep only warnings.
    rtec_obs::set_max_level(rtec_obs::Level::Warn);

    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut run = BTreeMap::new();
    run.insert("git_rev".to_string(), git_revision());
    run.insert(
        "date_epoch_secs".to_string(),
        Value::from(i64::try_from(date).unwrap_or(0)),
    );

    if !synth_only {
        let w = workload();
        let n_events = w.events.len();
        let (warmup, runs) = (1usize, 5usize);

        let mut results = Vec::new();
        for shards in [1usize, 2, 4] {
            let median = measure(&w, shards, warmup, runs);
            let eps = n_events as f64 / median;
            eprintln!("shards={shards}: {median:.3}s median, {eps:.0} events/s");
            let mut row = BTreeMap::new();
            row.insert("shards".to_string(), Value::from(shards));
            row.insert("seconds_median".to_string(), Value::from(median));
            row.insert("events_per_sec".to_string(), Value::from(round1(eps)));
            results.push(Value::Object(row.into_iter().collect()));
        }

        let (interp_s, plan_s) = evaluator_medians(&parse_workload(&w), warmup, runs);
        let plan_speedup = interp_s / plan_s;
        eprintln!(
            "engine: interpreter {interp_s:.3}s, plan {plan_s:.3}s median ({plan_speedup:.2}x)"
        );
        let mut evaluators = BTreeMap::new();
        evaluators.insert(
            "interpreter_events_per_sec".to_string(),
            Value::from(round1(n_events as f64 / interp_s)),
        );
        evaluators.insert(
            "plan_events_per_sec".to_string(),
            Value::from(round1(n_events as f64 / plan_s)),
        );
        evaluators.insert(
            "plan_speedup".to_string(),
            Value::from((plan_speedup * 1000.0).round() / 1000.0),
        );

        let (hotspots, profiled_eps) = hotspot_pass(&w, rtec_obs::profile::DEFAULT_TOP_N);
        eprintln!("profiled plan replay (1 shard): {profiled_eps:.0} events/s");

        let mut config = BTreeMap::new();
        config.insert("dataset".to_string(), Value::from("brest_default"));
        config.insert("events".to_string(), Value::from(n_events));
        config.insert("ticks".to_string(), Value::from(TICKS));
        config.insert("warmup_runs".to_string(), Value::from(warmup));
        config.insert("measured_runs".to_string(), Value::from(runs));
        config.insert("statistic".to_string(), Value::from("median"));
        run.insert(
            "config".to_string(),
            Value::Object(config.into_iter().collect()),
        );
        run.insert("results".to_string(), Value::Array(results));
        run.insert(
            "engine_evaluators".to_string(),
            Value::Object(evaluators.into_iter().collect()),
        );
        run.insert("hotspots".to_string(), Value::Array(hotspots));
        run.insert(
            "profiled_plan_events_per_sec".to_string(),
            Value::from(round1(profiled_eps)),
        );
        // Write-ahead journal overhead (docs/ROBUSTNESS.md): the same
        // replay with every ingest journaled at fsync `never`, expected
        // within a few percent of the unjournaled baseline.
        run.insert(
            "journal_overhead".to_string(),
            journal_cell(&w, 2, warmup, runs),
        );
    }

    // Synthetic sliding-window cell (docs/SCALE.md): Brest tier unless
    // RTEC_SCALE_TIER narrows it (CI's scale-smoke job runs `smoke`).
    let tier = match std::env::var("RTEC_SCALE_TIER") {
        Ok(s) => ScaleTier::parse(&s)
            .unwrap_or_else(|| panic!("unknown RTEC_SCALE_TIER {s:?} (small|smoke|brest)")),
        Err(_) => ScaleTier::Brest,
    };
    run.insert("brest_synth".to_string(), synth_cell(tier));

    // Every instrumented hot path ran above; the exposition it produced
    // must be well-formed Prometheus text (strict validator), so a
    // malformed metric fails the benchmark run, not a scrape later.
    let exposition = rtec_obs::global().render_prometheus();
    rtec_obs::expo::validate(&exposition)
        .unwrap_or_else(|e| panic!("malformed exposition after replay: {e}"));

    let mut runs_log = load_runs(&out_path);
    runs_log.push(Value::Object(run.into_iter().collect()));
    let mut doc = BTreeMap::new();
    doc.insert("bench".to_string(), Value::from("service/replay_maritime"));
    doc.insert("runs".to_string(), Value::Array(runs_log));
    let json = serde_json::to_string_pretty(&Value::Object(doc.into_iter().collect()))
        .expect("render json");
    std::fs::write(&out_path, format!("{json}\n")).expect("write output");
    eprintln!("appended run to {out_path}");
}
