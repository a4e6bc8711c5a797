//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_durable|stream_full|llm_grid --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced
//! in-process replay of the same frames. The line before it is a record
//! of the run (provenance, sample counts, workload details). See
//! `perfbench/README.md`.

use perfbench::oracle;
use perfbench::provenance::{peak_rss_mb, pin_to_one_cpu, stamp};
use perfbench::run::{
    durable_pass, full_pass, grid_pass, GridPass, Samples, Scrapes, SessionLog, StreamPass,
};
use perfbench::scrape::{delta, labelled_sum};
use perfbench::stats::{mean, median, percentile_metric, weighted_percentile_metric};
use perfbench::system::{int_field, Durability, Link};
use perfbench::trace::Mirror;
use perfbench::workload::{
    grid_input, stream_session, synth_input, Kind, SessionPlan, DURABLE, FULL,
};
use rtec_service::{FsyncPolicy, Registry};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload stream_durable|stream_full|llm_grid \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["stream_durable", "stream_full", "llm_grid"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What a run reports.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    record: BTreeMap<String, Value>,
}

struct Ctx {
    args: Args,
    root: PathBuf,
    work: PathBuf,
}

impl Ctx {
    fn budget(&self) -> Duration {
        Duration::from_secs(self.args.seconds)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if std::env::var_os("RTEC_EVAL").is_some() {
        eprintln!(
            "perfbench: RTEC_EVAL is set; the benchmark measures the service's default \
             evaluator and refuses to run with it pinned"
        );
        std::process::exit(2);
    }
    let root = std::env::current_dir().expect("a working directory");
    // Stamped before pinning, so `nproc` counts the machine's CPUs.
    let provenance = stamp(&root);
    let pinned_cpu = pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("perfbench: could not pin the process to one CPU; running unpinned");
    }
    rtec_obs::set_max_level(rtec_obs::Level::Warn);
    let work =
        root.join(".perfbench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx { args, root, work };
    let outcome = match ctx.args.workload.as_str() {
        "llm_grid" => grid_workload(&ctx),
        w => stream_workload(&ctx, w == "stream_durable"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(ctx.root.join(".perfbench_work"));

    let mut record = outcome.record;
    record.insert("workload".into(), Value::from(ctx.args.workload.as_str()));
    record.insert("seed".into(), Value::from(ctx.args.seed as i64));
    record.insert("run_seconds".into(), Value::from(ctx.args.seconds as i64));
    record.insert("trace".into(), Value::Bool(ctx.args.trace));
    record.insert(
        "pinned_cpu".into(),
        pinned_cpu.map_or(Value::Null, Value::from),
    );
    record.extend(provenance);
    record.insert(
        "problems".into(),
        Value::Array(
            outcome
                .problems
                .iter()
                .map(|p| Value::from(p.as_str()))
                .collect(),
        ),
    );
    for p in &outcome.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    let mut wrapper = BTreeMap::new();
    wrapper.insert("perfbench".to_string(), Value::Object(record));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(wrapper)).expect("record renders")
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Sample counts and the run's frame accounting, for the record. The
/// timings are those of the measured passes, after the warm-up pass.
fn sample_record(samples: &Samples) -> BTreeMap<String, Value> {
    let mut r = BTreeMap::new();
    r.insert("warmup_passes".into(), Value::from(1usize));
    r.insert("passes".into(), Value::from(samples.pass_ends.len()));
    r.insert(
        "acked_events".into(),
        Value::from(samples.acked_events as i64),
    );
    r.insert("streaming_s".into(), Value::from(samples.streaming_s));
    let mut counts = BTreeMap::new();
    for (name, n) in [
        ("setup_s", samples.setup_s.len()),
        ("grid_s", samples.grid_s.len()),
        ("batch", samples.batch_us.len()),
        ("tick", samples.tick_ms.len()),
        (
            "recognition",
            samples
                .recognition_ms
                .iter()
                .map(|&(_, n)| n as usize)
                .sum(),
        ),
        ("restore", samples.restore_ms.len()),
    ] {
        counts.insert(name.to_string(), Value::from(n));
    }
    r.insert("sample_counts".into(), Value::Object(counts));
    let mut per_pass = BTreeMap::new();
    let series = |xs: Vec<Option<f64>>| {
        Value::Array(
            xs.into_iter()
                .map(|x| x.map_or(Value::Null, Value::from))
                .collect(),
        )
    };
    per_pass.insert(
        "grid_s".to_string(),
        series(samples.grid_s.iter().map(|&s| Some(s)).collect()),
    );
    per_pass.insert(
        "events_per_s".to_string(),
        series(samples.per_pass(|_, _, end| Some(end.acked as f64 / end.streaming_s))),
    );
    for name in ["tick_p50_ms", "tick_p90_ms"] {
        per_pass.insert(
            name.to_string(),
            series(samples.per_pass(|ticks, _, _| percentile_metric(name, ticks))),
        );
    }
    for name in ["recognition_p50_ms", "recognition_p99_ms"] {
        per_pass.insert(
            name.to_string(),
            series(samples.per_pass(|_, rec, _| weighted_percentile_metric(name, rec))),
        );
    }
    r.insert(
        "per_pass".into(),
        Value::Object(per_pass.into_iter().collect()),
    );
    r.insert(
        "evaluator".into(),
        Value::Array(
            samples
                .evaluators
                .iter()
                .map(|e| Value::from(e.as_str()))
                .collect(),
        ),
    );
    let failed_ratio = samples.unexpected_errors.len() as f64 / samples.frames.max(1) as f64;
    r.insert("failed_ratio".into(), Value::from(failed_ratio));
    // Recorded but not gated in BENCHMARK.json (see README.md,
    // "End-to-end metrics"): only `stream_durable` migrates, single frame
    // round trips and recognition latency follow the host's speed more
    // than the program, and the tails follow the host's stalls.
    for (name, xs) in [
        ("restore_p50_ms", &samples.restore_ms),
        ("batch_p50_us", &samples.batch_us),
        ("batch_p99_us", &samples.batch_us),
        ("tick_p90_ms", &samples.tick_ms),
    ] {
        if let Some(v) = percentile_metric(name, xs) {
            r.insert(name.into(), Value::from(v));
        }
    }
    for name in ["recognition_p50_ms", "recognition_p99_ms"] {
        if let Some(v) = weighted_percentile_metric(name, &samples.recognition_ms) {
            r.insert(name.into(), Value::from(v));
        }
    }
    if let Some(first) = samples.unexpected_errors.first() {
        r.insert("first_error".into(), Value::from(first.as_str()));
    }
    r
}

/// The end-to-end metrics, every one on every workload. The tick median
/// is taken per pass and averaged over the passes: the median keeps a
/// pass's stalls out, and the mean weighs the host's speed regimes by how
/// long each lasted instead of flipping between them.
fn end_to_end(samples: &Samples) -> Vec<Metric> {
    let tick_p50: Vec<f64> = samples
        .per_pass(|ticks, _, _| percentile_metric("tick_p50_ms", ticks))
        .into_iter()
        .flatten()
        .collect();
    vec![
        metric("setup_s", median(&samples.setup_s).unwrap_or(0.0), "s"),
        metric(
            "events_per_s",
            samples.acked_events as f64 / samples.streaming_s,
            "1/s",
        ),
        metric("tick_p50_ms", mean(&tick_p50).unwrap_or(0.0), "ms"),
        metric("grid_s", mean(&samples.grid_s).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn stream_workload(ctx: &Ctx, durable: bool) -> Outcome {
    let seed = ctx.args.seed;
    let input = synth_input(seed);
    let plan = stream_session(&input, if durable { DURABLE } else { FULL }, seed, "bench");
    eprintln!(
        "perfbench: {} events, {} frames per pass",
        input.events.len(),
        plan.frames.len()
    );
    let mut samples = Samples::default();
    let mut problems = Vec::new();
    let mut first_query: Option<String> = None;
    let mut last: Option<StreamPass> = None;
    let mut passes = 0;
    let started = Instant::now();
    while passes < 2 || started.elapsed() < ctx.budget() {
        if passes == 1 {
            samples.discard_timings();
        }
        let pass = if durable {
            durable_pass(
                &plan,
                &ctx.work.join("untraced"),
                ctx.args.trace,
                &mut samples,
            )
        } else {
            full_pass(&plan, ctx.args.trace, &mut samples)
        };
        passes += 1;
        let query = pass.log.query.clone().unwrap_or_default();
        match &first_query {
            None => first_query = Some(query),
            Some(first) if *first != query => {
                problems.push(format!("pass {passes}: query reply differs from pass 1"))
            }
            Some(_) => {}
        }
        last = Some(pass);
    }
    let mut metrics = if ctx.args.trace {
        Vec::new()
    } else {
        end_to_end(&samples)
    };
    if let Err(e) = oracle::stream(&input, &plan, first_query.as_deref().unwrap_or("")) {
        problems.push(e);
    }
    let mut record = sample_record(&samples);
    record.insert("events_per_pass".into(), Value::from(input.events.len()));
    record.insert("frames_per_pass".into(), Value::from(plan.frames.len()));
    let last = last.expect("at least one pass");
    if ctx.args.trace {
        let dirs = |name: &str| durable.then(|| Durability::under(&ctx.work.join(name)));
        let mut traced = Traced::new(dirs("dispatch"), dirs("mirror"));
        traced.replay(&plan, &last.log);
        problems.extend(traced.check_counts(&last.scrapes, &[&last.log]));
        metrics = traced.layer_metrics(&last.scrapes, &[&last.log]);
        write_spans(ctx, &traced.mirror);
    }
    problems.extend(
        samples
            .unexpected_errors
            .iter()
            .take(3)
            .map(|e| format!("error reply: {e}")),
    );
    Outcome {
        problems,
        attempted: samples.frames,
        failed: samples.unexpected_errors.len() as u64,
        metrics,
        record,
    }
}

fn grid_workload(ctx: &Ctx) -> Outcome {
    let input = grid_input(ctx.args.seed);
    let gold = maritime::gold_event_description();
    eprintln!(
        "perfbench: {} descriptions, {} events, {} interval declarations",
        input.entries.len(),
        input.dataset.stream.events().len(),
        input.dataset.stream.intervals().len()
    );
    let mut samples = Samples::default();
    let mut problems = Vec::new();
    let mut first: Option<GridPass> = None;
    let mut last: Option<GridPass> = None;
    let mut passes = 0;
    let started = Instant::now();
    while passes < 2 || started.elapsed() < ctx.budget() {
        if passes == 1 {
            samples.discard_timings();
        }
        let pass = grid_pass(&input, &gold, ctx.args.trace, &mut samples);
        passes += 1;
        if let Some(f) = &first {
            let queries = |p: &GridPass| p.logs.iter().map(|l| l.query.clone()).collect::<Vec<_>>();
            if f.scores != pass.scores || queries(f) != queries(&pass) {
                problems.push(format!(
                    "pass {passes}: replies or scores differ from pass 1"
                ));
            }
            last = Some(pass);
        } else {
            first = Some(pass);
        }
    }
    let mut metrics = if ctx.args.trace {
        Vec::new()
    } else {
        end_to_end(&samples)
    };
    let first = first.expect("at least one pass");
    let runs = match oracle::grid(&input, &gold, &first) {
        Ok(runs) => runs,
        Err(e) => {
            problems.push(e);
            Vec::new()
        }
    };
    let mut record = sample_record(&samples);
    let rows: Vec<Value> = input
        .entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let mut m = BTreeMap::new();
            m.insert("label".to_string(), Value::from(entry.label.as_str()));
            m.insert(
                "accepted".to_string(),
                Value::Bool(first.logs[i].rejected.is_none()),
            );
            let average = |xs: &Option<Vec<f64>>| {
                xs.as_deref()
                    .and_then(mean)
                    .map_or(Value::Null, Value::from)
            };
            m.insert("mean_f1".to_string(), average(&first.scores.f1[i]));
            m.insert(
                "mean_similarity".to_string(),
                average(&first.scores.similarity[i]),
            );
            Value::Object(m)
        })
        .collect();
    record.insert("grid".into(), Value::Array(rows));
    if ctx.args.trace {
        let last = last.as_ref().unwrap_or(&first);
        let mut traced = Traced::new(None, None);
        for (plan, log) in input.sessions.iter().zip(&last.logs) {
            traced.replay(plan, log);
        }
        let t = &mut traced.mirror.tracer;
        for (i, entry) in input.entries.iter().enumerate() {
            if let Some(g) = &entry.generated {
                let span = t.begin("simdist.compare");
                std::hint::black_box(adgen_core::evaluation::activity_similarities(g, &gold));
                t.end(span);
            }
            if let (Some(Some(run)), Some(Some(gold_run))) = (runs.get(i), runs.first()) {
                let span = t.begin("evaluation.accuracy");
                std::hint::black_box(adgen_core::evaluation::accuracy(
                    (&run.0, &run.1),
                    (&gold_run.0, &gold_run.1),
                    input.horizon,
                ));
                t.end(span);
            }
        }
        let logs: Vec<&SessionLog> = last.logs.iter().collect();
        problems.extend(traced.check_counts(&last.scrapes, &logs));
        metrics = traced.layer_metrics(&last.scrapes, &logs);
        write_spans(ctx, &traced.mirror);
    }
    problems.extend(
        samples
            .unexpected_errors
            .iter()
            .take(3)
            .map(|e| format!("error reply: {e}")),
    );
    Outcome {
        problems,
        attempted: samples.frames,
        failed: samples.unexpected_errors.len() as u64,
        metrics,
        record,
    }
}

fn write_spans(ctx: &Ctx, mirror: &Mirror) {
    let dir = ctx.root.join(".perfbench_out");
    let path = dir.join(format!(
        "spans_{}_seed{}.tsv",
        ctx.args.workload, ctx.args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| mirror.tracer.write_tsv(&path)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    } else {
        eprintln!("perfbench: spans written to {}", path.display());
    }
}

/// The traced run: an untraced in-process `dispatch` replay of the last
/// pass's frames (the base for the tracing overhead and the TCP frame
/// overhead), then the traced mirror of the same frames.
struct Traced {
    dispatch: Registry,
    dispatch_s: f64,
    mirror: Mirror,
    mirror_s: f64,
    /// Untraced round trip minus in-process dispatch, per `batch` frame.
    frame_overhead_us: Vec<f64>,
    mismatches: Vec<String>,
    mirror_tick_windows: i64,
}

impl Traced {
    fn new(dispatch_dirs: Option<Durability>, mirror_dirs: Option<Durability>) -> Traced {
        let dispatch = match dispatch_dirs {
            Some(d) => Registry::with_options(Some(d.checkpoint_dir), None)
                .with_journal(Some(d.journal_dir), FsyncPolicy::Never),
            None => Registry::new(),
        };
        let mirror = match mirror_dirs {
            Some(d) => Mirror::new(Some(d.checkpoint_dir), Some(d.journal_dir)),
            None => Mirror::new(None, None),
        };
        Traced {
            dispatch,
            dispatch_s: 0.0,
            mirror,
            mirror_s: 0.0,
            frame_overhead_us: Vec::new(),
            mismatches: Vec::new(),
            mirror_tick_windows: 0,
        }
    }

    /// Replays the frames `log` shows were sent, first through dispatch,
    /// then through the mirror, comparing the mirror's replies with the
    /// untraced ones byte for byte.
    fn replay(&mut self, plan: &SessionPlan, log: &SessionLog) {
        let frames = &plan.frames[..log.replies.len()];
        let started = Instant::now();
        for (i, frame) in frames.iter().enumerate() {
            let sent = Instant::now();
            self.dispatch.roundtrip(&frame.line);
            let us = sent.elapsed().as_secs_f64() * 1e6;
            if frame.kind == Kind::Batch {
                self.frame_overhead_us.push(log.rtt_us[i] - us);
            }
        }
        self.dispatch_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        for (i, frame) in frames.iter().enumerate() {
            let Some(reply) = self.mirror.handle(i as u32, &frame.line) else {
                continue;
            };
            if frame.kind == Kind::Tick {
                self.mirror_tick_windows += int_field(&reply, "windows").unwrap_or(0);
            }
            if reply != log.replies[i] && self.mismatches.len() < 3 {
                self.mismatches.push(format!(
                    "{} frame {i}: traced reply {:.200} differs from untraced {:.200}",
                    plan.name, reply, log.replies[i]
                ));
            }
        }
        self.mirror_s += started.elapsed().as_secs_f64();
    }

    /// The mirror's counts must equal the untraced run's counters.
    fn check_counts(&self, scrapes: &Scrapes, logs: &[&SessionLog]) -> Vec<String> {
        let mut problems = self.mismatches.clone();
        let c = &self.mirror.counts;
        let Some((before, after)) = scrapes else {
            return vec!["trace mode ran without metrics scrapes".to_string()];
        };
        let untraced_ticks: Vec<&String> = logs
            .iter()
            .flat_map(|l| l.replies.iter())
            .filter(|r| r.contains("\"processed_to\"") && r.contains("\"degraded\""))
            .collect();
        let windows: i64 = untraced_ticks
            .iter()
            .map(|r| int_field(r, "windows").unwrap_or(0))
            .sum();
        let checkpointed = untraced_ticks
            .iter()
            .filter(|r| r.contains("\"checkpointed\":true"))
            .count() as u64;
        for (what, traced, untraced) in [
            (
                "events",
                c.events as f64,
                delta(before, after, "rtec_service_events_ingested_total"),
            ),
            (
                "ticks",
                c.ticks as f64,
                delta(before, after, "rtec_service_ticks_total"),
            ),
            (
                "tick windows",
                self.mirror_tick_windows as f64,
                windows as f64,
            ),
            (
                "journal appends",
                c.journal_appends as f64,
                delta(before, after, "rtec_service_journal_appends_total"),
            ),
            (
                "journal bytes",
                c.journal_bytes as f64,
                delta(before, after, "rtec_service_journal_bytes_total"),
            ),
            (
                "checkpointed ticks",
                c.checkpointed as f64,
                checkpointed as f64,
            ),
            (
                "router late couplings",
                c.router_late_couplings as f64,
                c.session_late_couplings as f64,
            ),
            (
                "reorder dead letters",
                c.reorder_deadletters as f64,
                c.session_deadletters as f64,
            ),
        ] {
            if traced != untraced {
                problems.push(format!("traced {what} {traced} != untraced {untraced}"));
            }
        }
        problems
    }

    fn layer_metrics(&self, scrapes: &Scrapes, logs: &[&SessionLog]) -> Vec<Metric> {
        let totals = self.mirror.tracer.totals();
        let us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.calls as f64)
        };
        let c = &self.mirror.counts;
        let (before, after) = scrapes.clone().unwrap_or_default();
        let d = |name: &str| delta(&before, &after, name);
        let windows = d("rtec_engine_windows_total");
        let hits = labelled_sum(&after, "rtec_engine_cache_requests_total", "result=\"hit\"")
            - labelled_sum(
                &before,
                "rtec_engine_cache_requests_total",
                "result=\"hit\"",
            );
        let lookups = d("rtec_engine_cache_requests_total");
        let stats: Vec<Value> = logs
            .iter()
            .flat_map(|l| l.replies.iter())
            .filter(|r| r.contains("\"evaluator\"") && r.contains("\"queue_high_water\""))
            .filter_map(|r| serde_json::from_str(r).ok())
            .collect();
        let waits: i64 = stats
            .iter()
            .filter_map(|s| s.get("backpressure_waits")?.as_i64())
            .sum();
        let high_water = stats
            .iter()
            .filter_map(|s| s.get("queue_high_water")?.as_array().cloned())
            .flatten()
            .filter_map(|v| v.as_i64())
            .max()
            .unwrap_or(0);
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let overhead = if self.frame_overhead_us.is_empty() {
            0.0
        } else {
            self.frame_overhead_us.iter().sum::<f64>() / self.frame_overhead_us.len() as f64
        };
        let attributed = self.mirror.tracer.attributed_ns() as f64 / 1e9 / self.mirror_s;
        vec![
            metric("protocol.decode_us", us("protocol.decode"), "us"),
            metric("protocol.encode_us", us("protocol.encode"), "us"),
            metric("protocol.frames", c.frames as f64, "count"),
            metric("server.frame_overhead_us", overhead, "us"),
            metric("session.ingest_us", us("session.ingest"), "us"),
            metric("session.tick_us", us("session.tick"), "us"),
            metric("session.query_us", us("session.query"), "us"),
            metric("session.open_us", us("session.open"), "us"),
            metric("session.events", c.events as f64, "count"),
            metric("session.ticks", c.ticks as f64, "count"),
            metric("reorder.push_us", us("reorder.push"), "us"),
            metric("reorder.released", c.reorder_released as f64, "count"),
            metric("reorder.deadletters", c.reorder_deadletters as f64, "count"),
            metric("router.route_us", us("router.route"), "us"),
            metric("router.broadcast", c.router_broadcast as f64, "count"),
            metric("router.buffered", c.router_buffered as f64, "count"),
            metric(
                "router.late_couplings",
                c.router_late_couplings as f64,
                "count",
            ),
            metric("worker.backpressure_waits", waits as f64, "count"),
            metric("worker.queue_high_water", high_water as f64, "count"),
            metric("engine.windows", windows, "count"),
            metric(
                "engine.events_processed",
                d("rtec_engine_events_processed_total"),
                "count",
            ),
            metric(
                "engine.tick_us",
                d("rtec_engine_tick_duration_us_sum") / d("rtec_engine_tick_duration_us_count"),
                "us",
            ),
            metric(
                "engine.fluent_eval_us",
                d("rtec_engine_fluent_eval_us_sum") / windows,
                "us",
            ),
            metric(
                "engine.interval_ops",
                d("rtec_engine_interval_ops_total"),
                "count",
            ),
            metric("engine.cache_hit_ratio", hits / lookups, "ratio"),
            metric("persist.capture_us", us("persist.capture"), "us"),
            metric("persist.encode_us", us("persist.encode"), "us"),
            metric("persist.save_us", us("persist.save"), "us"),
            metric(
                "persist.bytes",
                per(c.checkpoint_bytes, c.checkpointed),
                "bytes",
            ),
            metric("persist.load_us", us("persist.load"), "us"),
            metric("journal.scan_us", us("journal.scan"), "us"),
            metric("journal.replayed", per(c.replayed, c.restores), "count"),
            metric("journal.append_us", us("journal.append"), "us"),
            metric("journal.commit_us", us("journal.commit"), "us"),
            metric("journal.appends", c.journal_appends as f64, "count"),
            metric("journal.bytes", c.journal_bytes as f64, "bytes"),
            metric("description.parse_us", us("description.parse"), "us"),
            metric("description.compile_us", us("description.compile"), "us"),
            metric("lint.analyze_us", us("lint.analyze"), "us"),
            metric("plan.lower_us", us("plan.lower"), "us"),
            metric("simdist.compare_us", us("simdist.compare"), "us"),
            metric("evaluation.accuracy_us", us("evaluation.accuracy"), "us"),
            metric("trace.attributed_share", attributed, "ratio"),
            metric(
                "trace.overhead_pct",
                (self.mirror_s / self.dispatch_s - 1.0) * 100.0,
                "%",
            ),
        ]
    }
}
