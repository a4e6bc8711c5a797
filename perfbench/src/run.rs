//! The untraced, closed-loop passes that produce the end-to-end metrics:
//! one client sends each frame only after the previous reply, and every
//! round trip is timed.

use crate::grid::{activity_unions, f1, query_rows};
use crate::system::{int_field, is_error, Durability, Link, TcpSystem};
use crate::workload::{GridInput, Kind, SessionPlan};
use rtec::Timepoint;
use rtec_service::Registry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Timing samples pooled over every pass of a run.
#[derive(Default)]
pub struct Samples {
    pub batch_us: Vec<f64>,
    pub tick_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// `(latency, events)`: one sample per batch and covering tick.
    pub recognition_ms: Vec<(f64, u64)>,
    pub setup_s: Vec<f64>,
    pub grid_s: Vec<f64>,
    /// Events the `batch` replies acknowledged, over every pass.
    pub acked_events: u64,
    /// First frame to last reply, summed over every session of every pass.
    pub streaming_s: f64,
    /// Frames sent.
    pub frames: u64,
    /// Error replies other than an `invalid_description` to an `open`.
    pub unexpected_errors: Vec<String>,
    /// Evaluator labels the `stats` replies reported.
    pub evaluators: BTreeSet<String>,
    /// Where each pass ended, in pass order.
    pub pass_ends: Vec<PassEnd>,
}

/// The state of [`Samples`] at the end of one pass.
#[derive(Clone, Copy, Debug)]
pub struct PassEnd {
    /// `tick_ms` samples taken so far.
    pub ticks: usize,
    /// `recognition_ms` samples taken so far.
    pub recognitions: usize,
    /// Events this pass's `batch` replies acknowledged.
    pub acked: u64,
    /// This pass's streaming time (see [`Samples::streaming_s`]).
    pub streaming_s: f64,
}

impl Samples {
    /// Forgets the timings taken so far (those of the warm-up pass). Frame
    /// counts, error replies and evaluator labels stay.
    pub fn discard_timings(&mut self) {
        *self = Samples {
            frames: self.frames,
            unexpected_errors: std::mem::take(&mut self.unexpected_errors),
            evaluators: std::mem::take(&mut self.evaluators),
            ..Samples::default()
        };
    }

    fn end_pass(&mut self, acked: u64, streaming_s: f64) {
        self.acked_events += acked;
        self.streaming_s += streaming_s;
        self.pass_ends.push(PassEnd {
            ticks: self.tick_ms.len(),
            recognitions: self.recognition_ms.len(),
            acked,
            streaming_s,
        });
    }

    /// `f` of each pass's own tick and recognition samples, in pass order.
    pub fn per_pass<T>(&self, f: impl Fn(&[f64], &[(f64, u64)], &PassEnd) -> T) -> Vec<T> {
        let (mut ticks, mut recognitions) = (0, 0);
        self.pass_ends
            .iter()
            .map(|end| {
                let value = f(
                    &self.tick_ms[ticks..end.ticks],
                    &self.recognition_ms[recognitions..end.recognitions],
                    end,
                );
                (ticks, recognitions) = (end.ticks, end.recognitions);
                value
            })
            .collect()
    }
}

/// What one session's frames got back.
pub struct SessionLog {
    /// Replies in frame order (only the frames actually sent).
    pub replies: Vec<String>,
    /// Round-trip time of each sent frame, microseconds.
    pub rtt_us: Vec<f64>,
    /// Events the `batch` replies acknowledged.
    pub acked: u64,
    /// First frame sent to last reply received.
    pub wall_s: f64,
    /// When the `open` reply arrived.
    pub open_done: Instant,
    /// The `invalid_description` reply, when `open` was refused (the
    /// session's other frames are then not sent).
    pub rejected: Option<String>,
    /// The `query` reply.
    pub query: Option<String>,
}

/// Sends `plan`'s frames over `link`, one at a time, timing each.
pub fn run_session(link: &mut dyn Link, plan: &SessionPlan, samples: &mut Samples) -> SessionLog {
    let first = Instant::now();
    let mut log = SessionLog {
        replies: Vec::with_capacity(plan.frames.len()),
        rtt_us: Vec::with_capacity(plan.frames.len()),
        acked: 0,
        wall_s: 0.0,
        open_done: first,
        rejected: None,
        query: None,
    };
    // Events sent but not yet covered by a tick reply: (t, sent at).
    let mut pending: Vec<(Timepoint, Instant)> = Vec::new();
    let mut migrate_ms = 0.0;
    let mut last = first;
    for frame in &plan.frames {
        let sent = Instant::now();
        let reply = link.roundtrip(&frame.line);
        let done = Instant::now();
        last = done;
        samples.frames += 1;
        let rtt = done.duration_since(sent).as_secs_f64();
        log.rtt_us.push(rtt * 1e6);
        if is_error(&reply) {
            if frame.kind == Kind::Open && reply.contains("\"code\":\"invalid_description\"") {
                log.open_done = done;
                log.rejected = Some(reply.clone());
                log.replies.push(reply);
                break;
            }
            samples.unexpected_errors.push(reply.clone());
            log.replies.push(reply);
            continue;
        }
        match frame.kind {
            Kind::Open => log.open_done = done,
            Kind::Batch => {
                samples.batch_us.push(rtt * 1e6);
                log.acked += int_field(&reply, "events").unwrap_or(0) as u64;
                pending.extend(frame.times.iter().map(|&t| (t, sent)));
            }
            Kind::Tick => {
                samples.tick_ms.push(rtt * 1e3);
                // Events of one batch share a latency: keep one weighted
                // sample per batch, so memory does not grow per event.
                let mut covered: BTreeMap<Instant, u64> = BTreeMap::new();
                pending.retain(|&(t, at)| {
                    let hit = t <= frame.to;
                    if hit {
                        *covered.entry(at).or_default() += 1;
                    }
                    !hit
                });
                samples.recognition_ms.extend(
                    covered
                        .into_iter()
                        .map(|(at, n)| (done.duration_since(at).as_secs_f64() * 1e3, n)),
                );
            }
            Kind::Migrate => migrate_ms = rtt * 1e3,
            Kind::Restore => samples.restore_ms.push(migrate_ms + rtt * 1e3),
            Kind::Query => log.query = Some(reply.clone()),
            Kind::Stats => {
                if let Some(label) = str_field(&reply, "evaluator") {
                    samples.evaluators.insert(label);
                }
            }
            Kind::Close => {}
        }
        log.replies.push(reply);
    }
    log.wall_s = last.duration_since(first).as_secs_f64();
    log
}

/// A string field of a flat reply frame.
fn str_field(reply: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":\"");
    let rest = &reply[reply.find(&key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The Prometheus body of a `metrics` reply.
pub fn scrape(link: &mut dyn Link) -> String {
    let reply = link.roundtrip(r#"{"cmd":"metrics"}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).expect("metrics reply is JSON");
    v.get("body")
        .and_then(serde_json::Value::as_str)
        .expect("metrics reply carries a body")
        .to_string()
}

/// Exposition bodies scraped just before the first and after the last
/// frame of a pass (trace mode only, outside every timing).
pub type Scrapes = Option<(String, String)>;

/// One pass of a stream workload.
pub struct StreamPass {
    pub log: SessionLog,
    pub scrapes: Scrapes,
}

fn finish_stream_pass(samples: &mut Samples, started: Instant, log: &SessionLog) {
    samples
        .setup_s
        .push(log.open_done.duration_since(started).as_secs_f64());
    samples.grid_s.push(log.wall_s);
    samples.end_pass(log.acked, log.wall_s);
}

/// `stream_durable`: a fresh loopback server with checkpoint and journal
/// directories under `dir`, one connection, one session.
pub fn durable_pass(
    plan: &SessionPlan,
    dir: &Path,
    trace: bool,
    samples: &mut Samples,
) -> StreamPass {
    let durability = Durability::under(dir);
    let started = Instant::now();
    let mut system = TcpSystem::start(&durability);
    let before = trace.then(|| scrape(&mut system));
    let log = run_session(&mut system, plan, samples);
    let scrapes = before.map(|b| (b, scrape(&mut system)));
    system.stop();
    let _ = std::fs::remove_dir_all(dir);
    finish_stream_pass(samples, started, &log);
    StreamPass { log, scrapes }
}

/// `stream_full`: a fresh in-process registry, one session.
pub fn full_pass(plan: &SessionPlan, trace: bool, samples: &mut Samples) -> StreamPass {
    let started = Instant::now();
    let mut registry = Registry::new();
    let before = trace.then(|| scrape(&mut registry));
    let log = run_session(&mut registry, plan, samples);
    let scrapes = before.map(|b| (b, scrape(&mut registry)));
    finish_stream_pass(samples, started, &log);
    StreamPass { log, scrapes }
}

/// Scores of one grid pass, aligned with the grid entries: per-activity
/// f1 against gold (`None` when `open` was refused) and per-activity
/// similarity (`None` for gold).
#[derive(Clone, Debug, PartialEq)]
pub struct GridScores {
    pub f1: Vec<Option<Vec<f64>>>,
    pub similarity: Vec<Option<Vec<f64>>>,
}

/// One pass of `llm_grid`.
pub struct GridPass {
    pub logs: Vec<SessionLog>,
    pub scores: GridScores,
    pub scrapes: Scrapes,
}

/// `llm_grid`: a fresh in-process registry; every description opened,
/// streamed, ticked, queried, closed and scored in turn.
pub fn grid_pass(
    input: &GridInput,
    gold: &rtec::EventDescription,
    trace: bool,
    samples: &mut Samples,
) -> GridPass {
    let started = Instant::now();
    let mut registry = Registry::new();
    let before = trace.then(|| scrape(&mut registry));
    let mut logs = Vec::with_capacity(input.sessions.len());
    let mut scores = GridScores {
        f1: Vec::new(),
        similarity: Vec::new(),
    };
    let mut gold_unions = Vec::new();
    for (i, (plan, entry)) in input.sessions.iter().zip(&input.entries).enumerate() {
        let log = run_session(&mut registry, plan, samples);
        let unions = log
            .query
            .as_deref()
            .map(|q| activity_unions(&query_rows(q).0));
        if i == 0 {
            gold_unions = unions.clone().expect("the gold description is accepted");
        }
        scores
            .f1
            .push(unions.map(|u| f1(&u, &gold_unions, input.horizon)));
        scores.similarity.push(entry.generated.as_ref().map(|g| {
            adgen_core::evaluation::activity_similarities(g, gold)
                .into_iter()
                .map(|s| s.value)
                .collect()
        }));
        logs.push(log);
    }
    let wall = started.elapsed().as_secs_f64();
    let scrapes = before.map(|b| (b, scrape(&mut registry)));
    samples
        .setup_s
        .push(logs[0].open_done.duration_since(started).as_secs_f64());
    samples.grid_s.push(wall);
    samples.end_pass(
        logs.iter().map(|l| l.acked).sum(),
        logs.iter().map(|l| l.wall_s).sum(),
    );
    GridPass {
        logs,
        scores,
        scrapes,
    }
}
