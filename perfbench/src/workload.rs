//! Seeded workload inputs: the NDJSON frame sequences one closed-loop
//! client sends, built entirely before any timing starts. The same seed
//! gives byte-identical frames; the program under test sees only frames.

use adgen_core::figures::{fig2a, fig2b};
use llmgen::{generate, GeneratedDescription, MockLlm, Model, PromptScheme};
use maritime::synth::{ScaleTier, SynthConfig};
use maritime::thresholds::Thresholds;
use maritime::{BrestScenario, Dataset};
use rtec::Timepoint;
use rtec_service::client::IntervalDecl;
use serde_json::Value;
use std::collections::BTreeMap;

/// Events per `batch` frame (the `stream` client's default).
pub const BATCH: usize = 64;
/// Sliding-window geometry of the stream workloads.
pub const WINDOW: Timepoint = 3600;
/// Slide of the stream workloads: the Brest tier's 1,000 one-minute
/// steps make 100 slides.
pub const SLIDE: Timepoint = 600;
/// Vessels in the synthetic fleet: about 1,050 events each over the
/// Brest tier's 1,000 steps, so one pass streams ~21k events.
pub const FLEET: usize = 20;
/// Out-of-order tolerance of `stream_durable`, in timepoints (two
/// reporting periods).
pub const SLACK: Timepoint = 120;
/// Share of `stream_durable` events displaced within the slack, per mille.
pub const DISPLACED_PER_MILLE: u64 = 100;
/// `stream_durable` migrates its session (close keeping durable state,
/// then restore) before every this-many-th tick.
pub const MIGRATE_EVERY: usize = 10;
/// Intermediate ticks per description in `llm_grid` (plus a final one).
pub const GRID_TICKS: Timepoint = 12;

/// What a frame asks for; decides which timings it feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Open,
    Batch,
    Tick,
    Query,
    Stats,
    /// `close` with `keep_durable`: the first half of a migration.
    Migrate,
    Restore,
    Close,
}

/// One request line plus what the client needs to time it.
#[derive(Clone, Debug)]
pub struct Frame {
    pub kind: Kind,
    pub line: String,
    /// Event timestamps carried by a `batch` frame.
    pub times: Vec<Timepoint>,
    /// Horizon of a `tick` frame.
    pub to: Timepoint,
}

/// The frames of one session, `open` first and `close` last.
#[derive(Clone, Debug)]
pub struct SessionPlan {
    pub name: String,
    pub frames: Vec<Frame>,
}

fn line(fields: Vec<(&str, Value)>) -> String {
    let map: BTreeMap<String, Value> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    serde_json::to_string(&Value::Object(map)).expect("frames are plain JSON")
}

fn frame(kind: Kind, fields: Vec<(&str, Value)>) -> Frame {
    Frame {
        kind,
        line: line(fields),
        times: Vec::new(),
        to: 0,
    }
}

fn batch_frame(session: &str, events: &[(Timepoint, &str)]) -> Frame {
    let entries = events
        .iter()
        .map(|&(t, ev)| {
            let mut m = BTreeMap::new();
            m.insert("t".to_string(), Value::from(t));
            m.insert("event".to_string(), Value::from(ev));
            Value::Object(m)
        })
        .collect();
    Frame {
        times: events.iter().map(|&(t, _)| t).collect(),
        ..frame(
            Kind::Batch,
            vec![
                ("cmd", Value::from("batch")),
                ("session", Value::from(session)),
                ("events", Value::Array(entries)),
            ],
        )
    }
}

fn tick_frame(session: &str, to: Timepoint) -> Frame {
    Frame {
        to,
        ..frame(
            Kind::Tick,
            vec![
                ("cmd", Value::from("tick")),
                ("session", Value::from(session)),
                ("to", Value::from(to)),
            ],
        )
    }
}

fn session_frame(kind: Kind, cmd: &str, session: &str) -> Frame {
    frame(
        kind,
        vec![("cmd", Value::from(cmd)), ("session", Value::from(session))],
    )
}

/// A small seeded generator (splitmix64) for the benchmark's own draws.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The synthetic stream of the two stream workloads.
pub struct SynthInput {
    /// Gold rules plus the fleet's background knowledge.
    pub description: String,
    /// `(t, event)` in generation (time) order.
    pub events: Vec<(Timepoint, String)>,
    /// The last event timepoint.
    pub horizon: Timepoint,
}

/// The Brest tier's 1,000 steps over a [`FLEET`]-vessel fleet, seeded.
pub fn synth_input(seed: u64) -> SynthInput {
    let brest = ScaleTier::Brest.config();
    synth_input_sized(seed, FLEET, brest.steps)
}

/// The synthetic stream of `vessels` vessels over `steps` steps.
pub fn synth_input_sized(seed: u64, vessels: usize, steps: usize) -> SynthInput {
    let config = SynthConfig {
        vessels,
        steps,
        ..ScaleTier::Brest.config().with_seed(seed)
    };
    SynthInput {
        description: format!("{}\n{}", maritime::gold::GOLD_RULES, config.background()),
        events: config.stream().map(|(ev, t)| (t, ev.render())).collect(),
        horizon: config.horizon(),
    }
}

/// Session options of a stream workload.
#[derive(Clone, Copy, Debug)]
pub struct StreamShape {
    pub shards: usize,
    pub incremental: bool,
    pub reorder_slack: Option<Timepoint>,
    pub migrate_every: Option<usize>,
}

/// `stream_durable`: incremental, 2 shards, disorder within the slack,
/// a live migration every [`MIGRATE_EVERY`] ticks.
pub const DURABLE: StreamShape = StreamShape {
    shards: 2,
    incremental: true,
    reorder_slack: Some(SLACK),
    migrate_every: Some(MIGRATE_EVERY),
};

/// `stream_full`: one shard and the session defaults (full
/// recomputation at every slide), in order, never migrated.
pub const FULL: StreamShape = StreamShape {
    shards: 1,
    incremental: false,
    reorder_slack: None,
    migrate_every: None,
};

/// Send order of `events` (indices) with each event's send key. With a
/// positive `slack`, a seeded [`DISPLACED_PER_MILLE`] share of events is
/// held back by 1..=`slack` timepoints: an event is sent as if it had
/// happened at its key, so when it arrives nothing newer than
/// `t + slack` has been sent and the reorder watermark cannot have
/// passed it.
pub fn send_order(
    events: &[(Timepoint, String)],
    slack: Timepoint,
    seed: u64,
) -> Vec<(Timepoint, usize)> {
    let mut rng = SplitMix64::new(seed ^ 0xD15_0DE5);
    let mut order: Vec<(Timepoint, usize)> = events
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| {
            let displaced = slack > 0 && rng.below(1000) < DISPLACED_PER_MILLE;
            let delay = if displaced {
                1 + rng.below(slack as u64) as Timepoint
            } else {
                0
            };
            (t + delay, i)
        })
        .collect();
    order.sort();
    order
}

/// The frames of one stream pass. A tick to a slide boundary `b` is sent
/// once the next event's key exceeds `b + slack`, so every event at or
/// before `b` has arrived and no event is refused.
pub fn stream_session(
    input: &SynthInput,
    shape: StreamShape,
    seed: u64,
    name: &str,
) -> SessionPlan {
    let slack = shape.reorder_slack.unwrap_or(0);
    let mut open = vec![
        ("cmd", Value::from("open")),
        ("session", Value::from(name)),
        ("description", Value::from(input.description.as_str())),
        ("window", Value::from(WINDOW)),
        ("slide", Value::from(SLIDE)),
        ("shards", Value::from(shape.shards)),
    ];
    if shape.incremental {
        open.push(("incremental", Value::Bool(true)));
    }
    if let Some(slack) = shape.reorder_slack {
        open.push(("reorder_slack", Value::from(slack)));
    }
    let mut frames = vec![frame(Kind::Open, open)];
    let mut batch: Vec<(Timepoint, &str)> = Vec::with_capacity(BATCH);
    let mut next_tick = SLIDE;
    let mut ticks = 0usize;
    let mut emit_tick = |frames: &mut Vec<Frame>, to: Timepoint| {
        ticks += 1;
        if shape.migrate_every.is_some_and(|k| ticks.is_multiple_of(k)) {
            frames.push(frame(
                Kind::Migrate,
                vec![
                    ("cmd", Value::from("close")),
                    ("session", Value::from(name)),
                    ("keep_durable", Value::Bool(true)),
                ],
            ));
            frames.push(session_frame(Kind::Restore, "restore", name));
        }
        frames.push(tick_frame(name, to));
    };
    for (key, i) in send_order(&input.events, slack, seed) {
        while next_tick + slack < key {
            if !batch.is_empty() {
                frames.push(batch_frame(name, &batch));
                batch.clear();
            }
            emit_tick(&mut frames, next_tick);
            next_tick += SLIDE;
        }
        let (t, ev) = &input.events[i];
        batch.push((*t, ev.as_str()));
        if batch.len() == BATCH {
            frames.push(batch_frame(name, &batch));
            batch.clear();
        }
    }
    if !batch.is_empty() {
        frames.push(batch_frame(name, &batch));
    }
    while next_tick - SLIDE < input.horizon {
        emit_tick(&mut frames, next_tick);
        next_tick += SLIDE;
    }
    frames.push(session_frame(Kind::Query, "query", name));
    frames.push(session_frame(Kind::Stats, "stats", name));
    frames.push(session_frame(Kind::Close, "close", name));
    SessionPlan {
        name: name.to_string(),
        frames,
    }
}

/// One description of the grid.
pub struct GridEntry {
    /// The paper's label (`gold`, `o1□`, `GPT-4o▲`, ...).
    pub label: String,
    /// The generated description (`None` for gold).
    pub generated: Option<GeneratedDescription>,
    /// The rules text, before the dataset background is attached.
    pub rules: String,
}

/// The paper's Fig 2c loop: the scripted dataset and every description.
pub struct GridInput {
    pub dataset: Dataset,
    pub entries: Vec<GridEntry>,
    /// One session per entry, aligned with `entries`.
    pub sessions: Vec<SessionPlan>,
    /// Final evaluation horizon (`dataset.horizon() + 1`).
    pub horizon: Timepoint,
}

/// Gold, the 12 mock descriptions (6 models × 2 prompting schemes) and
/// the 3 minimally corrected ones, in that order.
pub fn grid_entries() -> Vec<GridEntry> {
    let mut entries = vec![GridEntry {
        label: "gold".to_string(),
        generated: None,
        rules: maritime::gold::GOLD_RULES.to_string(),
    }];
    let thresholds = Thresholds::default();
    for model in Model::ALL {
        for scheme in [PromptScheme::FewShot, PromptScheme::ChainOfThought] {
            let g = generate(&mut MockLlm::new(model), scheme, &thresholds);
            entries.push(GridEntry {
                label: g.label(),
                rules: g.full_text(),
                generated: Some(g),
            });
        }
    }
    for outcome in fig2b(&fig2a()).outcomes {
        entries.push(GridEntry {
            label: outcome.label.clone(),
            rules: outcome.corrected.full_text(),
            generated: Some(outcome.corrected),
        });
    }
    entries
}

/// The grid over a seeded `BrestScenario::large`-shaped dataset. Each
/// description is sent as the leniently parsed rules plus the dataset
/// background (what `Dataset::with_background` runs), rendered back to
/// source; it is opened windowless on 2 shards, given the `proximity`
/// intervals first, streamed with [`GRID_TICKS`] intermediate ticks,
/// ticked to the horizon, queried and closed.
pub fn grid_input(seed: u64) -> GridInput {
    let dataset = Dataset::generate(&BrestScenario {
        seed,
        ..BrestScenario::large()
    });
    let symbols = &dataset.stream.symbols;
    let mut events: Vec<(Timepoint, String)> = dataset
        .stream
        .events()
        .iter()
        .map(|(ev, t)| (*t, ev.display(symbols).to_string()))
        .collect();
    // The generator's order within one timepoint (and of the interval
    // declarations) varies between runs; sorting makes the frames a
    // function of the seed alone.
    events.sort();
    let mut declarations: Vec<IntervalDecl> = dataset
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
    declarations.sort();
    let intervals: Vec<Value> = declarations
        .into_iter()
        .map(|(fluent, value, pairs)| {
            let pairs = pairs
                .into_iter()
                .map(|(s, e)| Value::Array(vec![Value::from(s), Value::from(e)]))
                .collect();
            let mut m = BTreeMap::new();
            m.insert("fluent".to_string(), Value::from(fluent));
            m.insert("value".to_string(), Value::from(value));
            m.insert("intervals".to_string(), Value::Array(pairs));
            Value::Object(m)
        })
        .collect();
    let horizon = dataset.horizon() + 1;
    let entries = grid_entries();
    let sessions = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let name = format!("grid-{i:02}");
            let text = dataset.with_background(&entry.rules).to_source();
            let mut frames = vec![frame(
                Kind::Open,
                vec![
                    ("cmd", Value::from("open")),
                    ("session", Value::from(name.as_str())),
                    ("description", Value::from(text)),
                    ("shards", Value::from(2usize)),
                ],
            )];
            frames.push(frame(
                Kind::Batch,
                vec![
                    ("cmd", Value::from("batch")),
                    ("session", Value::from(name.as_str())),
                    ("intervals", Value::Array(intervals.clone())),
                ],
            ));
            let step = (horizon / GRID_TICKS).max(1);
            let mut next_tick = step;
            let mut batch: Vec<(Timepoint, &str)> = Vec::with_capacity(BATCH);
            for (t, ev) in &events {
                if *t >= next_tick {
                    if !batch.is_empty() {
                        frames.push(batch_frame(&name, &batch));
                        batch.clear();
                    }
                    frames.push(tick_frame(&name, next_tick - 1));
                    next_tick += ((t - next_tick) / step + 1) * step;
                }
                batch.push((*t, ev.as_str()));
                if batch.len() == BATCH {
                    frames.push(batch_frame(&name, &batch));
                    batch.clear();
                }
            }
            if !batch.is_empty() {
                frames.push(batch_frame(&name, &batch));
            }
            frames.push(tick_frame(&name, horizon));
            frames.push(session_frame(Kind::Query, "query", &name));
            frames.push(session_frame(Kind::Stats, "stats", &name));
            frames.push(session_frame(Kind::Close, "close", &name));
            SessionPlan { name, frames }
        })
        .collect();
    GridInput {
        dataset,
        entries,
        sessions,
        horizon,
    }
}

/// The description text an `open` frame carries.
pub fn open_description(plan: &SessionPlan) -> String {
    let req: Value = serde_json::from_str(&plan.frames[0].line).expect("open frame is JSON");
    req.get("description")
        .and_then(Value::as_str)
        .expect("open frame carries a description")
        .to_string()
}
