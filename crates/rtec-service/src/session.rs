//! A recognition session: one compiled event description, a master
//! symbol table, a [`Router`] and a pool of entity-sharded engine
//! workers.
//!
//! The lifecycle mirrors how an RTEC deployment is operated:
//!
//! 1. **open** — compile the description and its evaluation plan once,
//!    spawn `shards` workers sharing that plan;
//! 2. **ingest** — events / input intervals are parsed against the
//!    master table, routed by entity component, and appended to the
//!    shard's replay log. The log's unsent tail is the shard's outbox:
//!    it goes through the shard's bounded queue as one batch once it
//!    holds [`INPUT_BATCH`] items, and before any control message
//!    (blocking, counted, when the queue is full);
//! 3. **tick** — pin still-unpinned components, flush the buffer, and
//!    drive every shard's `run_to(to)`; per-tick wall time feeds the
//!    latency histogram;
//! 4. **query** — snapshot every shard and merge with
//!    [`RecognitionOutput::absorb`];
//! 5. **close** — drain the workers (all queued items are processed, no
//!    extra evaluation is forced) and report final stats.
//!
//! # Crash recovery
//!
//! Shard workers can die (a panic in engine code, or an injected fault
//! from [`crate::fault`]). The session supervises them:
//!
//! - after every successful tick it takes an [`EngineCheckpoint`] of
//!   each shard and clears that shard's *replay log*;
//! - every input routed to a shard is appended to the shard's replay
//!   log, so the log always holds exactly the items the checkpoint has
//!   not yet absorbed: a sent head the worker has received, and an
//!   unsent tail (the outbox) it has not;
//! - when a send or a reply observes a dead worker, the shard is
//!   respawned from its checkpoint (or fresh, before the first
//!   checkpoint), the sent head of the replay log is re-sent, and the
//!   original operation is retried. The unsent tail stays in the
//!   outbox and goes out with the next batch, so no item is lost or
//!   sent twice. Windows are re-evaluated deterministically, so output
//!   after recovery is byte-identical to an uninterrupted run;
//! - restarts are budgeted by [`SessionConfig::max_worker_restarts`];
//!   when the budget is exhausted the session is **quarantined**: every
//!   command except `close` fails with a `quarantined` error, and other
//!   sessions are unaffected.

use crate::fault::Faults;
use crate::flight::{FlightRecorder, TickTrace};
use crate::router::{PendingItem, Route, Router, RouterSnapshot};
use crate::worker::{ShardWorker, WorkerMsg, INPUT_BATCH};
use crossbeam::channel::bounded;
use rtec::checkpoint::EngineCheckpoint;
use rtec::description::CompiledDescription;
use rtec::engine::{EngineConfig, EngineStats, RecognitionOutput};
use rtec::interval::IntervalList;
use rtec::parallel::{FirstArgPartitioner, Partitioner};
use rtec::reorder::{DeadLetterLedger, DeadLetterReason, ReorderBuffer, ReorderSnapshot};
use rtec::term::{GroundFvp, Term};
use rtec::{SymbolTable, Timepoint};
use rtec_obs::profile::ProfileAggregate;
use rtec_obs::Histogram;
use rtec_plan::FrontEnd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Session parameters.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Recognition window size; `None` evaluates each tick as one chunk
    /// covering everything since the previous tick.
    pub window: Option<Timepoint>,
    /// Sliding step; `Some(s)` re-evaluates every `s` timepoints over
    /// the trailing `window` (requires `window`, `0 < s <= window`).
    /// Shard engines then amend events arriving inside the
    /// `window - slide` overlap instead of dead-lettering them.
    pub slide: Option<Timepoint>,
    /// Incremental window re-evaluation (requires `slide`): overlapped
    /// windows extend the previous evaluation instead of recomputing
    /// from the window boundary, falling back to full recomputation
    /// whenever equivalence cannot be proven (late events, changed
    /// input intervals). Observationally identical to the full mode.
    pub incremental: bool,
    /// Number of engine shards (threads).
    pub shards: usize,
    /// Bounded per-shard queue capacity.
    pub queue_capacity: usize,
    /// Crashed-worker respawns allowed before the session is
    /// quarantined.
    pub max_worker_restarts: usize,
    /// Out-of-order tolerance, in timepoints. `Some(slack)` places a
    /// [`ReorderBuffer`] in front of the router: events may arrive up to
    /// `slack` timepoints late and are released in timestamp order;
    /// events behind the watermark go to the dead-letter ledger instead
    /// of the engines. `None` (the default) ingests in arrival order —
    /// the historical behaviour.
    pub reorder_slack: Option<Timepoint>,
    /// With the reorder buffer enabled, absorb exact `(t, event)`
    /// duplicates (refused as `duplicate` dead letters). Ignored
    /// without `reorder_slack`.
    pub dedup: bool,
    /// Admission budget: events admitted between two ticks. Ingest
    /// beyond the budget is shed (`overloaded` error, `shed` dead
    /// letter) until the next tick.
    pub max_events_per_tick: Option<u64>,
    /// Admission budget: approximate bytes resident in the reorder
    /// buffer. Ingest while over budget is shed. Ignored without
    /// `reorder_slack`.
    pub max_buffered_bytes: Option<u64>,
    /// Per-tick deadline in milliseconds: a tick whose wall-clock time
    /// exceeds it reports `degraded: true` (the tick still completes —
    /// the deadline marks the reply, it does not abort evaluation).
    pub tick_deadline_ms: Option<u64>,
    /// Per-rule evaluation profiling: shard engines attribute self
    /// wall-time, call counts and interval-algebra ops to each fluent,
    /// the session merges them per tick, and recognition-latency stamps
    /// feed `rtec_recognition_latency_us`. On by default — attribution
    /// is a couple of clock reads per stratum and never perturbs
    /// recognition output. Profiler state is process-local: it is not
    /// checkpointed, and a respawned shard restarts attribution at zero.
    pub profile: bool,
    /// Slow-tick threshold in milliseconds: a profiled tick at least
    /// this slow promotes its flight-recorder trace to a retained JSON
    /// dump (see [`crate::flight`]). `None` disables promotion;
    /// requires `profile`.
    pub slow_tick_ms: Option<u64>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            window: None,
            slide: None,
            incremental: false,
            shards: 2,
            queue_capacity: 1024,
            max_worker_restarts: 2,
            reorder_slack: None,
            dedup: false,
            max_events_per_tick: None,
            max_buffered_bytes: None,
            tick_deadline_ms: None,
            profile: true,
            slow_tick_ms: None,
        }
    }
}

/// Counters of a session (monotonic over its lifetime).
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Events accepted by `ingest_event`.
    pub events_ingested: u64,
    /// Input-interval entries accepted.
    pub intervals_ingested: u64,
    /// Items whose hand-off to a shard blocked on a full queue: a
    /// blocked input batch counts its length, a blocked control message
    /// one (the unit of [`crate::worker::WorkerMsg::items`]).
    pub backpressure_waits: u64,
    /// Ticks served.
    pub ticks: u64,
    /// Horizon of the last tick (-1 before the first).
    pub processed_to: Timepoint,
    /// Tick wall-clock latency distribution.
    pub tick_latency: Histogram,
    /// Per-shard queue-depth high-water marks since open, in items.
    pub queue_high_water: Vec<u64>,
    /// Crashed shard workers respawned from checkpoint.
    pub worker_restarts: u64,
    /// Request frames addressed to this session answered with an error.
    pub frames_rejected: u64,
    /// Ingest operations refused by admission control (event-rate or
    /// buffered-bytes budget).
    pub shed: u64,
    /// Merged per-shard engine counters as of the last tick/drain:
    /// event counts are summed; `windows` is the max across shards
    /// (every shard evaluates the same window sequence).
    pub engine: EngineStats,
}

/// Outcome of a successful (non-error) event ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ingest {
    /// The event was admitted (routed now, or buffered for in-order
    /// release).
    Accepted,
    /// The event was refused and recorded in the dead-letter ledger
    /// with the given reason. Not an error: refusing bad input is the
    /// resilient-ingestion layer doing its job.
    Refused(DeadLetterReason),
}

/// What one tick accomplished.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickReport {
    /// Aggregated engine counters (summed events, max windows).
    pub engine: EngineStats,
    /// Whether the tick overran [`SessionConfig::tick_deadline_ms`].
    pub degraded: bool,
    /// Ingest operations shed by admission control since the previous
    /// tick.
    pub shed: u64,
}

/// Per-shard recovery state.
struct ShardState {
    /// Engine image as of the last successful tick (None before it).
    checkpoint: Option<EngineCheckpoint>,
    /// Inputs routed to the shard since the checkpoint was taken, in
    /// arrival order. `replay[..sent]` has been handed to the worker;
    /// the unsent tail is the shard's outbox.
    replay: Vec<PendingItem>,
    sent: usize,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState {
            checkpoint: None,
            replay: Vec::new(),
            sent: 0,
        }
    }
}

/// A live recognition session.
pub struct Session {
    name: String,
    /// The description, compiled with its evaluation plan when the
    /// session opened (or was restored); every shard engine, respawns
    /// included, runs that plan.
    desc: Arc<CompiledDescription>,
    /// Master symbol table: description symbols plus every constant seen
    /// on the stream, append-only. All routed terms are interned here.
    master: SymbolTable,
    workers: Vec<ShardWorker>,
    shard_states: Vec<ShardState>,
    router: Router,
    partitioner: FirstArgPartitioner,
    stats: SessionStats,
    config: SessionConfig,
    engine_config: EngineConfig,
    description_src: String,
    /// Why the session was quarantined, once the restart budget ran out.
    quarantined: Option<String>,
    /// Session-wide reorder buffer, in front of the router (one buffer
    /// rather than one per shard, so lateness and duplicates are judged
    /// against the session's whole stream — including items the router
    /// has not pinned to a shard yet).
    reorder: Option<ReorderBuffer>,
    /// Reason-coded audit trail of every refused record.
    ledger: DeadLetterLedger,
    /// Events admitted since the last tick (the event-rate budget).
    events_since_tick: u64,
    /// Ingests shed since the last tick (reported on the tick reply).
    shed_since_tick: u64,
    /// Merged per-rule totals across shard engines, refreshed each tick
    /// (empty when profiling is off). Process-local, never persisted.
    profile_agg: ProfileAggregate,
    /// Ring of recent per-tick traces plus promoted dumps.
    flight: FlightRecorder,
    /// `(timepoint, service-admission instant)` per admitted event,
    /// drained into the recognition-latency histogram by the tick that
    /// evaluates past the timepoint. Bounded; overflow drops stamps
    /// (latency sampling degrades, recognition is untouched).
    arrival_stamps: Vec<(Timepoint, Instant)>,
    /// Like `arrival_stamps`, stamped when the event leaves the reorder
    /// buffer (or is routed directly) — the release stage.
    release_stamps: Vec<(Timepoint, Instant)>,
    /// Fault-injection handle shared with the shard workers (inert
    /// unless the session was opened with a plan).
    faults: Faults,
}

/// Most engine shards a session may run: each shard is one OS thread,
/// so the bound keeps one `open` frame from starting thousands.
const MAX_SHARDS: usize = 64;

/// Recent refused-record entries retained per session (counts are exact
/// regardless).
const SESSION_DEAD_LETTER_CAP: usize = 1024;

/// Recognition-latency stamps retained per stage between ticks; beyond
/// this the stamp is dropped (sampling, not accounting).
const STAMP_CAP: usize = 65536;

impl Session {
    /// Opens a session over a description's front-end value and spawns
    /// the shard workers, which share its compiled description and
    /// plan. A `&str` converts by strict parse and compile; the service
    /// hands over the value it already linted.
    pub fn open<D>(
        name: impl Into<String>,
        description: D,
        config: SessionConfig,
    ) -> Result<Session, String>
    where
        D: TryInto<FrontEnd>,
        D::Error: std::fmt::Display,
    {
        Session::open_with_faults(name, description, config, Faults::default())
    }

    /// [`Session::open`] under a fault-injection handle: its ingests,
    /// ticks and shard workers (respawns included) fire `faults`.
    pub fn open_with_faults<D>(
        name: impl Into<String>,
        description: D,
        config: SessionConfig,
        faults: Faults,
    ) -> Result<Session, String>
    where
        D: TryInto<FrontEnd>,
        D::Error: std::fmt::Display,
    {
        let front: FrontEnd = description
            .try_into()
            .map_err(|e| format!("description: {e}"))?;
        let mut session = Session::unspawned(name.into(), front, config, faults)?;
        session.spawn_workers();
        Ok(session)
    }

    /// Rebuilds a session from persisted parts: the original description
    /// source, a master symbol-name list, a router snapshot and one
    /// engine checkpoint per shard. Opens the session with every shard
    /// resumed from its checkpoint; the tick-latency histogram starts
    /// fresh.
    pub fn reopen(
        name: impl Into<String>,
        description_src: &str,
        config: SessionConfig,
        master_names: &[String],
        router: &RouterSnapshot,
        shard_checkpoints: Vec<EngineCheckpoint>,
        stats: SessionStats,
    ) -> Result<Session, String> {
        Session::reopen_with_faults(
            name,
            description_src,
            config,
            master_names,
            router,
            shard_checkpoints,
            stats,
            Faults::default(),
        )
    }

    /// [`Session::reopen`] under a fault-injection handle.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reopen_with_faults(
        name: impl Into<String>,
        description_src: &str,
        config: SessionConfig,
        master_names: &[String],
        router: &RouterSnapshot,
        shard_checkpoints: Vec<EngineCheckpoint>,
        stats: SessionStats,
        faults: Faults,
    ) -> Result<Session, String> {
        // Everything that can refuse the checkpoint is checked before
        // any worker spawns, so a refused restore spawns nothing.
        let front = FrontEnd::try_from(description_src).map_err(|e| format!("description: {e}"))?;
        if shard_checkpoints.len() != config.shards {
            return Err(format!(
                "checkpoint has {} shard(s), config wants {}",
                shard_checkpoints.len(),
                config.shards
            ));
        }
        let mut master = SymbolTable::new();
        for name in master_names {
            master.intern(name);
        }
        if let Ok(compiled) = &front.compiled {
            for (sym, name) in compiled.symbols.iter() {
                if master.try_name(sym) != Some(name) {
                    return Err("session checkpoint symbols do not extend the description".into());
                }
            }
        }
        let router = Router::restore(router)?;
        let mut session = Session::unspawned(name.into(), front, config, faults)?;
        session.master = master;
        session.router = router;
        session.stats = stats;
        for (state, checkpoint) in session.shard_states.iter_mut().zip(shard_checkpoints) {
            state.checkpoint = Some(checkpoint);
        }
        session.spawn_workers();
        rtec_obs::info(
            "session.reopen",
            &[
                ("session", session.name.as_str().into()),
                ("shards", config.shards.into()),
                ("processed_to", session.stats.processed_to.into()),
            ],
        );
        Ok(session)
    }

    /// A session with no workers yet: the description compiled and the
    /// config checked, the open counted and logged.
    fn unspawned(
        name: String,
        front: FrontEnd,
        config: SessionConfig,
        faults: Faults,
    ) -> Result<Session, String> {
        let desc = front.compiled.map_err(|e| format!("description: {e}"))?;
        let engine_config = engine_config_for(&config)?;
        if !(1..=MAX_SHARDS).contains(&config.shards) {
            return Err(format!("shards must be between 1 and {MAX_SHARDS}"));
        }
        crate::obs::metrics().sessions_opened.inc();
        rtec_obs::info(
            "session.open",
            &[
                ("session", name.as_str().into()),
                ("shards", config.shards.into()),
                ("window", config.window.unwrap_or(-1).into()),
                ("slide", config.slide.unwrap_or(-1).into()),
                ("incremental", config.incremental.into()),
            ],
        );
        Ok(Session {
            name,
            master: desc.symbols.clone(),
            desc,
            workers: Vec::with_capacity(config.shards),
            shard_states: (0..config.shards).map(|_| ShardState::new()).collect(),
            router: Router::new(config.shards),
            partitioner: FirstArgPartitioner,
            stats: SessionStats {
                processed_to: -1,
                queue_high_water: vec![0; config.shards],
                ..SessionStats::default()
            },
            config,
            engine_config,
            description_src: front.source,
            quarantined: None,
            reorder: config
                .reorder_slack
                .map(|slack| ReorderBuffer::new(slack, config.dedup)),
            ledger: DeadLetterLedger::new(SESSION_DEAD_LETTER_CAP),
            events_since_tick: 0,
            shed_since_tick: 0,
            profile_agg: ProfileAggregate::new(),
            flight: FlightRecorder::new(),
            arrival_stamps: Vec::new(),
            release_stamps: Vec::new(),
            faults,
        })
    }

    /// Spawns every shard's worker.
    fn spawn_workers(&mut self) {
        self.workers = (0..self.config.shards)
            .map(|shard| self.spawn_worker(shard))
            .collect();
    }

    /// Spawns the worker of `shard`: resumed from the shard's checkpoint
    /// when it has one, fresh otherwise.
    fn spawn_worker(&self, shard: usize) -> ShardWorker {
        ShardWorker::spawn(
            Arc::clone(&self.desc),
            self.engine_config,
            self.config.profile,
            self.config.queue_capacity,
            shard,
            self.shard_states[shard].checkpoint.clone(),
            self.faults.clone(),
        )
    }

    /// Restores ingestion-layer state captured alongside the shard
    /// checkpoints: exact dead-letter counts and the reorder buffer's
    /// unreleased contents + frontier. Called by
    /// [`crate::persist::SessionCheckpoint::restore`] after
    /// [`Session::reopen`].
    pub fn restore_ingest(
        &mut self,
        ledger_counts: [u64; DeadLetterReason::ALL.len()],
        ledger_records_dropped: u64,
        reorder: Option<&ReorderSnapshot>,
    ) {
        self.ledger
            .restore_counts(ledger_counts, ledger_records_dropped);
        if let (Some(slack), Some(snapshot)) = (self.config.reorder_slack, reorder) {
            self.reorder = Some(ReorderBuffer::restore(slack, self.config.dedup, snapshot));
        }
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session's configuration.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// The compiled description (for tests and tooling).
    pub fn description(&self) -> &CompiledDescription {
        &self.desc
    }

    /// The description source the session was opened with.
    pub fn description_src(&self) -> &str {
        &self.description_src
    }

    /// The master symbol table (interning order reproduces it).
    pub fn master_symbols(&self) -> &SymbolTable {
        &self.master
    }

    /// The router's current sharding decisions.
    pub fn router_snapshot(&self) -> RouterSnapshot {
        self.router.snapshot()
    }

    /// Per-shard engine checkpoints as of the last tick; `None` until
    /// every shard has one (i.e. before the first successful tick).
    pub fn shard_checkpoints(&self) -> Option<Vec<&EngineCheckpoint>> {
        self.shard_states
            .iter()
            .map(|s| s.checkpoint.as_ref())
            .collect()
    }

    /// Why the session is quarantined, if it is.
    pub fn quarantined(&self) -> Option<&str> {
        self.quarantined.as_deref()
    }

    /// Counts a rejected frame against this session.
    pub fn note_frame_rejected(&mut self) {
        self.stats.frames_rejected += 1;
    }

    fn check_live(&self) -> Result<(), String> {
        match &self.quarantined {
            Some(reason) => Err(format!("session quarantined: {reason}")),
            None => Ok(()),
        }
    }

    /// The latest timestamp the session refuses as past-horizon. With
    /// tumbling windows this is the last ticked horizon; sliding
    /// engines keep the `window - slide` overlap amendable, so the
    /// frontier is relaxed by it.
    fn ingest_frontier(&self) -> Timepoint {
        match (self.config.window, self.config.slide) {
            (Some(w), Some(s)) => self.stats.processed_to.saturating_sub(w - s),
            _ => self.stats.processed_to,
        }
    }

    /// Parses and ingests one event (`term_src` like
    /// `entersArea(v1, brest_port)`) at time `t`.
    ///
    /// Three-way outcome: `Ok(Ingest::Accepted)` admits the event (into
    /// the reorder buffer when one is configured, else straight to the
    /// router); `Ok(Ingest::Refused(reason))` records a dead letter —
    /// late, duplicate, or past-horizon input the resilient-ingestion
    /// layer filtered out; `Err` is an actual failure (quarantine, a
    /// parse error, or an `overloaded: ...` admission-control shed).
    pub fn ingest_event(&mut self, term_src: &str, t: Timepoint) -> Result<Ingest, String> {
        self.check_live()?;
        self.faults.on_ingest()?;
        if let Some(budget) = self.config.max_events_per_tick {
            if self.events_since_tick >= budget {
                self.shed(Some(t), term_src);
                return Err(format!(
                    "overloaded: per-tick event budget ({budget}) exhausted; tick to admit more"
                ));
            }
        }
        if let (Some(budget), Some(buf)) = (self.config.max_buffered_bytes, self.reorder.as_ref()) {
            let held = buf.approx_bytes() as u64;
            if held >= budget {
                self.shed(Some(t), term_src);
                return Err(format!(
                    "overloaded: reorder buffer holds ~{held} of {budget} budgeted bytes; \
                     tick to release"
                ));
            }
        }
        self.events_since_tick += 1;
        let term = match rtec::parser::parse_term(term_src, &mut self.master) {
            Ok(term) => term,
            Err(e) => {
                self.dead_letter(DeadLetterReason::Malformed, Some(t), term_src);
                return Err(format!("event: {e}"));
            }
        };
        let ingest_frontier = self.ingest_frontier();
        if let Some(buf) = self.reorder.as_mut() {
            // The engine frontier outranks the buffer's own lateness
            // verdict: anything at or before the last ticked horizon
            // belongs to an already evaluated (and forgotten) window —
            // unless the engines slide, in which case events inside the
            // `window - slide` overlap are still amendable.
            if t <= ingest_frontier {
                self.dead_letter(DeadLetterReason::PastHorizon, Some(t), term_src);
                return Ok(Ingest::Refused(DeadLetterReason::PastHorizon));
            }
            if t <= self.stats.processed_to {
                // Behind the buffer's release frontier but inside the
                // sliding overlap: the in-order guarantee is already
                // unmeetable for this event, so hand it straight to the
                // engines, whose amendment replay absorbs it exactly.
                self.stamp_arrival(t);
                self.route_event(term, t)?;
            } else {
                if let Err(reason) = buf.push(term, t) {
                    self.dead_letter(reason, Some(t), term_src);
                    return Ok(Ingest::Refused(reason));
                }
                self.stamp_arrival(t);
                self.release_ready()?;
            }
        } else {
            self.stamp_arrival(t);
            self.route_event(term, t)?;
        }
        self.stats.events_ingested += 1;
        crate::obs::metrics().events_ingested.inc();
        Ok(Ingest::Accepted)
    }

    /// Stamps one admitted event for the `stage="admission"` leg of the
    /// recognition-latency histogram.
    fn stamp_arrival(&mut self, t: Timepoint) {
        if self.config.profile && self.arrival_stamps.len() < STAMP_CAP {
            self.arrival_stamps.push((t, Instant::now()));
        }
    }

    /// Routes one (released or direct) event to its shard.
    fn route_event(&mut self, term: Term, t: Timepoint) -> Result<(), String> {
        if self.config.profile && self.release_stamps.len() < STAMP_CAP {
            self.release_stamps.push((t, Instant::now()));
        }
        let entities = self.partitioner.event_entities(&term);
        match self.router.route(&entities) {
            Route::Shard(s) => self.send_input(s, PendingItem::Event(term, t))?,
            Route::Broadcast => {
                for s in 0..self.workers.len() {
                    self.send_input(s, PendingItem::Event(term.clone(), t))?;
                }
            }
            Route::Buffered => self
                .router
                .buffer(PendingItem::Event(term, t), &entities[0]),
        }
        Ok(())
    }

    /// Routes everything the reorder buffer's watermark has passed.
    fn release_ready(&mut self) -> Result<(), String> {
        let Some(buf) = self.reorder.as_mut() else {
            return Ok(());
        };
        for (term, t) in buf.drain_ready() {
            self.route_event(term, t)?;
        }
        Ok(())
    }

    /// Records one dead letter (ledger + per-reason metric).
    fn dead_letter(&mut self, reason: DeadLetterReason, t: Option<Timepoint>, detail: &str) {
        self.ledger.record(reason, t, detail.to_string());
        crate::obs::metrics().deadletter(reason).inc();
    }

    /// Records an admission-control refusal.
    fn shed(&mut self, t: Option<Timepoint>, detail: &str) {
        self.stats.shed += 1;
        self.shed_since_tick += 1;
        crate::obs::metrics().shed.inc();
        self.dead_letter(DeadLetterReason::Shed, t, detail);
    }

    /// Parses and ingests input-fluent intervals, e.g.
    /// `proximity(v0, v1)` / `true` over `[(0, 200)]`.
    pub fn ingest_intervals(
        &mut self,
        fluent_src: &str,
        value_src: &str,
        pairs: &[(Timepoint, Timepoint)],
    ) -> Result<(), String> {
        self.check_live()?;
        self.faults.on_ingest()?;
        let fluent = rtec::parser::parse_term(fluent_src, &mut self.master)
            .map_err(|e| format!("fluent: {e}"))?;
        let value = rtec::parser::parse_term(value_src, &mut self.master)
            .map_err(|e| format!("value: {e}"))?;
        let fvp = GroundFvp::new(fluent, value)
            .ok_or_else(|| format!("not a ground fluent-value pair: {fluent_src}={value_src}"))?;
        let list = IntervalList::from_pairs(pairs);
        let entities = self.partitioner.fvp_entities(&fvp);
        match self.router.route(&entities) {
            Route::Shard(s) => self.send_input(s, PendingItem::Intervals(fvp, list))?,
            Route::Broadcast => {
                for s in 0..self.workers.len() {
                    self.send_input(s, PendingItem::Intervals(fvp.clone(), list.clone()))?;
                }
            }
            Route::Buffered => self
                .router
                .buffer(PendingItem::Intervals(fvp, list), &entities[0].clone()),
        }
        self.stats.intervals_ingested += 1;
        crate::obs::metrics().intervals_ingested.inc();
        Ok(())
    }

    /// Appends an input item to a shard's replay log; the log's unsent
    /// tail goes to the worker as one batch once it holds
    /// [`INPUT_BATCH`] items. If that hand-off fails, this item is
    /// refused (taken back off the log, so an ingest that reports an
    /// error has no effect) and the rest of the tail stays in the
    /// outbox.
    fn send_input(&mut self, shard: usize, item: PendingItem) -> Result<(), String> {
        let state = &mut self.shard_states[shard];
        state.replay.push(item);
        if state.replay.len() - state.sent >= INPUT_BATCH {
            if let Err(err) = self.flush_outbox(shard) {
                self.shard_states[shard].replay.pop();
                return Err(err);
            }
        }
        Ok(())
    }

    /// Hands a shard's unsent inputs to its worker as one batch.
    fn flush_outbox(&mut self, shard: usize) -> Result<(), String> {
        let state = &self.shard_states[shard];
        if state.sent == state.replay.len() {
            return Ok(());
        }
        let batch = state.replay[state.sent..].to_vec();
        self.send(shard, WorkerMsg::Input(batch))?;
        let state = &mut self.shard_states[shard];
        state.sent = state.replay.len();
        Ok(())
    }

    /// Sends a control message behind the shard's unsent inputs.
    fn send_control(&mut self, shard: usize, msg: WorkerMsg) -> Result<(), String> {
        self.flush_outbox(shard)?;
        self.send(shard, msg)
    }

    /// Sends a message, respawning the shard (bounded by the restart
    /// budget) and retrying if the worker is found dead.
    fn send(&mut self, shard: usize, msg: WorkerMsg) -> Result<(), String> {
        let mut msg = msg;
        let items = msg.items() as u64;
        loop {
            match self.workers[shard].send(msg) {
                Ok(blocked) => {
                    if blocked {
                        self.stats.backpressure_waits += items;
                        crate::obs::metrics().backpressure_waits.add(items);
                    }
                    let depth = self.workers[shard].queue_len() as u64;
                    if depth > self.stats.queue_high_water[shard] {
                        self.stats.queue_high_water[shard] = depth;
                    }
                    return Ok(());
                }
                Err(back) => {
                    msg = back;
                    self.respawn_shard(shard)?;
                }
            }
        }
    }

    /// Replaces a dead shard worker: restores from the shard's last
    /// checkpoint (or starts fresh before the first one), re-sends the
    /// part of the replay log its predecessor had received, and charges
    /// the restart budget. Quarantines the session when the budget is
    /// exhausted.
    fn respawn_shard(&mut self, shard: usize) -> Result<(), String> {
        self.check_live()?;
        if self.stats.worker_restarts >= self.config.max_worker_restarts as u64 {
            let reason = format!(
                "restart budget exhausted ({} restarts) at shard {shard}",
                self.config.max_worker_restarts
            );
            self.quarantined = Some(reason.clone());
            rtec_obs::error(
                "session.quarantined",
                &[
                    ("session", self.name.as_str().into()),
                    ("shard", shard.into()),
                    ("restarts", self.stats.worker_restarts.into()),
                ],
            );
            return Err(format!("session quarantined: {reason}"));
        }
        self.stats.worker_restarts += 1;
        crate::obs::metrics().worker_restarts.inc();
        // Brief bounded backoff: give a transient cause (allocator
        // pressure, scheduler hiccups) room to clear before the retry.
        // The seeded jitter decorrelates respawn storms across sessions
        // and shards without any RNG state: the same (session, shard,
        // restart) triple always backs off by the same amount, so fault
        // schedules stay reproducible.
        let base = 2 * self.stats.worker_restarts.min(5);
        let jitter = respawn_jitter_ms(&self.name, shard, self.stats.worker_restarts);
        std::thread::sleep(Duration::from_millis(base + jitter));
        let worker = self.spawn_worker(shard);
        let state = &self.shard_states[shard];
        for batch in state.replay[..state.sent].chunks(INPUT_BATCH) {
            if worker.send(WorkerMsg::Input(batch.to_vec())).is_err() {
                // The replacement died too (e.g. its checkpoint failed
                // to restore). Install it anyway; the next attempt will
                // charge the budget again and eventually quarantine.
                self.workers[shard] = worker;
                return Err("shard worker exited during replay".to_string());
            }
        }
        self.workers[shard] = worker;
        // The restored engine is behind the session's tick frontier
        // until it re-evaluates the replayed window(s); catch it up so
        // snapshots taken right after a restart are never stale. If the
        // replacement dies during catch-up the next operation detects
        // it and charges the budget again.
        if self.stats.processed_to >= 0 {
            let (tx, rx) = bounded(1);
            if self.workers[shard]
                .send(WorkerMsg::RunTo(self.stats.processed_to, tx))
                .is_ok()
            {
                let _ = self.workers[shard].recv_reply(&rx);
            }
        }
        rtec_obs::warn(
            "session.worker_restarted",
            &[
                ("session", self.name.as_str().into()),
                ("shard", shard.into()),
                ("restarts", self.stats.worker_restarts.into()),
                ("replayed", self.shard_states[shard].sent.into()),
            ],
        );
        // Post-mortem context: what was the session doing in the ticks
        // leading up to the crash? The whole ring is promoted so the
        // evidence survives the respawn.
        if self.config.profile {
            let dump = self.flight.dump_ring(&self.name, "worker_respawn");
            rtec_obs::warn(
                "session.flight_recorder_dump",
                &[
                    ("session", self.name.as_str().into()),
                    ("reason", "worker_respawn".into()),
                    ("shard", shard.into()),
                    ("dump", dump.as_str().into()),
                ],
            );
        }
        Ok(())
    }

    /// Drives one shard to `to`, recovering from worker death.
    fn run_shard_to(&mut self, shard: usize, to: Timepoint) -> Result<EngineStats, String> {
        loop {
            let (tx, rx) = bounded(1);
            self.send_control(shard, WorkerMsg::RunTo(to, tx))?;
            match self.workers[shard].recv_reply(&rx) {
                Ok(stats) => return Ok(stats),
                Err(_) => self.respawn_shard(shard)?,
            }
        }
    }

    /// Pins pending components, flushes the buffer, and evaluates every
    /// shard up to `to`. Returns the aggregated engine counters, the
    /// degraded flag (deadline overrun) and the shed count since the
    /// previous tick.
    pub fn tick(&mut self, to: Timepoint) -> Result<TickReport, String> {
        self.check_live()?;
        let started = Instant::now();
        // Injected evaluation stall: lands inside the measured tick wall
        // time so slow-tick handling is testable.
        if let Some(millis) = self.faults.on_tick() {
            crate::fault::apply_delay(millis);
        }
        // Force-release everything at or before the tick horizon:
        // evaluation up to `to` must see every admitted event there,
        // watermark or not.
        if let Some(buf) = self.reorder.as_mut() {
            for (term, t) in buf.drain_to(to) {
                self.route_event(term, t)?;
            }
        }
        for (shard, item) in self.router.flush() {
            self.send_input(shard, item)?;
        }
        let mut replies = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            let (tx, rx) = bounded(1);
            self.send_control(shard, WorkerMsg::RunTo(to, tx))?;
            replies.push(rx);
        }
        let mut total = EngineStats::default();
        for (shard, rx) in replies.into_iter().enumerate() {
            let stats = match self.workers[shard].recv_reply(&rx) {
                Ok(stats) => stats,
                Err(_) => {
                    // The worker died mid-evaluation; restore from the
                    // last checkpoint and re-evaluate deterministically.
                    self.respawn_shard(shard)?;
                    self.run_shard_to(shard, to)?
                }
            };
            // Every shard evaluates the same window sequence, so the
            // logical window count is the max, not the sum.
            total.windows = total.windows.max(stats.windows);
            total.events_processed += stats.events_processed;
            total.events_dropped += stats.events_dropped;
        }
        self.stats.engine = total;
        self.stats.ticks += 1;
        self.stats.processed_to = self.stats.processed_to.max(to);
        self.refresh_checkpoints();
        let elapsed = started.elapsed();
        self.stats.tick_latency.observe_duration(elapsed);
        let metrics = crate::obs::metrics();
        metrics.ticks.inc();
        metrics.tick_duration.observe_duration(elapsed);
        self.observe_recognition_latency(to);
        let degraded = self
            .config
            .tick_deadline_ms
            .is_some_and(|deadline| elapsed.as_millis() as u64 > deadline);
        if degraded {
            rtec_obs::warn(
                "session.tick_degraded",
                &[
                    ("session", self.name.as_str().into()),
                    ("elapsed_ms", (elapsed.as_millis() as u64).into()),
                    (
                        "deadline_ms",
                        self.config.tick_deadline_ms.unwrap_or(0).into(),
                    ),
                ],
            );
        }
        let shed = std::mem::take(&mut self.shed_since_tick);
        self.events_since_tick = 0;
        if self.config.profile {
            self.record_tick_trace(to, elapsed, shed, degraded);
        }
        Ok(TickReport {
            engine: total,
            degraded,
            shed,
        })
    }

    /// Drains recognition-latency stamps the tick horizon has passed
    /// into the stage-labelled `rtec_recognition_latency_us` histograms:
    /// an event's intervals become externally visible at the completion
    /// of the first tick whose horizon covers its timepoint.
    fn observe_recognition_latency(&mut self, to: Timepoint) {
        if self.arrival_stamps.is_empty() && self.release_stamps.is_empty() {
            return;
        }
        let now = Instant::now();
        let metrics = crate::obs::metrics();
        for (stamps, histogram) in [
            (
                &mut self.arrival_stamps,
                &metrics.recognition_latency_admission,
            ),
            (
                &mut self.release_stamps,
                &metrics.recognition_latency_release,
            ),
        ] {
            stamps.retain(|&(t, at)| {
                if t <= to {
                    histogram.observe_duration(now.saturating_duration_since(at));
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Collects per-shard profiles, refreshes the session's merged
    /// totals, and records this tick's trace (the per-rule cost *delta*
    /// against the previous merge) into the flight recorder; a tick at
    /// or over [`SessionConfig::slow_tick_ms`] promotes the trace to a
    /// retained JSON dump. Best-effort: a shard that died mid-collection
    /// simply contributes nothing this round.
    fn record_tick_trace(&mut self, to: Timepoint, elapsed: Duration, shed: u64, degraded: bool) {
        let mut merged = ProfileAggregate::new();
        let mut replies = Vec::with_capacity(self.workers.len());
        for (shard, worker) in self.workers.iter().enumerate() {
            let (tx, rx) = bounded(1);
            if worker.send(WorkerMsg::Profile(tx)).is_ok() {
                replies.push((shard, rx));
            }
        }
        for (shard, rx) in replies {
            if let Ok(agg) = self.workers[shard].recv_reply(&rx) {
                merged.merge(&agg);
            }
        }
        let rules = merged.delta_since(&self.profile_agg);
        self.profile_agg = merged;
        let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.flight.record(TickTrace {
            tick: self.stats.ticks,
            to,
            elapsed_us,
            rules,
            queue_depths: self.queue_depths(),
            reorder_buffered: self.reorder_buffered(),
            watermark_lag: self.watermark_lag(),
            shed,
            degraded,
        });
        let slow = self
            .config
            .slow_tick_ms
            .is_some_and(|threshold| elapsed.as_millis() as u64 >= threshold);
        if slow {
            if let Some(dump) = self.flight.dump_last(&self.name, "slow_tick") {
                rtec_obs::warn(
                    "session.flight_recorder_dump",
                    &[
                        ("session", self.name.as_str().into()),
                        ("reason", "slow_tick".into()),
                        ("elapsed_us", elapsed_us.into()),
                        ("dump", dump.as_str().into()),
                    ],
                );
            }
        }
    }

    /// Takes a fresh checkpoint of every shard and clears the replay
    /// logs. Best-effort: a shard that fails keeps its previous
    /// checkpoint *and* replay log, which together still reproduce its
    /// state. Runs right after the tick's `RunTo`, which flushed every
    /// outbox, so each log is wholly sent.
    fn refresh_checkpoints(&mut self) {
        for shard in 0..self.workers.len() {
            let (tx, rx) = bounded(1);
            if self.workers[shard].send(WorkerMsg::Checkpoint(tx)).is_err() {
                continue;
            }
            match self.workers[shard].recv_reply(&rx) {
                Ok(cp) => {
                    let state = &mut self.shard_states[shard];
                    state.checkpoint = Some(*cp);
                    state.replay.clear();
                    state.sent = 0;
                }
                Err(_) => {
                    rtec_obs::warn(
                        "session.checkpoint_skipped",
                        &[
                            ("session", self.name.as_str().into()),
                            ("shard", shard.into()),
                        ],
                    );
                }
            }
        }
    }

    /// Snapshots and merges every shard's output. The returned symbol
    /// table renders the merged output's terms.
    pub fn query(&mut self) -> Result<(RecognitionOutput, SymbolTable), String> {
        self.check_live()?;
        let mut replies = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            let (tx, rx) = bounded(1);
            self.send_control(shard, WorkerMsg::Snapshot(tx))?;
            replies.push(rx);
        }
        let mut merged = RecognitionOutput::default();
        for (shard, rx) in replies.into_iter().enumerate() {
            let out = match self.workers[shard].recv_reply(&rx) {
                Ok((out, _)) => out,
                Err(_) => {
                    self.respawn_shard(shard)?;
                    let (tx, rx) = bounded(1);
                    self.send_control(shard, WorkerMsg::Snapshot(tx))?;
                    self.workers[shard].recv_reply(&rx).map(|(out, _)| out)?
                }
            };
            merged.absorb(out);
        }
        if self.router.late_couplings > 0 {
            merged.warnings.push(format!(
                "{} coupling(s) arrived after shard pinning; results for the affected \
                 entity pairs are best-effort",
                self.router.late_couplings
            ));
        }
        Ok((merged, self.master.clone()))
    }

    /// Current counters (ingest-side live; engine-side as of last tick).
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Number of late couplings observed by the router.
    pub fn late_couplings(&self) -> u64 {
        self.router.late_couplings
    }

    /// Items buffered awaiting the next tick.
    pub fn buffered(&self) -> usize {
        self.router.buffered()
    }

    /// The session's dead-letter ledger: every refused record,
    /// reason-coded.
    pub fn dead_letters(&self) -> &DeadLetterLedger {
        &self.ledger
    }

    /// Drops the ledger's retained records, keeping the exact counts
    /// (the `deadletter` wire command's `clear` option).
    pub fn clear_dead_letter_records(&mut self) {
        self.ledger.clear_records();
    }

    /// The reorder buffer's watermark, when one is configured.
    pub fn watermark(&self) -> Option<Timepoint> {
        self.reorder.as_ref().map(ReorderBuffer::watermark)
    }

    /// How far the release frontier trails the newest admitted event.
    pub fn watermark_lag(&self) -> Option<Timepoint> {
        self.reorder.as_ref().map(ReorderBuffer::lag)
    }

    /// Events admitted but not yet released by the reorder buffer.
    pub fn reorder_buffered(&self) -> usize {
        self.reorder.as_ref().map_or(0, ReorderBuffer::len)
    }

    /// Approximate bytes resident in the reorder buffer.
    pub fn reorder_buffered_bytes(&self) -> usize {
        self.reorder.as_ref().map_or(0, ReorderBuffer::approx_bytes)
    }

    /// The reorder buffer's persistable image (contents + frontier),
    /// when one is configured.
    pub fn reorder_snapshot(&self) -> Option<ReorderSnapshot> {
        self.reorder.as_ref().map(ReorderBuffer::snapshot)
    }

    /// Total queued items across shard channels (approximate). Items
    /// still in a shard's outbox, fewer than [`INPUT_BATCH`] per shard,
    /// are not queued yet.
    pub fn queue_depth(&self) -> usize {
        self.workers.iter().map(ShardWorker::queue_len).sum()
    }

    /// Per-shard queued item counts (approximate).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.workers.iter().map(ShardWorker::queue_len).collect()
    }

    /// Per-shard queue-depth high-water marks since open.
    pub fn queue_high_water(&self) -> &[u64] {
        &self.stats.queue_high_water
    }

    /// The label of the session's window evaluator (`"plan"`).
    pub fn evaluator(&self) -> &'static str {
        rtec::plan::LABEL
    }

    /// The merged per-rule profile across shard engines as of the last
    /// tick; `None` when the session was opened with profiling off.
    pub fn profile(&self) -> Option<&ProfileAggregate> {
        self.config.profile.then_some(&self.profile_agg)
    }

    /// Retained flight-recorder dumps (slow ticks, worker respawns),
    /// oldest first.
    pub fn flight_dumps(&self) -> &[String] {
        self.flight.dumps()
    }

    /// Drains every worker and returns final aggregate stats. Buffered
    /// (never-ticked) items and every outbox are flushed first so
    /// nothing is dropped.
    /// Close is deliberately tolerant of dead workers — a quarantined
    /// session must still be closable — so shard failures degrade the
    /// final stats instead of failing the close.
    pub fn close(mut self) -> Result<SessionStats, String> {
        if self.quarantined.is_none() {
            // Release the reorder buffer first so admitted events reach
            // the engines (queued, like any close-time flush — no extra
            // evaluation is forced). Routing failures degrade to lost
            // items, consistent with close's tolerance of dead workers.
            if let Some(mut buf) = self.reorder.take() {
                for (term, t) in buf.flush() {
                    if self.route_event(term, t).is_err() {
                        rtec_obs::warn(
                            "session.close_flush_lost",
                            &[("session", self.name.as_str().into()), ("t", t.into())],
                        );
                    }
                }
            }
            let lost = |session: &Session, shard: usize| {
                rtec_obs::warn(
                    "session.close_flush_lost",
                    &[
                        ("session", session.name.as_str().into()),
                        ("shard", shard.into()),
                    ],
                )
            };
            for (shard, item) in self.router.flush() {
                if self.send_input(shard, item).is_err() {
                    lost(&self, shard);
                }
            }
            for shard in 0..self.workers.len() {
                if self.flush_outbox(shard).is_err() {
                    lost(&self, shard);
                }
            }
        }
        let mut total = EngineStats::default();
        for (shard, worker) in self.workers.into_iter().enumerate() {
            match worker.drain() {
                Ok(stats) => {
                    total.windows = total.windows.max(stats.windows);
                    total.events_processed += stats.events_processed;
                    total.events_dropped += stats.events_dropped;
                }
                Err(err) => rtec_obs::warn(
                    "session.close_shard_dead",
                    &[
                        ("session", self.name.as_str().into()),
                        ("shard", shard.into()),
                        ("error", err.as_str().into()),
                    ],
                ),
            }
        }
        self.stats.engine = total;
        crate::obs::metrics().sessions_closed.inc();
        rtec_obs::info(
            "session.close",
            &[
                ("session", self.name.as_str().into()),
                ("events_ingested", self.stats.events_ingested.into()),
                ("windows", self.stats.engine.windows.into()),
                (
                    "events_processed",
                    self.stats.engine.events_processed.into(),
                ),
            ],
        );
        Ok(self.stats)
    }
}

/// Deterministic respawn-backoff jitter in milliseconds: an FNV-1a hash
/// of the session name mixed with the shard and restart count, pushed
/// through the SplitMix64 finalizer and reduced to `0..=3·restarts`
/// (capped at 15 ms). A pure function of its inputs — no RNG state —
/// so concurrent respawns across sessions and shards fan out instead
/// of thundering in lockstep, while seeded chaos schedules stay
/// byte-for-byte reproducible.
fn respawn_jitter_ms(session: &str, shard: usize, restarts: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in session.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= restarts.rotate_left(32);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h % (3 * restarts.min(5) + 1)
}

fn engine_config_for(config: &SessionConfig) -> Result<EngineConfig, String> {
    let base = match config.window {
        Some(w) if w > 0 => EngineConfig::windowed(w),
        Some(w) => return Err(format!("window must be positive, got {w}")),
        None => EngineConfig::default(),
    };
    let base = match (config.slide, config.window) {
        (None, _) => base,
        (Some(_), None) => return Err("slide requires window".to_string()),
        (Some(s), Some(w)) if s > 0 && s <= w => EngineConfig::sliding(w, s),
        (Some(s), Some(w)) => {
            return Err(format!(
                "slide must satisfy 0 < slide <= window, got {s} (window {w})"
            ))
        }
    };
    if config.incremental && config.slide.is_none() {
        return Err("incremental requires slide".to_string());
    }
    Ok(base.with_incremental(config.incremental))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec::description::EventDescription;

    const DESC: &str = "
        initiatedAt(busy(V)=true, T) :- happensAt(start(V), T).
        terminatedAt(busy(V)=true, T) :- happensAt(stop(V), T).
        holdsFor(pair(V1, V2)=true, I) :-
            holdsFor(near(V1, V2)=true, Ip),
            holdsFor(busy(V1)=true, I1),
            holdsFor(busy(V2)=true, I2),
            intersect_all([Ip, I1, I2], I).
    ";

    fn rendered(out: &RecognitionOutput, sym: &SymbolTable) -> Vec<String> {
        let mut rows: Vec<String> = out
            .iter()
            .map(|(f, l)| format!("{}={}", f.display(sym), l))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn respawn_jitter_is_deterministic_and_bounded() {
        for restarts in 0..10u64 {
            for shard in 0..4usize {
                let a = respawn_jitter_ms("sess", shard, restarts);
                let b = respawn_jitter_ms("sess", shard, restarts);
                assert_eq!(a, b, "same inputs must give the same jitter");
                assert!(a <= 3 * restarts.min(5), "jitter {a} out of bounds");
            }
        }
        // Distinct shards decorrelate: not every shard gets the same
        // delay at the same restart count.
        let delays: Vec<u64> = (0..8).map(|s| respawn_jitter_ms("sess", s, 5)).collect();
        assert!(
            delays.iter().any(|d| *d != delays[0]),
            "jitter failed to spread across shards: {delays:?}"
        );
    }

    #[test]
    fn session_matches_batch_engine() {
        for shards in [1, 2, 4] {
            let mut s = Session::open(
                "t",
                DESC,
                SessionConfig {
                    shards,
                    ..SessionConfig::default()
                },
            )
            .unwrap();
            s.ingest_intervals("near(v0, v1)", "true", &[(0, 200)])
                .unwrap();
            for i in 0..6 {
                s.ingest_event(&format!("start(v{i})"), 10 + i).unwrap();
                s.ingest_event(&format!("stop(v{i})"), 100 + i).unwrap();
            }
            s.tick(300).unwrap();
            let (out, sym) = s.query().unwrap();

            // Reference: one batch engine over the same inputs.
            let desc = EventDescription::parse(DESC).unwrap();
            let compiled = desc.compile().unwrap();
            let mut stream = rtec::stream::InputStream::new();
            let f = rtec::parser::parse_term("near(v0, v1)", &mut stream.symbols).unwrap();
            let v = rtec::parser::parse_term("true", &mut stream.symbols).unwrap();
            stream.push_intervals(
                GroundFvp::new(f, v).unwrap(),
                IntervalList::from_pairs(&[(0, 200)]),
            );
            for i in 0..6 {
                stream
                    .push_event_src(&format!("start(v{i})"), 10 + i)
                    .unwrap();
                stream
                    .push_event_src(&format!("stop(v{i})"), 100 + i)
                    .unwrap();
            }
            let mut engine = rtec::Engine::new(&compiled, EngineConfig::default());
            stream.load_into(&mut engine);
            engine.run_to(300);
            let esym = engine.symbols().clone();
            let eout = engine.into_output();

            assert_eq!(
                rendered(&out, &sym),
                rendered(&eout, &esym),
                "shards={shards}"
            );
            assert!(s.stats().engine.windows >= 1);
            let final_stats = s.close().unwrap();
            assert_eq!(final_stats.events_ingested, 12);
        }
    }

    #[test]
    fn fewer_inputs_than_a_batch_reach_tick_query_and_close() {
        let mut s = Session::open("t", DESC, SessionConfig::default()).unwrap();
        s.ingest_intervals("near(v0, v1)", "true", &[(0, 200)])
            .unwrap();
        for i in 0..6 {
            s.ingest_event(&format!("start(v{i})"), 10 + i).unwrap();
            s.ingest_event(&format!("stop(v{i})"), 100 + i).unwrap();
        }
        let report = s.tick(300).unwrap();
        assert_eq!(report.engine.events_processed, 12);
        let (out, sym) = s.query().unwrap();
        let rows = rendered(&out, &sym);
        assert_eq!(rows.len(), 7, "{rows:?}");
        assert!(
            rows.contains(&"pair(v0, v1)=true=[[12, 101)]".to_string()),
            "{rows:?}"
        );
        // After the tick the components are pinned, so these go
        // straight to the outboxes. Each engine refuses what lies behind
        // its frontier, so the refusals in close's stats show the
        // unsent tails were handed over before the drain.
        for i in 0..3 {
            s.ingest_event(&format!("start(v{i})"), 50).unwrap();
        }
        let stats = s.close().unwrap();
        assert_eq!(stats.engine.events_processed, 12);
        assert_eq!(stats.engine.events_dropped, 3);
    }

    #[test]
    fn open_rejects_bad_input() {
        assert!(Session::open("x", "not valid rtec ):", SessionConfig::default()).is_err());
        assert!(Session::open(
            "x",
            DESC,
            SessionConfig {
                shards: 0,
                ..SessionConfig::default()
            }
        )
        .is_err());
        assert!(Session::open(
            "x",
            DESC,
            SessionConfig {
                window: Some(0),
                ..SessionConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn session_survives_a_reopen_round_trip() {
        let config = SessionConfig {
            window: Some(50),
            shards: 2,
            ..SessionConfig::default()
        };
        let mut s = Session::open("t", DESC, config).unwrap();
        s.ingest_intervals("near(v0, v1)", "true", &[(0, 200)])
            .unwrap();
        for i in 0..4 {
            s.ingest_event(&format!("start(v{i})"), 10 + i).unwrap();
        }
        s.tick(60).unwrap();

        // Capture the persistable parts and rebuild.
        let names: Vec<String> = s
            .master_symbols()
            .iter()
            .map(|(_, name)| name.to_string())
            .collect();
        let router = s.router_snapshot();
        let cps: Vec<EngineCheckpoint> = s
            .shard_checkpoints()
            .expect("checkpoints exist after a tick")
            .into_iter()
            .cloned()
            .collect();
        let stats = s.stats().clone();

        let mut t = Session::reopen("t", DESC, config, &names, &router, cps, stats).unwrap();

        // Drive both sessions identically; outputs must match exactly.
        for i in 0..4 {
            s.ingest_event(&format!("stop(v{i})"), 100 + i).unwrap();
            t.ingest_event(&format!("stop(v{i})"), 100 + i).unwrap();
        }
        s.tick(300).unwrap();
        t.tick(300).unwrap();
        let (so, ssym) = s.query().unwrap();
        let (to, tsym) = t.query().unwrap();
        assert_eq!(rendered(&so, &ssym), rendered(&to, &tsym));
        s.close().unwrap();
        t.close().unwrap();
    }
}
