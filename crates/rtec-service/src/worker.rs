//! Shard workers: one OS thread per shard, owning one [`Engine`] for the
//! lifetime of the session.
//!
//! Input items flow through a **bounded** crossbeam channel in batches
//! of up to [`INPUT_BATCH`] ([`WorkerMsg::Input`]): one message per
//! batch rather than per event, so a stream does not pay a channel
//! hand-off (and, on a busy CPU, a thread switch) for every item. The
//! channel holds `capacity.div_ceil(INPUT_BATCH)` messages, so the
//! queue still bounds the number of queued items. When a shard's queue
//! is full the session's ingest path blocks (after counting the stall —
//! see `SessionStats::backpressure_waits`), which is the service's
//! backpressure mechanism. Control messages (`RunTo`, `Snapshot`,
//! `Profile`, `Drain`) travel on the same channel behind the batches,
//! so a tick observes every item handed over before it.
//!
//! Event terms are already interned in the session's master symbol
//! table. Worker engines keep their own (description-seeded) tables for
//! internal use, but never re-intern input terms — master symbol ids are
//! append-only and shared, which is what makes per-shard outputs
//! mergeable and renderable against the master table.
//!
//! **Crash recovery** happens in place, on the worker's own thread.
//! Right after each `RunTo` the worker checkpoints its engine (the
//! session gets a clone of the checkpoint's `Arc` in the reply, to
//! persist it) and then logs every input batch it receives. When a
//! message panics (a bug, or an injected fault from [`crate::fault`]),
//! the worker charges the session-wide restart count, backs off by a
//! deterministic jitter, restores the checkpoint (a fresh engine before
//! the first), replays its log and re-applies the message; a panic
//! during that charges again. Only messages from the channel step the
//! fault schedule, never the replay. Once the budget is spent the
//! worker fails: it drops inputs and answers every control message with
//! the reason, and the session quarantines itself. The thread ends only
//! on `Drain` or when the session drops its handle; were it to end
//! otherwise, its dropped receiver would drop the queued reply senders,
//! so [`recv_reply`] never waits on a dead worker.

use crate::fault::Faults;
use crate::router::PendingItem;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use rtec::checkpoint::EngineCheckpoint;
use rtec::description::CompiledDescription;
use rtec::engine::{Engine, EngineConfig, EngineStats, RecognitionOutput};
use rtec::Timepoint;
use rtec_obs::profile::ProfileAggregate;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Most input items one [`WorkerMsg::Input`] carries.
pub const INPUT_BATCH: usize = 64;

/// Where a worker answers a control message: `Err` carries the reason
/// the worker failed.
pub type Reply<T> = Sender<Result<T, String>>;

/// Message to a shard worker.
pub enum WorkerMsg {
    /// Input items (master-table terms) in arrival order: events and
    /// input-fluent intervals, at most [`INPUT_BATCH`] of them.
    Input(Vec<PendingItem>),
    /// Evaluate windows up to the horizon and checkpoint the engine;
    /// reply with engine stats and that checkpoint.
    RunTo(Timepoint, Reply<(EngineStats, Arc<EngineCheckpoint>)>),
    /// Reply with a copy of the accumulated output and current stats.
    Snapshot(Reply<(RecognitionOutput, EngineStats)>),
    /// Reply with the engine's per-rule profile (empty when the worker
    /// was spawned without profiling).
    Profile(Reply<Box<ProfileAggregate>>),
    /// Process everything queued so far, reply with final stats, stop.
    Drain(Reply<EngineStats>),
}

impl WorkerMsg {
    /// How many queue items the message stands for: an `Input` batch
    /// its length, a control message one. Queue depth, backpressure
    /// waits and the fault schedule's worker steps count in this unit.
    pub fn items(&self) -> usize {
        match self {
            WorkerMsg::Input(batch) => batch.len(),
            _ => 1,
        }
    }

    /// Answers a control message with `Err(reason)`; returns whether the
    /// worker keeps running.
    fn refuse(&self, reason: &str) -> bool {
        let err = reason.to_string();
        match self {
            WorkerMsg::Input(_) => {}
            WorkerMsg::RunTo(_, reply) => drop(reply.send(Err(err))),
            WorkerMsg::Snapshot(reply) => drop(reply.send(Err(err))),
            WorkerMsg::Profile(reply) => drop(reply.send(Err(err))),
            WorkerMsg::Drain(reply) => drop(reply.send(Err(err))),
        }
        !matches!(self, WorkerMsg::Drain(_))
    }
}

/// What every shard worker of one session shares.
#[derive(Clone)]
pub struct WorkerContext {
    /// The session's name: it seeds the backoff jitter and labels logs.
    pub session: Arc<str>,
    /// The compiled description every shard engine runs.
    pub desc: Arc<CompiledDescription>,
    /// Engine windowing.
    pub config: EngineConfig,
    /// Whether engines attribute per-rule evaluation costs.
    pub profile: bool,
    /// Queue capacity per shard, in items.
    pub capacity: usize,
    /// In-place recoveries made so far by all of the session's workers:
    /// one counter they share, charged up to `max_restarts`.
    pub restarts: Arc<AtomicU64>,
    /// [`crate::SessionConfig::max_worker_restarts`].
    pub max_restarts: u64,
    /// The session's fault-injection handle.
    pub faults: Faults,
}

/// Handle to a shard worker thread.
pub struct ShardWorker {
    sender: Sender<WorkerMsg>,
    /// Items (see [`WorkerMsg::items`]) queued on the channel: added
    /// before a send, taken off by the worker when it receives.
    queued: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl ShardWorker {
    /// Spawns the worker for `shard` with a queue of about
    /// `ctx.capacity` items. With a `checkpoint` (persisted earlier) the
    /// engine resumes from it; if it does not match the description,
    /// the worker fails from the start.
    pub fn spawn(
        ctx: WorkerContext,
        shard: usize,
        checkpoint: Option<Arc<EngineCheckpoint>>,
    ) -> ShardWorker {
        let (sender, receiver) = bounded::<WorkerMsg>(ctx.capacity.div_ceil(INPUT_BATCH).max(1));
        let queued = Arc::new(AtomicUsize::new(0));
        let taken = Arc::clone(&queued);
        let handle = std::thread::spawn(move || {
            let mut worker = Shard::start(&ctx, shard, checkpoint);
            while let Ok(msg) = receiver.recv() {
                taken.fetch_sub(msg.items(), Ordering::Relaxed);
                if !worker.handle(msg) {
                    return;
                }
            }
        });
        ShardWorker {
            sender,
            queued,
            handle: Some(handle),
        }
    }

    /// Enqueues a message; returns whether the send had to block on a
    /// full queue (the backpressure signal the session counts).
    pub fn send(&self, msg: WorkerMsg) -> Result<bool, String> {
        let items = msg.items();
        self.queued.fetch_add(items, Ordering::Relaxed);
        let sent = match self.sender.try_send(msg) {
            Ok(()) => Some(false),
            Err(TrySendError::Full(msg)) => self.sender.send(msg).ok().map(|()| true),
            Err(TrySendError::Disconnected(_)) => None,
        };
        sent.ok_or_else(|| {
            self.queued.fetch_sub(items, Ordering::Relaxed);
            "shard worker exited".to_string()
        })
    }

    /// Current queue depth in items (approximate).
    pub fn queue_len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Sends `Drain` and joins the thread, returning its final stats.
    pub fn drain(mut self) -> Result<EngineStats, String> {
        let (tx, rx) = bounded(1);
        self.send(WorkerMsg::Drain(tx))?;
        let stats = recv_reply(&rx);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .map_err(|_| "shard worker panicked".to_string())?;
        }
        stats
    }
}

/// Waits for a worker's answer to a control message.
pub fn recv_reply<T>(rx: &Receiver<Result<T, String>>) -> Result<T, String> {
    rx.recv().map_err(|_| "shard worker exited".to_string())?
}

/// A worker thread's state: its engine and what rebuilds it.
struct Shard<'c> {
    ctx: &'c WorkerContext,
    index: usize,
    engine: Engine<'c>,
    /// The engine as of the last `RunTo` (`None` before the first).
    checkpoint: Option<Arc<EngineCheckpoint>>,
    /// Input batches received since `checkpoint`, in arrival order.
    log: Vec<Vec<PendingItem>>,
    /// Why the worker failed, once it has.
    failed: Option<String>,
}

impl<'c> Shard<'c> {
    fn start(
        ctx: &'c WorkerContext,
        index: usize,
        checkpoint: Option<Arc<EngineCheckpoint>>,
    ) -> Shard<'c> {
        let (engine, failed) = match resume(ctx, checkpoint.as_deref()) {
            Ok(engine) => (engine, None),
            Err(err) => (Engine::new(&ctx.desc, ctx.config), Some(err)),
        };
        Shard {
            ctx,
            index,
            engine,
            checkpoint,
            log: Vec::new(),
            failed,
        }
    }

    /// Handles one message from the channel; returns whether the worker
    /// keeps running.
    fn handle(&mut self, msg: WorkerMsg) -> bool {
        if let Some(reason) = &self.failed {
            return msg.refuse(reason);
        }
        let items = msg.items() as u64;
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.ctx.faults.on_worker_step(self.index, items);
            self.apply(&msg)
        }));
        // A batch joins the log whether or not it was applied: the
        // replay applies it.
        let control = match msg {
            WorkerMsg::Input(batch) => {
                self.log.push(batch);
                None
            }
            control => Some(control),
        };
        let outcome = first.or_else(|panic| {
            log_panic(self.ctx, self.index, &*panic);
            self.recover(control.as_ref())
        });
        outcome.unwrap_or_else(|reason| {
            let keep = control.is_none_or(|msg| msg.refuse(&reason));
            self.failed = Some(reason);
            keep
        })
    }

    /// Applies one message to the engine; returns whether the worker
    /// keeps running.
    fn apply(&mut self, msg: &WorkerMsg) -> bool {
        let engine = &mut self.engine;
        match msg {
            WorkerMsg::Input(batch) => add_batch(engine, batch),
            WorkerMsg::RunTo(horizon, reply) => {
                engine.run_to(*horizon);
                let checkpoint = Arc::new(engine.checkpoint());
                self.checkpoint = Some(Arc::clone(&checkpoint));
                self.log.clear();
                drop(reply.send(Ok((engine.stats(), checkpoint))));
            }
            WorkerMsg::Snapshot(reply) => {
                drop(reply.send(Ok((engine.output().clone(), engine.stats()))));
            }
            WorkerMsg::Profile(reply) => {
                drop(reply.send(Ok(Box::new(engine.profile().cloned().unwrap_or_default()))));
            }
            // Everything enqueued before the Drain is already handled
            // (the channel is FIFO); unticked events are reported, not
            // evaluated.
            WorkerMsg::Drain(reply) => drop(reply.send(Ok(engine.stats()))),
        }
        !matches!(msg, WorkerMsg::Drain(_))
    }

    /// Rebuilds the engine after a panic: restores the checkpoint,
    /// replays the log and re-applies `control`, under [`retry`].
    fn recover(&mut self, control: Option<&WorkerMsg>) -> Result<bool, String> {
        let (ctx, index) = (self.ctx, self.index);
        let keep = retry(ctx, index, || {
            self.engine = resume(ctx, self.checkpoint.as_deref())?;
            for batch in &self.log {
                add_batch(&mut self.engine, batch);
            }
            Ok(control.is_none_or(|msg| self.apply(msg)))
        })?;
        let replayed: usize = self.log.iter().map(Vec::len).sum();
        rtec_obs::warn(
            "worker.recovered",
            &[
                ("session", (&*ctx.session).into()),
                ("shard", index.into()),
                ("restarts", ctx.restarts.load(Ordering::SeqCst).into()),
                ("replayed", replayed.into()),
            ],
        );
        Ok(keep)
    }
}

/// A shard engine resumed from `checkpoint`, or fresh without one.
/// Profiler state is process-local and never checkpointed: a recovered
/// engine restarts attribution from zero, while the session keeps the
/// lifetime totals it already merged.
fn resume<'c>(
    ctx: &'c WorkerContext,
    checkpoint: Option<&EngineCheckpoint>,
) -> Result<Engine<'c>, String> {
    let mut engine = match checkpoint {
        None => Engine::new(&ctx.desc, ctx.config),
        Some(cp) => Engine::restore(&ctx.desc, ctx.config, cp)?,
    };
    if ctx.profile {
        engine.enable_profiler();
    }
    Ok(engine)
}

/// Hands a batch's items to the engine in order.
fn add_batch(engine: &mut Engine, batch: &[PendingItem]) {
    for item in batch {
        match item {
            PendingItem::Event(ev, t) => engine.add_event(ev.clone(), *t),
            PendingItem::Intervals(fvp, list) => {
                engine.add_input_intervals(fvp.clone(), list.clone());
            }
        }
    }
}

/// Runs `attempt` until it completes without panicking. Every try first
/// charges the session's restart count and backs off; a panic inside
/// the attempt is logged and starts the next try. Returns the attempt's
/// result, or why the worker failed once the budget is spent.
fn retry<T>(
    ctx: &WorkerContext,
    shard: usize,
    mut attempt: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    loop {
        let charged = ctx
            .restarts
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < ctx.max_restarts).then_some(n + 1)
            });
        let restarts = 1 + charged.map_err(|_| {
            format!(
                "restart budget exhausted ({} restarts) at shard {shard}",
                ctx.max_restarts
            )
        })?;
        crate::obs::metrics().worker_restarts.inc();
        // Brief bounded backoff: give a transient cause (allocator
        // pressure, scheduler hiccups) room to clear before the retry.
        let backoff = 2 * restarts.min(5) + recovery_jitter_ms(&ctx.session, shard, restarts);
        std::thread::sleep(Duration::from_millis(backoff));
        match std::panic::catch_unwind(AssertUnwindSafe(&mut attempt)) {
            Ok(result) => return result,
            Err(panic) => log_panic(ctx, shard, &*panic),
        }
    }
}

fn log_panic(ctx: &WorkerContext, shard: usize, payload: &(dyn Any + Send)) {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    rtec_obs::error(
        "worker.panicked",
        &[
            ("session", (&*ctx.session).into()),
            ("shard", shard.into()),
            ("panic", msg.into()),
        ],
    );
}

/// Deterministic recovery-backoff jitter in milliseconds: an FNV-1a
/// hash of the session name mixed with the shard and restart count,
/// pushed through the SplitMix64 finalizer and reduced to
/// `0..=3·restarts` (capped at 15 ms). A pure function of its inputs —
/// no RNG state — so concurrent recoveries across sessions and shards
/// fan out instead of thundering in lockstep, while seeded chaos
/// schedules stay byte-for-byte reproducible.
fn recovery_jitter_ms(session: &str, shard: usize, restarts: u64) -> u64 {
    let mut h = rtec::json::fnv1a64(session.as_bytes());
    h ^= (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= restarts.rotate_left(32);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h % (3 * restarts.min(5) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use rtec::description::EventDescription;
    use rtec::interval::IntervalList;
    use rtec::term::GroundFvp;

    fn compiled() -> (Arc<CompiledDescription>, rtec::SymbolTable) {
        let desc = EventDescription::parse(
            "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
             terminatedAt(on(X)=true, T) :- happensAt(down(X), T).",
        )
        .unwrap();
        let master = desc.symbols.clone();
        (Arc::new(desc.compile().unwrap()), master)
    }

    fn context(
        desc: &Arc<CompiledDescription>,
        config: EngineConfig,
        profile: bool,
        faults: Faults,
        max_restarts: u64,
    ) -> WorkerContext {
        WorkerContext {
            session: "test".into(),
            desc: Arc::clone(desc),
            config,
            profile,
            capacity: 4,
            restarts: Arc::new(AtomicU64::new(0)),
            max_restarts,
            faults,
        }
    }

    fn spawn(desc: &Arc<CompiledDescription>, config: EngineConfig, profile: bool) -> ShardWorker {
        ShardWorker::spawn(
            context(desc, config, profile, Faults::default(), 2),
            0,
            None,
        )
    }

    fn run_to(
        w: &ShardWorker,
        horizon: Timepoint,
    ) -> Result<(EngineStats, Arc<EngineCheckpoint>), String> {
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::RunTo(horizon, tx)).unwrap();
        recv_reply(&rx)
    }

    fn snapshot(w: &ShardWorker, master: &rtec::SymbolTable) -> Result<Vec<String>, String> {
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Snapshot(tx)).unwrap();
        let (out, _) = recv_reply(&rx)?;
        let mut rows: Vec<String> = out
            .iter()
            .map(|(f, l)| format!("{}={}", f.display(master), l))
            .collect();
        rows.sort();
        Ok(rows)
    }

    #[test]
    fn worker_processes_and_drains() {
        let (compiled, mut master) = compiled();
        let w = spawn(&compiled, EngineConfig::default(), true);

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        let down = rtec::parser::parse_term("down(a)", &mut master).unwrap();
        let batch = vec![PendingItem::Event(up, 5), PendingItem::Event(down, 9)];
        w.send(WorkerMsg::Input(batch)).unwrap();
        let (stats, _) = run_to(&w, 20).unwrap();
        assert_eq!(stats.events_processed, 2);
        assert_eq!(
            snapshot(&w, &master).unwrap(),
            vec!["on(a)=true=[[6, 10)]".to_string()]
        );

        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Profile(tx)).unwrap();
        let profile = recv_reply(&rx).unwrap();
        assert_eq!(profile.windows, 1);
        assert_eq!(profile.total().calls, 1, "one simple stratum evaluated");

        let final_stats = w.drain().unwrap();
        assert_eq!(final_stats.windows, 1);
    }

    #[test]
    fn unprofiled_worker_replies_with_an_empty_profile() {
        let (compiled, mut master) = compiled();
        let w = spawn(&compiled, EngineConfig::default(), false);
        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        w.send(WorkerMsg::Input(vec![PendingItem::Event(up, 5)]))
            .unwrap();
        run_to(&w, 20).unwrap();
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Profile(tx)).unwrap();
        let profile = recv_reply(&rx).unwrap();
        assert!(profile.is_empty());
        assert_eq!(profile.windows, 0);
        w.drain().unwrap();
    }

    #[test]
    fn respawn_resumes_from_a_checkpoint() {
        let (compiled, mut master) = compiled();
        let config = EngineConfig::windowed(10);
        let w = spawn(&compiled, config, false);

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        let down = rtec::parser::parse_term("down(a)", &mut master).unwrap();
        w.send(WorkerMsg::Input(vec![PendingItem::Event(up, 5)]))
            .unwrap();
        // The RunTo reply carries the checkpoint the worker took.
        let (_, cp) = run_to(&w, 10).unwrap();
        drop(w); // simulate the first worker's process going away

        let ctx = context(&compiled, config, false, Faults::default(), 2);
        let w2 = ShardWorker::spawn(ctx, 0, Some(cp));
        w2.send(WorkerMsg::Input(vec![PendingItem::Event(down, 14)]))
            .unwrap();
        run_to(&w2, 20).unwrap();
        assert_eq!(
            snapshot(&w2, &master).unwrap(),
            vec!["on(a)=true=[[6, 15)]".to_string()]
        );
        w2.drain().unwrap();
    }

    /// Drives a worker through two ticks of toggling events, 20 items
    /// per batch; returns each tick's stats and the final rows.
    fn drive(w: &ShardWorker, master: &mut rtec::SymbolTable) -> (Vec<u64>, Vec<String>) {
        let mut processed = Vec::new();
        for tick in 0..2i64 {
            for chunk in 0..3i64 {
                let batch = (0..20i64)
                    .map(|i| {
                        let t = tick * 100 + chunk * 20 + i + 1;
                        let ev = if t % 10 < 5 { "up(a)" } else { "down(a)" };
                        PendingItem::Event(rtec::parser::parse_term(ev, master).unwrap(), t)
                    })
                    .collect();
                w.send(WorkerMsg::Input(batch)).unwrap();
            }
            let (stats, _) = run_to(w, tick * 100 + 100).unwrap();
            processed.push(stats.events_processed as u64);
        }
        (processed, snapshot(w, master).unwrap())
    }

    #[test]
    fn a_panic_inside_an_input_batch_is_recovered_in_place() {
        let (compiled, mut master) = compiled();
        let config = EngineConfig::windowed(50);
        let clean = spawn(&compiled, config, true);
        let expected = drive(&clean, &mut master);
        clean.drain().unwrap();

        // Steps 1-60 are the first tick's batches and step 61 its RunTo,
        // so step 70 lies inside the second tick's first batch: the
        // worker restores the first tick's checkpoint and replays.
        let faults = Faults::new(FaultPlan::new().panic_worker(0, 70));
        let ctx = context(&compiled, config, true, faults.clone(), 2);
        let restarts = Arc::clone(&ctx.restarts);
        let w = ShardWorker::spawn(ctx, 0, None);
        let thread = w.handle.as_ref().unwrap().thread().id();
        let got = drive(&w, &mut master);
        assert_eq!(faults.injected(), 1, "the scheduled panic must fire");
        assert_eq!(got, expected, "recovered worker differs from a clean one");
        assert_eq!(restarts.load(Ordering::SeqCst), 1, "one restart is charged");
        let handle = w.handle.as_ref().unwrap();
        assert_eq!(handle.thread().id(), thread);
        assert!(!handle.is_finished(), "the panicked thread still serves");
        w.drain().unwrap();
    }

    #[test]
    fn a_spent_budget_fails_the_worker_and_every_answer_says_why() {
        let (compiled, mut master) = compiled();
        let faults = Faults::new(FaultPlan::new().panic_worker(0, 1));
        let ctx = context(&compiled, EngineConfig::default(), false, faults, 0);
        let w = ShardWorker::spawn(ctx, 0, None);
        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        w.send(WorkerMsg::Input(vec![PendingItem::Event(up, 5)]))
            .unwrap();
        let reason = "restart budget exhausted (0 restarts) at shard 0".to_string();
        assert_eq!(run_to(&w, 10).unwrap_err(), reason);
        assert_eq!(snapshot(&w, &master).unwrap_err(), reason);
        assert_eq!(w.drain().unwrap_err(), reason);
    }

    #[test]
    fn a_panic_during_replay_is_charged_and_ends_in_failure() {
        let (compiled, _) = compiled();
        let ctx = context(
            &compiled,
            EngineConfig::default(),
            false,
            Faults::default(),
            3,
        );
        // An attempt (restore + replay + re-apply) that panics every
        // time charges every try and fails once the budget is spent.
        let mut tries = 0;
        let failed = retry(&ctx, 1, || -> Result<(), String> {
            tries += 1;
            panic!("replay panics");
        });
        assert_eq!(
            failed,
            Err("restart budget exhausted (3 restarts) at shard 1".to_string())
        );
        assert_eq!((tries, ctx.restarts.load(Ordering::SeqCst)), (3, 3));

        // One that panics once completes on the next try.
        let ctx = context(
            &compiled,
            EngineConfig::default(),
            false,
            Faults::default(),
            3,
        );
        let mut tries = 0;
        let done = retry(&ctx, 0, || {
            tries += 1;
            assert!(tries > 1, "first replay panics");
            Ok(tries)
        });
        assert_eq!(done, Ok(2));
        assert_eq!(ctx.restarts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn recovery_jitter_is_deterministic_and_bounded() {
        for restarts in 0..10u64 {
            for shard in 0..4usize {
                let a = recovery_jitter_ms("sess", shard, restarts);
                let b = recovery_jitter_ms("sess", shard, restarts);
                assert_eq!(a, b, "same inputs must give the same jitter");
                assert!(a <= 3 * restarts.min(5), "jitter {a} out of bounds");
            }
        }
        // Distinct shards decorrelate: not every shard gets the same
        // delay at the same restart count.
        let delays: Vec<u64> = (0..8).map(|s| recovery_jitter_ms("sess", s, 5)).collect();
        assert!(
            delays.iter().any(|d| *d != delays[0]),
            "jitter failed to spread across shards: {delays:?}"
        );
        let pinned: Vec<u64> = [
            ("sess", 0, 1),
            ("sess", 1, 3),
            ("sess", 3, 5),
            ("chaos-7", 2, 4),
        ]
        .iter()
        .map(|&(name, shard, restarts)| recovery_jitter_ms(name, shard, restarts))
        .collect();
        assert_eq!(pinned, vec![1, 3, 10, 9], "jitter values are pinned");
    }

    #[test]
    fn input_batch_applies_events_and_intervals_in_order() {
        let desc = EventDescription::parse(
            "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
             terminatedAt(on(X)=true, T) :- happensAt(down(X), T).
             holdsFor(lit(X)=true, I) :-
                 holdsFor(on(X)=true, I1), holdsFor(power(X)=true, I2),
                 intersect_all([I1, I2], I).",
        )
        .unwrap();
        let mut master = desc.symbols.clone();
        let compiled = Arc::new(desc.compile().unwrap());
        let w = spawn(&compiled, EngineConfig::default(), false);
        let mut term = |src: &str| rtec::parser::parse_term(src, &mut master).unwrap();
        let power = GroundFvp::new(term("power(a)"), term("true")).unwrap();
        // A later declaration of the same input fluent replaces the
        // earlier one, so only in-order application leaves [0, 12).
        let batch = vec![
            PendingItem::Event(term("up(a)"), 5),
            PendingItem::Intervals(power.clone(), IntervalList::from_pairs(&[(0, 8)])),
            PendingItem::Event(term("down(a)"), 20),
            PendingItem::Intervals(power, IntervalList::from_pairs(&[(0, 12)])),
        ];
        assert_eq!(WorkerMsg::Input(batch.clone()).items(), 4);
        w.send(WorkerMsg::Input(batch)).unwrap();
        assert_eq!(run_to(&w, 30).unwrap().0.events_processed, 2);
        assert_eq!(
            snapshot(&w, &master).unwrap(),
            vec![
                "lit(a)=true=[[6, 12)]".to_string(),
                "on(a)=true=[[6, 21)]".to_string(),
            ]
        );
        assert_eq!(w.queue_len(), 0);
        w.drain().unwrap();
    }
}
