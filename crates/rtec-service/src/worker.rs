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
//! `Checkpoint`, `Profile`, `Drain`) travel on the same channel behind
//! the batches, so a tick observes every item handed over before it.
//!
//! Event terms are already interned in the session's master symbol
//! table. Worker engines keep their own (description-seeded) tables for
//! internal use, but never re-intern input terms — master symbol ids are
//! append-only and shared, which is what makes per-shard outputs
//! mergeable and renderable against the master table.
//!
//! **Crash containment.** A panic while processing a message (a bug, or
//! an injected fault from [`crate::fault`]) is caught inside the worker
//! thread: the worker logs it, drops its receiver, and exits. The
//! session observes the disconnected channel on its next send/receive
//! and respawns the shard with [`ShardWorker::spawn`], restoring the
//! engine from the session's last [`EngineCheckpoint`] — the panic never
//! crosses into the server process.

use crate::fault::Faults;
use crate::router::PendingItem;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use rtec::checkpoint::EngineCheckpoint;
use rtec::description::CompiledDescription;
use rtec::engine::{Engine, EngineConfig, EngineStats, RecognitionOutput};
use rtec::Timepoint;
use rtec_obs::profile::ProfileAggregate;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Most input items one [`WorkerMsg::Input`] carries.
pub const INPUT_BATCH: usize = 64;

/// Message to a shard worker.
pub enum WorkerMsg {
    /// Input items (master-table terms) in arrival order: events and
    /// input-fluent intervals, at most [`INPUT_BATCH`] of them.
    Input(Vec<PendingItem>),
    /// Evaluate windows up to the horizon; reply with engine stats.
    RunTo(Timepoint, Sender<EngineStats>),
    /// Reply with a copy of the accumulated output and current stats.
    Snapshot(Sender<(RecognitionOutput, EngineStats)>),
    /// Reply with a checkpoint of the engine's full retained state.
    Checkpoint(Sender<Box<EngineCheckpoint>>),
    /// Reply with the engine's lifetime per-rule profile (empty when
    /// the worker was spawned without profiling).
    Profile(Sender<Box<ProfileAggregate>>),
    /// Process everything queued so far, reply with final stats, stop.
    Drain(Sender<EngineStats>),
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
    /// Spawns the worker for `shard` over `desc` with a queue of about
    /// `capacity` items (`capacity.div_ceil(INPUT_BATCH)` messages);
    /// with `profile`, its engine attributes per-rule evaluation costs.
    /// With a `checkpoint` (taken from a crashed predecessor at the
    /// last tick boundary, or persisted) the engine resumes from it; if
    /// it does not match `desc`, the worker logs the error and exits
    /// immediately, and the supervisor observes the disconnected
    /// channel. Each message first steps the `faults` schedule.
    pub fn spawn(
        desc: Arc<CompiledDescription>,
        config: EngineConfig,
        profile: bool,
        capacity: usize,
        shard: usize,
        checkpoint: Option<EngineCheckpoint>,
        faults: Faults,
    ) -> ShardWorker {
        let (sender, receiver) = bounded(capacity.div_ceil(INPUT_BATCH).max(1));
        let queued = Arc::new(AtomicUsize::new(0));
        let taken = Arc::clone(&queued);
        let handle = std::thread::spawn(move || {
            let mut engine = match checkpoint {
                None => Engine::new(&desc, config),
                Some(cp) => match Engine::restore(&desc, config, &cp) {
                    Ok(engine) => engine,
                    Err(err) => {
                        rtec_obs::error(
                            "worker.restore_failed",
                            &[("shard", shard.into()), ("error", err.as_str().into())],
                        );
                        return;
                    }
                },
            };
            // Profiler state is process-local and never checkpointed: a
            // respawned worker restarts attribution from zero while the
            // session keeps the lifetime totals it already merged.
            if profile {
                engine.enable_profiler();
            }
            run_worker(&mut engine, shard, &receiver, &taken, &faults);
        });
        ShardWorker {
            sender,
            queued,
            handle: Some(handle),
        }
    }

    /// Enqueues a message; returns whether the send had to block on a
    /// full queue (the backpressure signal the session counts). If the
    /// worker is dead the message is handed back so the supervisor can
    /// respawn the shard and retry the same message.
    pub fn send(&self, msg: WorkerMsg) -> Result<bool, WorkerMsg> {
        let items = msg.items();
        self.queued.fetch_add(items, Ordering::Relaxed);
        let sent = match self.sender.try_send(msg) {
            Ok(()) => Ok(false),
            Err(TrySendError::Full(msg)) => self.sender.send(msg).map(|()| true).map_err(|e| e.0),
            Err(TrySendError::Disconnected(msg)) => Err(msg),
        };
        if sent.is_err() {
            self.queued.fetch_sub(items, Ordering::Relaxed);
        }
        sent
    }

    /// Current queue depth in items (approximate).
    pub fn queue_len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }
    /// Whether the worker thread is still attached to its channel.
    pub fn is_alive(&self) -> bool {
        // A dead worker dropped its receiver; probing with try_send
        // would consume queue slots, so check the handle instead.
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Receives a reply from this worker. A plain `recv` is not safe
    /// here: if the worker died with the reply-carrying message still
    /// queued, the supervisor's live queue `Sender` keeps that message
    /// (and the reply sender inside it) alive, so the reply channel
    /// never disconnects. Poll with a timeout and give up once the
    /// thread has exited — after one final non-blocking check for a
    /// reply sent just before death.
    pub fn recv_reply<T>(&self, rx: &Receiver<T>) -> Result<T, String> {
        loop {
            match rx.recv_timeout(std::time::Duration::from_millis(10)) {
                Ok(v) => return Ok(v),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("shard worker exited".to_string());
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !self.is_alive() {
                        return rx.try_recv().map_err(|_| "shard worker exited".to_string());
                    }
                }
            }
        }
    }

    /// Sends `Drain` and joins the thread, returning its final stats.
    pub fn drain(mut self) -> Result<EngineStats, String> {
        let (tx, rx) = bounded(1);
        self.send(WorkerMsg::Drain(tx))
            .map_err(|_| "shard worker exited".to_string())?;
        let stats = self.recv_reply(&rx)?;
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .map_err(|_| "shard worker panicked".to_string())?;
        }
        Ok(stats)
    }
}

fn run_worker(
    engine: &mut Engine,
    shard: usize,
    receiver: &Receiver<WorkerMsg>,
    queued: &AtomicUsize,
    faults: &Faults,
) {
    while let Ok(msg) = receiver.recv() {
        let items = msg.items();
        queued.fetch_sub(items, Ordering::Relaxed);
        // Contain panics (bugs or injected faults) to this message: on
        // unwind the worker logs, drops its receiver, and exits; the
        // session sees the disconnect and respawns from checkpoint.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            faults.on_worker_step(shard, items as u64);
            handle_msg(engine, msg)
        }));
        match outcome {
            Ok(true) => {}
            Ok(false) => return,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                rtec_obs::error(
                    "worker.panicked",
                    &[("shard", shard.into()), ("panic", msg.into())],
                );
                return;
            }
        }
    }
}

/// Handles one message; returns whether the worker should keep running.
fn handle_msg(engine: &mut Engine, msg: WorkerMsg) -> bool {
    match msg {
        WorkerMsg::Input(batch) => {
            for item in batch {
                match item {
                    PendingItem::Event(ev, t) => engine.add_event(ev, t),
                    PendingItem::Intervals(fvp, list) => engine.add_input_intervals(fvp, list),
                }
            }
        }
        WorkerMsg::RunTo(horizon, reply) => {
            engine.run_to(horizon);
            let _ = reply.send(engine.stats());
        }
        WorkerMsg::Snapshot(reply) => {
            let _ = reply.send((engine.output().clone(), engine.stats()));
        }
        WorkerMsg::Checkpoint(reply) => {
            let _ = reply.send(Box::new(engine.checkpoint()));
        }
        WorkerMsg::Profile(reply) => {
            let _ = reply.send(Box::new(engine.profile().cloned().unwrap_or_default()));
        }
        WorkerMsg::Drain(reply) => {
            // Graceful drain: everything enqueued before the Drain
            // has already been handled (the channel is FIFO); no
            // further evaluation is forced — unticked events are
            // reported, not silently evaluated.
            let _ = reply.send(engine.stats());
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn worker_processes_and_drains() {
        let (compiled, mut master) = compiled();
        let w = ShardWorker::spawn(
            Arc::clone(&compiled),
            EngineConfig::default(),
            true,
            4,
            0,
            None,
            Faults::default(),
        );

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        let down = rtec::parser::parse_term("down(a)", &mut master).unwrap();
        let batch = vec![PendingItem::Event(up, 5), PendingItem::Event(down, 9)];
        w.send(WorkerMsg::Input(batch)).ok().unwrap();
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::RunTo(20, tx)).ok().unwrap();
        let stats = rx.recv().unwrap();
        assert_eq!(stats.events_processed, 2);

        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Snapshot(tx)).ok().unwrap();
        let (out, _) = rx.recv().unwrap();
        assert_eq!(out.len(), 1);
        let rendered: Vec<String> = out
            .iter()
            .map(|(f, l)| format!("{}={}", f.display(&master), l))
            .collect();
        assert_eq!(rendered, vec!["on(a)=true=[[6, 10)]".to_string()]);

        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Profile(tx)).ok().unwrap();
        let profile = rx.recv().unwrap();
        assert_eq!(profile.windows, 1);
        assert_eq!(profile.total().calls, 1, "one simple stratum evaluated");

        let final_stats = w.drain().unwrap();
        assert_eq!(final_stats.windows, 1);
    }

    #[test]
    fn unprofiled_worker_replies_with_an_empty_profile() {
        let (compiled, mut master) = compiled();
        let w = ShardWorker::spawn(
            Arc::clone(&compiled),
            EngineConfig::default(),
            false,
            4,
            0,
            None,
            Faults::default(),
        );
        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        w.send(WorkerMsg::Input(vec![PendingItem::Event(up, 5)]))
            .ok()
            .unwrap();
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::RunTo(20, tx)).ok().unwrap();
        rx.recv().unwrap();
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Profile(tx)).ok().unwrap();
        let profile = rx.recv().unwrap();
        assert!(profile.is_empty());
        assert_eq!(profile.windows, 0);
        w.drain().unwrap();
    }

    #[test]
    fn respawn_resumes_from_a_checkpoint() {
        let (compiled, mut master) = compiled();
        let config = EngineConfig::windowed(10);
        let w = ShardWorker::spawn(
            Arc::clone(&compiled),
            config,
            false,
            4,
            0,
            None,
            Faults::default(),
        );

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        let down = rtec::parser::parse_term("down(a)", &mut master).unwrap();
        w.send(WorkerMsg::Input(vec![PendingItem::Event(up, 5)]))
            .ok()
            .unwrap();
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::RunTo(10, tx)).ok().unwrap();
        rx.recv().unwrap();
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Checkpoint(tx)).ok().unwrap();
        let cp = rx.recv().unwrap();
        drop(w); // simulate the first worker dying

        let w2 = ShardWorker::spawn(
            Arc::clone(&compiled),
            config,
            false,
            4,
            0,
            Some(*cp),
            Faults::default(),
        );
        w2.send(WorkerMsg::Input(vec![PendingItem::Event(down, 14)]))
            .ok()
            .unwrap();
        let (tx, rx) = bounded(1);
        w2.send(WorkerMsg::RunTo(20, tx)).ok().unwrap();
        rx.recv().unwrap();
        let (tx, rx) = bounded(1);
        w2.send(WorkerMsg::Snapshot(tx)).ok().unwrap();
        let (out, _) = rx.recv().unwrap();
        let rendered: Vec<String> = out
            .iter()
            .map(|(f, l)| format!("{}={}", f.display(&master), l))
            .collect();
        assert_eq!(rendered, vec!["on(a)=true=[[6, 15)]".to_string()]);
        w2.drain().unwrap();
    }

    #[test]
    fn dead_worker_hands_the_message_back() {
        let (compiled, mut master) = compiled();
        let opts = false;
        let mut w = ShardWorker::spawn(
            compiled,
            EngineConfig::default(),
            opts,
            4,
            0,
            None,
            Faults::default(),
        );
        // Kill the worker via Drain and join so the receiver is dropped.
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Drain(tx)).ok().unwrap();
        rx.recv().unwrap();
        w.handle.take().unwrap().join().unwrap();
        assert!(!w.is_alive());

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        match w.send(WorkerMsg::Input(vec![PendingItem::Event(up, 1)])) {
            Err(WorkerMsg::Input(batch)) => {
                assert!(matches!(batch[..], [PendingItem::Event(_, 1)]));
            }
            _ => panic!("expected the event handed back"),
        }
        assert_eq!(w.queue_len(), 0, "a refused message leaves no queued items");
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
        let w = ShardWorker::spawn(
            compiled,
            EngineConfig::default(),
            false,
            4,
            0,
            None,
            Faults::default(),
        );
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
        w.send(WorkerMsg::Input(batch)).ok().unwrap();
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::RunTo(30, tx)).ok().unwrap();
        assert_eq!(rx.recv().unwrap().events_processed, 2);
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Snapshot(tx)).ok().unwrap();
        let (out, _) = rx.recv().unwrap();
        let mut rendered: Vec<String> = out
            .iter()
            .map(|(f, l)| format!("{}={}", f.display(&master), l))
            .collect();
        rendered.sort();
        assert_eq!(
            rendered,
            vec![
                "lit(a)=true=[[6, 12)]".to_string(),
                "on(a)=true=[[6, 21)]".to_string(),
            ]
        );
        assert_eq!(w.queue_len(), 0);
        w.drain().unwrap();
    }
}
