//! Shard workers: one OS thread per shard, owning one [`Engine`] for the
//! lifetime of the session.
//!
//! Input items flow through a **bounded** crossbeam channel: when a
//! shard's queue is full the session's ingest path blocks (after
//! counting the stall — see `SessionStats::backpressure_waits`), which
//! is the service's backpressure mechanism. Control messages (`RunTo`,
//! `Snapshot`, `Checkpoint`, `Drain`) travel on the same channel, so a
//! tick naturally observes every event enqueued before it.
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

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use rtec::checkpoint::EngineCheckpoint;
use rtec::description::CompiledDescription;
use rtec::engine::{Engine, EngineConfig, EngineStats, RecognitionOutput};
use rtec::interval::IntervalList;
use rtec::term::GroundFvp;
use rtec::{Term, Timepoint};
use rtec_obs::profile::ProfileAggregate;
use rtec_plan::Plan;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Message to a shard worker.
pub enum WorkerMsg {
    /// An input event (master-table term) at a time-point.
    Event(Term, Timepoint),
    /// Input-fluent intervals (master-table terms).
    Intervals(GroundFvp, IntervalList),
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

/// Evaluator and profiling choices a worker's engine is spawned with.
#[derive(Clone)]
pub struct WorkerOptions {
    /// The session's compiled plan, shared by all of its shard engines
    /// (and by their respawns).
    pub plan: Arc<Plan>,
    /// Whether the engine attributes per-rule evaluation costs.
    pub profile: bool,
}

/// Handle to a shard worker thread.
pub struct ShardWorker {
    sender: Sender<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

impl ShardWorker {
    /// Spawns the worker for `shard` over `desc` with a queue of
    /// `capacity` items. With a `checkpoint` (taken from a crashed
    /// predecessor at the last tick boundary, or persisted) the engine
    /// resumes from it; if it does not match `desc`, the worker logs the
    /// error and exits immediately, and the supervisor observes the
    /// disconnected channel.
    pub fn spawn(
        desc: Arc<CompiledDescription>,
        config: EngineConfig,
        options: WorkerOptions,
        capacity: usize,
        shard: usize,
        checkpoint: Option<EngineCheckpoint>,
    ) -> ShardWorker {
        let (sender, receiver) = bounded(capacity.max(1));
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
            // Engine state is evaluator-agnostic, so the plan applies to
            // fresh and restored engines alike — including restores from
            // a checkpoint written under another evaluator.
            engine.set_evaluator(options.plan);
            // Profiler state is process-local and never checkpointed: a
            // respawned worker restarts attribution from zero while the
            // session keeps the lifetime totals it already merged.
            if options.profile {
                engine.enable_profiler();
            }
            run_worker(&mut engine, shard, &receiver);
        });
        ShardWorker {
            sender,
            handle: Some(handle),
        }
    }

    /// Enqueues a message; returns whether the send had to block on a
    /// full queue (the backpressure signal the session counts). If the
    /// worker is dead the message is handed back so the supervisor can
    /// respawn the shard and retry the same message.
    pub fn send(&self, msg: WorkerMsg) -> Result<bool, WorkerMsg> {
        match self.sender.try_send(msg) {
            Ok(()) => Ok(false),
            Err(TrySendError::Full(msg)) => self.sender.send(msg).map(|()| true).map_err(|e| e.0),
            Err(TrySendError::Disconnected(msg)) => Err(msg),
        }
    }

    /// Current queue depth (approximate).
    pub fn queue_len(&self) -> usize {
        self.sender.len()
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

fn run_worker(engine: &mut Engine, shard: usize, receiver: &Receiver<WorkerMsg>) {
    while let Ok(msg) = receiver.recv() {
        // Contain panics (bugs or injected faults) to this message: on
        // unwind the worker logs, drops its receiver, and exits; the
        // session sees the disconnect and respawns from checkpoint.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            crate::fault::on_worker_step(shard);
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
        WorkerMsg::Event(ev, t) => engine.add_event(ev, t),
        WorkerMsg::Intervals(fvp, list) => engine.add_input_intervals(fvp, list),
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

    fn compiled() -> (Arc<CompiledDescription>, rtec::SymbolTable) {
        let desc = EventDescription::parse(
            "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
             terminatedAt(on(X)=true, T) :- happensAt(down(X), T).",
        )
        .unwrap();
        let master = desc.symbols.clone();
        (Arc::new(desc.compile().unwrap()), master)
    }

    fn options(desc: &CompiledDescription, profile: bool) -> WorkerOptions {
        WorkerOptions {
            plan: Arc::new(Plan::compile(desc)),
            profile,
        }
    }

    #[test]
    fn worker_processes_and_drains() {
        let (compiled, mut master) = compiled();
        let w = ShardWorker::spawn(
            Arc::clone(&compiled),
            EngineConfig::default(),
            options(&compiled, true),
            4,
            0,
            None,
        );

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        let down = rtec::parser::parse_term("down(a)", &mut master).unwrap();
        w.send(WorkerMsg::Event(up, 5)).ok().unwrap();
        w.send(WorkerMsg::Event(down, 9)).ok().unwrap();
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
            options(&compiled, false),
            4,
            0,
            None,
        );
        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        w.send(WorkerMsg::Event(up, 5)).ok().unwrap();
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
            options(&compiled, false),
            4,
            0,
            None,
        );

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        let down = rtec::parser::parse_term("down(a)", &mut master).unwrap();
        w.send(WorkerMsg::Event(up, 5)).ok().unwrap();
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
            options(&compiled, false),
            4,
            0,
            Some(*cp),
        );
        w2.send(WorkerMsg::Event(down, 14)).ok().unwrap();
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
        let opts = options(&compiled, false);
        let mut w = ShardWorker::spawn(compiled, EngineConfig::default(), opts, 4, 0, None);
        // Kill the worker via Drain and join so the receiver is dropped.
        let (tx, rx) = bounded(1);
        w.send(WorkerMsg::Drain(tx)).ok().unwrap();
        rx.recv().unwrap();
        w.handle.take().unwrap().join().unwrap();
        assert!(!w.is_alive());

        let up = rtec::parser::parse_term("up(a)", &mut master).unwrap();
        match w.send(WorkerMsg::Event(up, 1)) {
            Err(WorkerMsg::Event(_, 1)) => {}
            _ => panic!("expected the event handed back"),
        }
    }
}
