//! Deterministic fault injection for the service.
//!
//! A [`FaultPlan`] is a seeded schedule of failures — shard-worker
//! panics at chosen step counts, queue-full rejections on chosen ingest
//! operations, evaluation stalls on chosen ticks, and I/O faults (hard
//! errors, torn writes, delayed writes) on chosen checkpoint and
//! journal writes. [`Faults`] is a cloneable handle on one plan and
//! its fire-state: production code calls the handle's `on_*` hooks at
//! its fault sites, and the default handle is inert. A plan is
//! installed by building a registry with
//! [`crate::Registry::with_faults`], or by opening a session with
//! [`crate::Session::open_with_faults`]; it fires only for what that
//! handle reaches, so tests with different plans run concurrently, and
//! every failure mode is reproducible from a single `u64` seed.
//!
//! Each scheduled fault fires **exactly once**: counters advance
//! monotonically across worker restarts (a respawned worker does not
//! re-trigger the panic that killed its predecessor), which is what
//! makes recovery testable — inject, recover, converge.

use parking_lot::Mutex;
use std::sync::Arc;

/// An I/O fault to apply to one checkpoint write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The write fails outright with an injected error.
    Error,
    /// Only the first `keep_bytes` bytes reach the file (torn write);
    /// the atomic-rename protocol must leave the previous checkpoint
    /// intact, and the checksum must reject the torn temp file.
    Torn {
        /// Bytes that survive.
        keep_bytes: usize,
    },
    /// The write completes after an injected delay.
    Delayed {
        /// Delay in milliseconds.
        millis: u64,
    },
}

/// A worker panic scheduled at a processing step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Shard index the panic targets.
    pub shard: usize,
    /// Fires when the shard has taken this many steps (1-based: `step =
    /// 1` panics on the first message). An input batch of `n` items is
    /// `n` steps and a control message one, so a schedule does not
    /// depend on how items are batched; the panic fires before the
    /// worker applies the message that reaches `step`.
    pub step: u64,
}

/// A deterministic, seeded schedule of injected faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The seed this plan was derived from (0 for hand-built plans);
    /// logged so failures reproduce.
    pub seed: u64,
    /// Worker panics by shard and step.
    pub worker_panics: Vec<WorkerPanic>,
    /// 1-based ingest-operation indices to reject as queue-full.
    pub queue_rejects: Vec<u64>,
    /// I/O faults by 1-based checkpoint-write index.
    pub io_faults: Vec<(u64, IoFaultKind)>,
    /// Injected evaluation stalls by 1-based tick index: the session's
    /// tick sleeps this many milliseconds mid-evaluation, driving it
    /// over a configured slow-tick threshold (the flight-recorder
    /// tests) or deadline.
    pub tick_delays: Vec<(u64, u64)>,
    /// I/O faults by 1-based journal-write index (appends and segment
    /// rotations share the counter).
    pub journal_faults: Vec<(u64, IoFaultKind)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a worker panic on `shard` at processing step `step`.
    pub fn panic_worker(mut self, shard: usize, step: u64) -> FaultPlan {
        self.worker_panics.push(WorkerPanic { shard, step });
        self
    }

    /// Schedules a queue-full rejection on the `n`-th ingest operation.
    pub fn reject_ingest(mut self, n: u64) -> FaultPlan {
        self.queue_rejects.push(n);
        self
    }

    /// Schedules an I/O fault on the `n`-th checkpoint write.
    pub fn io_fault(mut self, n: u64, kind: IoFaultKind) -> FaultPlan {
        self.io_faults.push((n, kind));
        self
    }

    /// Schedules a `millis` evaluation stall inside the `n`-th tick.
    pub fn delay_tick(mut self, n: u64, millis: u64) -> FaultPlan {
        self.tick_delays.push((n, millis));
        self
    }

    /// Schedules an I/O fault on the `n`-th journal write.
    pub fn journal_fault(mut self, n: u64, kind: IoFaultKind) -> FaultPlan {
        self.journal_faults.push((n, kind));
        self
    }

    /// Derives a randomized plan from a seed: a handful of worker
    /// panics, ingest rejections, and I/O faults at pseudo-random
    /// steps. The same seed always yields the same plan — this is what
    /// the CI chaos job sweeps.
    pub fn random(seed: u64, shards: usize, approx_steps: u64) -> FaultPlan {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let span = approx_steps.max(2);
        for _ in 0..rng.gen_range(1..=2u64) {
            plan.worker_panics.push(WorkerPanic {
                shard: rng.gen_range(0..shards.max(1)),
                step: rng.gen_range(1..span),
            });
        }
        if rng.gen_bool(0.5) {
            plan.queue_rejects.push(rng.gen_range(1..span));
        }
        for _ in 0..rng.gen_range(0..=2u64) {
            let kind = match rng.gen_range(0..3u32) {
                0 => IoFaultKind::Error,
                1 => IoFaultKind::Torn {
                    keep_bytes: rng.gen_range(0..256usize),
                },
                _ => IoFaultKind::Delayed {
                    millis: rng.gen_range(1..20u64),
                },
            };
            plan.io_faults.push((rng.gen_range(1..8u64), kind));
        }
        plan
    }
}

/// A handle on one fault plan and its fire-state, shared by clones.
///
/// A [`crate::Registry`] built with [`crate::Registry::with_faults`]
/// holds one and passes clones to every session, shard worker, journal
/// and checkpoint write it drives, so the plan fires for that registry
/// alone. The default handle is inert: every hook is a `None` check,
/// with no lock and no allocation.
#[derive(Clone, Debug, Default)]
pub struct Faults(Option<Arc<Mutex<FaultState>>>);

/// The faults still pending plus the counters they fire on. Counters
/// are monotonic across worker restarts, and a fault is removed from
/// `pending` when it fires, so each fires exactly once.
#[derive(Debug, Default)]
struct FaultState {
    pending: FaultPlan,
    /// Steps (items) processed per shard.
    worker_steps: Vec<u64>,
    ingest_ops: u64,
    ticks: u64,
    checkpoint_writes: u64,
    journal_writes: u64,
    /// Faults injected so far.
    injected: u64,
}

/// Removes and returns the first scheduled entry that is due.
fn take_due<T>(schedule: &mut Vec<T>, due: impl Fn(&T) -> bool) -> Option<T> {
    let i = schedule.iter().position(due)?;
    Some(schedule.remove(i))
}

impl Faults {
    /// A live handle on `plan`.
    pub fn new(plan: FaultPlan) -> Faults {
        Faults(Some(Arc::new(Mutex::new(FaultState {
            pending: plan,
            ..FaultState::default()
        }))))
    }

    /// How many faults this handle (and its clones) have injected.
    pub fn injected(&self) -> u64 {
        self.0.as_ref().map_or(0, |state| state.lock().injected)
    }

    /// Advances the plan's state with `step`; counts the fault it
    /// returns, if any. Inert handles return `None` without locking.
    fn fire<R>(&self, step: impl FnOnce(&mut FaultState) -> Option<R>) -> Option<R> {
        let mut state = self.0.as_ref()?.lock();
        let fired = step(&mut state)?;
        state.injected += 1;
        crate::obs::metrics().faults_injected.inc();
        Some(fired)
    }

    /// Called by a shard worker before processing each message, with
    /// the number of items it carries (see `WorkerMsg::items`). May
    /// panic (the injected fault); the supervisor is expected to catch
    /// the dead worker and restore from checkpoint.
    #[inline]
    pub(crate) fn on_worker_step(&self, shard: usize, items: u64) {
        let fired = self.fire(|state| {
            if shard >= state.worker_steps.len() {
                state.worker_steps.resize(shard + 1, 0);
            }
            state.worker_steps[shard] += items;
            let step = state.worker_steps[shard];
            take_due(&mut state.pending.worker_panics, |p| {
                p.shard == shard && step >= p.step
            })
            .map(|_| (step, state.pending.seed))
        });
        if let Some((step, seed)) = fired {
            panic!("injected fault: worker panic (shard {shard}, step {step}, seed {seed})");
        }
    }

    /// Called by the session's ingest path. Returns `Err` when this
    /// ingest operation is scheduled to be rejected as queue-full.
    #[inline]
    pub(crate) fn on_ingest(&self) -> Result<(), String> {
        let fired = self.fire(|state| {
            state.ingest_ops += 1;
            let op = state.ingest_ops;
            take_due(&mut state.pending.queue_rejects, |&at| op >= at)
        });
        fired.map_or(Ok(()), |_| Err("queue full (injected fault)".to_string()))
    }

    /// Called inside each session tick (after the start timestamp);
    /// returns the injected stall in milliseconds, if one is scheduled.
    /// The caller sleeps, so the stall lands inside the measured tick
    /// wall time.
    #[inline]
    pub(crate) fn on_tick(&self) -> Option<u64> {
        self.fire(|state| {
            state.ticks += 1;
            let tick = state.ticks;
            take_due(&mut state.pending.tick_delays, |&(at, _)| tick >= at)
                .map(|(_, millis)| millis)
        })
    }

    /// Called before each checkpoint write; returns the I/O fault to
    /// apply, if one is scheduled for this write.
    #[inline]
    pub(crate) fn on_checkpoint_write(&self) -> Option<IoFaultKind> {
        self.fire(|state| {
            state.checkpoint_writes += 1;
            let writes = state.checkpoint_writes;
            take_due(&mut state.pending.io_faults, |&(at, _)| writes >= at).map(|(_, kind)| kind)
        })
    }

    /// Called before each journal write (append commits and segment
    /// rotations); returns the I/O fault to apply, if one is scheduled.
    #[inline]
    pub(crate) fn on_journal_write(&self) -> Option<IoFaultKind> {
        self.fire(|state| {
            state.journal_writes += 1;
            let writes = state.journal_writes;
            take_due(&mut state.pending.journal_faults, |&(at, _)| writes >= at)
                .map(|(_, kind)| kind)
        })
    }
}

/// Hook for delayed-write faults: sleeps the injected duration.
#[inline]
pub(crate) fn apply_delay(millis: u64) {
    std::thread::sleep(std::time::Duration::from_millis(millis));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(42, 4, 100);
        let b = FaultPlan::random(42, 4, 100);
        assert_eq!(a.worker_panics, b.worker_panics);
        assert_eq!(a.queue_rejects, b.queue_rejects);
        assert_eq!(a.io_faults, b.io_faults);
        let c = FaultPlan::random(43, 4, 100);
        assert!(
            a.worker_panics != c.worker_panics
                || a.queue_rejects != c.queue_rejects
                || a.io_faults != c.io_faults,
            "different seeds should differ"
        );
    }

    #[test]
    fn faults_fire_exactly_once() {
        let faults = Faults::new(FaultPlan::new().reject_ingest(2));
        assert!(faults.on_ingest().is_ok(), "op 1 passes");
        assert!(faults.on_ingest().is_err(), "op 2 rejected");
        assert!(faults.on_ingest().is_ok(), "op 3 passes: one-shot");
        assert_eq!(faults.injected(), 1);
    }

    #[test]
    fn worker_steps_count_items() {
        let faults = Faults::new(FaultPlan::new().panic_worker(0, 70));
        faults.on_worker_step(0, 64);
        faults.on_worker_step(1, 64);
        let fired = std::panic::catch_unwind(|| faults.on_worker_step(0, 64));
        assert!(fired.is_err(), "step 70 lies inside the second batch");
        faults.on_worker_step(0, 64);
        assert_eq!(faults.injected(), 1);
    }

    #[test]
    fn tick_delays_fire_once_at_their_tick() {
        let faults = Faults::new(FaultPlan::new().delay_tick(2, 25));
        assert_eq!(faults.on_tick(), None, "tick 1 passes");
        assert_eq!(faults.on_tick(), Some(25), "tick 2 stalls");
        assert_eq!(faults.on_tick(), None, "tick 3 passes: one-shot");
        assert_eq!(faults.injected(), 1);
    }

    #[test]
    fn io_faults_fire_at_their_write_index() {
        let faults = Faults::new(FaultPlan::new().io_fault(2, IoFaultKind::Error));
        assert_eq!(faults.on_checkpoint_write(), None);
        assert_eq!(faults.on_checkpoint_write(), Some(IoFaultKind::Error));
        assert_eq!(faults.on_checkpoint_write(), None);
    }
}
