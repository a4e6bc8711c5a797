//! Deterministic fault injection for the service (the `testkit`
//! feature).
//!
//! A [`FaultPlan`] is a seeded schedule of failures — shard-worker
//! panics at chosen step counts, queue-full rejections on chosen ingest
//! operations, and I/O faults (hard errors, torn writes, delayed
//! writes) on chosen checkpoint writes. Production code calls the
//! `on_*` hooks at its fault sites; without the `testkit` feature the
//! hooks compile to no-ops and the plan machinery stays out of the
//! binary. With the feature, `with_plan` installs a plan for the
//! duration of a closure, so every failure mode is reproducible in CI
//! from a single `u64` seed.
//!
//! Each scheduled fault fires **exactly once**: counters advance
//! monotonically across worker restarts (a respawned worker does not
//! re-trigger the panic that killed its predecessor), which is what
//! makes recovery testable — inject, recover, converge.

#![cfg_attr(not(feature = "testkit"), allow(unused_variables, dead_code))]

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
    #[cfg(feature = "testkit")]
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

#[cfg(feature = "testkit")]
mod active {
    use super::{FaultPlan, IoFaultKind};
    use parking_lot::Mutex;

    /// The installed plan plus its monotonic fire-state.
    pub(super) struct FaultState {
        pub plan: FaultPlan,
        /// Steps (items) processed per shard (cumulative across
        /// restarts).
        pub worker_steps: Vec<u64>,
        /// Which scheduled panics already fired.
        pub panics_fired: Vec<bool>,
        /// Ingest operations observed.
        pub ingest_ops: u64,
        /// Which scheduled rejections already fired.
        pub rejects_fired: Vec<bool>,
        /// Checkpoint writes observed.
        pub writes: u64,
        /// Which scheduled I/O faults already fired.
        pub io_fired: Vec<bool>,
        /// Ticks observed.
        pub ticks: u64,
        /// Which scheduled tick delays already fired.
        pub tick_delays_fired: Vec<bool>,
        /// Journal writes observed.
        pub journal_writes: u64,
        /// Which scheduled journal faults already fired.
        pub journal_fired: Vec<bool>,
        /// Total faults injected under this plan.
        pub injected: u64,
    }

    pub(super) static ACTIVE: Mutex<Option<FaultState>> = Mutex::new(None);

    /// Serializes tests that install plans: process-global fault state
    /// must not be shared by concurrently running `#[test]`s.
    pub(super) static TEST_GUARD: Mutex<()> = Mutex::new(());

    impl FaultState {
        pub fn new(plan: FaultPlan) -> FaultState {
            let n_panics = plan.worker_panics.len();
            let n_rejects = plan.queue_rejects.len();
            let n_io = plan.io_faults.len();
            let n_ticks = plan.tick_delays.len();
            let n_journal = plan.journal_faults.len();
            FaultState {
                plan,
                worker_steps: Vec::new(),
                panics_fired: vec![false; n_panics],
                ingest_ops: 0,
                rejects_fired: vec![false; n_rejects],
                writes: 0,
                io_fired: vec![false; n_io],
                ticks: 0,
                tick_delays_fired: vec![false; n_ticks],
                journal_writes: 0,
                journal_fired: vec![false; n_journal],
                injected: 0,
            }
        }
    }

    pub(super) fn record_injection(state: &mut FaultState) {
        state.injected += 1;
        crate::obs::metrics().faults_injected.inc();
    }

    pub(super) fn next_io_fault(state: &mut FaultState) -> Option<IoFaultKind> {
        state.writes += 1;
        let writes = state.writes;
        for (i, &(at, kind)) in state.plan.io_faults.iter().enumerate() {
            if !state.io_fired[i] && writes >= at {
                state.io_fired[i] = true;
                record_injection(state);
                return Some(kind);
            }
        }
        None
    }

    pub(super) fn next_journal_fault(state: &mut FaultState) -> Option<IoFaultKind> {
        state.journal_writes += 1;
        let writes = state.journal_writes;
        for (i, &(at, kind)) in state.plan.journal_faults.iter().enumerate() {
            if !state.journal_fired[i] && writes >= at {
                state.journal_fired[i] = true;
                record_injection(state);
                return Some(kind);
            }
        }
        None
    }
}

/// Installs `plan`, runs `f`, clears the plan, and returns `f`'s result
/// together with the number of faults actually injected. Holds a global
/// guard so concurrent tests cannot interleave plans.
#[cfg(feature = "testkit")]
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> (T, u64) {
    use std::sync::atomic::Ordering;
    let _guard = active::TEST_GUARD.lock();
    LAST_INJECTED.store(0, Ordering::SeqCst);
    *active::ACTIVE.lock() = Some(active::FaultState::new(plan));
    // Clear the plan even if `f` panics, so a failed test cannot leak
    // fault state into the next one; capture the injection count on the
    // way out.
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            if let Some(state) = active::ACTIVE.lock().take() {
                LAST_INJECTED.store(state.injected, std::sync::atomic::Ordering::SeqCst);
            }
        }
    }
    let result = {
        let _clear = Clear;
        f()
    };
    (result, LAST_INJECTED.load(Ordering::SeqCst))
}

#[cfg(feature = "testkit")]
static LAST_INJECTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Faults injected by the most recently completed [`with_plan`] run.
#[cfg(feature = "testkit")]
pub fn last_injected() -> u64 {
    LAST_INJECTED.load(std::sync::atomic::Ordering::SeqCst)
}

/// Called by a shard worker before processing each message, with the
/// number of items it carries (see `WorkerMsg::items`). May panic (the
/// injected fault); the supervisor is expected to catch the dead worker
/// and restore from checkpoint.
#[inline]
pub(crate) fn on_worker_step(shard: usize, items: u64) {
    #[cfg(feature = "testkit")]
    {
        let mut slot = active::ACTIVE.lock();
        let Some(state) = slot.as_mut() else { return };
        if shard >= state.worker_steps.len() {
            state.worker_steps.resize(shard + 1, 0);
        }
        state.worker_steps[shard] += items;
        let step = state.worker_steps[shard];
        for i in 0..state.plan.worker_panics.len() {
            let p = state.plan.worker_panics[i];
            if !state.panics_fired[i] && p.shard == shard && step >= p.step {
                state.panics_fired[i] = true;
                active::record_injection(state);
                let seed = state.plan.seed;
                drop(slot);
                panic!("injected fault: worker panic (shard {shard}, step {step}, seed {seed})");
            }
        }
    }
}

/// Called by the session's ingest path. Returns `Err` when this ingest
/// operation is scheduled to be rejected as queue-full.
#[inline]
pub(crate) fn on_ingest() -> Result<(), String> {
    #[cfg(feature = "testkit")]
    {
        let mut slot = active::ACTIVE.lock();
        if let Some(state) = slot.as_mut() {
            state.ingest_ops += 1;
            let op = state.ingest_ops;
            for i in 0..state.plan.queue_rejects.len() {
                let at = state.plan.queue_rejects[i];
                if !state.rejects_fired[i] && op >= at {
                    state.rejects_fired[i] = true;
                    active::record_injection(state);
                    return Err("queue full (injected fault)".to_string());
                }
            }
        }
    }
    Ok(())
}

/// Called inside each session tick (after the start timestamp); returns
/// the injected stall in milliseconds, if one is scheduled. The caller
/// sleeps, so the stall lands inside the measured tick wall time.
#[inline]
pub(crate) fn on_tick() -> Option<u64> {
    #[cfg(feature = "testkit")]
    {
        let mut slot = active::ACTIVE.lock();
        if let Some(state) = slot.as_mut() {
            state.ticks += 1;
            let tick = state.ticks;
            for i in 0..state.plan.tick_delays.len() {
                let (at, millis) = state.plan.tick_delays[i];
                if !state.tick_delays_fired[i] && tick >= at {
                    state.tick_delays_fired[i] = true;
                    active::record_injection(state);
                    return Some(millis);
                }
            }
        }
    }
    None
}

/// Called before each checkpoint write; returns the I/O fault to apply,
/// if one is scheduled for this write.
#[inline]
pub(crate) fn on_checkpoint_write() -> Option<IoFaultKind> {
    #[cfg(feature = "testkit")]
    {
        let mut slot = active::ACTIVE.lock();
        if let Some(state) = slot.as_mut() {
            return active::next_io_fault(state);
        }
    }
    None
}

/// Called before each journal write (append commits and segment
/// rotations); returns the I/O fault to apply, if one is scheduled.
#[inline]
pub(crate) fn on_journal_write() -> Option<IoFaultKind> {
    #[cfg(feature = "testkit")]
    {
        let mut slot = active::ACTIVE.lock();
        if let Some(state) = slot.as_mut() {
            return active::next_journal_fault(state);
        }
    }
    None
}

/// Hook for delayed-write faults: sleeps the injected duration.
#[inline]
pub(crate) fn apply_delay(millis: u64) {
    std::thread::sleep(std::time::Duration::from_millis(millis));
}

#[cfg(all(test, feature = "testkit"))]
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
        let plan = FaultPlan::new().reject_ingest(2);
        let ((), injected) = with_plan(plan, || {
            assert!(on_ingest().is_ok(), "op 1 passes");
            assert!(on_ingest().is_err(), "op 2 rejected");
            assert!(on_ingest().is_ok(), "op 3 passes: one-shot");
        });
        assert_eq!(injected, 1);
    }

    #[test]
    fn worker_steps_count_items() {
        let plan = FaultPlan::new().panic_worker(0, 70);
        let ((), injected) = with_plan(plan, || {
            on_worker_step(0, 64);
            on_worker_step(1, 64);
            let fired = std::panic::catch_unwind(|| on_worker_step(0, 64));
            assert!(fired.is_err(), "step 70 lies inside the second batch");
            on_worker_step(0, 64);
        });
        assert_eq!(injected, 1);
    }

    #[test]
    fn tick_delays_fire_once_at_their_tick() {
        let plan = FaultPlan::new().delay_tick(2, 25);
        let ((), injected) = with_plan(plan, || {
            assert_eq!(on_tick(), None, "tick 1 passes");
            assert_eq!(on_tick(), Some(25), "tick 2 stalls");
            assert_eq!(on_tick(), None, "tick 3 passes: one-shot");
        });
        assert_eq!(injected, 1);
    }

    #[test]
    fn io_faults_fire_at_their_write_index() {
        let plan = FaultPlan::new().io_fault(2, IoFaultKind::Error);
        let ((), _) = with_plan(plan, || {
            assert_eq!(on_checkpoint_write(), None);
            assert_eq!(on_checkpoint_write(), Some(IoFaultKind::Error));
            assert_eq!(on_checkpoint_write(), None);
        });
    }
}
