//! The windowed recognition engine.
//!
//! [`Engine`] consumes a stream of time-stamped input events (plus optional
//! input-fluent interval lists, e.g. vessel `proximity` in the maritime
//! domain) and computes, for every fluent-value pair defined by the event
//! description, the maximal intervals during which it holds.
//!
//! # Windowing
//!
//! RTEC processes a stream at successive query times with a sliding window,
//! "forgetting" older events so that the cost of reasoning depends on the
//! window size rather than the stream length (paper, Section 2). This
//! engine implements tumbling windows of size [`EngineConfig::window`] with
//! exact inertia carry-over: the open intervals of simple fluents survive
//! the window boundary, so the recognition output is *identical* to a
//! whole-stream batch run (tested), while event retention stays bounded by
//! the window.
//!
//! With [`EngineConfig::sliding`] the engine additionally queries every
//! [`EngineConfig::slide`] time-points over the last `window` time-points,
//! retaining the overlap's events and inertia snapshots so that events
//! arriving late — behind the query frontier but inside the window — are
//! amended into the output, RTEC-style. Two strategies are pinned to each
//! other by differential tests: the default *full* mode re-evaluates the
//! whole retained window at each query (redundant recomputation), while
//! [`EngineConfig::incremental`] mode evaluates only the fresh suffix and
//! skips rules whose input events provably did not change
//! ([`crate::eval::delta`]), falling back to the full replay whenever late
//! events or new input intervals make the suffix shortcut unprovable.
//! See `docs/SCALE.md` for the semantics and fallback rules.

use crate::arena::{TermArena, Terms};
use crate::ast::FluentKey;
use crate::checkpoint::{EngineCheckpoint, SlidingSection};
use crate::description::CompiledDescription;
use crate::eval::cache::{FluentCache, InputFluents};
use crate::eval::delta::WindowDelta;
use crate::eval::events::EventIndex;
use crate::eval::simple::InertiaState;
use crate::eval::WarningSink;
use crate::interval::{IntervalList, Timepoint, INF};
use crate::plan::Window;
use crate::reorder::{DeadLetterLedger, DeadLetterReason};
use crate::symbol::SymbolTable;
use crate::term::{translate, GroundFvp, Term};
use std::collections::HashMap;
use std::time::Instant;

/// Recent refused-event records retained per engine (counts are exact
/// regardless; see [`Engine::dead_letters`]).
const ENGINE_DEAD_LETTER_CAP: usize = 256;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Window size in time-points: events are processed in chunks
    /// `(q - window, q]`. The default (`INF`) processes the whole stream in
    /// a single batch.
    pub window: Timepoint,
    /// Query period for sliding windows: `0` (the default) keeps the
    /// historical tumbling behaviour (each event is evaluated exactly
    /// once and forgotten at the next boundary); a positive `slide`
    /// queries every `slide` time-points over the last `window`
    /// time-points, retaining the overlap so late events inside the
    /// window are amended into the output.
    pub slide: Timepoint,
    /// With a positive [`EngineConfig::slide`], evaluate each query
    /// incrementally (fresh suffix + per-rule delta skip) instead of
    /// re-evaluating the whole retained window; observationally
    /// identical to the full mode (pinned by differential tests),
    /// falling back to the full replay when equivalence cannot be
    /// proven. Ignored for tumbling windows.
    pub incremental: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: INF,
            slide: 0,
            incremental: false,
        }
    }
}

impl EngineConfig {
    /// A (tumbling-)windowed configuration.
    pub fn windowed(window: Timepoint) -> EngineConfig {
        assert!(window > 0, "window must be positive");
        EngineConfig {
            window,
            ..EngineConfig::default()
        }
    }

    /// A sliding-window configuration: query every `slide` time-points
    /// over the last `window` time-points. Requires a finite window and
    /// `0 < slide <= window` (`slide == window` degenerates to tumbling
    /// cadence but still tolerates late events within one window).
    pub fn sliding(window: Timepoint, slide: Timepoint) -> EngineConfig {
        assert!(
            window > 0 && window < INF,
            "window must be positive and finite"
        );
        assert!(slide > 0 && slide <= window, "slide must be in 1..=window");
        EngineConfig {
            window,
            slide,
            ..EngineConfig::default()
        }
    }

    /// Returns the configuration with incremental evaluation switched
    /// on (meaningful only together with [`EngineConfig::sliding`]).
    pub fn with_incremental(mut self, incremental: bool) -> EngineConfig {
        self.incremental = incremental;
        self
    }

    /// Whether this configuration slides (retains a window overlap).
    pub fn is_sliding(&self) -> bool {
        self.slide > 0
    }
}

/// The accumulated recognition result: maximal intervals per ground FVP.
///
/// All intervals are closed; a fluent still holding at the end of the
/// processed stream is reported up to `horizon + 1` (it holds *at* the
/// horizon).
#[derive(Clone, Debug, Default)]
pub struct RecognitionOutput {
    map: HashMap<GroundFvp, IntervalList>,
    by_key: HashMap<FluentKey, Vec<GroundFvp>>,
    /// Deduplicated evaluation warnings (undefined fluents, dropped rule
    /// instances, arithmetic failures).
    pub warnings: Vec<String>,
}

impl RecognitionOutput {
    /// The maximal intervals of `fvp`, if it ever held.
    pub fn intervals(&self, fvp: &GroundFvp) -> Option<&IntervalList> {
        self.map.get(fvp)
    }

    /// Whether `fvp` holds at `t`.
    pub fn holds_at(&self, fvp: &GroundFvp, t: Timepoint) -> bool {
        self.intervals(fvp).is_some_and(|l| l.contains(t))
    }

    /// All ground instances recognised for a fluent `(functor, arity)` key.
    pub fn instances_of(&self, key: FluentKey) -> &[GroundFvp] {
        self.by_key.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over every `(fvp, intervals)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (&GroundFvp, &IntervalList)> {
        self.map.iter()
    }

    /// Number of distinct FVPs recognised.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing was recognised.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merges `list` into the entry of `fvp`.
    pub(crate) fn insert_merge(&mut self, fvp: GroundFvp, list: IntervalList) {
        if list.is_empty() {
            return;
        }
        match self.map.get_mut(&fvp) {
            Some(existing) => existing.merge(&list),
            None => {
                if let Some(key) = fvp.fluent.signature() {
                    self.by_key.entry(key).or_default().push(fvp.clone());
                }
                self.map.insert(fvp, list);
            }
        }
    }

    /// Merges another recognition output into this one (used when
    /// combining per-shard results of a partitioned run). Interval lists
    /// of FVPs present in both are unioned; warnings are concatenated and
    /// deduplicated.
    pub fn absorb(&mut self, other: RecognitionOutput) {
        for (fvp, list) in other.map {
            self.insert_merge(fvp, list);
        }
        for w in other.warnings {
            if !self.warnings.contains(&w) {
                self.warnings.push(w);
            }
        }
    }

    /// Union of the interval lists of every instance of `key` (useful for
    /// measuring how long *any* vessel performed an activity).
    pub fn union_of(&self, key: FluentKey) -> IntervalList {
        let lists: Vec<&IntervalList> = self
            .instances_of(key)
            .iter()
            .filter_map(|f| self.intervals(f))
            .collect();
        IntervalList::union_all(&lists)
    }

    /// Rolls the output back to its state as of query time `t`: every
    /// interval is clipped to `[_, t + 1)` and entries left empty are
    /// removed. Correct because every fold closes or clips its lists at
    /// the owning query time plus one, so the output as of `t` contained
    /// no time-point past `t + 1`; replaying the dropped windows
    /// re-derives the clipped tails exactly (chunking invariance) and
    /// [`RecognitionOutput::insert_merge`] restores them by union.
    pub(crate) fn truncate_after(&mut self, t: Timepoint) {
        let mut removed: Vec<GroundFvp> = Vec::new();
        self.map.retain(|fvp, list| {
            let clipped = list.clip(Timepoint::MIN, t + 1);
            if clipped.is_empty() {
                removed.push(fvp.clone());
                false
            } else {
                *list = clipped;
                true
            }
        });
        if !removed.is_empty() {
            for instances in self.by_key.values_mut() {
                instances.retain(|f| !removed.contains(f));
            }
            self.by_key.retain(|_, instances| !instances.is_empty());
        }
    }
}

/// Run-time counters of an engine (windows processed, events consumed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of windows evaluated so far.
    pub windows: usize,
    /// Number of input events consumed so far.
    pub events_processed: usize,
    /// Number of stale (behind-the-frontier) events dropped.
    pub events_dropped: usize,
}

/// Overlap state of a sliding-window engine: inertia snapshots at past
/// query times plus the retained (already-evaluated) events of the
/// current window, enabling rollback-and-replay when late events are
/// amended. Maintained identically by the full and incremental modes,
/// so checkpoints are byte-identical across them.
#[derive(Clone, Debug)]
struct SlidingState {
    /// `(query time, inertia as of that time)`, ascending; the first
    /// entry is the forget frontier (rollbacks never reach behind it).
    snapshots: Vec<(Timepoint, InertiaState)>,
    /// Evaluated events still inside the overlap, time-sorted.
    retained: Vec<(Term, Timepoint)>,
    /// Value of the engine's `inputs_version` when the last query ran;
    /// a mismatch means input intervals arrived since, which the
    /// incremental shortcut cannot account for (fallback to replay).
    inputs_seen: u64,
}

impl SlidingState {
    fn initial(at: Timepoint, inertia: &InertiaState) -> SlidingState {
        SlidingState {
            snapshots: vec![(at, inertia.clone())],
            retained: Vec::new(),
            inputs_seen: 0,
        }
    }

    /// The earliest retained snapshot time: events at or before it can
    /// no longer be incorporated.
    fn forget_frontier(&self) -> Timepoint {
        self.snapshots[0].0
    }
}

/// The windowed RTEC recognition engine.
///
/// Build terms for [`Engine::add_event`] with the *same*
/// [`crate::description::EventDescription`] the engine was compiled from
/// (symbol identity matters); for streams built against a different
/// description use [`Engine::add_event_from`], which re-interns symbols.
pub struct Engine<'a> {
    desc: &'a CompiledDescription,
    config: EngineConfig,
    /// Engine-local symbol table: a superset of the description's,
    /// extended by translated stream constants.
    symbols: SymbolTable,
    pending: Vec<(Term, Timepoint)>,
    inputs: InputFluents,
    /// The window overlay over the plan's frozen arena: empty between
    /// windows, so it never grows with the stream.
    overlay: TermArena,
    inertia: InertiaState,
    processed_to: Timepoint,
    output: RecognitionOutput,
    warnings: WarningSink,
    stats: EngineStats,
    /// Reason-coded audit trail of events refused at the engine
    /// boundary (process-local: not part of a checkpoint; the refusal
    /// *count* persists via [`EngineStats::events_dropped`]).
    dead_letters: DeadLetterLedger,
    /// Stale refusals since the last `run_to` warning flush.
    stale_rejected: usize,
    /// Per-rule cost attribution; `None` (the default) disables
    /// profiling entirely. Process-local — never part of a checkpoint,
    /// so checkpoint bytes are identical with profiling on or off.
    profiler: Option<crate::profile::EngineProfiler>,
    /// Window-overlap state; `Some` iff the configuration slides.
    sliding: Option<SlidingState>,
    /// Bumped on every accepted [`Engine::add_input_intervals`] call;
    /// compared against [`SlidingState::inputs_seen`] to detect input
    /// intervals arriving between queries.
    inputs_version: u64,
}

impl<'a> Engine<'a> {
    /// Creates an engine over a compiled event description, evaluating
    /// windows with the description's plan.
    pub fn new(desc: &'a CompiledDescription, config: EngineConfig) -> Engine<'a> {
        let inertia = InertiaState::new();
        let sliding = config
            .is_sliding()
            .then(|| SlidingState::initial(-1, &inertia));
        Engine {
            desc,
            config,
            symbols: desc.symbols.clone(),
            pending: Vec::new(),
            inputs: InputFluents::default(),
            overlay: TermArena::overlay(desc.plan().arena()),
            inertia,
            processed_to: -1,
            output: RecognitionOutput::default(),
            warnings: WarningSink::new(),
            stats: EngineStats::default(),
            dead_letters: DeadLetterLedger::new(ENGINE_DEAD_LETTER_CAP),
            stale_rejected: 0,
            profiler: None,
            sliding,
            inputs_version: 0,
        }
    }

    /// Enables per-rule profiling (idempotent). Never perturbs
    /// recognition output — attribution only times the existing
    /// per-stratum calls.
    pub fn enable_profiler(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(crate::profile::EngineProfiler::new());
        }
    }

    /// Whether per-rule profiling is enabled.
    pub fn profiling_enabled(&self) -> bool {
        self.profiler.is_some()
    }

    /// The session-lifetime per-rule cost totals, if profiling is
    /// enabled.
    pub fn profile(&self) -> Option<&rtec_obs::profile::ProfileAggregate> {
        self.profiler
            .as_ref()
            .map(crate::profile::EngineProfiler::aggregate)
    }

    /// Takes the most recent window's per-rule trace (used by the
    /// service's flight recorder), if profiling is enabled and a window
    /// was evaluated since the last take.
    pub fn take_window_profile(&mut self) -> Option<rtec_obs::profile::WindowProfile> {
        self.profiler
            .as_mut()
            .and_then(crate::profile::EngineProfiler::take_last_window)
    }

    /// Terms interned in the window overlay. The overlay is cleared once
    /// a window's output is folded, so this is zero between windows.
    pub fn overlay_terms(&self) -> usize {
        self.overlay.len()
    }

    /// Run-time counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The engine's symbol table (description symbols plus stream
    /// constants).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the engine's symbol table, for bulk stream
    /// translation (append-only: existing symbols never change).
    pub(crate) fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Queues an input event occurring at `t`.
    ///
    /// **Boundary contract**: the engine forgets everything at or
    /// before its processed frontier ([`Engine::processed_to`]), so an
    /// event with `t <= processed_to()` cannot be incorporated — it is
    /// rejected here, counted in [`EngineStats::events_dropped`],
    /// recorded in the [`Engine::dead_letters`] ledger with reason
    /// [`DeadLetterReason::PastHorizon`], and reported via a
    /// `"... dropped"` warning on the next [`Engine::run_to`]. It never
    /// reaches the pending queue, so it cannot corrupt inertial state.
    pub fn add_event(&mut self, event: Term, t: Timepoint) {
        if t <= self.forget_frontier() {
            self.reject_stale(t);
            return;
        }
        self.pending.push((event, t));
    }

    /// The time-point at or before which events can no longer be
    /// incorporated: the processed frontier for tumbling windows, the
    /// earliest retained inertia snapshot for sliding ones (events
    /// behind [`Engine::processed_to`] but inside the overlap are
    /// amended into the output on the next query).
    pub fn forget_frontier(&self) -> Timepoint {
        self.sliding
            .as_ref()
            .map(SlidingState::forget_frontier)
            .unwrap_or(self.processed_to)
    }

    /// Routes one stale event to the dead-letter ledger.
    fn reject_stale(&mut self, t: Timepoint) {
        let frontier = self.forget_frontier();
        self.dead_letters.record(
            DeadLetterReason::PastHorizon,
            Some(t),
            format!("event at t={t} is at or before the processed frontier ({frontier})"),
        );
        self.stats.events_dropped += 1;
        self.stale_rejected += 1;
    }

    /// Queues many input events (each subject to the
    /// [`Engine::add_event`] boundary contract).
    pub fn add_events(&mut self, events: impl IntoIterator<Item = (Term, Timepoint)>) {
        for (event, t) in events {
            self.add_event(event, t);
        }
    }

    /// Queues an event built against a different symbol table, re-interning
    /// its symbols (subject to the [`Engine::add_event`] boundary
    /// contract).
    pub fn add_event_from(&mut self, event: &Term, from: &SymbolTable, t: Timepoint) {
        let ev = translate(event, from, &mut self.symbols);
        self.add_event(ev, t);
    }

    /// The engine's dead-letter ledger: every event refused at the
    /// boundary, reason-coded. Process-local audit state — not part of
    /// an [`EngineCheckpoint`] (the refusal count persists through
    /// [`EngineStats::events_dropped`]).
    pub fn dead_letters(&self) -> &DeadLetterLedger {
        &self.dead_letters
    }

    /// Registers the interval list of an input fluent (computed outside the
    /// engine, e.g. spatial proximity between vessels).
    pub fn add_input_intervals(&mut self, fvp: GroundFvp, list: IntervalList) {
        if list.is_empty() {
            return;
        }
        self.inputs_version += 1;
        self.inputs.insert(fvp, list);
    }

    /// Registers input-fluent intervals built against a different symbol
    /// table.
    pub fn add_input_intervals_from(
        &mut self,
        fvp: &GroundFvp,
        from: &SymbolTable,
        list: IntervalList,
    ) {
        let fluent = translate(&fvp.fluent, from, &mut self.symbols);
        let value = translate(&fvp.value, from, &mut self.symbols);
        self.add_input_intervals(GroundFvp { fluent, value }, list);
    }

    /// The time-point up to which the stream has been processed.
    pub fn processed_to(&self) -> Timepoint {
        self.processed_to
    }

    /// Processes all queued events with time-points `<= horizon`, window by
    /// window, and returns the accumulated output.
    ///
    /// **Forget-horizon policy**: the engine forgets everything at or
    /// before its processed frontier ([`Engine::processed_to`]). An event
    /// queued with `t <= processed_to()` — i.e. arriving *after* a
    /// `run_to` call already evaluated past its time-point — cannot be
    /// incorporated retroactively; it is dropped at the start of the next
    /// `run_to`, counted in [`EngineStats::events_dropped`], and reported
    /// via a `"... dropped"` warning on the output. Late events strictly
    /// *after* the frontier are fine at any insertion order.
    pub fn run_to(&mut self, horizon: Timepoint) -> &RecognitionOutput {
        // Stable sort keeps simultaneous events in arrival order.
        self.pending.sort_by_key(|(_, t)| *t);
        // Defensive second enforcement of the add_event boundary: a
        // restored pending queue upholds the invariant (checkpoints are
        // taken with it intact), so this drain is normally empty.
        let frontier = self.forget_frontier();
        let drained = self
            .pending
            .iter()
            .take_while(|(_, t)| *t <= frontier)
            .count();
        if drained > 0 {
            for (_, t) in self.pending.drain(..drained) {
                self.dead_letters.record(
                    DeadLetterReason::PastHorizon,
                    Some(t),
                    format!("event at t={t} is at or before the processed frontier ({frontier})"),
                );
            }
            self.stats.events_dropped += drained;
        }
        // One aggregated warning covers both rejection paths, so the
        // message (and its count) is byte-identical to the historical
        // run_to-time drop.
        let stale = drained + std::mem::take(&mut self.stale_rejected);
        if stale > 0 {
            self.warnings.push(format!(
                "{stale} event(s) at or before the processed frontier were dropped"
            ));
            crate::obs::metrics().forget_drops.add(stale as u64);
            rtec_obs::warn(
                "engine.forget_drop",
                &[("count", stale.into()), ("frontier", frontier.into())],
            );
        }

        // Amendment query: a sliding engine holding late-but-admissible
        // events (behind the processed frontier, inside the overlap)
        // must incorporate them even when the horizon does not advance.
        if self.sliding.is_some()
            && horizon <= self.processed_to
            && self.pending.iter().any(|(_, t)| *t <= self.processed_to)
        {
            self.process_query(self.processed_to);
        }

        let step = if self.config.is_sliding() {
            self.config.slide
        } else {
            self.config.window
        };
        while self.processed_to < horizon {
            let q = if step == INF {
                horizon
            } else {
                (self.processed_to.saturating_add(step)).min(horizon)
            };
            if self.sliding.is_some() {
                self.process_query(q);
            } else {
                self.process_chunk(q);
            }
        }
        self.output.warnings = self.warnings.messages().to_vec();
        &self.output
    }

    /// Convenience: runs up to the last queued event's time-point.
    pub fn run(&mut self) -> &RecognitionOutput {
        let horizon = self
            .pending
            .iter()
            .map(|(_, t)| *t)
            .max()
            .unwrap_or(self.processed_to.max(0));
        self.run_to(horizon)
    }

    /// Consumes the engine, returning the output.
    pub fn into_output(mut self) -> RecognitionOutput {
        self.output.warnings = self.warnings.messages().to_vec();
        self.output
    }

    /// The current accumulated output (without running).
    pub fn output(&self) -> &RecognitionOutput {
        &self.output
    }

    /// Snapshots the engine's retained window state: symbols, pending
    /// events, input intervals, inertia carry, processed frontier,
    /// accumulated output, warnings, and counters. A new engine built
    /// with [`Engine::restore`] from this checkpoint continues the
    /// stream with output identical to the uninterrupted run.
    ///
    /// Meaningful at any point, but cheapest and most useful at a
    /// window boundary (right after [`Engine::run_to`] returns), which
    /// is when the service checkpoints its shard workers.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let sliding = self.sliding.as_ref().map(|s| SlidingSection {
            snapshots: s
                .snapshots
                .iter()
                .map(|(t, inertia)| {
                    (
                        *t,
                        inertia
                            .iter()
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect(),
                    )
                })
                .collect(),
            retained: s.retained.clone(),
        });
        EngineCheckpoint::from_parts(
            self.symbols
                .iter()
                .map(|(_, name)| name.to_string())
                .collect(),
            self.pending.clone(),
            self.inputs.iter().cloned().collect(),
            &self.inertia,
            self.processed_to,
            self.output
                .map
                .iter()
                .map(|(fvp, list)| (fvp.clone(), list.clone()))
                .collect(),
            self.warnings.messages().to_vec(),
            self.stats,
            sliding,
            Some(crate::plan::LABEL.to_string()),
        )
    }

    /// Rebuilds an engine from a checkpoint taken over the *same*
    /// compiled description. The checkpoint's symbol list must extend
    /// the description's table (it always does for checkpoints taken by
    /// [`Engine::checkpoint`] against the same source); a mismatch —
    /// e.g. a checkpoint from a different description — is an error,
    /// since raw symbol ids would silently rebind.
    pub fn restore(
        desc: &'a CompiledDescription,
        config: EngineConfig,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Engine<'a>, String> {
        let mut symbols = SymbolTable::new();
        for name in checkpoint.symbol_names() {
            symbols.intern(name);
        }
        for (sym, name) in desc.symbols.iter() {
            if symbols.try_name(sym) != Some(name) {
                return Err(format!(
                    "checkpoint symbols do not extend the description's table \
                     (description symbol \"{name}\" missing or rebound)"
                ));
            }
        }
        let mut warnings = WarningSink::new();
        for w in &checkpoint.warnings {
            warnings.push(w.clone());
        }
        let inertia = checkpoint.inertia_state();
        // A sliding configuration resumes its overlap from the
        // checkpoint's sliding section; a checkpoint without one (taken
        // by a tumbling engine, or pre-sliding) starts a fresh overlap
        // at the restored frontier — late events behind it are lost,
        // exactly as they would be across any tumbling restore.
        let sliding = config
            .is_sliding()
            .then(|| match checkpoint.sliding_section() {
                Some(section) => SlidingState {
                    snapshots: section
                        .snapshots
                        .iter()
                        .map(|(t, entries)| (*t, entries.iter().cloned().collect()))
                        .collect(),
                    retained: section.retained.clone(),
                    inputs_seen: 0,
                },
                None => SlidingState::initial(checkpoint.processed_to, &inertia),
            });
        let mut engine = Engine {
            desc,
            config,
            symbols,
            pending: checkpoint.pending.clone(),
            inputs: InputFluents::default(),
            overlay: TermArena::overlay(desc.plan().arena()),
            inertia,
            processed_to: checkpoint.processed_to,
            output: RecognitionOutput::default(),
            warnings,
            stats: checkpoint.stats,
            dead_letters: DeadLetterLedger::new(ENGINE_DEAD_LETTER_CAP),
            stale_rejected: 0,
            profiler: None,
            sliding,
            inputs_version: 0,
        };
        for (fvp, list) in &checkpoint.inputs {
            engine.add_input_intervals(fvp.clone(), list.clone());
        }
        for (fvp, list) in &checkpoint.output {
            engine.output.insert_merge(fvp.clone(), list.clone());
        }
        engine.output.warnings = checkpoint.warnings.clone();
        // Restored inputs were already seen by the checkpointed run;
        // they must not force an incremental fallback by themselves.
        if let Some(s) = engine.sliding.as_mut() {
            s.inputs_seen = engine.inputs_version;
        }
        Ok(engine)
    }

    /// Tumbling-window step: drains and evaluates everything up to `q`.
    fn process_chunk(&mut self, q: Timepoint) {
        // Take the chunk's events off the pending queue.
        let upto = self.pending.partition_point(|(_, t)| *t <= q);
        let chunk_events: Vec<(Term, Timepoint)> = self.pending.drain(..upto).collect();
        self.stats.windows += 1;
        self.stats.events_processed += chunk_events.len();
        crate::obs::metrics()
            .events_processed
            .add(chunk_events.len() as u64);
        self.evaluate_chunk(&chunk_events, q, false);
    }

    /// Sliding-window step: one query at time `q`.
    ///
    /// Fresh events are drained up to `q`; then either the fresh suffix
    /// is evaluated on top of the carried state (incremental mode, when
    /// nothing invalidates the shortcut), or the engine rolls back to
    /// the newest inertia snapshot at least one window behind `q` and
    /// replays the retained events from there — RTEC-style redundant
    /// recomputation, and the fallback that amends late events. The
    /// replay re-evaluates at the original query boundaries, recording
    /// the same intermediate snapshots, so the retained overlap state
    /// (and with it checkpoint bytes) is identical across both modes.
    fn process_query(&mut self, q: Timepoint) {
        let upto = self.pending.partition_point(|(_, t)| *t <= q);
        let fresh: Vec<(Term, Timepoint)> = self.pending.drain(..upto).collect();
        let has_late = fresh.iter().any(|(_, t)| *t <= self.processed_to);
        self.stats.windows += 1;
        self.stats.events_processed += fresh.len();
        crate::obs::metrics()
            .events_processed
            .add(fresh.len() as u64);
        let inputs_changed = {
            let sliding = self.sliding.as_ref().expect("sliding engine");
            sliding.inputs_seen != self.inputs_version
        };

        if self.config.incremental && !has_late && !inputs_changed {
            // Fresh-suffix evaluation with the per-rule delta skip: the
            // overlap's contribution is fully carried by the inertia
            // state, exactly as across a tumbling boundary.
            self.evaluate_chunk(&fresh, q, true);
            self.sliding
                .as_mut()
                .expect("sliding engine")
                .retained
                .extend(fresh);
        } else {
            // Roll back and replay the retained window. The rollback
            // boundary is the newest snapshot at least `window` behind
            // `q` (or the forget frontier when none is old enough).
            let window = self.config.window;
            let (boundary_idx, boundary, snapshot, rungs) = {
                let sliding = self.sliding.as_mut().expect("sliding engine");
                sliding.retained.extend(fresh);
                // Stable: a late event lands after retained events of
                // the same time-point, matching its drain position had
                // it arrived in order within that query's chunk.
                sliding.retained.sort_by_key(|(_, t)| *t);
                let target = q.saturating_sub(window);
                let boundary_idx = sliding
                    .snapshots
                    .iter()
                    .rposition(|(t, _)| *t <= target)
                    .unwrap_or(0);
                let (boundary, snapshot) = sliding.snapshots[boundary_idx].clone();
                // Re-evaluate at the original query boundaries so the
                // intermediate snapshots (and static-fluent folds) are
                // regenerated exactly; `q` itself is the final rung.
                let rungs: Vec<Timepoint> = sliding.snapshots[boundary_idx + 1..]
                    .iter()
                    .map(|(t, _)| *t)
                    .filter(|t| *t < q)
                    .chain(std::iter::once(q))
                    .collect();
                sliding.snapshots.truncate(boundary_idx + 1);
                (boundary_idx, boundary, snapshot, rungs)
            };
            let _ = boundary_idx;
            self.inertia = snapshot;
            self.output.truncate_after(boundary);
            self.processed_to = boundary;
            let mut prev = boundary;
            for rung in rungs {
                let chunk: Vec<(Term, Timepoint)> = {
                    let sliding = self.sliding.as_ref().expect("sliding engine");
                    sliding
                        .retained
                        .iter()
                        .filter(|(_, t)| *t > prev && *t <= rung)
                        .cloned()
                        .collect()
                };
                self.evaluate_chunk(&chunk, rung, false);
                if rung < q {
                    let snap = self.inertia.clone();
                    self.sliding
                        .as_mut()
                        .expect("sliding engine")
                        .snapshots
                        .push((rung, snap));
                }
                prev = rung;
            }
        }

        // Record the query's snapshot and prune the overlap: the next
        // query (at `q + slide`) rolls back to the newest snapshot at
        // least `window` behind it, so everything older than that
        // boundary — snapshots and events alike — is forgotten.
        let snap = self.inertia.clone();
        let slide = self.config.slide;
        let window = self.config.window;
        let inputs_version = self.inputs_version;
        let sliding = self.sliding.as_mut().expect("sliding engine");
        sliding.snapshots.push((q, snap));
        let target = q.saturating_add(slide).saturating_sub(window);
        let keep_from = sliding
            .snapshots
            .iter()
            .rposition(|(t, _)| *t <= target)
            .unwrap_or(0);
        sliding.snapshots.drain(..keep_from);
        let base = sliding.forget_frontier();
        sliding.retained.retain(|(_, t)| *t > base);
        sliding.inputs_seen = inputs_version;
    }

    /// Evaluates one chunk of events as the window `(processed_to, q]`
    /// and folds the results into the output. With `use_delta`, simple
    /// fluents provably unaffected by the chunk's events are evaluated
    /// against an empty index (pure inertia fold — identical by
    /// construction, see [`crate::eval::delta`]).
    fn evaluate_chunk(
        &mut self,
        chunk_events: &[(Term, Timepoint)],
        q: Timepoint,
        use_delta: bool,
    ) {
        let metrics = crate::obs::metrics();
        let started = Instant::now();
        metrics.windows.inc();
        let plan = self.desc.plan();
        let mut terms = Terms::new(plan.arena(), &mut self.overlay);
        let index = EventIndex::build(chunk_events, &mut terms);
        let delta = use_delta.then(|| WindowDelta::compute(self.desc, &index));
        let mut cache = FluentCache::new(&self.inputs, |key| plan.reads_input(key), &mut terms);
        plan.evaluate(
            self.desc,
            Window {
                events: &index,
                terms: &mut terms,
                delta: delta.as_ref(),
                cache: &mut cache,
                inertia: &mut self.inertia,
                warnings: &mut self.warnings,
                profiler: self.profiler.as_mut(),
            },
        );

        // Fold the window's results into the global output.
        //
        // Simple fluents: clip open intervals at the window end (they will
        // be re-emitted, extended, by the next window thanks to the
        // inertia carry); closed intervals are exact and may safely be
        // re-asserted.
        //
        // Statically determined fluents: additionally clip at the window
        // *start*. A later window re-derives them from the carried-open
        // simple fluents only — the closed past intervals of a subtrahend
        // are forgotten — so re-asserting time-points before this window
        // could union away holes that `relative_complement_all` correctly
        // carved in an earlier window. Every time-point `<= processed_to`
        // was already folded by the window that owned it, with full
        // knowledge.
        let window_start = self.processed_to + 1;
        for ((fluent, value), list) in cache.into_computed() {
            let is_static = terms
                .signature(fluent)
                .is_some_and(|key| self.desc.static_by_fluent.contains_key(&key));
            let folded = if is_static {
                list.clip(window_start, q + 1)
            } else {
                list.close_at(q + 1)
            };
            let fvp = GroundFvp {
                fluent: terms.to_term(fluent),
                value: terms.to_term(value),
            };
            self.output.insert_merge(fvp, folded);
        }
        self.overlay.clear();
        self.processed_to = q;
        let window_elapsed = started.elapsed();
        if let Some(profiler) = self.profiler.as_mut() {
            profiler.finish_window(window_elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        metrics.tick_duration_us.observe_duration(window_elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::EventDescription;

    /// withinArea example of the paper (rules (1)-(3)) plus background.
    const WITHIN_AREA: &str = r#"
        initiatedAt(withinArea(Vl, AreaType)=true, T) :-
            happensAt(entersArea(Vl, AreaId), T),
            areaType(AreaId, AreaType).
        terminatedAt(withinArea(Vl, AreaType)=true, T) :-
            happensAt(leavesArea(Vl, AreaId), T),
            areaType(AreaId, AreaType).
        terminatedAt(withinArea(Vl, AreaType)=true, T) :-
            happensAt(gap_start(Vl), T).
        areaType(a1, fishing).
        areaType(a2, anchorage).
    "#;

    fn run_within_area(window: Timepoint) -> (RecognitionOutput, GroundFvp) {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let fvp = desc.fvp("withinArea(v1, fishing)=true").unwrap();
        let e_enter = desc.term("entersArea(v1, a1)").unwrap();
        let e_leave = desc.term("leavesArea(v1, a1)").unwrap();
        let e_gap = desc.term("gap_start(v1)").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(
            &compiled,
            EngineConfig {
                window,
                ..EngineConfig::default()
            },
        );
        engine.add_event(e_enter.clone(), 10);
        engine.add_event(e_leave, 30);
        engine.add_event(e_enter, 50);
        engine.add_event(e_gap, 80);
        engine.run_to(100);
        (engine.into_output(), fvp)
    }

    #[test]
    fn batch_recognition_matches_paper_semantics() {
        let (out, fvp) = run_within_area(INF);
        let l = out.intervals(&fvp).unwrap();
        // (10, 30] and (50, 80] in paper notation.
        assert_eq!(
            l.as_slice(),
            &[
                crate::interval::Interval::new(11, 31),
                crate::interval::Interval::new(51, 81)
            ]
        );
    }

    #[test]
    fn windowed_equals_batch() {
        let (batch, fvp) = run_within_area(INF);
        for window in [1, 7, 13, 25, 100] {
            let (windowed, _) = run_within_area(window);
            assert_eq!(
                batch.intervals(&fvp),
                windowed.intervals(&fvp),
                "window={window}"
            );
        }
    }

    /// Regression test for the windowed `relative_complement_all`
    /// divergence found in review: a later window, having forgotten the
    /// subtrahend's closed intervals, must not re-assert (and union away)
    /// the hole an earlier window correctly carved.
    #[test]
    fn windowed_relative_complement_equals_batch() {
        const SRC: &str = "
            initiatedAt(base(V)=true, T) :- happensAt(bstart(V), T).
            initiatedAt(sub(V)=true, T) :- happensAt(sstart(V), T).
            terminatedAt(sub(V)=true, T) :- happensAt(send(V), T).
            holdsFor(out(V)=true, I) :-
                holdsFor(base(V)=true, Ib),
                holdsFor(sub(V)=true, Is),
                relative_complement_all(Ib, [Is], I).
        ";
        let run = |window: Timepoint| {
            let mut desc = EventDescription::parse(SRC).unwrap();
            let fvp = desc.fvp("out(v1)=true").unwrap();
            let events = [
                (desc.term("bstart(v1)").unwrap(), 0),
                (desc.term("sstart(v1)").unwrap(), 2),
                (desc.term("send(v1)").unwrap(), 5),
            ];
            let compiled = desc.compile().unwrap();
            let config = if window == INF {
                EngineConfig::default()
            } else {
                EngineConfig::windowed(window)
            };
            let mut engine = Engine::new(&compiled, config);
            engine.add_events(events);
            engine.run_to(30);
            engine.into_output().intervals(&fvp).cloned()
        };
        let batch = run(INF).expect("recognised in batch");
        assert_eq!(
            batch.as_slice(),
            &[
                crate::interval::Interval::new(1, 3),
                crate::interval::Interval::new(6, 31)
            ]
        );
        for window in [3, 7, 10, 13] {
            assert_eq!(Some(&batch), run(window).as_ref(), "window={window}");
        }
    }

    #[test]
    fn fluent_open_at_horizon_is_clipped_there() {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let fvp = desc.fvp("withinArea(v1, fishing)=true").unwrap();
        let e_enter = desc.term("entersArea(v1, a1)").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(&compiled, EngineConfig::default());
        engine.add_event(e_enter, 10);
        let out = engine.run_to(100);
        let l = out.intervals(&fvp).unwrap();
        assert_eq!(l.as_slice(), &[crate::interval::Interval::new(11, 101)]);
        assert!(out.holds_at(&fvp, 100));
    }

    #[test]
    fn incremental_runs_accumulate() {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let fvp = desc.fvp("withinArea(v1, fishing)=true").unwrap();
        let e_enter = desc.term("entersArea(v1, a1)").unwrap();
        let e_leave = desc.term("leavesArea(v1, a1)").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(&compiled, EngineConfig::windowed(10));
        engine.add_event(e_enter, 5);
        engine.run_to(20);
        assert!(engine.output().holds_at(&fvp, 15));
        engine.add_event(e_leave, 25);
        engine.run_to(40);
        let l = engine.output().intervals(&fvp).unwrap();
        assert_eq!(l.as_slice(), &[crate::interval::Interval::new(6, 26)]);
    }

    #[test]
    fn stale_events_are_dropped_with_warning() {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let e_enter = desc.term("entersArea(v1, a1)").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(&compiled, EngineConfig::default());
        engine.run_to(50);
        engine.add_event(e_enter, 10); // before the frontier
        let out = engine.run_to(100);
        assert!(out.is_empty());
        assert!(out.warnings.iter().any(|w| w.contains("dropped")));
    }

    fn rendered(out: &RecognitionOutput, symbols: &SymbolTable) -> Vec<String> {
        let mut rows: Vec<String> = out
            .iter()
            .map(|(fvp, list)| format!("{}={list}", fvp.display(symbols)))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let e_enter = desc.term("entersArea(v1, a1)").unwrap();
        let e_leave = desc.term("leavesArea(v1, a1)").unwrap();
        let e_gap = desc.term("gap_start(v1)").unwrap();
        let compiled = desc.compile().unwrap();

        // Uninterrupted reference run, windowed.
        let mut reference = Engine::new(&compiled, EngineConfig::windowed(20));
        reference.add_event(e_enter.clone(), 10);
        reference.add_event(e_leave.clone(), 30);
        reference.run_to(35);
        reference.add_event(e_enter.clone(), 50);
        reference.add_event(e_gap.clone(), 80);
        reference.run_to(100);
        let ref_symbols = reference.symbols().clone();
        let ref_out = reference.into_output();

        // Interrupted run: checkpoint mid-stream, drop the engine,
        // restore, and continue with the remaining events.
        let mut first = Engine::new(&compiled, EngineConfig::windowed(20));
        first.add_event(e_enter.clone(), 10);
        first.add_event(e_leave, 30);
        first.run_to(35);
        let ck = first.checkpoint();
        drop(first);

        // The checkpoint survives a disk round-trip.
        let ck = EngineCheckpoint::from_json(&ck.to_json()).unwrap();
        let mut resumed = Engine::restore(&compiled, EngineConfig::windowed(20), &ck).unwrap();
        assert_eq!(resumed.processed_to(), 35);
        resumed.add_event(e_enter, 50);
        resumed.add_event(e_gap, 80);
        resumed.run_to(100);
        let res_symbols = resumed.symbols().clone();
        let res_out = resumed.into_output();

        assert_eq!(
            rendered(&ref_out, &ref_symbols),
            rendered(&res_out, &res_symbols)
        );
        assert_eq!(ref_out.warnings, res_out.warnings);
    }

    #[test]
    fn checkpoint_preserves_pending_events_and_stats() {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let fvp = desc.fvp("withinArea(v1, fishing)=true").unwrap();
        let e_enter = desc.term("entersArea(v1, a1)").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(&compiled, EngineConfig::windowed(10));
        engine.run_to(50);
        engine.add_event(e_enter.clone(), 10); // stale: dropped with warning
        engine.run_to(60);
        engine.add_event(e_enter, 70); // pending, not yet evaluated
        let ck = engine.checkpoint();
        assert_eq!(ck.stats().events_dropped, 1);
        drop(engine);
        let mut resumed = Engine::restore(&compiled, EngineConfig::windowed(10), &ck).unwrap();
        resumed.run_to(90);
        assert_eq!(resumed.stats().events_dropped, 1);
        let out = resumed.into_output();
        assert!(out.holds_at(&fvp, 80), "pending event survived the restore");
        assert!(out.warnings.iter().any(|w| w.contains("dropped")));
    }

    #[test]
    fn restore_rejects_foreign_description() {
        let desc_a = EventDescription::parse(WITHIN_AREA).unwrap();
        let compiled_a = desc_a.compile().unwrap();
        let engine = Engine::new(&compiled_a, EngineConfig::default());
        let ck = engine.checkpoint();
        let desc_b =
            EventDescription::parse("initiatedAt(other(X)=true, T) :- happensAt(go(X), T).")
                .unwrap();
        let compiled_b = desc_b.compile().unwrap();
        assert!(Engine::restore(&compiled_b, EngineConfig::default(), &ck).is_err());
    }

    /// Enabling the profiler attributes cost to every evaluated fluent
    /// without perturbing recognition: intervals, warnings and
    /// checkpoint bytes are identical to an unprofiled run.
    #[test]
    fn profiler_attributes_without_perturbing_output() {
        let run = |profiled: bool| {
            let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
            let e_enter = desc.term("entersArea(v1, a1)").unwrap();
            let e_leave = desc.term("leavesArea(v1, a1)").unwrap();
            let compiled = desc.compile().unwrap();
            let mut engine = Engine::new(&compiled, EngineConfig::windowed(20));
            if profiled {
                engine.enable_profiler();
            }
            engine.add_event(e_enter, 10);
            engine.add_event(e_leave, 30);
            engine.run_to(50);
            let ck = engine.checkpoint().to_json();
            let profile = engine.profile().cloned();
            let symbols = engine.symbols().clone();
            (rendered(engine.output(), &symbols), ck, profile)
        };
        let (plain_out, plain_ck, plain_profile) = run(false);
        let (prof_out, prof_ck, prof_profile) = run(true);
        assert_eq!(plain_out, prof_out);
        assert_eq!(plain_ck, prof_ck, "checkpoint bytes must not change");
        assert!(plain_profile.is_none());
        let profile = prof_profile.expect("profiler enabled");
        assert_eq!(profile.windows, 3, "windowed(20) run_to(50) = 3 windows");
        let entries = profile.sorted();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "withinArea/2");
        assert_eq!(entries[0].kind, rtec_obs::profile::RuleKind::Simple);
        assert_eq!(entries[0].cost.calls, 3);
    }

    #[test]
    fn sliding_full_and_incremental_match_batch() {
        let (batch, fvp) = run_within_area(INF);
        for slide in [1, 5, 20] {
            for incremental in [false, true] {
                let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
                let e_enter = desc.term("entersArea(v1, a1)").unwrap();
                let e_leave = desc.term("leavesArea(v1, a1)").unwrap();
                let e_gap = desc.term("gap_start(v1)").unwrap();
                let compiled = desc.compile().unwrap();
                let config = EngineConfig::sliding(20, slide).with_incremental(incremental);
                let mut engine = Engine::new(&compiled, config);
                engine.add_event(e_enter.clone(), 10);
                engine.add_event(e_leave, 30);
                engine.add_event(e_enter, 50);
                engine.add_event(e_gap, 80);
                engine.run_to(100);
                assert_eq!(
                    batch.intervals(&fvp),
                    engine.output().intervals(&fvp),
                    "slide={slide} incremental={incremental}"
                );
            }
        }
    }

    /// A late event behind the query frontier but inside the window
    /// overlap is amended into the output — in both sliding modes, with
    /// checkpoints staying byte-identical across them.
    #[test]
    fn sliding_amends_late_events_within_overlap() {
        let run = |incremental: bool| {
            let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
            let fvp = desc.fvp("withinArea(v1, fishing)=true").unwrap();
            let e_enter = desc.term("entersArea(v1, a1)").unwrap();
            let e_leave = desc.term("leavesArea(v1, a1)").unwrap();
            let compiled = desc.compile().unwrap();
            let config = EngineConfig::sliding(20, 5).with_incremental(incremental);
            let mut engine = Engine::new(&compiled, config);
            engine.add_event(e_enter, 10);
            engine.run_to(40);
            assert!(engine.output().holds_at(&fvp, 39));
            // Late: behind the frontier (40) but inside the overlap.
            engine.add_event(e_leave, 35);
            engine.run_to(40);
            let intervals = engine.output().intervals(&fvp).cloned();
            (intervals, engine.checkpoint().to_json())
        };
        let (full, full_ck) = run(false);
        let (incr, incr_ck) = run(true);
        assert_eq!(
            full.as_ref().map(IntervalList::as_slice),
            Some(&[crate::interval::Interval::new(11, 36)][..]),
            "late leave amended"
        );
        assert_eq!(full, incr);
        assert_eq!(full_ck, incr_ck, "checkpoint bytes must match across modes");
    }

    #[test]
    fn sliding_checkpoint_restores_and_resumes() {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let e_enter = desc.term("entersArea(v1, a1)").unwrap();
        let e_leave = desc.term("leavesArea(v1, a1)").unwrap();
        let compiled = desc.compile().unwrap();
        let config = EngineConfig::sliding(20, 5).with_incremental(true);

        let mut reference = Engine::new(&compiled, config);
        reference.add_event(e_enter.clone(), 10);
        reference.run_to(40);
        reference.add_event(e_leave.clone(), 35);
        reference.run_to(60);
        let ref_symbols = reference.symbols().clone();
        let ref_ck = reference.checkpoint().to_json();
        let ref_out = reference.into_output();

        let mut first = Engine::new(&compiled, config);
        first.add_event(e_enter, 10);
        first.run_to(40);
        let ck = EngineCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();
        drop(first);
        let mut resumed = Engine::restore(&compiled, config, &ck).unwrap();
        resumed.add_event(e_leave, 35); // late, admissible after restore
        resumed.run_to(60);
        let res_symbols = resumed.symbols().clone();
        assert_eq!(resumed.checkpoint().to_json(), ref_ck);
        let res_out = resumed.into_output();
        assert_eq!(
            rendered(&ref_out, &ref_symbols),
            rendered(&res_out, &res_symbols)
        );
    }

    #[test]
    fn multi_vessel_instances_are_separate() {
        let mut desc = EventDescription::parse(WITHIN_AREA).unwrap();
        let f1 = desc.fvp("withinArea(v1, fishing)=true").unwrap();
        let f2 = desc.fvp("withinArea(v2, anchorage)=true").unwrap();
        let e1 = desc.term("entersArea(v1, a1)").unwrap();
        let e2 = desc.term("entersArea(v2, a2)").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(&compiled, EngineConfig::default());
        engine.add_event(e1, 10);
        engine.add_event(e2, 20);
        let out = engine.run_to(50);
        assert!(out.holds_at(&f1, 15));
        assert!(!out.holds_at(&f2, 15));
        assert!(out.holds_at(&f2, 25));
        let wa = compiled.symbols.get("withinArea").unwrap();
        assert_eq!(out.instances_of((wa, 2)).len(), 2);
    }
}
