//! The evaluation plan: an event description compiled into stratified,
//! slot-indexed rules, and the evaluator that runs it over one window.
//!
//! [`Plan::compile`] pays the costs of the rule AST once, ahead of time:
//!
//! * **Slots instead of names** — every rule variable becomes a dense
//!   index into a flat [`crate::frame::Frame`], so unification reads an array
//!   element instead of scanning an association list.
//! * **Precomputed dispatch** — event signatures, the "no background
//!   facts" warning condition and the stratified bottom-up fluent order
//!   (derived from the same dependency graph [`crate::semantics`] hands
//!   to `rtec-lint`) are resolved at compile time.
//! * **Fused interval algebra** — adjacent `union_all` /
//!   `intersect_all` / `relative_complement_all` chains whose
//!   intermediate list is consumed exactly once collapse into a single
//!   operator application ([`crate::lower::fuse_interval_ops`]).
//!
//! A [`CompiledDescription`] lowers its plan once, when it is compiled,
//! and owns it; every [`crate::engine::Engine`] over that description
//! runs it. The reference semantics the plan is tested against is the
//! point-by-point evaluator in `crates/integration/src/reference.rs`.

pub(crate) mod exec;
pub mod ir;

use crate::ast::FluentKey;
use crate::description::CompiledDescription;
use crate::eval::cache::FluentCache;
use crate::eval::delta::WindowDelta;
use crate::eval::events::EventIndex;
use crate::eval::simple::InertiaState;
use crate::eval::WarningSink;
use crate::profile::EngineProfiler;
use ir::Stratum;
use rtec_obs::profile::RuleKind;
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::Instant;

/// The label a plan records in checkpoints and reports in `stats`.
pub const LABEL: &str = "plan";

/// Size and fusion counters of a compiled plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Number of strata (defined fluents) in evaluation order.
    pub strata: usize,
    /// Lowered `initiatedAt`/`terminatedAt` rules.
    pub simple_rules: usize,
    /// Lowered `holdsFor` rules.
    pub static_rules: usize,
    /// Total variable slots across all rules.
    pub slots: usize,
    /// Interval operators eliminated by fusion.
    pub fused_ops: usize,
    /// Malformed simple rules dropped at lowering (a first literal that
    /// is not a positive `happensAt` over a predicate).
    pub dropped_rules: usize,
}

/// A compiled evaluation plan: the lowered strata and the set of
/// defined fluents. Symbols, the `=` symbol and background facts are
/// read from the description at evaluation time, so a plan holds no
/// copy of them.
#[derive(Debug, Default)]
pub struct Plan {
    defined: HashSet<FluentKey>,
    strata: Vec<Stratum>,
    stats: PlanStats,
}

/// Everything one window's evaluation reads and writes.
pub(crate) struct Window<'w, 'c> {
    /// The window's events.
    pub(crate) events: &'w EventIndex,
    /// Present under incremental evaluation: which simple fluents the
    /// window's events can affect.
    pub(crate) delta: Option<&'w WindowDelta>,
    /// The window's derived and input fluent intervals.
    pub(crate) cache: &'w mut FluentCache<'c>,
    /// Simple-fluent inertia carried across window boundaries.
    pub(crate) inertia: &'w mut InertiaState,
    /// The engine's deduplicated warning log.
    pub(crate) warnings: &'w mut WarningSink,
    /// Per-rule attribution, when the engine profiles.
    pub(crate) profiler: Option<&'w mut EngineProfiler>,
}

impl Plan {
    /// Compiles a validated description into a plan.
    /// [`CompiledDescription`] does this once, when it is built; call it
    /// directly only to time or inspect the lowering.
    pub fn compile(desc: &CompiledDescription) -> Plan {
        let mut stats = PlanStats::default();
        let mut strata = Vec::with_capacity(desc.strata.len());
        for key in &desc.strata {
            let mut stratum = Stratum {
                key: *key,
                has_simple: desc.simple_by_fluent.contains_key(key),
                has_static: desc.static_by_fluent.contains_key(key),
                simple: Vec::new(),
                statics: Vec::new(),
            };
            if let Some(rids) = desc.simple_by_fluent.get(key) {
                for &rid in rids {
                    match crate::lower::lower_simple(&desc.simple[rid], &desc.facts, &desc.symbols)
                    {
                        Some(l) => {
                            stats.simple_rules += 1;
                            stats.slots += l.vars.len();
                            stratum.simple.push(l);
                        }
                        None => stats.dropped_rules += 1,
                    }
                }
            }
            if let Some(rids) = desc.static_by_fluent.get(key) {
                for &rid in rids {
                    let (l, fused) =
                        crate::lower::lower_static(&desc.statics[rid], &desc.facts, &desc.symbols);
                    stats.static_rules += 1;
                    stats.slots += l.vars.len();
                    stats.fused_ops += fused;
                    stratum.statics.push(l);
                }
            }
            strata.push(stratum);
        }
        stats.strata = strata.len();
        let defined: HashSet<FluentKey> = desc
            .simple_by_fluent
            .keys()
            .chain(desc.static_by_fluent.keys())
            .copied()
            .collect();
        Plan {
            defined,
            strata,
            stats,
        }
    }

    /// Size and fusion counters.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The strata in bottom-up evaluation order.
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// The fluent keys defined by some rule of the description.
    pub fn defined(&self) -> &HashSet<FluentKey> {
        &self.defined
    }

    /// Evaluates one window of `desc` (the description this plan was
    /// compiled from): derives every defined fluent into the window's
    /// cache, bottom-up, updating inertia and reporting warnings. Each
    /// stratum is timed into `rtec_engine_fluent_eval_us{kind}` and, when
    /// the engine profiles, into the window's per-rule trace; timing
    /// never alters evaluation.
    pub(crate) fn evaluate(&self, desc: &CompiledDescription, w: Window<'_, '_>) {
        static EMPTY: OnceLock<EventIndex> = OnceLock::new();
        let Window {
            events,
            delta,
            cache,
            inertia,
            warnings,
            mut profiler,
        } = w;
        let mut timed = |key: FluentKey, kind: RuleKind, eval: &mut dyn FnMut()| {
            let ops_before = crate::profile::interval_ops();
            let started = Instant::now();
            eval();
            let elapsed = started.elapsed();
            let metrics = crate::obs::metrics();
            match kind {
                RuleKind::Simple => &metrics.fluent_eval_simple_us,
                RuleKind::Static => &metrics.fluent_eval_static_us,
            }
            .observe_duration(elapsed);
            if let Some(profiler) = profiler.as_deref_mut() {
                profiler.record(
                    &desc.symbols,
                    key,
                    kind,
                    elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                    crate::profile::interval_ops().wrapping_sub(ops_before),
                );
            }
        };
        for stratum in &self.strata {
            let key = stratum.key;
            if stratum.has_simple {
                // A stratum the window's delta proves untouched scans no
                // events: that folds only the inertia carry, exactly as
                // the real scan would.
                let events = match delta {
                    Some(delta) if !delta.is_dirty(key) => EMPTY.get_or_init(EventIndex::default),
                    _ => events,
                };
                let exec = self.exec_ctx(desc, events);
                timed(key, RuleKind::Simple, &mut || {
                    exec::eval_simple_stratum(&exec, key, &stratum.simple, cache, inertia, warnings)
                });
            }
            if stratum.has_static {
                let exec = self.exec_ctx(desc, events);
                timed(key, RuleKind::Static, &mut || {
                    exec::eval_static_stratum(&exec, &stratum.statics, cache, warnings)
                });
            }
        }
    }

    /// The read-only execution context of one stratum over `events`.
    fn exec_ctx<'a>(
        &'a self,
        desc: &'a CompiledDescription,
        events: &'a EventIndex,
    ) -> exec::ExecCtx<'a> {
        exec::ExecCtx {
            symbols: &desc.symbols,
            eq: desc.sys.eq,
            facts: &desc.facts,
            defined: &self.defined,
            events,
        }
    }
}
