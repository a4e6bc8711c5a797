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
//! * **Interned terms** — lowering interns the rules' constants and the
//!   background facts into a frozen [`TermArena`] the plan owns; each
//!   window interns its events and derived instances into an overlay on
//!   top of it, and the executor runs on the ids ([`crate::arena`]).
//!
//! A [`CompiledDescription`] lowers its plan once, when it is compiled,
//! and owns it; every [`crate::engine::Engine`] over that description
//! runs it. The reference semantics the plan is tested against is the
//! point-by-point evaluator in `crates/integration/src/reference.rs`.

pub(crate) mod exec;
pub mod ir;

use crate::arena::{FxHashSet, TermArena, Terms};
use crate::ast::FluentKey;
use crate::background::FactIndex;
use crate::description::CompiledDescription;
use crate::eval::arith::{ArithCtx, ArithOps};
use crate::eval::cache::FluentCache;
use crate::eval::delta::WindowDelta;
use crate::eval::events::EventIndex;
use crate::eval::simple::{restore_carried, take_carried, InertiaState};
use crate::eval::WarningSink;
use crate::profile::EngineProfiler;
use ir::{LBody, LStatic, LTerm, Stratum};
use rtec_obs::profile::RuleKind;
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

/// A compiled evaluation plan: the lowered strata, the set of defined
/// fluents, and the frozen arena holding the rules' constants and the
/// background facts. Symbols are read from the description at
/// evaluation time.
#[derive(Debug, Default)]
pub struct Plan {
    defined: FxHashSet<FluentKey>,
    strata: Vec<Stratum>,
    stats: PlanStats,
    arena: TermArena,
    facts: FactIndex,
    ops: ArithOps,
    /// The fluent keys rule bodies read; `None` when a body reads a
    /// fluent through a variable, and so may read any.
    reads: Option<FxHashSet<FluentKey>>,
}

/// Everything one window's evaluation reads and writes.
pub(crate) struct Window<'w, 'c, 't> {
    /// The window's events.
    pub(crate) events: &'w EventIndex,
    /// The frozen arena and the window's overlay.
    pub(crate) terms: &'w mut Terms<'t>,
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
        let mut facts = FactIndex::default();
        let arena = TermArena::frozen(desc.symbols.len(), |terms| {
            facts = FactIndex::build(&desc.facts, terms);
            for key in &desc.strata {
                let mut stratum = Stratum {
                    key: *key,
                    has_simple: desc.simple_by_fluent.contains_key(key),
                    has_static: desc.static_by_fluent.contains_key(key),
                    simple: Vec::new(),
                    statics: Vec::new(),
                };
                for &rid in desc.simple_by_fluent.get(key).into_iter().flatten() {
                    let rule = &desc.simple[rid];
                    match crate::lower::lower_simple(rule, &desc.facts, &desc.symbols, terms) {
                        Some(l) => {
                            stats.simple_rules += 1;
                            stats.slots += l.vars.len();
                            stratum.simple.push(l);
                        }
                        None => stats.dropped_rules += 1,
                    }
                }
                for &rid in desc.static_by_fluent.get(key).into_iter().flatten() {
                    let rule = &desc.statics[rid];
                    let (l, fused) =
                        crate::lower::lower_static(rule, &desc.facts, &desc.symbols, terms);
                    stats.static_rules += 1;
                    stats.slots += l.vars.len();
                    stats.fused_ops += fused;
                    stratum.statics.push(l);
                }
                strata.push(stratum);
            }
        });
        stats.strata = strata.len();
        let defined: FxHashSet<FluentKey> = desc
            .simple_by_fluent
            .keys()
            .chain(desc.static_by_fluent.keys())
            .copied()
            .collect();
        let reads = fluent_reads(&strata);
        Plan {
            defined,
            strata,
            stats,
            arena,
            facts,
            ops: ArithOps::new(&desc.symbols),
            reads,
        }
    }

    /// The frozen arena: the description's symbols as atoms, the rules'
    /// constants and the background facts, interned at lowering. Every
    /// window's overlay continues its ids.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Whether some rule body can read the input fluents of `key`.
    pub(crate) fn reads_input(&self, key: FluentKey) -> bool {
        self.reads.as_ref().is_none_or(|keys| keys.contains(&key))
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
    pub fn defined(&self) -> &FxHashSet<FluentKey> {
        &self.defined
    }

    /// Evaluates one window of `desc` (the description this plan was
    /// compiled from): derives every defined fluent into the window's
    /// cache, bottom-up, updating inertia and reporting warnings. Each
    /// stratum is timed into `rtec_engine_fluent_eval_us{kind}` and, when
    /// the engine profiles, into the window's per-rule trace; timing
    /// never alters evaluation.
    pub(crate) fn evaluate(&self, desc: &CompiledDescription, w: Window<'_, '_, '_>) {
        static EMPTY: OnceLock<EventIndex> = OnceLock::new();
        let Window {
            events,
            terms,
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
        let mut carried = take_carried(inertia);
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
                let mut own = carried.remove(&Some(key));
                timed(key, RuleKind::Simple, &mut || {
                    exec::eval_simple_stratum(
                        &exec,
                        &stratum.simple,
                        cache,
                        own.take().unwrap_or_default(),
                        inertia,
                        terms,
                        warnings,
                    )
                });
            }
            if stratum.has_static {
                let exec = self.exec_ctx(desc, events);
                timed(key, RuleKind::Static, &mut || {
                    exec::eval_static_stratum(&exec, &stratum.statics, cache, terms, warnings)
                });
            }
        }
        restore_carried(inertia, carried);
    }

    /// The read-only execution context of one stratum over `events`.
    fn exec_ctx<'a>(
        &'a self,
        desc: &'a CompiledDescription,
        events: &'a EventIndex,
    ) -> exec::ExecCtx<'a> {
        exec::ExecCtx {
            symbols: &desc.symbols,
            facts: &self.facts,
            defined: &self.defined,
            events,
            arith: ArithCtx {
                symbols: &desc.symbols,
                ops: &self.ops,
            },
        }
    }
}

/// The fluent keys the bodies of `strata` read with `holdsAt` or
/// `holdsFor`, or `None` if one reads a fluent through a variable.
fn fluent_reads(strata: &[Stratum]) -> Option<FxHashSet<FluentKey>> {
    let mut reads = FxHashSet::default();
    let patterns = strata.iter().flat_map(|s| {
        let simple = s
            .simple
            .iter()
            .flat_map(|r| &r.body)
            .filter_map(|lit| match lit {
                LBody::HoldsAt { fluent, .. } => Some(fluent),
                _ => None,
            });
        let statics = s
            .statics
            .iter()
            .flat_map(|r| &r.body)
            .filter_map(|lit| match lit {
                LStatic::HoldsFor { fluent, .. } => Some(fluent),
                _ => None,
            });
        simple.chain(statics)
    });
    for fluent in patterns {
        match fluent {
            LTerm::Slot(_) => return None,
            _ => reads.extend(fluent.signature()),
        }
    }
    Some(reads)
}
