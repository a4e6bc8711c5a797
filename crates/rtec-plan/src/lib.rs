//! Compilation of RTEC event descriptions into stratified, slot-indexed
//! evaluation plans.
//!
//! The engine's default evaluator walks the validated rule AST, paying
//! for name-based variable lookups, per-literal signature recomputation
//! and interval-list intermediaries on every window. [`Plan::compile`]
//! pays those costs once, ahead of time:
//!
//! * **Slots instead of names** — every rule variable becomes a dense
//!   index into a flat [`frame::Frame`], so unification reads an array
//!   element instead of scanning an association list.
//! * **Precomputed dispatch** — event signatures, the "no background
//!   facts" warning condition and the stratified bottom-up fluent order
//!   (derived from the same dependency graph `rtec::semantics` hands to
//!   `rtec-lint`) are resolved at compile time.
//! * **Fused interval algebra** — adjacent `union_all` /
//!   `intersect_all` / `relative_complement_all` chains whose
//!   intermediate list is consumed exactly once collapse into a single
//!   operator application ([`lower::fuse_interval_ops`]).
//!
//! The resulting [`Plan`] implements [`WindowEvaluator`] and is
//! installed with [`WithPlan::with_plan`] or
//! [`rtec::engine::Engine::set_evaluator`]. It is what the service and
//! the CLI run: a session compiles one plan when it opens and shares it
//! with every shard engine. [`FrontEnd`] is the one pass that produces
//! it — parse, validate, compile, lower — and that the linter, the flow
//! analysis and the session all read. A plan is *observationally
//! identical* to the interpreter, which stays as the reference
//! semantics — same derived intervals, same inertia carries, same
//! warnings in the same order — so checkpoints and recognition output
//! are byte-for-byte independent of the evaluator.
//!
//! ```
//! use rtec::description::EventDescription;
//! use rtec::engine::{Engine, EngineConfig};
//! use rtec_plan::WithPlan;
//!
//! let mut src = EventDescription::parse(
//!     "initiatedAt(moored(V)=true, T) :- happensAt(stop_start(V), T).
//!      terminatedAt(moored(V)=true, T) :- happensAt(stop_end(V), T).",
//! )
//! .unwrap();
//! let start = src.term("stop_start(v1)").unwrap();
//! let stop = src.term("stop_end(v1)").unwrap();
//! let moored = src.fvp("moored(v1)=true").unwrap();
//! let desc = src.compile().unwrap();
//!
//! let config = EngineConfig::default();
//! let mut interp = Engine::new(&desc, config.clone());
//! let mut plan = Engine::with_plan(&desc, config);
//! for engine in [&mut interp, &mut plan] {
//!     engine.add_event(start.clone(), 3);
//!     engine.add_event(stop.clone(), 9);
//!     engine.run_to(10);
//! }
//! assert!(plan.output().holds_at(&moored, 5));
//! assert_eq!(
//!     interp.output().intervals(&moored),
//!     plan.output().intervals(&moored)
//! );
//! ```

#![forbid(unsafe_code)]

pub mod arith;
mod exec;
pub mod frame;
mod front;
pub mod ir;
pub mod lower;

pub use front::{Compiled, FrontEnd};

use crate::ir::Stratum;
use rtec::ast::FluentKey;
use rtec::description::CompiledDescription;
use rtec::engine::{Engine, EngineConfig, EvalCtx, WindowEvaluator};
use rtec::eval::events::EventIndex;
use rtec_obs::profile::RuleKind;
use std::collections::HashSet;
use std::sync::Arc;

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
    /// Malformed simple rules dropped at lowering (the interpreter skips
    /// the same rules defensively at run time).
    pub dropped_rules: usize,
}

/// A compiled evaluation plan: the lowered strata and the set of
/// defined fluents. Symbols, the `=` symbol and background facts are
/// read from the description through [`EvalCtx`] at evaluation time, so
/// a plan holds no copy of them and one plan serves every engine over
/// its description. Installing a plan into an engine over another
/// description is a logic error; the differential tests only ever pair
/// them.
pub struct Plan {
    defined: HashSet<FluentKey>,
    strata: Vec<Stratum>,
    stats: PlanStats,
}

impl Plan {
    /// Compiles a validated description into a plan.
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
                    match lower::lower_simple(&desc.simple[rid], &desc.facts, &desc.symbols) {
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
                        lower::lower_static(&desc.statics[rid], &desc.facts, &desc.symbols);
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

impl WindowEvaluator for Plan {
    fn label(&self) -> &'static str {
        LABEL
    }

    fn evaluate(&self, mut ctx: EvalCtx<'_, '_>) {
        let desc = ctx.desc;
        for stratum in &self.strata {
            let key = stratum.key;
            if stratum.has_simple {
                let exec = self.exec_ctx(desc, ctx.events_for(key));
                ctx.stratum(key, RuleKind::Simple, |c| {
                    exec::eval_simple_stratum(
                        &exec,
                        key,
                        &stratum.simple,
                        c.cache,
                        c.inertia,
                        c.warnings,
                    )
                });
            }
            if stratum.has_static {
                let exec = self.exec_ctx(desc, ctx.events());
                ctx.stratum(key, RuleKind::Static, |c| {
                    exec::eval_static_stratum(&exec, &stratum.statics, c.cache, c.warnings)
                });
            }
        }
    }
}

/// Extension constructor: an engine that evaluates windows with a plan
/// compiled from its description.
pub trait WithPlan<'a>: Sized {
    /// Equivalent to `Engine::with_evaluator(desc, config,
    /// Arc::new(Plan::compile(desc)))`.
    fn with_plan(desc: &'a CompiledDescription, config: EngineConfig) -> Self;
}

impl<'a> WithPlan<'a> for Engine<'a> {
    fn with_plan(desc: &'a CompiledDescription, config: EngineConfig) -> Engine<'a> {
        Engine::with_evaluator(desc, config, Arc::new(Plan::compile(desc)))
    }
}
