//! # rtec — a Run-Time Event Calculus engine
//!
//! This crate implements RTEC, the logic-programming composite event
//! recognition (CER) framework that the paper *Generating Activity
//! Definitions with Large Language Models* (EDBT 2025) uses as its target
//! formal language and reasoning substrate.
//!
//! RTEC represents *composite activity definitions* as logic-programming
//! rules over a linear timeline of non-negative integer time-points:
//!
//! * `happensAt(E, T)` — event `E` occurs at time-point `T`;
//! * `initiatedAt(F=V, T)` / `terminatedAt(F=V, T)` — a maximal period
//!   during which fluent `F` holds value `V` continuously starts/ends at `T`
//!   (*simple fluents*, subject to the common-sense law of inertia);
//! * `holdsFor(F=V, I)` — `F=V` holds throughout the maximal intervals in
//!   list `I` (*statically determined fluents*, built from other interval
//!   lists with `union_all`, `intersect_all`, `relative_complement_all`);
//! * `holdsAt(F=V, T)` — `F=V` holds at time-point `T`.
//!
//! The crate provides:
//!
//! * a symbol-interning term representation ([`term::Term`]),
//! * a Prolog-style parser for event descriptions ([`parser`]),
//! * validation against the rule syntax of the paper's Definitions 2.2 and
//!   2.4 ([`validate`]),
//! * a maximal-interval algebra ([`interval`]),
//! * lowering of each compiled description into a stratified,
//!   slot-indexed evaluation plan ([`lower`], [`plan`]) whose rules bind
//!   variables in [`frame`]s,
//! * a windowed recognition engine with caching that runs that plan
//!   ([`engine::Engine`]), and
//! * error types that distinguish syntax, validation and run-time issues.
//!
//! ## Quick example
//!
//! ```
//! use rtec::prelude::*;
//!
//! let src = r#"
//!     initiatedAt(withinArea(Vl, AreaType)=true, T) :-
//!         happensAt(entersArea(Vl, AreaId), T),
//!         areaType(AreaId, AreaType).
//!     terminatedAt(withinArea(Vl, AreaType)=true, T) :-
//!         happensAt(leavesArea(Vl, AreaId), T),
//!         areaType(AreaId, AreaType).
//!     terminatedAt(withinArea(Vl, AreaType)=true, T) :-
//!         happensAt(gap_start(Vl), T).
//!     areaType(a1, fishing).
//! "#;
//!
//! let mut desc = EventDescription::parse(src).unwrap();
//! let compiled = desc.compile().unwrap();
//! let mut engine = Engine::new(&compiled, EngineConfig::default());
//!
//! let e1 = desc.term("entersArea(v42, a1)").unwrap();
//! let e2 = desc.term("leavesArea(v42, a1)").unwrap();
//! engine.add_event(e1, 10);
//! engine.add_event(e2, 25);
//! let out = engine.run_to(100);
//!
//! let fvp = desc.fvp("withinArea(v42, fishing)=true").unwrap();
//! let intervals = out.intervals(&fvp).unwrap();
//! assert!(intervals.contains(15));
//! assert!(!intervals.contains(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod ast;
pub mod background;
pub mod checkpoint;
pub mod declarations;
pub mod description;
pub mod engine;
pub mod error;
pub mod eval;
pub mod frame;
pub mod interval;
pub mod json;
pub mod lexer;
pub mod lower;
pub mod obs;
pub mod parallel;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod reorder;
pub mod semantics;
pub mod stream;
pub mod symbol;
pub mod term;
pub mod validate;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::ast::{Clause, Fvp};
    pub use crate::description::{CompiledDescription, EventDescription};
    pub use crate::engine::{Engine, EngineConfig, RecognitionOutput};
    pub use crate::error::{RtecError, RtecResult};
    pub use crate::interval::{Interval, IntervalList, Timepoint, INF};
    pub use crate::symbol::{Symbol, SymbolTable};
    pub use crate::term::{GroundFvp, Term};
}

pub use prelude::*;
