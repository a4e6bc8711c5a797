//! The one front-end pass over an RTEC event description.
//!
//! [`FrontEnd`] parses, validates and compiles a description once; the
//! compiled description lowers its evaluation plan as it is built, so
//! the linter, the flow analysis, a service session and the CLI all read
//! one parse and run one plan.
//!
//! The plan itself lives in [`rtec::plan`], lowered by [`rtec::lower`];
//! this crate re-exports their names for the tools that reach them
//! through `rtec_plan`.
//!
//! ```
//! use rtec::engine::{Engine, EngineConfig};
//! use rtec_plan::FrontEnd;
//!
//! let mut front = FrontEnd::try_from(
//!     "initiatedAt(moored(V)=true, T) :- happensAt(stop_start(V), T).
//!      terminatedAt(moored(V)=true, T) :- happensAt(stop_end(V), T).",
//! )
//! .unwrap();
//! let start = front.parsed.term("stop_start(v1)").unwrap();
//! let stop = front.parsed.term("stop_end(v1)").unwrap();
//! let moored = front.parsed.fvp("moored(v1)=true").unwrap();
//! let desc = front.compiled.unwrap();
//! assert_eq!(desc.plan().stats().simple_rules, 2);
//!
//! let mut engine = Engine::new(&desc, EngineConfig::default());
//! engine.add_event(start, 3);
//! engine.add_event(stop, 9);
//! engine.run_to(10);
//! assert!(engine.output().holds_at(&moored, 5));
//! ```

#![forbid(unsafe_code)]

mod front;

pub use front::FrontEnd;
pub use rtec::plan::{ir, Plan, PlanStats, LABEL};
pub use rtec::{frame, lower};
