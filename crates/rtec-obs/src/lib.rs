//! # rtec-obs — unified observability for the RTEC workspace
//!
//! A zero-dependency (std-only, offline-friendly) observability layer
//! shared by the engine ([`rtec`]), the streaming service
//! (`rtec-service`) and the CLI:
//!
//! * **Metrics** ([`metrics`], [`registry`]) — counters, gauges and
//!   fixed-bucket log2 histograms with lock-free atomic hot paths.
//!   Handles are `Arc`s obtained once from a [`MetricsRegistry`] (the
//!   process-wide one via [`registry::global`]); recording is a relaxed
//!   atomic op, so instrumentation is safe on per-event code paths.
//! * **Exposition** ([`expo`]) — Prometheus text format (version
//!   0.0.4) rendering of a registry, plus a validator used by tests and
//!   the CI smoke check.
//! * **Structured events** ([`mod@event`]) — leveled (`error` / `warn` /
//!   `info` / `debug`) JSON-line events honouring the `RTEC_LOG`
//!   environment filter, fanned out to a pluggable sink (stderr by
//!   default) and an in-memory ring buffer for post-hoc inspection.
//! * **Spans** ([`mod@span`]) — per-thread span stacks that time a scope
//!   into a histogram and tag concurrent events with their position in
//!   the span stack.
//! * **Profiles** ([`profile`]) — per-rule evaluation cost attribution
//!   (self time, calls, interval-algebra ops) with bounded-cardinality
//!   top-N + `other` exposition, shared by the engine and the service's
//!   `profile` command.
//! * **Count tables** ([`table`]) — sorted name→count tables shared by
//!   stream statistics and telemetry summaries.
//!
//! [`rtec`]: ../rtec/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod expo;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod span;
pub mod table;

pub use event::{
    debug, error, event, info, recent_events, set_max_level, set_sink, warn, FieldValue, Level,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use profile::{ProfileAggregate, ProfileEntry, RuleCost, RuleKind, WindowProfile};
pub use registry::{global, MetricsRegistry};
pub use span::{span, timed_span, SpanGuard};
pub use table::CountTable;
