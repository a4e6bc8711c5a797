//! rtec-service: a multi-session streaming recognition server.
//!
//! Hosts many concurrent recognition sessions in one long-running
//! process. Each [`session::Session`] owns a compiled event description,
//! a master symbol table, and a pool of entity-sharded engine workers:
//! [`router::Router`] groups entities with a union-find over coupling
//! inputs and pins each group to a shard round-robin in discovery order,
//! which matches a single engine when every coupling arrives before the
//! first tick. Events flow through bounded queues with explicit
//! backpressure accounting; query-time *ticks* drive incremental
//! `run_to` evaluation per shard; per-shard outputs merge with
//! [`rtec::engine::RecognitionOutput::absorb`].
//!
//! The wire protocol is NDJSON (one JSON object per line) served over
//! TCP ([`server::Server`]) or stdio ([`server::serve_stdio`]); see
//! `docs/SERVICE.md` for the full command reference. [`client`] holds a
//! replay client that streams an event file into a running server and
//! renders output byte-compatible with a batch `rtec-cli run`.

#![forbid(unsafe_code)]

pub mod client;
pub mod fault;
pub mod flight;
pub mod journal;
pub mod obs;
pub mod persist;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;
pub mod session;
pub mod worker;

pub use client::{parse_stream_file, stream_file, Client, StreamFile, StreamOptions, StreamReport};
pub use fault::{FaultPlan, Faults, IoFaultKind, WorkerPanic};
pub use flight::{FlightRecorder, TickTrace};
pub use journal::{FsyncPolicy, Journal};
pub use registry::Registry;
pub use server::{request_shutdown, serve_stdio, Server, ServerConfig, MAX_FRAME};
pub use session::{Ingest, Session, SessionConfig, SessionStats, TickReport};
