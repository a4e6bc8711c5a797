//! Cross-crate integration tests.
//!
//! The test files live in the repository-level `tests/` directory (wired
//! in via `[[test]]` entries in this crate's manifest) and exercise the
//! full pipeline across crate boundaries: dataset generation -> LLM
//! generation -> similarity -> correction -> windowed recognition ->
//! accuracy, plus semantic cross-checks of the RTEC engine against a
//! brute-force reference evaluator and property-based tests of the
//! similarity metric.
//!
//! The library holds what those cross-checks share: the reference
//! semantics ([`mod@reference`], with its arithmetic in [`arith`]) and the
//! one scenario generator ([`scenario`]). `tests/engine_reference.rs`,
//! `tests/grid_differential.rs` and this crate's `tests/differential.rs`
//! run the engine against it.

#![forbid(unsafe_code)]

pub mod arith;
pub mod reference;
pub mod scenario;
