//! The repository benchmark (see `README.md` in this directory): three
//! seeded workloads driven through the service's public entry points,
//! end-to-end metrics from untraced closed-loop passes, output oracles,
//! and a traced in-process replay for per-layer numbers.

pub mod grid;
pub mod oracle;
pub mod provenance;
pub mod run;
pub mod scrape;
pub mod stats;
pub mod system;
pub mod trace;
pub mod workload;
