//! Library backing the `rtec` command-line tool.
//!
//! The core subcommands, mirroring how RTEC deployments are operated:
//!
//! * `rtec check <description.rtec> [--format text|json]
//!   [--deny-warnings]` — parse, validate against the rule syntax,
//!   stratify, schema-check against any `inputEvent/1` / `inputFluent/1`
//!   declarations, and run the `rtec-lint` semantic analyzer
//!   (docs/LINTS.md); `--format json` emits the diagnostics as a stable
//!   JSON array; `--deny-warnings` exits nonzero when any warning fires;
//! * `rtec analyze <description.rtec>` — run the `rtec-analysis`
//!   abstract interpreter over the compiled plan and print the per-rule
//!   and per-fluent facts table (value domains, emptiness, reachability,
//!   productivity; docs/PLAN.md);
//! * `rtec run <description.rtec> <events.evt> [--window W] [--horizon H]`
//!   — recognise composite activities over an event file with the
//!   compiled evaluation plan and print the maximal intervals of every
//!   detected fluent-value pair (docs/PLAN.md);
//! * `rtec similarity <a.rtec> <b.rtec>` — the paper's event-description
//!   similarity, with the per-rule matching report.
//!
//! The event-file format is one event per line: `TIME EVENT_TERM`, e.g.
//!
//! ```text
//! 10 entersArea(v1, a1)
//! 25 velocity(v1, 9.5, 91.0, 90.0)
//! % comments and blank lines are skipped
//! ```

#![forbid(unsafe_code)]

pub mod cluster;

use rtec::declarations::Declarations;
use rtec::stream::InputStream;
use rtec::{Engine, EngineConfig, EventDescription, Timepoint};
use rtec_plan::FrontEnd;
use std::fmt::Write as _;

/// CLI failure: a message and a suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn new(message: impl Into<String>, code: i32) -> CliError {
        CliError {
            message: message.into(),
            code,
        }
    }
}

/// Output format of `check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CheckFormat {
    /// Human-readable report (default).
    #[default]
    Text,
    /// One stable JSON array of lint diagnostics.
    Json,
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `check <desc> [--format text|json] [--deny-warnings]`
    Check {
        /// Path to the event description.
        desc: String,
        /// Output format.
        format: CheckFormat,
        /// Exit nonzero when any warning-severity diagnostic fires.
        deny_warnings: bool,
    },
    /// `analyze <desc>`
    Analyze {
        /// Path to the event description.
        desc: String,
    },
    /// `run <desc> <events> [--window W] [--horizon H] [--profile]`
    Run {
        /// Path to the event description.
        desc: String,
        /// Path to the event file.
        events: String,
        /// Optional window size.
        window: Option<Timepoint>,
        /// Optional horizon (defaults to the last event).
        horizon: Option<Timepoint>,
        /// Append a per-rule evaluation profile to the output.
        profile: bool,
    },
    /// `similarity <a> <b>`
    Similarity {
        /// First description.
        a: String,
        /// Second description.
        b: String,
    },
    /// `serve [--addr A] [--threads N] [--metrics-addr M] [--stdio]
    /// [--checkpoint-dir D] [--max-worker-restarts N] [--journal-dir D]
    /// [--journal-fsync P]`
    Serve {
        /// Listen address (ignored with `--stdio`).
        addr: String,
        /// Handler threads.
        threads: usize,
        /// Serve the protocol on stdin/stdout instead of TCP.
        stdio: bool,
        /// Optional Prometheus HTTP scrape address.
        metrics_addr: Option<String>,
        /// Directory for session checkpoints (enables `restore`).
        checkpoint_dir: Option<String>,
        /// Worker restarts allowed per session before quarantine.
        max_worker_restarts: Option<usize>,
        /// Directory for per-session write-ahead journals.
        journal_dir: Option<String>,
        /// Journal fsync policy (`always`, `interval:<ms>`, `never`).
        journal_fsync: rtec_service::FsyncPolicy,
    },
    /// `cluster --backend B [--backend B ...] [--addr A] [--vnodes N]
    /// [--health-interval-ms N]`
    Cluster {
        /// Front-end listen address.
        addr: String,
        /// Backend specs, `ADDR` or `ADDR@METRICS_ADDR`.
        backends: Vec<String>,
        /// Virtual nodes per backend on the placement ring.
        vnodes: usize,
        /// Milliseconds between backend health probes.
        health_interval_ms: u64,
    },
    /// `stream <desc> <events> [--addr A] [options]`
    Stream {
        /// Path to the event description.
        desc: String,
        /// Path to the event file (extended format; see `parse_stream_file`).
        events: String,
        /// Server address.
        addr: String,
        /// Replay options.
        opts: rtec_service::StreamOptions,
    },
    /// `dataset synth [--tier T] [--seed N] [--out FILE] [--desc FILE]`
    DatasetSynth {
        /// Scale tier (`small`, `smoke`, `brest`). Falls back to the
        /// `RTEC_SCALE_TIER` environment variable, then `small`.
        tier: Option<String>,
        /// Seed override (tiers carry a pinned default seed).
        seed: Option<u64>,
        /// Write the event file here instead of stdout.
        out: Option<String>,
        /// Also write the gold description (rules + the generated
        /// fleet's background knowledge) here.
        desc_out: Option<String>,
    },
    /// `dataset <ais.csv> [--strict] [--max-diagnostics N]`
    Dataset {
        /// Path to the AIS CSV file.
        csv: String,
        /// Abort on the first corrupt row instead of skip-and-record.
        strict: bool,
        /// How many row diagnostics to print (the summary always counts
        /// all of them).
        max_diagnostics: usize,
    },
    /// `--help` or no arguments.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
rtec — Run-Time Event Calculus command line

USAGE:
    rtec check <description.rtec> [--format text|json] [--deny-warnings]
    rtec analyze <description.rtec>
    rtec run <description.rtec> <events.evt> [--window W] [--horizon H]
             [--profile]
    rtec similarity <a.rtec> <b.rtec>
    rtec serve [--addr HOST:PORT] [--threads N] [--stdio]
               [--metrics-addr HOST:PORT] [--checkpoint-dir DIR]
               [--max-worker-restarts N] [--journal-dir DIR]
               [--journal-fsync always|interval:<ms>|never]
    rtec cluster --backend ADDR[@METRICS_ADDR] [--backend ...]
                 [--addr HOST:PORT] [--vnodes N]
                 [--health-interval-ms N]
    rtec stream <description.rtec> <events.evt> [--addr HOST:PORT]
                [--session S] [--window W] [--horizon H] [--shards N]
                [--queue N] [--batch N] [--rate EV_PER_SEC]
                [--tick-every T] [--reorder-slack S] [--dedup]
                [--no-close]
    rtec dataset <ais.csv> [--strict] [--max-diagnostics N]
    rtec dataset synth [--tier small|smoke|brest] [--seed N]
                       [--out EVENTS.evt] [--desc DESC.rtec]

Event file format: one `TIME EVENT_TERM` per line; `%` starts a comment.
`stream` additionally accepts `interval FLUENT=VALUE START END ...` lines
for input-fluent intervals. `serve`/`stream` speak the NDJSON protocol
documented in docs/SERVICE.md (default address 127.0.0.1:7878);
`--metrics-addr` adds an HTTP Prometheus endpoint (docs/OBSERVABILITY.md);
`--checkpoint-dir` persists per-session checkpoints after every tick and
enables the `restore` command (docs/ROBUSTNESS.md); `--journal-dir` adds
a per-session write-ahead journal (appended before every ack) so
`restore` also replays acked events past the newest checkpoint.
`cluster` runs a consistent-hashing NDJSON front-end over backends that
share the durable dirs; it fails sessions over between backends via
`restore` and accepts `{\"cmd\":\"cluster\",\"op\":\"stats|drain|rebalance\"}`
admin frames (docs/ROBUSTNESS.md).
`stream --reorder-slack` buffers out-of-order events server-side and
`--dedup` drops exact duplicates (docs/INGEST.md).
`dataset` imports an AIS CSV, skipping and recording corrupt rows; it
fails (exit 3) only when no row survives, `--strict` aborts on the
first corrupt row instead.
`dataset synth` emits a seeded Brest-scale synthetic critical-event
stream in the event-file format (deterministic per seed; tiers sized in
docs/SCALE.md, default from RTEC_SCALE_TIER); `--desc` also writes the
gold description over the generated fleet so the pair feeds straight
into `run` or `stream`.
`check --deny-warnings` exits nonzero when any warning fires (for CI
gates); `analyze` prints the abstract-interpretation facts per rule and
fluent (value domains, emptiness proofs, reachability; docs/PLAN.md).
`run` evaluates windows with the description's compiled plan
(docs/PLAN.md; the reference semantics it is tested against is
crates/integration/src/reference.rs). `run --profile` appends a per-rule self-time/call/interval-op table to the output
without changing what is recognised (docs/PROFILING.md).
Diagnostics are JSON-line events on stderr, filtered by RTEC_LOG
(error|warn|info|debug; default info).
";

/// Parses command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => Ok(Command::Help),
        Some("check") => {
            let desc = it
                .next()
                .ok_or_else(|| CliError::new("check: missing description path", 2))?
                .clone();
            let mut format = CheckFormat::Text;
            let mut deny_warnings = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--deny-warnings" => deny_warnings = true,
                    "--format" => {
                        let value = it
                            .next()
                            .ok_or_else(|| CliError::new("--format: missing value", 2))?;
                        format = match value.as_str() {
                            "text" => CheckFormat::Text,
                            "json" => CheckFormat::Json,
                            other => {
                                return Err(CliError::new(
                                    format!("--format {other}: expected 'text' or 'json'"),
                                    2,
                                ))
                            }
                        };
                    }
                    other => return Err(CliError::new(format!("check: unknown flag {other}"), 2)),
                }
            }
            Ok(Command::Check {
                desc,
                format,
                deny_warnings,
            })
        }
        Some("analyze") => {
            let desc = it
                .next()
                .ok_or_else(|| CliError::new("analyze: missing description path", 2))?
                .clone();
            if let Some(flag) = it.next() {
                return Err(CliError::new(format!("analyze: unknown flag {flag}"), 2));
            }
            Ok(Command::Analyze { desc })
        }
        Some("run") => {
            let desc = it
                .next()
                .ok_or_else(|| CliError::new("run: missing description path", 2))?
                .clone();
            let events = it
                .next()
                .ok_or_else(|| CliError::new("run: missing events path", 2))?
                .clone();
            let mut window = None;
            let mut horizon = None;
            let mut profile = false;
            while let Some(flag) = it.next() {
                if flag == "--profile" {
                    profile = true;
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| CliError::new(format!("{flag}: missing value"), 2))?;
                let parsed: Timepoint = value
                    .parse()
                    .map_err(|e| CliError::new(format!("{flag} {value}: {e}"), 2))?;
                match flag.as_str() {
                    "--window" => window = Some(parsed),
                    "--horizon" => horizon = Some(parsed),
                    other => return Err(CliError::new(format!("unknown flag {other}"), 2)),
                }
            }
            Ok(Command::Run {
                desc,
                events,
                window,
                horizon,
                profile,
            })
        }
        Some("serve") => {
            let mut addr = "127.0.0.1:7878".to_string();
            let mut threads = 4usize;
            let mut stdio = false;
            let mut metrics_addr = None;
            let mut checkpoint_dir = None;
            let mut max_worker_restarts = None;
            let mut journal_dir = None;
            let mut journal_fsync = rtec_service::FsyncPolicy::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--stdio" => stdio = true,
                    "--journal-dir" => {
                        journal_dir = Some(
                            it.next()
                                .ok_or_else(|| CliError::new("--journal-dir: missing value", 2))?
                                .clone(),
                        );
                    }
                    "--journal-fsync" => {
                        let value = it
                            .next()
                            .ok_or_else(|| CliError::new("--journal-fsync: missing value", 2))?;
                        journal_fsync =
                            rtec_service::FsyncPolicy::parse(value).ok_or_else(|| {
                                CliError::new(
                                    format!(
                                        "--journal-fsync {value}: expected always|interval:<ms>|never"
                                    ),
                                    2,
                                )
                            })?;
                    }
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| CliError::new("--addr: missing value", 2))?
                            .clone();
                    }
                    "--metrics-addr" => {
                        metrics_addr = Some(
                            it.next()
                                .ok_or_else(|| CliError::new("--metrics-addr: missing value", 2))?
                                .clone(),
                        );
                    }
                    "--checkpoint-dir" => {
                        checkpoint_dir = Some(
                            it.next()
                                .ok_or_else(|| CliError::new("--checkpoint-dir: missing value", 2))?
                                .clone(),
                        );
                    }
                    "--threads" => {
                        let value = it
                            .next()
                            .ok_or_else(|| CliError::new("--threads: missing value", 2))?;
                        threads = value
                            .parse()
                            .map_err(|e| CliError::new(format!("--threads {value}: {e}"), 2))?;
                    }
                    "--max-worker-restarts" => {
                        let value = it.next().ok_or_else(|| {
                            CliError::new("--max-worker-restarts: missing value", 2)
                        })?;
                        max_worker_restarts = Some(value.parse().map_err(|e| {
                            CliError::new(format!("--max-worker-restarts {value}: {e}"), 2)
                        })?);
                    }
                    other => return Err(CliError::new(format!("unknown flag {other}"), 2)),
                }
            }
            Ok(Command::Serve {
                addr,
                threads,
                stdio,
                metrics_addr,
                checkpoint_dir,
                max_worker_restarts,
                journal_dir,
                journal_fsync,
            })
        }
        Some("cluster") => {
            let mut addr = "127.0.0.1:7900".to_string();
            let mut backends = Vec::new();
            let mut vnodes = 32usize;
            let mut health_interval_ms = 500u64;
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::new(format!("{flag}: missing value"), 2))?;
                match flag.as_str() {
                    "--addr" => addr = value.clone(),
                    "--backend" => backends.push(value.clone()),
                    "--vnodes" => {
                        vnodes = value
                            .parse()
                            .map_err(|e| CliError::new(format!("--vnodes {value}: {e}"), 2))?;
                    }
                    "--health-interval-ms" => {
                        health_interval_ms = value.parse().map_err(|e| {
                            CliError::new(format!("--health-interval-ms {value}: {e}"), 2)
                        })?;
                    }
                    other => {
                        return Err(CliError::new(format!("cluster: unknown flag {other}"), 2))
                    }
                }
            }
            if backends.is_empty() {
                return Err(CliError::new(
                    "cluster: at least one --backend is required",
                    2,
                ));
            }
            Ok(Command::Cluster {
                addr,
                backends,
                vnodes,
                health_interval_ms,
            })
        }
        Some("stream") => {
            let desc = it
                .next()
                .ok_or_else(|| CliError::new("stream: missing description path", 2))?
                .clone();
            let events = it
                .next()
                .ok_or_else(|| CliError::new("stream: missing events path", 2))?
                .clone();
            let mut addr = "127.0.0.1:7878".to_string();
            let mut opts = rtec_service::StreamOptions::default();
            while let Some(flag) = it.next() {
                if flag == "--no-close" {
                    opts.close = false;
                    continue;
                }
                if flag == "--dedup" {
                    opts.dedup = true;
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| CliError::new(format!("{flag}: missing value"), 2))?;
                let bad =
                    |e: &dyn std::fmt::Display| CliError::new(format!("{flag} {value}: {e}"), 2);
                match flag.as_str() {
                    "--addr" => addr = value.clone(),
                    "--session" => opts.session = value.clone(),
                    "--window" => opts.window = Some(value.parse().map_err(|e| bad(&e))?),
                    "--horizon" => opts.horizon = Some(value.parse().map_err(|e| bad(&e))?),
                    "--shards" => opts.shards = value.parse().map_err(|e| bad(&e))?,
                    "--queue" => opts.queue = Some(value.parse().map_err(|e| bad(&e))?),
                    "--batch" => opts.batch_size = value.parse().map_err(|e| bad(&e))?,
                    "--rate" => opts.rate = Some(value.parse().map_err(|e| bad(&e))?),
                    "--tick-every" => {
                        opts.tick_every = Some(value.parse().map_err(|e| bad(&e))?);
                    }
                    "--reorder-slack" => {
                        opts.reorder_slack = Some(value.parse().map_err(|e| bad(&e))?);
                    }
                    other => return Err(CliError::new(format!("unknown flag {other}"), 2)),
                }
            }
            Ok(Command::Stream {
                desc,
                events,
                addr,
                opts,
            })
        }
        Some("dataset") => {
            let csv = it
                .next()
                .ok_or_else(|| CliError::new("dataset: missing csv path", 2))?
                .clone();
            if csv == "synth" {
                let mut tier = None;
                let mut seed = None;
                let mut out = None;
                let mut desc_out = None;
                while let Some(flag) = it.next() {
                    let mut value = |name: &str| {
                        it.next()
                            .cloned()
                            .ok_or_else(|| CliError::new(format!("{name}: missing value"), 2))
                    };
                    match flag.as_str() {
                        "--tier" => tier = Some(value("--tier")?),
                        "--seed" => {
                            let v = value("--seed")?;
                            seed = Some(
                                v.parse()
                                    .map_err(|e| CliError::new(format!("--seed {v}: {e}"), 2))?,
                            );
                        }
                        "--out" => out = Some(value("--out")?),
                        "--desc" => desc_out = Some(value("--desc")?),
                        other => {
                            return Err(CliError::new(
                                format!("dataset synth: unknown flag {other}"),
                                2,
                            ))
                        }
                    }
                }
                return Ok(Command::DatasetSynth {
                    tier,
                    seed,
                    out,
                    desc_out,
                });
            }
            let mut strict = false;
            let mut max_diagnostics = 20usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--strict" => strict = true,
                    "--max-diagnostics" => {
                        let value = it
                            .next()
                            .ok_or_else(|| CliError::new("--max-diagnostics: missing value", 2))?;
                        max_diagnostics = value.parse().map_err(|e| {
                            CliError::new(format!("--max-diagnostics {value}: {e}"), 2)
                        })?;
                    }
                    other => {
                        return Err(CliError::new(format!("dataset: unknown flag {other}"), 2))
                    }
                }
            }
            Ok(Command::Dataset {
                csv,
                strict,
                max_diagnostics,
            })
        }
        Some("similarity") => {
            let a = it
                .next()
                .ok_or_else(|| CliError::new("similarity: missing first path", 2))?
                .clone();
            let b = it
                .next()
                .ok_or_else(|| CliError::new("similarity: missing second path", 2))?
                .clone();
            Ok(Command::Similarity { a, b })
        }
        Some(other) => Err(CliError::new(format!("unknown command '{other}'"), 2)),
    }
}

/// Parses an event file into a stream. Lines: `TIME TERM`, `%` comments.
pub fn parse_event_file(text: &str) -> Result<InputStream, CliError> {
    let mut stream = InputStream::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let (time_str, term_str) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| CliError::new(format!("line {}: expected 'TIME TERM'", i + 1), 3))?;
        let t: Timepoint = time_str
            .trim()
            .parse()
            .map_err(|e| CliError::new(format!("line {}: bad time '{time_str}': {e}", i + 1), 3))?;
        stream
            .push_event_src(term_str.trim().trim_end_matches('.'), t)
            .map_err(|e| CliError::new(format!("line {}: {e}", i + 1), 3))?;
    }
    Ok(stream)
}

/// `check` subcommand over description source text. Returns the report;
/// errors out (exit 1) when validation or semantic analysis fails, or —
/// with `deny_warnings` — when any warning-severity diagnostic fires.
pub fn check_source(src: &str, deny_warnings: bool) -> Result<String, CliError> {
    let front = FrontEnd::lenient(src);
    let lint = rtec_lint::lint(&front);
    let desc = &front.parsed;
    let mut out = String::new();
    let _ = writeln!(out, "clauses: {}", desc.clauses.len());
    for e in &desc.parse_errors {
        let _ = writeln!(out, "syntax error: {e}");
    }
    let compiled = match &front.compiled {
        Ok(compiled) => compiled,
        Err(e) => {
            // Cycles and the like: the analyzer has the same finding with
            // a clause position, so attach its report to the fatal message.
            let mut message = format!("fatal: {e}");
            if lint.has_errors() {
                let _ = write!(message, "\n{}", lint.render());
            }
            return Err(CliError::new(message, 1));
        }
    };
    let _ = writeln!(
        out,
        "rules: {} simple, {} holdsFor; background facts: {}",
        compiled.simple.len(),
        compiled.statics.len(),
        compiled.facts.len()
    );
    for issue in &compiled.report.issues {
        let _ = writeln!(out, "{issue}");
    }
    let decls = Declarations::from_description(compiled);
    if !decls.is_empty() {
        let schema = decls.check(compiled);
        for issue in &schema.issues {
            let _ = writeln!(out, "schema {issue}");
        }
        if schema.issues.is_empty() {
            let _ = writeln!(out, "schema check: ok");
        }
    }
    let strata: Vec<String> = compiled
        .strata
        .iter()
        .map(|(f, a)| format!("{}/{}", compiled.symbols.try_name(*f).unwrap_or("?"), a))
        .collect();
    let _ = writeln!(out, "evaluation order: {}", strata.join(" -> "));
    let semantic: Vec<&rtec_lint::Diagnostic> = lint
        .diagnostics
        .iter()
        .filter(|d| {
            d.code != rtec_lint::codes::SYNTAX_ERROR && d.code != rtec_lint::codes::INVALID_CLAUSE
        })
        .collect();
    if semantic.is_empty() {
        let _ = writeln!(out, "lint: clean");
    } else {
        let _ = writeln!(
            out,
            "lint: {} error(s), {} warning(s)",
            semantic
                .iter()
                .filter(|d| d.severity == rtec::error::Severity::Error)
                .count(),
            semantic
                .iter()
                .filter(|d| d.severity == rtec::error::Severity::Warning)
                .count()
        );
        for d in &semantic {
            let _ = writeln!(out, "{}", d.render());
        }
    }
    if !desc.parse_errors.is_empty() || compiled.report.has_errors() || lint.has_errors() {
        return Err(CliError::new(out, 1));
    }
    if deny_warnings && !lint.diagnostics.is_empty() {
        let _ = writeln!(
            out,
            "deny-warnings: {} warning(s) promoted to failure",
            lint.diagnostics.len()
        );
        return Err(CliError::new(out, 1));
    }
    Ok(out)
}

/// `check --format json` over description source text: one JSON array of
/// lint diagnostics (syntax, validation and semantic findings alike) in
/// the stable shape documented in docs/LINTS.md. The boolean is `false`
/// when any error-severity diagnostic fired (process exit code 1), or —
/// with `deny_warnings` — when any diagnostic fired at all.
pub fn check_source_json(src: &str, deny_warnings: bool) -> (String, bool) {
    let report = rtec_lint::analyze_source(src);
    let json = serde_json::to_string(&report.to_json()).unwrap_or_else(|_| "[]".into());
    let ok = if deny_warnings {
        report.diagnostics.is_empty()
    } else {
        !report.has_errors()
    };
    (json, ok)
}

/// `analyze` subcommand over description source text: compiles the
/// description to its evaluation plan, runs the `rtec-analysis` abstract
/// interpreter, and renders the per-fluent / per-rule facts table
/// (value domains, emptiness proofs, reachability, productivity).
pub fn analyze_source(src: &str) -> Result<String, CliError> {
    let front = FrontEnd::lenient(src);
    if !front.parsed.parse_errors.is_empty() {
        let mut message = String::from("analyze: description does not parse\n");
        for e in &front.parsed.parse_errors {
            let _ = writeln!(message, "syntax error: {e}");
        }
        return Err(CliError::new(message.trim_end().to_string(), 1));
    }
    let compiled = front
        .compiled
        .map_err(|e| CliError::new(format!("fatal: {e}"), 1))?;
    let analysis = rtec_analysis::analyze(&compiled);
    let mut out = analysis.render_table();
    let proofs = analysis.proofs();
    let _ = write!(
        out,
        "\noptimizer proofs: {} unsatisfiable clause(s), {} unreachable clause(s), {} never-holding fluent(s)",
        proofs.unsat_clauses.len(),
        proofs.unreachable_clauses.len(),
        proofs.never_holds.len()
    );
    Ok(out)
}

/// `run` subcommand over in-memory inputs. Returns the rendered output.
/// With `profile`, a per-rule evaluation profile table is appended
/// after the summary; the recognised rows themselves are identical
/// either way.
pub fn run_source(
    desc_src: &str,
    events_src: &str,
    window: Option<Timepoint>,
    horizon: Option<Timepoint>,
    profile: bool,
) -> Result<String, CliError> {
    let compiled = FrontEnd::lenient(desc_src)
        .compiled
        .map_err(|e| CliError::new(format!("fatal: {e}"), 1))?;
    let stream = parse_event_file(events_src)?;
    let horizon = horizon.unwrap_or_else(|| stream.horizon() + 1);
    let config = match window {
        Some(w) => EngineConfig::windowed(w),
        None => EngineConfig::default(),
    };
    let mut engine = Engine::new(&compiled, config);
    if profile {
        engine.enable_profiler();
    }
    stream.load_into(&mut engine);
    engine.run_to(horizon);
    let profile_table = engine
        .profile()
        .map(|agg| agg.render_table(rtec_obs::profile::DEFAULT_TOP_N));
    let symbols = engine.symbols().clone();
    let stats = engine.stats();
    let output = engine.into_output();

    rtec_obs::info(
        "run.summary",
        &[
            ("events", stats.events_processed.into()),
            ("windows", stats.windows.into()),
            ("events_dropped", stats.events_dropped.into()),
            ("fvps", output.len().into()),
            ("warnings", output.warnings.len().into()),
        ],
    );
    let mut rows: Vec<String> = output
        .iter()
        .map(|(fvp, list)| format!("holdsFor({}) = {}", fvp.display(&symbols), list))
        .collect();
    rows.sort();
    let mut out = rows.join("\n");
    let _ = write!(
        out,
        "\n\n{} events in {} window(s); {} fluent-value pair(s) recognised",
        stats.events_processed,
        stats.windows,
        output.len()
    );
    for w in &output.warnings {
        let _ = write!(out, "\nwarning: {w}");
    }
    if let Some(table) = profile_table {
        let _ = write!(out, "\n\n{table}");
    }
    Ok(out)
}

/// `stream` subcommand: replays an event file against a running server.
///
/// Returns the recognised output in the exact shape `run` prints (so the
/// two can be diffed byte for byte); the streaming summary (ticks,
/// backpressure, tick latency) is emitted as a `stream.summary` event on
/// the diagnostic stream.
pub fn stream_against(
    addr: &str,
    desc_src: &str,
    events_src: &str,
    opts: &rtec_service::StreamOptions,
) -> Result<String, CliError> {
    let file = rtec_service::parse_stream_file(events_src).map_err(|e| CliError::new(e, 3))?;
    let mut client = rtec_service::Client::connect(addr).map_err(|e| CliError::new(e, 4))?;
    let report = rtec_service::stream_file(&mut client, desc_src, &file, opts)
        .map_err(|e| CliError::new(e, 4))?;
    let stats = &report.stats;
    let latency = &stats["tick_latency"];
    rtec_obs::info(
        "stream.summary",
        &[
            ("session", opts.session.as_str().into()),
            ("events", report.events.into()),
            ("intervals", report.intervals.into()),
            ("ticks", report.ticks.into()),
            (
                "backpressure_waits",
                stats["backpressure_waits"].as_i64().unwrap_or(0).into(),
            ),
            (
                "late_couplings",
                stats["late_couplings"].as_i64().unwrap_or(0).into(),
            ),
            (
                "tick_latency_mean_us",
                latency["mean_us"].as_i64().unwrap_or(0).into(),
            ),
            (
                "tick_latency_max_us",
                latency["max_us"].as_i64().unwrap_or(0).into(),
            ),
            (
                "tick_latency_count",
                latency["count"].as_i64().unwrap_or(0).into(),
            ),
        ],
    );
    Ok(report.render())
}

/// `dataset` subcommand over AIS CSV text.
///
/// Lossy by default: corrupt rows are skipped and summarised (so one
/// garbled transponder line never sinks an hour-long import); the
/// command fails (exit 3) only when *no* row survives. `--strict`
/// aborts on the first corrupt row instead, as the pre-PR-5 importer
/// did.
pub fn dataset_source(csv: &str, strict: bool, max_diagnostics: usize) -> Result<String, CliError> {
    use maritime::csv::{parse_ais_csv, parse_ais_csv_lossy, RowDiagnostic};
    let (trajectories, mapping, diagnostics): (_, _, Vec<RowDiagnostic>) = if strict {
        let (trajectories, mapping) =
            parse_ais_csv(csv).map_err(|e| CliError::new(e.to_string(), 3))?;
        (trajectories, mapping, Vec::new())
    } else {
        parse_ais_csv_lossy(csv)
    };
    let points: usize = trajectories
        .iter()
        .map(maritime::ais::Trajectory::len)
        .sum();
    rtec_obs::info(
        "dataset.summary",
        &[
            ("vessels", (mapping.len() as i64).into()),
            ("points", (points as i64).into()),
            ("skipped_rows", (diagnostics.len() as i64).into()),
        ],
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "vessels: {}; points: {}; skipped rows: {}",
        mapping.len(),
        points,
        diagnostics.len()
    );
    for (mmsi, id) in &mapping {
        let span = trajectories
            .get(id.0 as usize)
            .and_then(|tr| Some((tr.start()?, tr.end()?, tr.len())));
        match span {
            Some((start, end, n)) => {
                let _ = writeln!(
                    out,
                    "  mmsi {mmsi} -> v{}: {n} point(s), t {start}..{end}",
                    id.0
                );
            }
            None => {
                let _ = writeln!(out, "  mmsi {mmsi} -> v{}: empty", id.0);
            }
        }
    }
    if !diagnostics.is_empty() {
        let shown = diagnostics.len().min(max_diagnostics);
        let _ = writeln!(
            out,
            "skipped rows ({} of {} shown):",
            shown,
            diagnostics.len()
        );
        for d in diagnostics.iter().take(max_diagnostics) {
            let _ = writeln!(out, "  {d}");
        }
        if diagnostics.len() > max_diagnostics {
            let _ = writeln!(
                out,
                "  ... {} more (raise --max-diagnostics)",
                diagnostics.len() - max_diagnostics
            );
        }
    }
    let out = out.trim_end().to_string();
    if points == 0 && !diagnostics.is_empty() {
        // Every row failed: that is an import failure, not a lossy one.
        return Err(CliError::new(
            format!("{out}\nno row survived the import"),
            3,
        ));
    }
    Ok(out)
}

/// The rendered output of `dataset synth`.
pub struct SynthSources {
    /// The event file (one `TIME EVENT_TERM` per line, time-ordered).
    pub events: String,
    /// The gold description over the generated fleet's background.
    pub description: String,
    /// Total events rendered.
    pub total: usize,
    /// Fleet size.
    pub vessels: usize,
    /// Last event time.
    pub horizon: i64,
}

/// `dataset synth`: renders a seeded Brest-scale synthetic stream (see
/// `maritime::synth` and docs/SCALE.md) to the CLI event-file format,
/// plus the gold description the stream runs under. Deterministic per
/// tier and seed.
pub fn dataset_synth_sources(
    tier: Option<&str>,
    seed: Option<u64>,
) -> Result<SynthSources, CliError> {
    use maritime::synth::{ScaleTier, SynthStats};
    let bad_tier = |name: &str| {
        CliError::new(
            format!("dataset synth: unknown tier {name:?} (small|smoke|brest)"),
            2,
        )
    };
    let tier = match tier {
        Some(name) => ScaleTier::parse(name).ok_or_else(|| bad_tier(name))?,
        None => match std::env::var("RTEC_SCALE_TIER") {
            Ok(name) => ScaleTier::parse(&name).ok_or_else(|| bad_tier(&name))?,
            Err(_) => ScaleTier::Small,
        },
    };
    let mut config = tier.config();
    if let Some(seed) = seed {
        config.seed = seed;
    }
    let mut events = String::new();
    let mut stats = SynthStats::default();
    for (ev, t) in config.stream() {
        stats.count(&ev);
        let _ = writeln!(events, "{t} {}", ev.render());
    }
    let description = format!("{}\n{}", maritime::gold::GOLD_RULES, config.background());
    rtec_obs::info(
        "dataset.synth",
        &[
            ("tier", tier.name().into()),
            ("seed", (config.seed as i64).into()),
            ("vessels", (config.vessels as i64).into()),
            ("events", (stats.total as i64).into()),
            ("horizon", config.horizon().into()),
        ],
    );
    Ok(SynthSources {
        events,
        description,
        total: stats.total,
        vessels: config.vessels,
        horizon: config.horizon(),
    })
}

/// `similarity` subcommand over two description sources.
///
/// Following the paper's Definition 4.14, the metric is defined over the
/// *rules defining FVPs*; background facts and declarations are filtered
/// out before comparison (otherwise a missing `areaType/2` fact would be
/// penalised like a missing rule).
pub fn similarity_sources(a_src: &str, b_src: &str) -> String {
    let a = rules_only(EventDescription::parse_lenient(a_src));
    let b = rules_only(EventDescription::parse_lenient(b_src));
    let explanation = simdist::explain(&a, &b);
    explanation.render()
}

/// Keeps only the clauses whose head is `initiatedAt`, `terminatedAt` or
/// `holdsFor`.
fn rules_only(mut desc: EventDescription) -> EventDescription {
    let keep: Vec<rtec::Symbol> = ["initiatedAt", "terminatedAt", "holdsFor"]
        .iter()
        .filter_map(|n| desc.symbols.get(n))
        .collect();
    desc.clauses
        .retain(|c| c.head.functor().is_some_and(|f| keep.contains(&f)));
    desc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn arg_parsing_all_commands() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&s(&["check", "a.rtec"])).unwrap(),
            Command::Check {
                desc: "a.rtec".into(),
                format: CheckFormat::Text,
                deny_warnings: false
            }
        );
        assert_eq!(
            parse_args(&s(&["check", "a.rtec", "--format", "json"])).unwrap(),
            Command::Check {
                desc: "a.rtec".into(),
                format: CheckFormat::Json,
                deny_warnings: false
            }
        );
        assert_eq!(
            parse_args(&s(&[
                "check",
                "a.rtec",
                "--deny-warnings",
                "--format",
                "json"
            ]))
            .unwrap(),
            Command::Check {
                desc: "a.rtec".into(),
                format: CheckFormat::Json,
                deny_warnings: true
            }
        );
        assert!(parse_args(&s(&["check", "a.rtec", "--format", "yaml"])).is_err());
        assert!(parse_args(&s(&["check", "a.rtec", "--nope"])).is_err());
        assert_eq!(
            parse_args(&s(&["analyze", "a.rtec"])).unwrap(),
            Command::Analyze {
                desc: "a.rtec".into()
            }
        );
        assert!(parse_args(&s(&["analyze"])).is_err());
        assert!(parse_args(&s(&["analyze", "a.rtec", "--nope"])).is_err());
        assert_eq!(
            parse_args(&s(&["run", "a.rtec", "e.evt", "--window", "3600"])).unwrap(),
            Command::Run {
                desc: "a.rtec".into(),
                events: "e.evt".into(),
                window: Some(3600),
                horizon: None,
                profile: false
            }
        );
        assert_eq!(
            parse_args(&s(&["run", "a.rtec", "e.evt", "--profile"])).unwrap(),
            Command::Run {
                desc: "a.rtec".into(),
                events: "e.evt".into(),
                window: None,
                horizon: None,
                profile: true
            }
        );
        // The evaluator switch is gone: `--eval` is an unknown flag.
        assert!(parse_args(&s(&["run", "a.rtec", "e.evt", "--eval", "plan"])).is_err());
        assert_eq!(
            parse_args(&s(&["similarity", "a.rtec", "b.rtec"])).unwrap(),
            Command::Similarity {
                a: "a.rtec".into(),
                b: "b.rtec".into()
            }
        );
        assert!(parse_args(&s(&["bogus"])).is_err());
        assert!(parse_args(&s(&["run", "a.rtec"])).is_err());
        assert!(parse_args(&s(&["run", "a", "b", "--window"])).is_err());
    }

    #[test]
    fn arg_parsing_service_commands() {
        assert_eq!(
            parse_args(&s(&["serve", "--addr", "0.0.0.0:9000", "--threads", "8"])).unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                threads: 8,
                stdio: false,
                metrics_addr: None,
                checkpoint_dir: None,
                max_worker_restarts: None,
                journal_dir: None,
                journal_fsync: rtec_service::FsyncPolicy::default()
            }
        );
        assert_eq!(
            parse_args(&s(&["serve", "--stdio"])).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                threads: 4,
                stdio: true,
                metrics_addr: None,
                checkpoint_dir: None,
                max_worker_restarts: None,
                journal_dir: None,
                journal_fsync: rtec_service::FsyncPolicy::default()
            }
        );
        assert_eq!(
            parse_args(&s(&["serve", "--metrics-addr", "127.0.0.1:9100"])).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                threads: 4,
                stdio: false,
                metrics_addr: Some("127.0.0.1:9100".into()),
                checkpoint_dir: None,
                max_worker_restarts: None,
                journal_dir: None,
                journal_fsync: rtec_service::FsyncPolicy::default()
            }
        );
        assert_eq!(
            parse_args(&s(&[
                "serve",
                "--checkpoint-dir",
                "/var/lib/rtec",
                "--max-worker-restarts",
                "5"
            ]))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                threads: 4,
                stdio: false,
                metrics_addr: None,
                checkpoint_dir: Some("/var/lib/rtec".into()),
                max_worker_restarts: Some(5),
                journal_dir: None,
                journal_fsync: rtec_service::FsyncPolicy::default()
            }
        );
        assert_eq!(
            parse_args(&s(&[
                "serve",
                "--journal-dir",
                "/var/lib/rtec/journal",
                "--journal-fsync",
                "interval:50"
            ]))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                threads: 4,
                stdio: false,
                metrics_addr: None,
                checkpoint_dir: None,
                max_worker_restarts: None,
                journal_dir: Some("/var/lib/rtec/journal".into()),
                journal_fsync: rtec_service::FsyncPolicy::Interval { millis: 50 }
            }
        );
        assert!(parse_args(&s(&["serve", "--checkpoint-dir"])).is_err());
        assert!(parse_args(&s(&["serve", "--max-worker-restarts", "nope"])).is_err());
        assert!(parse_args(&s(&["serve", "--journal-fsync", "sometimes"])).is_err());
        assert_eq!(
            parse_args(&s(&[
                "cluster",
                "--backend",
                "127.0.0.1:7001@127.0.0.1:9001",
                "--backend",
                "127.0.0.1:7002",
                "--addr",
                "127.0.0.1:7900",
                "--vnodes",
                "64",
                "--health-interval-ms",
                "250"
            ]))
            .unwrap(),
            Command::Cluster {
                addr: "127.0.0.1:7900".into(),
                backends: vec![
                    "127.0.0.1:7001@127.0.0.1:9001".into(),
                    "127.0.0.1:7002".into()
                ],
                vnodes: 64,
                health_interval_ms: 250
            }
        );
        assert!(parse_args(&s(&["cluster"])).is_err(), "needs a backend");
        assert!(parse_args(&s(&["cluster", "--backend"])).is_err());
        let cmd = parse_args(&s(&[
            "stream",
            "a.rtec",
            "e.evt",
            "--addr",
            "127.0.0.1:1234",
            "--session",
            "vessels",
            "--shards",
            "4",
            "--window",
            "3600",
            "--tick-every",
            "600",
            "--batch",
            "16",
            "--rate",
            "1000",
            "--no-close",
        ]))
        .unwrap();
        match cmd {
            Command::Stream {
                desc,
                events,
                addr,
                opts,
            } => {
                assert_eq!(desc, "a.rtec");
                assert_eq!(events, "e.evt");
                assert_eq!(addr, "127.0.0.1:1234");
                assert_eq!(opts.session, "vessels");
                assert_eq!(opts.shards, 4);
                assert_eq!(opts.window, Some(3600));
                assert_eq!(opts.tick_every, Some(600));
                assert_eq!(opts.batch_size, 16);
                assert_eq!(opts.rate, Some(1000.0));
                assert!(!opts.close);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&s(&["serve", "--threads", "zero"])).is_err());
        assert!(parse_args(&s(&["stream", "a.rtec"])).is_err());
        assert!(parse_args(&s(&["stream", "a", "b", "--shards", "x"])).is_err());
    }

    #[test]
    fn arg_parsing_stream_reorder_flags() {
        let cmd = parse_args(&s(&[
            "stream",
            "a.rtec",
            "e.evt",
            "--reorder-slack",
            "30",
            "--dedup",
        ]))
        .unwrap();
        match cmd {
            Command::Stream { opts, .. } => {
                assert_eq!(opts.reorder_slack, Some(30));
                assert!(opts.dedup);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&s(&["stream", "a", "b", "--reorder-slack", "x"])).is_err());
    }

    #[test]
    fn arg_parsing_dataset() {
        assert_eq!(
            parse_args(&s(&["dataset", "ais.csv"])).unwrap(),
            Command::Dataset {
                csv: "ais.csv".into(),
                strict: false,
                max_diagnostics: 20
            }
        );
        assert_eq!(
            parse_args(&s(&[
                "dataset",
                "ais.csv",
                "--strict",
                "--max-diagnostics",
                "3"
            ]))
            .unwrap(),
            Command::Dataset {
                csv: "ais.csv".into(),
                strict: true,
                max_diagnostics: 3
            }
        );
        assert!(parse_args(&s(&["dataset"])).is_err());
        assert!(parse_args(&s(&["dataset", "a.csv", "--max-diagnostics", "x"])).is_err());
        assert!(parse_args(&s(&["dataset", "a.csv", "--nope"])).is_err());
    }

    #[test]
    fn arg_parsing_dataset_synth() {
        assert_eq!(
            parse_args(&s(&["dataset", "synth"])).unwrap(),
            Command::DatasetSynth {
                tier: None,
                seed: None,
                out: None,
                desc_out: None
            }
        );
        assert_eq!(
            parse_args(&s(&[
                "dataset", "synth", "--tier", "smoke", "--seed", "7", "--out", "e.evt", "--desc",
                "d.rtec"
            ]))
            .unwrap(),
            Command::DatasetSynth {
                tier: Some("smoke".into()),
                seed: Some(7),
                out: Some("e.evt".into()),
                desc_out: Some("d.rtec".into())
            }
        );
        assert!(parse_args(&s(&["dataset", "synth", "--seed", "x"])).is_err());
        assert!(parse_args(&s(&["dataset", "synth", "--tier"])).is_err());
        assert!(parse_args(&s(&["dataset", "synth", "--nope"])).is_err());
    }

    #[test]
    fn dataset_synth_renders_runnable_sources() {
        let synth = dataset_synth_sources(Some("small"), Some(5)).unwrap();
        assert_eq!(synth.events.lines().count(), synth.total);
        assert!(synth.total > 1_000);
        // Deterministic per seed; a different seed diverges.
        assert_eq!(
            dataset_synth_sources(Some("small"), Some(5))
                .unwrap()
                .events,
            synth.events
        );
        assert_ne!(
            dataset_synth_sources(Some("small"), Some(6))
                .unwrap()
                .events,
            synth.events
        );
        assert!(dataset_synth_sources(Some("galactic"), None).is_err());
        // The emitted pair must feed straight into `run`.
        let compiled = EventDescription::parse(&synth.description)
            .unwrap()
            .compile()
            .unwrap();
        assert!(
            !compiled.report.has_errors(),
            "{:?}",
            compiled.report.errors().collect::<Vec<_>>()
        );
        let first = synth.events.lines().next().unwrap();
        let (t, term) = first.split_once(' ').unwrap();
        assert!(t.parse::<i64>().is_ok(), "bad time in {first:?}");
        assert!(term.contains('('), "bad term in {first:?}");
    }

    const AIS: &str = "\
sourcemmsi,speedoverground,courseoverground,trueheading,lon,lat,t
227002330,9.5,91.0,90.0,-4.45,48.35,1443650400
227002330,NaNopes,91.0,90.0,-4.44,48.35,1443650460
227002330,9.7,91.0,90.0,-4.43,48.35,1443650520
";

    #[test]
    fn dataset_lossy_summarises_skipped_rows() {
        let out = dataset_source(AIS, false, 20).unwrap();
        assert!(
            out.contains("vessels: 1; points: 2; skipped rows: 1"),
            "{out}"
        );
        assert!(out.contains("mmsi 227002330 -> v0"), "{out}");
        assert!(out.contains("line 3:"), "{out}");
        // Strict mode aborts on that same row.
        let err = dataset_source(AIS, true, 20).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("line 3"), "{}", err.message);
    }

    #[test]
    fn dataset_caps_diagnostics_but_counts_all() {
        let mut csv = String::from("sourcemmsi,speedoverground,courseoverground,lon,lat,t\n");
        csv.push_str("227002330,9.5,91.0,-4.45,48.35,1443650400\n");
        for _ in 0..5 {
            csv.push_str("bad row\n");
        }
        let out = dataset_source(&csv, false, 2).unwrap();
        assert!(out.contains("skipped rows: 5"), "{out}");
        assert!(out.contains("(2 of 5 shown)"), "{out}");
        assert!(out.contains("... 3 more"), "{out}");
    }

    #[test]
    fn dataset_fails_only_when_no_row_survives() {
        let all_bad = "sourcemmsi,speedoverground,courseoverground,lon,lat,t\nbad\nworse\n";
        let err = dataset_source(all_bad, false, 20).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("no row survived"), "{}", err.message);
        // A single surviving row keeps the exit code at zero.
        let one_good = "sourcemmsi,speedoverground,courseoverground,lon,lat,t\n\
                        227002330,9.5,91.0,-4.45,48.35,1443650400\nbad\n";
        assert!(dataset_source(one_good, false, 20).is_ok());
    }

    #[test]
    fn event_file_parsing() {
        let stream = parse_event_file(
            "% a comment\n\
             10 entersArea(v1, a1)\n\
             \n\
             25 velocity(v1, 9.5, 91.0, 90.0).\n",
        )
        .unwrap();
        assert_eq!(stream.len(), 2);
        assert_eq!(stream.horizon(), 25);
        assert!(parse_event_file("nonsense").is_err());
        assert!(parse_event_file("abc entersArea(v1, a1)").is_err());
    }

    const DESC: &str = "
        inputEvent(entersArea/2).
        inputEvent(leavesArea/2).
        initiatedAt(inside(V, A)=true, T) :- happensAt(entersArea(V, A), T).
        terminatedAt(inside(V, A)=true, T) :- happensAt(leavesArea(V, A), T).
    ";

    #[test]
    fn check_reports_structure_and_schema() {
        let report = check_source(DESC, false).unwrap();
        assert!(report.contains("rules: 2 simple, 0 holdsFor"));
        assert!(report.contains("schema check: ok"));
        assert!(report.contains("evaluation order: inside/2"));
    }

    #[test]
    fn check_fails_on_bad_rules() {
        let err = check_source("initiatedAt(f(V), T) :- happensAt(e(V), T).", false).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("fluent-value pair"));
    }

    #[test]
    fn check_reports_lint_findings() {
        let report = check_source(DESC, false).unwrap();
        assert!(report.contains("lint: clean"), "{report}");
        // An undefined fluent is a lint warning (schema open for fluents
        // is closed here by the declarations, so it is an error).
        let err = check_source(
            "inputEvent(e/1).\n\
             initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsAt(ghost(V)=true, T).",
            false,
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("RL0101"), "{}", err.message);
        // A cyclic description fails with the analyzer's diagnostic
        // attached to the fatal compile error.
        let err = check_source(
            "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T).\n\
             initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).",
            false,
        )
        .unwrap_err();
        assert!(err.message.contains("RL0301"), "{}", err.message);
    }

    #[test]
    fn check_json_emits_stable_array() {
        let (json, ok) = check_source_json(
            "initiatedAt(moving(V)=true, T) :- happensAt(go(V), T), holdsAt(engine(V)=on, T).",
            false,
        );
        assert!(ok, "warnings only: exit 0");
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = parsed.as_array().expect("array");
        assert!(!arr.is_empty());
        for d in arr {
            for key in [
                "code",
                "severity",
                "clause",
                "line",
                "col",
                "message",
                "suggestion",
            ] {
                assert!(d.get(key).is_some(), "missing {key}: {d:?}");
            }
        }
        assert_eq!(arr[0]["code"], "RL0101");
        // Errors flip the exit status.
        let (json, ok) = check_source_json("initiatedAt(broken", false);
        assert!(!ok);
        assert!(json.contains("RL0001"));
        // A clean description is an empty array.
        let (json, ok) = check_source_json(DESC, false);
        assert!(ok);
        assert_eq!(json, "[]");
    }

    #[test]
    fn deny_warnings_promotes_warnings_to_failure() {
        // Warning-only description: undefined fluents under an open
        // schema pass plain `check` but fail `--deny-warnings`.
        let src =
            "initiatedAt(moving(V)=true, T) :- happensAt(go(V), T), holdsAt(engine(V)=on, T).";
        assert!(check_source(src, false).is_ok());
        let err = check_source(src, true).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("deny-warnings"), "{}", err.message);
        let (_, ok) = check_source_json(src, true);
        assert!(!ok, "deny-warnings must flip the JSON exit status too");
        // A clean description stays clean under the gate.
        assert!(check_source(DESC, true).is_ok());
    }

    #[test]
    fn gold_description_is_clean_under_deny_warnings() {
        let src = format!(
            "{}\n{}",
            maritime::gold::GOLD_RULES,
            maritime::gold::input_declarations()
        );
        let report = check_source(&src, true).unwrap();
        assert!(report.contains("lint: clean"), "{report}");
        let (json, ok) = check_source_json(&src, true);
        assert!(ok, "{json}");
    }

    #[test]
    fn analyze_renders_facts_and_proofs() {
        let out = analyze_source(DESC).unwrap();
        assert!(out.contains("schema: closed"), "{out}");
        assert!(out.contains("inside/2"), "{out}");
        assert!(
            out.contains("optimizer proofs: 0 unsatisfiable clause(s)"),
            "{out}"
        );
        // A contradictory rule shows up as EMPTY with an unsat proof.
        let out = analyze_source(
            "inputEvent(e/1).\n\
             initiatedAt(f(V)=true, T) :- happensAt(e(V), T), T >= 50, T < 10.",
        )
        .unwrap();
        assert!(out.contains("EMPTY"), "{out}");
        assert!(
            out.contains("optimizer proofs: 1 unsatisfiable clause(s)"),
            "{out}"
        );
        // Unparseable or cyclic input fails with exit 1.
        assert_eq!(analyze_source("initiatedAt(broken").unwrap_err().code, 1);
        assert_eq!(
            analyze_source(
                "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T).\n\
                 initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).",
            )
            .unwrap_err()
            .code,
            1
        );
    }

    #[test]
    fn run_end_to_end() {
        let events = "10 entersArea(v1, a1)\n30 leavesArea(v1, a1)\n";
        let out = run_source(DESC, events, None, None, false).unwrap();
        assert!(
            out.contains("holdsFor(inside(v1, a1)=true) = [[11, 31)]"),
            "{out}"
        );
        assert!(out.contains("2 events in 1 window(s)"));
        // Windowed run gives the same intervals.
        let windowed = run_source(DESC, events, Some(7), None, false).unwrap();
        assert!(windowed.contains("[[11, 31)]"));
    }

    #[test]
    fn run_profile_appends_a_table_without_changing_rows() {
        let events = "10 entersArea(v1, a1)\n30 leavesArea(v1, a1)\n";
        let plain = run_source(DESC, events, Some(7), None, false).unwrap();
        let profiled = run_source(DESC, events, Some(7), None, true).unwrap();
        // The profiled output is the plain output plus the table.
        assert!(profiled.starts_with(&plain), "rows diverged");
        let table = &profiled[plain.len()..];
        assert!(table.contains("rule"), "no table header: {table}");
        assert!(table.contains("inside/2"), "no attributed rule: {table}");
    }

    #[test]
    fn similarity_ignores_background_facts() {
        let a = "inputEvent(e/1).\nareaType(a1, fishing).\n\
                 initiatedAt(f(V)=true, T) :- happensAt(e(V), T).";
        let b = "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).";
        let report = similarity_sources(a, b);
        assert!(report.contains("similarity: 1.0000"), "{report}");
        assert!(!report.contains("inputEvent"));
    }

    #[test]
    fn similarity_renders_report() {
        let a = "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).";
        let b = "initiatedAt(f(V)=true, T) :- happensAt(renamed(V), T).";
        let report = similarity_sources(a, b);
        assert!(report.contains("similarity:"));
        assert!(report.contains("distance:"));
    }
}
