//! The `rtec` command-line tool; see [`rtec_cli`] for the subcommands.
//!
//! Diagnostics (parse errors, streaming summaries, service lifecycle)
//! are emitted as JSON-line events on stderr via [`rtec_obs`], filtered
//! by the `RTEC_LOG` environment variable; recognised output goes to
//! stdout.

use rtec_cli::{
    check_source, parse_args, run_source, similarity_sources, stream_against, Command, USAGE,
};
use std::io::Write;
use std::process::ExitCode;

/// Runs the NDJSON service until `shutdown` (TCP or stdio transport).
#[allow(clippy::too_many_arguments)]
fn serve(
    addr: &str,
    threads: usize,
    stdio: bool,
    metrics_addr: Option<&str>,
    checkpoint_dir: Option<&str>,
    max_worker_restarts: Option<usize>,
    journal_dir: Option<&str>,
    journal_fsync: rtec_service::FsyncPolicy,
) -> Result<(), rtec_cli::CliError> {
    let fail = |message: String| rtec_cli::CliError { message, code: 4 };
    if stdio {
        let registry = rtec_service::Registry::with_options(
            checkpoint_dir.map(Into::into),
            max_worker_restarts,
        )
        .with_journal(journal_dir.map(Into::into), journal_fsync);
        let stdin = std::io::stdin().lock();
        let stdout = std::io::stdout().lock();
        return rtec_service::serve_stdio(&registry, stdin, stdout).map_err(fail);
    }
    let server = rtec_service::Server::bind(&rtec_service::ServerConfig {
        addr: addr.to_string(),
        threads,
        metrics_addr: metrics_addr.map(str::to_string),
        checkpoint_dir: checkpoint_dir.map(str::to_string),
        max_worker_restarts,
        journal_dir: journal_dir.map(str::to_string),
        journal_fsync,
    })
    .map_err(fail)?;
    server.serve().map_err(fail)
}

/// Runs the cluster front-end until `shutdown`.
fn serve_cluster(
    addr: &str,
    backends: &[String],
    vnodes: usize,
    health_interval_ms: u64,
) -> Result<(), rtec_cli::CliError> {
    let fail = |message: String| rtec_cli::CliError { message, code: 4 };
    let cluster = rtec_cli::cluster::Cluster::new(backends, vnodes).map_err(fail)?;
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| fail(format!("bind {addr}: {e}")))?;
    cluster
        .serve(
            listener,
            std::time::Duration::from_millis(health_interval_ms.max(1)),
        )
        .map_err(fail)
}

/// Prints to stdout, exiting quietly when the consumer closed the pipe
/// (e.g. `rtec-cli similarity a b | head`).
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{text}").is_err() {
        std::process::exit(0);
    }
}

/// Emits a `cli.error` event and returns the process exit code.
fn report_error(e: &rtec_cli::CliError) -> ExitCode {
    rtec_obs::error(
        "cli.error",
        &[
            ("message", e.message.as_str().into()),
            ("code", i64::from(e.code).into()),
        ],
    );
    ExitCode::from(e.code as u8)
}

fn read(path: &str) -> Result<String, rtec_cli::CliError> {
    std::fs::read_to_string(path).map_err(|e| rtec_cli::CliError {
        message: format!("cannot read {path}: {e}"),
        code: 2,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            rtec_obs::error(
                "cli.usage",
                &[
                    ("message", e.message.as_str().into()),
                    ("hint", "run 'rtec-cli help' for usage".into()),
                ],
            );
            return ExitCode::from(e.code as u8);
        }
    };
    let result = match command {
        Command::Help => {
            emit(USAGE);
            return ExitCode::SUCCESS;
        }
        Command::Check {
            desc,
            format,
            deny_warnings,
        } => match format {
            rtec_cli::CheckFormat::Text => {
                read(&desc).and_then(|src| check_source(&src, deny_warnings))
            }
            rtec_cli::CheckFormat::Json => match read(&desc) {
                Ok(src) => {
                    let (json, ok) = rtec_cli::check_source_json(&src, deny_warnings);
                    emit(&json);
                    return if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    };
                }
                Err(e) => Err(e),
            },
        },
        Command::Analyze { desc } => read(&desc).and_then(|src| rtec_cli::analyze_source(&src)),
        Command::Run {
            desc,
            events,
            window,
            horizon,
            profile,
        } => read(&desc)
            .and_then(|d| read(&events).and_then(|e| run_source(&d, &e, window, horizon, profile))),
        Command::Similarity { a, b } => {
            read(&a).and_then(|sa| read(&b).map(|sb| similarity_sources(&sa, &sb)))
        }
        Command::Serve {
            addr,
            threads,
            stdio,
            metrics_addr,
            checkpoint_dir,
            max_worker_restarts,
            journal_dir,
            journal_fsync,
        } => {
            return match serve(
                &addr,
                threads,
                stdio,
                metrics_addr.as_deref(),
                checkpoint_dir.as_deref(),
                max_worker_restarts,
                journal_dir.as_deref(),
                journal_fsync,
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => report_error(&e),
            };
        }
        Command::Cluster {
            addr,
            backends,
            vnodes,
            health_interval_ms,
        } => {
            return match serve_cluster(&addr, &backends, vnodes, health_interval_ms) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => report_error(&e),
            };
        }
        Command::Stream {
            desc,
            events,
            addr,
            opts,
        } => read(&desc)
            .and_then(|d| read(&events).and_then(|e| stream_against(&addr, &d, &e, &opts))),
        Command::Dataset {
            csv,
            strict,
            max_diagnostics,
        } => read(&csv).and_then(|c| rtec_cli::dataset_source(&c, strict, max_diagnostics)),
        Command::DatasetSynth {
            tier,
            seed,
            out,
            desc_out,
        } => {
            let write = |path: &str, text: &str| {
                std::fs::write(path, text).map_err(|e| rtec_cli::CliError {
                    message: format!("cannot write {path}: {e}"),
                    code: 2,
                })
            };
            rtec_cli::dataset_synth_sources(tier.as_deref(), seed).and_then(|s| {
                if let Some(path) = &desc_out {
                    write(path, &s.description)?;
                }
                match &out {
                    Some(path) => {
                        write(path, &s.events)?;
                        Ok(format!(
                            "wrote {} events from {} vessels (horizon {}) to {path}",
                            s.total, s.vessels, s.horizon
                        ))
                    }
                    // Piped use: the event file itself is the output.
                    None => Ok(s.events),
                }
            })
        }
    };
    match result {
        Ok(out) => {
            emit(&out);
            ExitCode::SUCCESS
        }
        Err(e) => report_error(&e),
    }
}
