//! The session registry and command dispatcher.
//!
//! A [`Registry`] is shared by every connection (TCP handlers, the stdio
//! loop, in-process tests); each session sits behind its own mutex so
//! concurrent sessions never serialise on one another — only concurrent
//! commands addressing the *same* session do.
//!
//! Dispatch is hardened: a panic inside any handler is caught and
//! answered with an `internal_panic` error frame (the process and every
//! other session keep running), every error frame carries a
//! machine-readable code, and rejected frames are counted globally
//! (`rtec_service_frames_rejected_total`) and per session. When a
//! checkpoint directory is configured, each successful tick persists the
//! session atomically and the `restore` command rebuilds a session from
//! its last on-disk checkpoint.

use crate::fault::{FaultPlan, Faults};
use crate::journal::{self, FsyncPolicy, Journal, JournalRecord};
use crate::persist::{self, SessionCheckpoint};
use crate::protocol::{
    codes, command, counter, int_field, opt_bool_field, opt_int_field, parse_request, str_field,
    OkFrame, ServiceError,
};
use crate::session::{Ingest, Session, SessionConfig};
use parking_lot::Mutex;
use rtec::reorder::DeadLetterReason;
use rtec_plan::FrontEnd;
use serde_json::Value;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared state of a running service.
#[derive(Default)]
pub struct Registry {
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    shutdown: AtomicBool,
    /// Where to persist session checkpoints; `None` disables persistence.
    checkpoint_dir: Option<PathBuf>,
    /// Default restart budget for new sessions (None = SessionConfig
    /// default).
    max_worker_restarts: Option<usize>,
    /// Where to keep per-session write-ahead journals; `None` disables
    /// journaling.
    journal_dir: Option<PathBuf>,
    /// When journal appends reach the disk.
    journal_fsync: FsyncPolicy,
    /// Open journal handles, one per journaled session. Appends lock
    /// the per-session journal (never the whole map) while the caller
    /// holds that session's lock, so apply order equals journal order.
    journals: Mutex<HashMap<String, Arc<Mutex<Journal>>>>,
    /// Restores currently replaying a journal tail; `/readyz` reports
    /// not-ready until this drains back to zero.
    restores_in_flight: AtomicUsize,
    /// Fault-injection handle passed to every session, journal and
    /// checkpoint write of this registry (inert by default).
    faults: Faults,
}

impl Registry {
    /// An empty registry (no persistence, default restart budget).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry with persistence and supervision options: sessions
    /// checkpoint to `checkpoint_dir` after every tick, and new sessions
    /// default to `max_worker_restarts` worker restarts before
    /// quarantine.
    pub fn with_options(
        checkpoint_dir: Option<PathBuf>,
        max_worker_restarts: Option<usize>,
    ) -> Registry {
        Registry {
            checkpoint_dir,
            max_worker_restarts,
            ..Registry::default()
        }
    }

    /// Enables the per-session write-ahead journal: every ingest is
    /// appended under `dir` before its acknowledgement, and `restore`
    /// replays the journal tail beyond the newest checkpoint.
    pub fn with_journal(mut self, dir: Option<PathBuf>, fsync: FsyncPolicy) -> Registry {
        self.journal_dir = dir;
        self.journal_fsync = fsync;
        self
    }

    /// Runs this registry under a fault plan: every session it opens or
    /// restores, their shard workers, journals and checkpoint writes
    /// fire the plan's faults, and nothing outside the registry does.
    pub fn with_faults(mut self, plan: FaultPlan) -> Registry {
        self.faults = Faults::new(plan);
        self
    }

    /// This registry's fault-injection handle (inert unless built with
    /// [`Registry::with_faults`]).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Whether `shutdown` has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Readiness for traffic: `Err` (with the reason) while shutting
    /// down, while a restore is still replaying its journal tail, or
    /// while any session sits quarantined. Sessions busy on another
    /// connection are making progress and count as ready.
    pub fn readiness(&self) -> Result<(), String> {
        if self.is_shutting_down() {
            return Err("shutting down".to_string());
        }
        if self.restores_in_flight.load(Ordering::SeqCst) > 0 {
            return Err("recovery replay in progress".to_string());
        }
        for (name, slot) in self.sessions.lock().iter() {
            if let Some(session) = slot.try_lock() {
                if let Some(reason) = session.quarantined() {
                    return Err(format!("session \"{name}\" quarantined: {reason}"));
                }
            }
        }
        Ok(())
    }

    /// The open journal handle for `name`, when journaling is enabled
    /// and the session was opened or restored under it.
    fn journal_of(&self, name: &str) -> Option<Arc<Mutex<Journal>>> {
        self.journal_dir.as_ref()?;
        self.journals.lock().get(name).cloned()
    }

    /// Handles one request line; returns the response line. Sets the
    /// shutdown flag (draining all sessions) on `shutdown`. Never
    /// panics: handler panics become `internal_panic` error frames.
    pub fn dispatch(&self, line: &str) -> String {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.try_dispatch(line)));
        let err = match outcome {
            Ok(Ok(response)) => return response,
            Ok(Err(err)) => err,
            Err(_) => {
                rtec_obs::error("service.dispatch_panicked", &[]);
                ServiceError::new(
                    codes::INTERNAL_PANIC,
                    "internal error: request handler panicked",
                )
            }
        };
        crate::obs::metrics().frames_rejected.inc();
        self.note_session_rejection(line);
        err.frame()
    }

    /// Charges a rejected frame to the session it addressed, when that
    /// session exists and is not busy on another connection.
    fn note_session_rejection(&self, line: &str) {
        let Ok(req) = serde_json::from_str::<Value>(line) else {
            return;
        };
        let Some(name) = req.get("session").and_then(Value::as_str) else {
            return;
        };
        let Some(slot) = self.sessions.lock().get(name).cloned() else {
            return;
        };
        if let Some(mut session) = slot.try_lock() {
            session.note_frame_rejected();
        };
    }

    fn try_dispatch(&self, line: &str) -> Result<String, ServiceError> {
        let req = parse_request(line)?;
        match command(&req)? {
            "open" => self.cmd_open(&req),
            "event" => self.cmd_event(&req),
            "batch" => self.cmd_batch(&req),
            "tick" => self.cmd_tick(&req),
            "query" => self.cmd_query(&req),
            "stats" => self.cmd_stats(&req),
            "profile" => self.cmd_profile(&req),
            "deadletter" => self.cmd_deadletter(&req),
            "metrics" => self.cmd_metrics(),
            "restore" => self.cmd_restore(&req),
            "close" => self.cmd_close(&req),
            "shutdown" => self.cmd_shutdown(),
            other => Err(ServiceError::new(
                codes::UNKNOWN_COMMAND,
                format!("unknown command \"{other}\""),
            )),
        }
    }

    fn session(&self, req: &Value) -> Result<Arc<Mutex<Session>>, String> {
        let name = str_field(req, "session")?;
        self.sessions
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no such session \"{name}\""))
    }

    fn cmd_open(&self, req: &Value) -> Result<String, ServiceError> {
        let name = str_field(req, "session")?;
        let description = str_field(req, "description")?;
        let config = self.parse_open_config(req)?;
        let mut sessions = self.sessions.lock();
        if sessions.contains_key(name) {
            return Err(format!("session \"{name}\" already exists").into());
        }
        // One front-end pass: the lint below and the session read the
        // same parse, compiled description and plan.
        let front = FrontEnd::lenient(description);
        // Semantic gate: descriptions that are semantically broken
        // (undefined fluents under declarations, dependency cycles,
        // unsafe variables, …) are rejected up front with the analyzer's
        // findings attached. A syntax error is a plain `bad_request`
        // carrying the first one (what a strict parse reports), and
        // invalid clauses are set aside by compilation.
        let lint = rtec_lint::lint(&front);
        if lint.has_semantic_errors() {
            let summary: Vec<&str> = lint.semantic_errors().map(|d| d.code).collect();
            return Err(ServiceError::new(
                codes::INVALID_DESCRIPTION,
                format!(
                    "description failed semantic analysis ({} error(s): {})",
                    summary.len(),
                    summary.join(", ")
                ),
            )
            .with_details(lint.to_json()));
        }
        if let Some(err) = front.parsed.parse_errors.first() {
            return Err(format!("description: {err}").into());
        }
        let session = Session::open_with_faults(name, front, config, self.faults.clone())?;
        // A fresh session starts a fresh journal whose first record is
        // the open request itself, so a crash before the first
        // checkpoint can still rebuild the session from the journal
        // alone. Journal failure fails the open: the caller asked for
        // durability it would not get.
        if let Some(dir) = &self.journal_dir {
            let result = Journal::create(dir, name, self.journal_fsync).and_then(|j| {
                let mut j = j.with_faults(self.faults.clone());
                j.append_open(req);
                j.commit()?;
                Ok(j)
            });
            match result {
                Ok(j) => {
                    self.journals
                        .lock()
                        .insert(name.to_string(), Arc::new(Mutex::new(j)));
                }
                Err(err) => {
                    let _ = session.close();
                    return Err(err.into());
                }
            }
        }
        sessions.insert(name.to_string(), Arc::new(Mutex::new(session)));
        Ok(OkFrame::new()
            .field("session", name)
            .field("shards", config.shards as i64)
            .render())
    }

    /// Parses the session options of an `open` request — shared by
    /// `open` and by journal-only recovery, which re-parses the
    /// journaled open request verbatim.
    fn parse_open_config(&self, req: &Value) -> Result<SessionConfig, ServiceError> {
        let mut config = SessionConfig {
            window: opt_int_field(req, "window")?,
            slide: opt_int_field(req, "slide")?,
            incremental: opt_bool_field(req, "incremental")?,
            ..SessionConfig::default()
        };
        if config.slide.is_some() && config.window.is_none() {
            return Err("slide requires window".into());
        }
        if config.incremental && config.slide.is_none() {
            return Err("incremental requires slide".into());
        }
        if let Some(max) = self.max_worker_restarts {
            config.max_worker_restarts = max;
        }
        if let Some(shards) = opt_int_field(req, "shards")? {
            config.shards = usize::try_from(shards).map_err(|_| "invalid \"shards\"")?;
        }
        if let Some(queue) = opt_int_field(req, "queue")? {
            let queue = usize::try_from(queue).map_err(|_| "invalid \"queue\"")?;
            if queue == 0 {
                return Err("queue must be >= 1".into());
            }
            config.queue_capacity = queue;
        }
        if let Some(max) = opt_int_field(req, "max_worker_restarts")? {
            config.max_worker_restarts =
                usize::try_from(max).map_err(|_| "invalid \"max_worker_restarts\"")?;
        }
        if let Some(slack) = opt_int_field(req, "reorder_slack")? {
            if slack < 0 {
                return Err("reorder_slack must be >= 0".into());
            }
            config.reorder_slack = Some(slack);
        }
        config.dedup = opt_bool_field(req, "dedup")?;
        if config.dedup && config.reorder_slack.is_none() {
            return Err("dedup requires reorder_slack".into());
        }
        if let Some(budget) = opt_int_field(req, "max_events_per_tick")? {
            let budget = u64::try_from(budget).map_err(|_| "max_events_per_tick must be >= 0")?;
            config.max_events_per_tick = Some(budget);
        }
        if let Some(budget) = opt_int_field(req, "max_buffered_bytes")? {
            let budget = u64::try_from(budget).map_err(|_| "max_buffered_bytes must be >= 0")?;
            config.max_buffered_bytes = Some(budget);
        }
        if let Some(deadline) = opt_int_field(req, "tick_deadline_ms")? {
            let deadline = u64::try_from(deadline).map_err(|_| "tick_deadline_ms must be >= 0")?;
            config.tick_deadline_ms = Some(deadline);
        }
        // Profiling defaults on; `"profile": false` opts a session out.
        if let Some(v) = req.get("profile") {
            config.profile = v.as_bool().ok_or("field \"profile\" must be a boolean")?;
        }
        if let Some(threshold) = opt_int_field(req, "slow_tick_ms")? {
            let threshold = u64::try_from(threshold).map_err(|_| "slow_tick_ms must be >= 0")?;
            config.slow_tick_ms = Some(threshold);
        }
        if config.slow_tick_ms.is_some() && !config.profile {
            return Err("slow_tick_ms requires profile".into());
        }
        Ok(config)
    }

    /// Rebuilds a session from durable state: the newest valid
    /// checkpoint, plus — when journaling is on — the journal tail
    /// beyond it, replayed through the ordinary ingest path. A session
    /// that died before its first checkpoint rebuilds from the
    /// journal's open record alone.
    fn cmd_restore(&self, req: &Value) -> Result<String, ServiceError> {
        let name = str_field(req, "session")?;
        if self.checkpoint_dir.is_none() && self.journal_dir.is_none() {
            return Err(ServiceError::new(
                codes::BAD_REQUEST,
                "no checkpoint directory configured (serve --checkpoint-dir)",
            ));
        }
        let mut sessions = self.sessions.lock();
        if sessions.contains_key(name) {
            return Err(format!("session \"{name}\" already exists").into());
        }
        // `/readyz` reports not-ready while the replay runs.
        self.restores_in_flight.fetch_add(1, Ordering::SeqCst);
        struct InFlight<'a>(&'a AtomicUsize);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let _in_flight = InFlight(&self.restores_in_flight);

        let checkpoint = self
            .checkpoint_dir
            .as_ref()
            .map(|dir| persist::load(dir, name));
        let scan = match &self.journal_dir {
            Some(dir) => Some(journal::scan(dir, name)?),
            None => None,
        };
        let (mut session, start_seq) = match checkpoint {
            Some(Ok(cp)) => (cp.restore_with_faults(self.faults.clone())?, cp.journal_seq),
            other => {
                // No (valid) checkpoint: fall back to the journal's
                // open record, else surface the checkpoint error.
                let checkpoint_err = match other {
                    Some(Err(e)) => e,
                    _ => format!("no checkpoint for session \"{name}\""),
                };
                let open_req = scan.as_ref().and_then(|s| {
                    s.records.iter().find_map(|r| match r {
                        JournalRecord::Open { request, .. } => Some(request.clone()),
                        _ => None,
                    })
                });
                let Some(open_req) = open_req else {
                    return Err(checkpoint_err.into());
                };
                let description = str_field(&open_req, "description")?.to_string();
                let config = self.parse_open_config(&open_req)?;
                let session =
                    Session::open_with_faults(name, &description, config, self.faults.clone())?;
                (session, 0)
            }
        };
        // Replay the tail in file order, skipping records the
        // checkpoint already covers and non-increasing sequence numbers
        // (a duplicated tail appends the same frames twice; the second
        // copy is covered by the first). Individual replay refusals are
        // deterministic re-runs of the original refusals — they rebuild
        // the dead-letter ledger rather than signal failure.
        let mut replayed = 0u64;
        let mut last_seq = start_seq;
        if let Some(scan) = &scan {
            for record in &scan.records {
                if record.seq() <= last_seq {
                    continue;
                }
                last_seq = record.seq();
                let result = match record {
                    JournalRecord::Open { .. } => continue,
                    JournalRecord::Event { t, event, .. } => {
                        session.ingest_event(event, *t).map(|_| ())
                    }
                    JournalRecord::Intervals {
                        fluent,
                        value,
                        pairs,
                        ..
                    } => session.ingest_intervals(fluent, value, pairs).map(|_| ()),
                };
                replayed += 1;
                if let Err(err) = result {
                    rtec_obs::warn(
                        "service.journal_replay_error",
                        &[("session", name.into()), ("error", err.as_str().into())],
                    );
                }
            }
            crate::obs::metrics().journal_replayed.add(replayed);
        }
        // Reopen the journal for appends, continuing past the highest
        // sequence physically in the file (not just the highest
        // replayed) so later appends never reuse a number.
        if let Some(dir) = &self.journal_dir {
            let file_max = scan
                .as_ref()
                .and_then(|s| s.records.iter().map(JournalRecord::seq).max())
                .unwrap_or(0);
            let j = Journal::reopen(dir, name, self.journal_fsync, file_max.max(last_seq))?
                .with_faults(self.faults.clone());
            self.journals
                .lock()
                .insert(name.to_string(), Arc::new(Mutex::new(j)));
        }
        crate::obs::metrics().restores.inc();
        let shards = session.config().shards;
        let processed_to = session.stats().processed_to;
        sessions.insert(name.to_string(), Arc::new(Mutex::new(session)));
        Ok(OkFrame::new()
            .field("session", name)
            .field("shards", shards as i64)
            .field("processed_to", processed_to)
            .field("replayed", counter(replayed as usize))
            .render())
    }

    fn cmd_event(&self, req: &Value) -> Result<String, ServiceError> {
        let session = self.session(req)?;
        let t = int_field(req, "t")?;
        let event = str_field(req, "event")?;
        let journal = self.journal_of(str_field(req, "session")?);
        let mut guard = session.lock();
        let outcome = guard.ingest_event(event, t);
        // Journal under the session lock (journal order = apply order),
        // commit before the ack: a journal failure surfaces instead of
        // the acknowledgement, so every acked event is recoverable.
        // Errored ingests are journaled too — their dead-letter entries
        // (malformed, shed) must survive a replay.
        if let Some(journal) = &journal {
            let mut j = journal.lock();
            j.append_event(t, event);
            j.commit()?;
        }
        drop(guard);
        match outcome? {
            Ingest::Accepted => Ok(OkFrame::new().render()),
            // Refusal is an ok-frame: the request was well-formed and
            // fully handled — the record went to the dead-letter ledger.
            Ingest::Refused(reason) => Ok(OkFrame::new()
                .field("accepted", false)
                .field("reason", reason.as_str())
                .render()),
        }
    }

    fn cmd_batch(&self, req: &Value) -> Result<String, ServiceError> {
        let session = self.session(req)?;
        let journal = self.journal_of(str_field(req, "session")?);
        let mut session = session.lock();
        let mut n_events = 0i64;
        let mut n_refused = 0i64;
        let mut n_intervals = 0i64;
        // Each applied entry is staged in the journal right away (so an
        // error partway through a batch never leaves applied entries
        // unjournaled), but the whole batch commits with one write
        // before the single batch ack.
        if let Some(events) = req.get("events") {
            let events = events
                .as_array()
                .ok_or("field \"events\" must be an array")?;
            for entry in events {
                let t = int_field(entry, "t")?;
                let event = str_field(entry, "event")?;
                let outcome = session.ingest_event(event, t);
                if let Some(journal) = &journal {
                    journal.lock().append_event(t, event);
                }
                match outcome? {
                    Ingest::Accepted => n_events += 1,
                    Ingest::Refused(_) => n_refused += 1,
                }
            }
        }
        if let Some(intervals) = req.get("intervals") {
            let intervals = intervals
                .as_array()
                .ok_or("field \"intervals\" must be an array")?;
            for entry in intervals {
                let fluent = str_field(entry, "fluent")?;
                let value = str_field(entry, "value")?;
                let pairs = parse_interval_pairs(entry.get("intervals"))?;
                let outcome = session.ingest_intervals(fluent, value, &pairs);
                if let Some(journal) = &journal {
                    journal.lock().append_intervals(fluent, value, &pairs);
                }
                outcome?;
                n_intervals += 1;
            }
        }
        if let Some(journal) = &journal {
            journal.lock().commit()?;
        }
        let mut frame = OkFrame::new()
            .field("events", n_events)
            .field("intervals", n_intervals);
        if n_refused > 0 {
            frame = frame.field("refused", n_refused);
        }
        Ok(frame.render())
    }

    fn cmd_tick(&self, req: &Value) -> Result<String, ServiceError> {
        let session = self.session(req)?;
        let to = int_field(req, "to")?;
        let journal = self.journal_of(str_field(req, "session")?);
        let mut guard = session.lock();
        let report = guard.tick(to)?;
        let stats = report.engine;
        // Capture under the session lock (consistent image), write after
        // releasing it (no I/O while holding the session). The journal
        // sequence read under the same lock tells recovery exactly
        // which journaled records the image already covers.
        let mut image = self
            .checkpoint_dir
            .as_ref()
            .and_then(|_| SessionCheckpoint::capture(&guard));
        if let (Some(image), Some(journal)) = (image.as_mut(), &journal) {
            image.journal_seq = journal.lock().seq();
        }
        let name = guard.name().to_string();
        drop(guard);
        let mut checkpointed = None;
        if let Some(dir) = &self.checkpoint_dir {
            checkpointed = Some(false);
            if let Some(image) = image {
                match persist::save_with_faults(dir, &image, &self.faults) {
                    Ok(_) => {
                        checkpointed = Some(true);
                        // Rotate the journal only after the checkpoint
                        // rename: a crash in between leaves covered
                        // frames that recovery skips by sequence.
                        if let Some(journal) = &journal {
                            if let Err(err) = journal.lock().rotate(image.journal_seq) {
                                rtec_obs::warn(
                                    "service.journal_rotate_failed",
                                    &[
                                        ("session", name.as_str().into()),
                                        ("error", err.as_str().into()),
                                    ],
                                );
                            }
                        }
                    }
                    Err(err) => rtec_obs::warn(
                        "service.checkpoint_failed",
                        &[
                            ("session", name.as_str().into()),
                            ("error", err.as_str().into()),
                        ],
                    ),
                }
            }
        }
        let mut frame = OkFrame::new()
            .field("processed_to", to)
            .field("windows", counter(stats.windows))
            .field("events_processed", counter(stats.events_processed))
            .field("events_dropped", counter(stats.events_dropped))
            .field("degraded", report.degraded)
            .field("shed", counter(report.shed));
        if let Some(written) = checkpointed {
            frame = frame.field("checkpointed", written);
        }
        Ok(frame.render())
    }

    /// Handles the `deadletter` command: exact per-reason refusal
    /// counts plus (up to `limit`, default 100) recent records, oldest
    /// first. `"clear": true` drops the retained records afterwards
    /// (counts are monotonic and survive).
    fn cmd_deadletter(&self, req: &Value) -> Result<String, ServiceError> {
        let session = self.session(req)?;
        let limit = match opt_int_field(req, "limit")? {
            None => 100usize,
            Some(n) => usize::try_from(n).map_err(|_| "limit must be >= 0")?,
        };
        let clear = opt_bool_field(req, "clear")?;
        let mut session = session.lock();
        let ledger = session.dead_letters();
        let mut counts = std::collections::BTreeMap::new();
        for reason in DeadLetterReason::ALL {
            counts.insert(reason.as_str().to_string(), counter(ledger.count(reason)));
        }
        let records: Vec<Value> = ledger
            .recent(limit)
            .into_iter()
            .map(|dl| {
                let mut map = std::collections::BTreeMap::new();
                map.insert("reason".to_string(), Value::from(dl.reason.as_str()));
                map.insert(
                    "t".to_string(),
                    match dl.t {
                        Some(t) => Value::from(t),
                        None => Value::Null,
                    },
                );
                map.insert("detail".to_string(), Value::from(dl.detail.as_str()));
                Value::Object(map)
            })
            .collect();
        let frame = OkFrame::new()
            .field("counts", Value::Object(counts.into_iter().collect()))
            .field("total", counter(ledger.total()))
            .field("records", Value::Array(records))
            .field("records_dropped", counter(ledger.records_dropped()));
        if clear {
            session.clear_dead_letter_records();
        }
        Ok(frame.render())
    }

    fn cmd_query(&self, req: &Value) -> Result<String, ServiceError> {
        let session = self.session(req)?;
        let (out, symbols) = session.lock().query()?;
        let mut rows: Vec<(String, String)> = out
            .iter()
            .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
            .collect();
        rows.sort();
        let rows: Vec<Value> = rows
            .into_iter()
            .map(|(fvp, intervals)| {
                let mut map = std::collections::BTreeMap::new();
                map.insert("fvp".to_string(), Value::from(fvp));
                map.insert("intervals".to_string(), Value::from(intervals));
                Value::Object(map)
            })
            .collect();
        let warnings: Vec<Value> = out
            .warnings
            .iter()
            .map(|w| Value::from(w.as_str()))
            .collect();
        crate::obs::metrics().query_rows.add(rows.len() as u64);
        Ok(OkFrame::new()
            .field("rows", Value::Array(rows))
            .field("warnings", Value::Array(warnings))
            .render())
    }

    fn cmd_stats(&self, req: &Value) -> Result<String, ServiceError> {
        let session = self.session(req)?;
        let session = session.lock();
        let stats = session.stats();
        let queue_high_water: Vec<Value> = session
            .queue_high_water()
            .iter()
            .map(|&hw| counter(hw))
            .collect();
        let ledger = session.dead_letters();
        let mut deadletter = std::collections::BTreeMap::new();
        for reason in DeadLetterReason::ALL {
            deadletter.insert(reason.as_str().to_string(), counter(ledger.count(reason)));
        }
        Ok(OkFrame::new()
            .field("evaluator", session.evaluator())
            .field("events_ingested", counter(stats.events_ingested))
            .field("intervals_ingested", counter(stats.intervals_ingested))
            .field("backpressure_waits", counter(stats.backpressure_waits))
            .field("late_couplings", counter(session.late_couplings()))
            .field("buffered", session.buffered() as i64)
            .field("queue_depth", session.queue_depth() as i64)
            .field("queue_high_water", Value::Array(queue_high_water))
            .field("ticks", counter(stats.ticks))
            .field("processed_to", stats.processed_to)
            .field("windows", counter(stats.engine.windows))
            .field("events_processed", counter(stats.engine.events_processed))
            .field("events_dropped", counter(stats.engine.events_dropped))
            .field("forget_drops", counter(stats.engine.events_dropped))
            .field("worker_restarts", counter(stats.worker_restarts))
            .field("frames_rejected", counter(stats.frames_rejected))
            .field("shed", counter(stats.shed))
            .field(
                "deadletter",
                Value::Object(deadletter.into_iter().collect()),
            )
            .field(
                "watermark",
                match session.watermark() {
                    Some(w) => Value::from(w),
                    None => Value::Null,
                },
            )
            .field(
                "watermark_lag",
                match session.watermark_lag() {
                    Some(lag) => Value::from(lag),
                    None => Value::Null,
                },
            )
            .field("reorder_buffered", session.reorder_buffered() as i64)
            .field(
                "quarantined",
                match session.quarantined() {
                    Some(reason) => Value::from(reason),
                    None => Value::Null,
                },
            )
            .field(
                "tick_latency",
                crate::obs::histogram_value(&stats.tick_latency),
            )
            .render())
    }

    /// Handles the `profile` command: the session's merged per-rule
    /// evaluation profile as of its last tick, sorted by self-time
    /// descending. `"top": N` truncates the rule list; `"dumps": true`
    /// attaches the retained flight-recorder dumps (parsed JSON).
    fn cmd_profile(&self, req: &Value) -> Result<String, ServiceError> {
        let session = self.session(req)?;
        let session = session.lock();
        let mut frame = OkFrame::new().field("evaluator", session.evaluator());
        let Some(profile) = session.profile() else {
            return Ok(frame.field("enabled", false).render());
        };
        let top = match opt_int_field(req, "top")? {
            None => usize::MAX,
            Some(n) => usize::try_from(n).map_err(|_| "top must be >= 0")?,
        };
        let total = profile.total();
        let rules: Vec<Value> = profile
            .sorted()
            .into_iter()
            .take(top)
            .map(|e| {
                let mut map = std::collections::BTreeMap::new();
                map.insert("rule".to_string(), Value::from(e.name));
                map.insert("kind".to_string(), Value::from(e.kind.as_str()));
                map.insert("calls".to_string(), counter(e.cost.calls));
                map.insert("self_us".to_string(), counter(e.cost.self_us()));
                map.insert("interval_ops".to_string(), counter(e.cost.interval_ops));
                Value::Object(map.into_iter().collect())
            })
            .collect();
        frame = frame
            .field("enabled", true)
            .field("windows", counter(profile.windows))
            .field("rules", Value::Array(rules))
            .field("total_self_us", counter(total.self_us()))
            .field("total_interval_ops", counter(total.interval_ops));
        if opt_bool_field(req, "dumps")? {
            let dumps: Vec<Value> = session
                .flight_dumps()
                .iter()
                .map(|d| serde_json::from_str(d).unwrap_or_else(|_| Value::from(d.as_str())))
                .collect();
            frame = frame.field("flight_dumps", Value::Array(dumps));
        }
        Ok(frame.render())
    }

    /// Handles the `metrics` command: the full Prometheus exposition as
    /// a JSON-carried string.
    fn cmd_metrics(&self) -> Result<String, ServiceError> {
        Ok(OkFrame::new()
            .field("content_type", rtec_obs::expo::CONTENT_TYPE)
            .field("body", self.render_metrics())
            .render())
    }

    /// Renders the process-global metric registry plus scrape-time
    /// per-session gauges (open-session count, per-shard queue depth and
    /// high-water marks, buffered items) as Prometheus text. Sessions
    /// busy on another connection are skipped for that scrape rather
    /// than blocked on.
    pub fn render_metrics(&self) -> String {
        let mut text = rtec_obs::global().render_prometheus();
        let sessions_open;
        let mut depth: Vec<(String, i64)> = Vec::new();
        let mut high_water: Vec<(String, i64)> = Vec::new();
        let mut buffered: Vec<(String, i64)> = Vec::new();
        let mut watermark_lag: Vec<(String, i64)> = Vec::new();
        let mut reorder_buffered: Vec<(String, i64)> = Vec::new();
        let mut profiles: Vec<(String, rtec_obs::profile::ProfileAggregate)> = Vec::new();
        {
            let sessions = self.sessions.lock();
            sessions_open = sessions.len() as i64;
            for (name, slot) in sessions.iter() {
                let Some(session) = slot.try_lock() else {
                    continue;
                };
                for (shard, d) in session.queue_depths().into_iter().enumerate() {
                    let labels = rtec_obs::registry::render_labels(&[
                        ("session", name),
                        ("shard", &shard.to_string()),
                    ]);
                    depth.push((labels, d as i64));
                }
                for (shard, &hw) in session.queue_high_water().iter().enumerate() {
                    let labels = rtec_obs::registry::render_labels(&[
                        ("session", name),
                        ("shard", &shard.to_string()),
                    ]);
                    high_water.push((labels, i64::try_from(hw).unwrap_or(i64::MAX)));
                }
                let labels = rtec_obs::registry::render_labels(&[("session", name)]);
                buffered.push((labels.clone(), session.buffered() as i64));
                if let Some(lag) = session.watermark_lag() {
                    watermark_lag.push((labels.clone(), lag));
                    reorder_buffered.push((labels, session.reorder_buffered() as i64));
                }
                if let Some(profile) = session.profile() {
                    if !profile.is_empty() {
                        profiles.push((name.clone(), profile.clone()));
                    }
                }
            }
        }
        crate::obs::render_gauge_family(
            &mut text,
            "rtec_service_sessions_open",
            "Currently open recognition sessions.",
            &[(String::new(), sessions_open)],
        );
        crate::obs::render_gauge_family(
            &mut text,
            "rtec_service_queue_depth",
            "Items queued per shard (sampled at scrape).",
            &depth,
        );
        crate::obs::render_gauge_family(
            &mut text,
            "rtec_service_queue_high_water",
            "Per-shard queue-depth high-water mark since session open.",
            &high_water,
        );
        crate::obs::render_gauge_family(
            &mut text,
            "rtec_service_buffered",
            "Items buffered in the router awaiting the next tick.",
            &buffered,
        );
        crate::obs::render_gauge_family(
            &mut text,
            "rtec_service_watermark_lag",
            "Timepoints between the newest seen event and the reorder watermark.",
            &watermark_lag,
        );
        crate::obs::render_gauge_family(
            &mut text,
            "rtec_service_reorder_buffered",
            "Events held in the reorder buffer awaiting the watermark.",
            &reorder_buffered,
        );
        let profile_refs: Vec<(&str, &rtec_obs::profile::ProfileAggregate)> = profiles
            .iter()
            .map(|(name, agg)| (name.as_str(), agg))
            .collect();
        rtec_obs::profile::render_prometheus(
            &mut text,
            &profile_refs,
            rtec_obs::profile::DEFAULT_TOP_N,
        );
        text
    }

    fn cmd_close(&self, req: &Value) -> Result<String, ServiceError> {
        let name = str_field(req, "session")?;
        // `keep_durable` releases the session without deleting its
        // checkpoint and journal — the migration half of a handoff: a
        // `restore` elsewhere rebuilds the exact state from them.
        let keep_durable = opt_bool_field(req, "keep_durable")?;
        let session = self
            .sessions
            .lock()
            .remove(name)
            .ok_or_else(|| format!("no such session \"{name}\""))?;
        let session = Arc::into_inner(session)
            .ok_or("session is busy on another connection; retry close")?
            .into_inner();
        if let Some(journal) = self.journals.lock().remove(name) {
            // Flush any staged frames so a handoff target sees every
            // applied record; moot when the journal is deleted below.
            if keep_durable {
                if let Err(err) = journal.lock().commit() {
                    rtec_obs::warn(
                        "service.journal_flush_failed",
                        &[("session", name.into()), ("error", err.as_str().into())],
                    );
                }
            }
        }
        let stats = session.close()?;
        if !keep_durable {
            if let Some(dir) = &self.checkpoint_dir {
                persist::remove(dir, name);
            }
            if let Some(dir) = &self.journal_dir {
                journal::remove(dir, name);
            }
        }
        Ok(OkFrame::new()
            .field("session", name)
            .field("events_ingested", counter(stats.events_ingested))
            .field("windows", counter(stats.engine.windows))
            .field("events_processed", counter(stats.engine.events_processed))
            .render())
    }

    fn cmd_shutdown(&self) -> Result<String, ServiceError> {
        // Journal handles are dropped but the files stay: shutdown is a
        // graceful drain, and the durable state remains restorable.
        self.journals.lock().clear();
        let sessions: Vec<(String, Arc<Mutex<Session>>)> = self.sessions.lock().drain().collect();
        let closed = sessions.len() as i64;
        for (name, session) in sessions {
            let Some(session) = Arc::into_inner(session) else {
                return Err(format!("session \"{name}\" is busy; retry shutdown").into());
            };
            session.into_inner().close()?;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        rtec_obs::info("service.shutdown", &[("closed_sessions", closed.into())]);
        Ok(OkFrame::new().field("closed_sessions", closed).render())
    }
}

/// Parses `[[start, end], ...]` interval pairs.
fn parse_interval_pairs(value: Option<&Value>) -> Result<Vec<(i64, i64)>, String> {
    let list = value
        .and_then(Value::as_array)
        .ok_or("field \"intervals\" must be an array of [start, end] pairs")?;
    list.iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("each interval must be a [start, end] pair")?;
            let start = pair[0].as_i64().ok_or("interval bounds must be integers")?;
            let end = pair[1].as_i64().ok_or("interval bounds must be integers")?;
            Ok((start, end))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                        terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

    fn open_line(session: &str) -> String {
        let mut map = std::collections::BTreeMap::new();
        map.insert("cmd".to_string(), Value::from("open"));
        map.insert("session".to_string(), Value::from(session));
        map.insert("description".to_string(), Value::from(DESC));
        map.insert("shards".to_string(), Value::from(2i64));
        serde_json::to_string(&Value::Object(map)).unwrap()
    }

    #[test]
    fn full_session_lifecycle_over_dispatch() {
        let reg = Registry::new();
        let v: Value = serde_json::from_str(&reg.dispatch(&open_line("s1"))).unwrap();
        assert_eq!(v["ok"], true, "{v:?}");

        let v: Value = serde_json::from_str(
            &reg.dispatch(r#"{"cmd":"event","session":"s1","t":5,"event":"up(a)"}"#),
        )
        .unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        let v: Value = serde_json::from_str(&reg.dispatch(
            r#"{"cmd":"batch","session":"s1","events":[{"t":9,"event":"down(a)"},{"t":3,"event":"up(b)"}]}"#,
        ))
        .unwrap();
        assert_eq!(v["events"], 2i64, "{v:?}");

        let v: Value =
            serde_json::from_str(&reg.dispatch(r#"{"cmd":"tick","session":"s1","to":20}"#))
                .unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        assert_eq!(v["events_processed"], 3i64);

        let v: Value =
            serde_json::from_str(&reg.dispatch(r#"{"cmd":"query","session":"s1"}"#)).unwrap();
        let rows = v["rows"].as_array().unwrap();
        assert_eq!(rows[0]["fvp"], "on(a)=true");
        assert_eq!(rows[0]["intervals"], "[[6, 10)]");
        assert_eq!(rows[1]["fvp"], "on(b)=true");
        assert_eq!(rows[1]["intervals"], "[[4, 21)]");

        let v: Value =
            serde_json::from_str(&reg.dispatch(r#"{"cmd":"stats","session":"s1"}"#)).unwrap();
        assert_eq!(v["events_ingested"], 3i64);
        assert!(v["windows"].as_i64().unwrap() >= 1);
        assert!(v["tick_latency"]["count"].as_i64().unwrap() >= 1);

        let v: Value =
            serde_json::from_str(&reg.dispatch(r#"{"cmd":"close","session":"s1"}"#)).unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        assert_eq!(reg.session_count(), 0);
    }

    #[test]
    fn errors_are_frames_not_panics() {
        let reg = Registry::new();
        for line in [
            "not json",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"event","session":"nope","t":1,"event":"up(a)"}"#,
            r#"{"cmd":"tick","session":"nope","to":5}"#,
        ] {
            let v: Value = serde_json::from_str(&reg.dispatch(line)).unwrap();
            assert_eq!(v["ok"], false, "{line}");
            assert!(v["error"].as_str().is_some());
            assert!(v["code"].as_str().is_some(), "{line}");
        }
        // Codes are specific, not a catch-all.
        let v: Value = serde_json::from_str(&reg.dispatch("not json")).unwrap();
        assert_eq!(v["code"], "bad_frame");
        let v: Value = serde_json::from_str(&reg.dispatch(r#"{"cmd":"frobnicate"}"#)).unwrap();
        assert_eq!(v["code"], "unknown_command");
        let v: Value =
            serde_json::from_str(&reg.dispatch(r#"{"cmd":"tick","session":"nope","to":5}"#))
                .unwrap();
        assert_eq!(v["code"], "no_such_session");
        // Double open is an error.
        let _ = reg.dispatch(&open_line("dup"));
        let v: Value = serde_json::from_str(&reg.dispatch(&open_line("dup"))).unwrap();
        assert_eq!(v["ok"], false);
    }

    #[test]
    fn shutdown_closes_everything() {
        let reg = Registry::new();
        let _ = reg.dispatch(&open_line("a"));
        let _ = reg.dispatch(&open_line("b"));
        let v: Value = serde_json::from_str(&reg.dispatch(r#"{"cmd":"shutdown"}"#)).unwrap();
        assert_eq!(v["closed_sessions"], 2i64);
        assert!(reg.is_shutting_down());
    }
}
