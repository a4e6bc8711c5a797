//! Durable session checkpoints: one JSON document per session, written
//! atomically at tick boundaries.
//!
//! A [`SessionCheckpoint`] captures everything needed to rebuild a
//! session with identical future behaviour: the description source, the
//! session configuration, the master symbol names in interning order
//! (re-interning them reproduces identical symbol ids, so terms encoded
//! with raw ids decode against the rebuilt table), the router's
//! entity→shard assignment, one [`EngineCheckpoint`] per shard, and the
//! session counters.
//!
//! The on-disk document carries the same envelope as engine checkpoints
//! without `eval_mode` — `{"crc":…,"state":…,"version":1}`, compact,
//! keys in that order ([`rtec::checkpoint::write_envelope`]) — with
//! `crc` over the stored `state` bytes: a torn, truncated or re-formatted
//! document fails on load instead of restoring corrupt state. The state
//! is written in one pass into one buffer (shard states through
//! [`EngineCheckpoint::write_state`]) and read back with a strict
//! [`Cursor`] that still accepts the keys older writers left out
//! (pre-sliding, pre-ingest, pre-journal, pre-eval, pre-profile
//! documents). Writes go to a temp file first and are renamed into
//! place, so the previous checkpoint survives any failure before the
//! rename — including the injected I/O faults from [`crate::fault`].

use crate::fault;
use crate::router::RouterSnapshot;
use crate::session::{Session, SessionConfig, SessionStats};
use rtec::checkpoint::{
    read_engine_stats, read_envelope, read_event, read_term, write_engine_stats, write_envelope,
    write_event, write_term, EngineCheckpoint,
};
use rtec::engine::EvalMode;
use rtec::json::{push_counter, push_i64, push_quoted, push_seq, Cursor};
use rtec::reorder::{DeadLetterReason, ReorderSnapshot};
use std::path::{Path, PathBuf};

/// A persistable image of a whole session at a tick boundary.
#[derive(Clone, Debug)]
pub struct SessionCheckpoint {
    /// Session name.
    pub name: String,
    /// The description source the session was opened with.
    pub description_src: String,
    /// Session configuration.
    pub config: SessionConfig,
    /// Master symbol names in interning order.
    pub master_symbols: Vec<String>,
    /// The router's sharding decisions.
    pub router: RouterSnapshot,
    /// One engine checkpoint per shard, in shard order.
    pub shards: Vec<EngineCheckpoint>,
    /// Session counters (the latency histogram is not persisted).
    pub stats: SessionStats,
    /// Exact dead-letter counts in [`DeadLetterReason::ALL`] order (the
    /// per-record ring is process-local audit state and is not
    /// persisted).
    pub deadletter_counts: [u64; DeadLetterReason::ALL.len()],
    /// Ledger records evicted from the bounded ring before capture.
    pub deadletter_records_dropped: u64,
    /// The reorder buffer's contents and frontier, when the session has
    /// one configured: events admitted but still awaiting the watermark
    /// at the tick boundary must survive a restore.
    pub reorder: Option<ReorderSnapshot>,
    /// The write-ahead journal sequence number this checkpoint covers:
    /// every journaled record with `seq <= journal_seq` is already
    /// folded into the image, so recovery replays only the tail beyond
    /// it. Zero when the session is not journaled (see
    /// [`crate::journal`]).
    pub journal_seq: u64,
}

impl SessionCheckpoint {
    /// Captures a session. Returns `None` before the first tick (no
    /// shard checkpoints yet) or while items are buffered awaiting a
    /// flush — callers checkpoint right after a successful tick, where
    /// both conditions hold.
    pub fn capture(session: &Session) -> Option<SessionCheckpoint> {
        if session.buffered() > 0 {
            return None;
        }
        let shards = session.shard_checkpoints()?;
        Some(SessionCheckpoint {
            name: session.name().to_string(),
            description_src: session.description_src().to_string(),
            config: session.config(),
            master_symbols: session
                .master_symbols()
                .iter()
                .map(|(_, name)| name.to_string())
                .collect(),
            router: session.router_snapshot(),
            shards: shards.into_iter().cloned().collect(),
            stats: session.stats().clone(),
            deadletter_counts: session.dead_letters().counts(),
            deadletter_records_dropped: session.dead_letters().records_dropped(),
            reorder: session.reorder_snapshot(),
            journal_seq: 0,
        })
    }

    /// Rebuilds a live session from this checkpoint.
    pub fn restore(&self) -> Result<Session, String> {
        let mut session = Session::reopen(
            self.name.clone(),
            &self.description_src,
            self.config,
            &self.master_symbols,
            &self.router,
            self.shards.clone(),
            self.stats.clone(),
        )?;
        session.restore_ingest(
            self.deadletter_counts,
            self.deadletter_records_dropped,
            self.reorder.as_ref(),
        );
        Ok(session)
    }

    /// Serializes to the versioned, checksummed document. Deterministic:
    /// the same session state yields byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_envelope(&mut out, None, |out| self.write_state(out));
        out
    }

    /// Parses and verifies a document (layout, version, then checksum).
    pub fn from_json(text: &str) -> Result<SessionCheckpoint, String> {
        let (eval_mode, mut c) = read_envelope(text, "session checkpoint")?;
        if eval_mode.is_some() {
            return Err("session checkpoint: unexpected \"eval_mode\"".to_string());
        }
        let checkpoint = SessionCheckpoint::read_state(&mut c)?;
        c.end()?;
        Ok(checkpoint)
    }

    fn write_state(&self, out: &mut String) {
        let config = &self.config;
        let opt_counter = |out: &mut String, n: Option<u64>| match n {
            Some(n) => push_counter(out, n),
            None => out.push_str("null"),
        };
        let opt_i64 = |out: &mut String, n: Option<i64>| match n {
            Some(n) => push_i64(out, n),
            None => out.push_str("null"),
        };
        let bool = |out: &mut String, b: bool| out.push_str(if b { "true" } else { "false" });
        out.push_str("{\"config\":{\"dedup\":");
        bool(out, config.dedup);
        out.push_str(",\"eval\":");
        push_quoted(out, config.eval.as_str());
        out.push_str(",\"incremental\":");
        bool(out, config.incremental);
        out.push_str(",\"max_buffered_bytes\":");
        opt_counter(out, config.max_buffered_bytes);
        out.push_str(",\"max_events_per_tick\":");
        opt_counter(out, config.max_events_per_tick);
        out.push_str(",\"max_worker_restarts\":");
        push_counter(out, config.max_worker_restarts as u64);
        out.push_str(",\"profile\":");
        bool(out, config.profile);
        out.push_str(",\"queue_capacity\":");
        push_counter(out, config.queue_capacity as u64);
        out.push_str(",\"reorder_slack\":");
        opt_i64(out, config.reorder_slack);
        out.push_str(",\"shards\":");
        push_counter(out, config.shards as u64);
        out.push_str(",\"slide\":");
        opt_i64(out, config.slide);
        out.push_str(",\"slow_tick_ms\":");
        opt_counter(out, config.slow_tick_ms);
        out.push_str(",\"tick_deadline_ms\":");
        opt_counter(out, config.tick_deadline_ms);
        out.push_str(",\"window\":");
        opt_i64(out, config.window);
        out.push_str("},\"description\":");
        push_quoted(out, &self.description_src);
        out.push_str(",\"ingest\":{\"deadletter\":{");
        for (k, (i, reason)) in reasons_by_name().into_iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            push_quoted(out, reason.as_str());
            out.push(':');
            push_counter(out, self.deadletter_counts[i]);
        }
        out.push_str("},\"deadletter_records_dropped\":");
        push_counter(out, self.deadletter_records_dropped);
        out.push_str(",\"reorder\":");
        match &self.reorder {
            None => out.push_str("null"),
            Some(snapshot) => {
                out.push_str("{\"events\":");
                push_seq(out, &snapshot.events, write_event);
                out.push_str(",\"max_seen\":");
                push_i64(out, snapshot.max_seen);
                out.push_str(",\"released_to\":");
                push_i64(out, snapshot.released_to);
                out.push('}');
            }
        }
        out.push_str("},\"journal_seq\":");
        push_counter(out, self.journal_seq);
        out.push_str(",\"master_symbols\":");
        push_seq(out, &self.master_symbols, |out, s| push_quoted(out, s));
        out.push_str(",\"name\":");
        push_quoted(out, &self.name);
        let router = &self.router;
        out.push_str(",\"router\":{\"entities\":");
        push_seq(out, &router.entities, write_term);
        out.push_str(",\"late_couplings\":");
        push_counter(out, router.late_couplings);
        out.push_str(",\"n_shards\":");
        push_counter(out, router.n_shards as u64);
        out.push_str(",\"parent\":");
        push_seq(out, &router.parent, |out, &p| push_counter(out, p as u64));
        out.push_str(",\"pinned\":");
        push_counter(out, router.pinned as u64);
        out.push_str(",\"shard_of_root\":");
        push_seq(out, &router.shard_of_root, |out, &(root, shard)| {
            out.push('[');
            push_counter(out, root as u64);
            out.push(',');
            push_counter(out, shard as u64);
            out.push(']');
        });
        out.push_str("},\"shards\":");
        push_seq(out, &self.shards, |out, shard| shard.write_state(out));
        let stats = &self.stats;
        out.push_str(",\"stats\":{\"backpressure_waits\":");
        push_counter(out, stats.backpressure_waits);
        out.push_str(",\"engine\":");
        write_engine_stats(out, &stats.engine);
        out.push_str(",\"events_ingested\":");
        push_counter(out, stats.events_ingested);
        out.push_str(",\"frames_rejected\":");
        push_counter(out, stats.frames_rejected);
        out.push_str(",\"intervals_ingested\":");
        push_counter(out, stats.intervals_ingested);
        out.push_str(",\"processed_to\":");
        push_i64(out, stats.processed_to);
        out.push_str(",\"queue_high_water\":");
        push_seq(out, &stats.queue_high_water, |out, &n| push_counter(out, n));
        out.push_str(",\"shed\":");
        push_counter(out, stats.shed);
        out.push_str(",\"ticks\":");
        push_counter(out, stats.ticks);
        out.push_str(",\"worker_restarts\":");
        push_counter(out, stats.worker_restarts);
        out.push_str("}}");
    }

    fn read_state(c: &mut Cursor<'_>) -> Result<SessionCheckpoint, String> {
        c.expect("{")?;
        let config = c.field("config", read_config)?;
        let description_src = c.field("description", Cursor::string)?;
        // The whole ingest section is optional (older checkpoints).
        let (deadletter_counts, deadletter_records_dropped, reorder) =
            c.opt_field("ingest", read_ingest)?.unwrap_or_default();
        // Lenient on read: checkpoints written before the journal have
        // no covered sequence, i.e. replay from the start.
        let journal_seq = c.opt_field("journal_seq", Cursor::u64)?.unwrap_or(0);
        let master_symbols = c.field("master_symbols", |c| c.list(Cursor::string))?;
        let name = c.field("name", Cursor::string)?;
        let router = c.field("router", |c| {
            c.expect("{")?;
            let entities = c.field("entities", |c| c.list(read_term))?;
            let late_couplings = c.field("late_couplings", Cursor::u64)?;
            let n_shards = c.field("n_shards", Cursor::usize)?;
            let parent = c.field("parent", |c| c.list(Cursor::usize))?;
            let pinned = c.field("pinned", Cursor::usize)?;
            let shard_of_root = c.field("shard_of_root", |c| {
                c.list(|c| {
                    c.expect("[")?;
                    let root = c.usize()?;
                    c.expect(",")?;
                    let shard = c.usize()?;
                    c.expect("]")?;
                    Ok((root, shard))
                })
            })?;
            c.expect("}")?;
            Ok(RouterSnapshot {
                n_shards,
                entities,
                parent,
                shard_of_root,
                pinned,
                late_couplings,
            })
        })?;
        let shards = c.field("shards", |c| c.list(EngineCheckpoint::read_state))?;
        let stats = c.field("stats", |c| {
            c.expect("{")?;
            let backpressure_waits = c.field("backpressure_waits", Cursor::u64)?;
            let engine = c.field("engine", read_engine_stats)?;
            let events_ingested = c.field("events_ingested", Cursor::u64)?;
            let frames_rejected = c.field("frames_rejected", Cursor::u64)?;
            let intervals_ingested = c.field("intervals_ingested", Cursor::u64)?;
            let processed_to = c.field("processed_to", Cursor::i64)?;
            let queue_high_water = c.field("queue_high_water", |c| c.list(Cursor::u64))?;
            let shed = c.opt_field("shed", Cursor::u64)?.unwrap_or(0);
            let ticks = c.field("ticks", Cursor::u64)?;
            let worker_restarts = c.field("worker_restarts", Cursor::u64)?;
            c.expect("}")?;
            Ok(SessionStats {
                events_ingested,
                intervals_ingested,
                backpressure_waits,
                ticks,
                processed_to,
                tick_latency: Default::default(),
                queue_high_water,
                worker_restarts,
                frames_rejected,
                shed,
                engine,
            })
        })?;
        c.expect("}")?;
        Ok(SessionCheckpoint {
            name,
            description_src,
            config,
            master_symbols,
            router,
            shards,
            stats,
            deadletter_counts,
            deadletter_records_dropped,
            reorder,
            journal_seq,
        })
    }
}

/// Dead-letter reasons with their [`DeadLetterReason::ALL`] index, in
/// the key order of the document's `deadletter` object.
fn reasons_by_name() -> Vec<(usize, DeadLetterReason)> {
    let mut reasons: Vec<_> = DeadLetterReason::ALL.into_iter().enumerate().collect();
    reasons.sort_by_key(|(_, reason)| reason.as_str());
    reasons
}

fn read_config(c: &mut Cursor<'_>) -> Result<SessionConfig, String> {
    c.expect("{")?;
    // Ingest options are lenient on read: checkpoints written before
    // the resilient-ingestion layer simply lack them.
    let dedup = c.opt_field("dedup", Cursor::bool)?.unwrap_or(false);
    // Lenient on read (older checkpoints lack it). Engine state is
    // mode-agnostic, so restoring under a different mode than the one
    // that wrote the checkpoint is sound; the recorded mode wins over
    // the environment when present.
    let eval = match c.opt_field("eval", Cursor::string)? {
        None => SessionConfig::default().eval,
        Some(mode) => EvalMode::parse(&mode).ok_or_else(|| c.err("bad eval mode"))?,
    };
    // Lenient on read: checkpoints written before sliding evaluation
    // lack `incremental` and `slide` (tumbling, full recompute).
    let incremental = c.opt_field("incremental", Cursor::bool)?.unwrap_or(false);
    let max_buffered_bytes = c.opt_field("max_buffered_bytes", Cursor::u64)?;
    let max_events_per_tick = c.opt_field("max_events_per_tick", Cursor::u64)?;
    let max_worker_restarts = c.field("max_worker_restarts", Cursor::usize)?;
    // Lenient on read: checkpoints written before the profiler restore
    // with it on (the default) — profiler state itself is process-local
    // and was never in the checkpoint anyway.
    let profile = c.opt_field("profile", Cursor::bool)?.unwrap_or(true);
    let queue_capacity = c.field("queue_capacity", Cursor::usize)?;
    let reorder_slack = c.opt_field("reorder_slack", Cursor::i64)?;
    let shards = c.field("shards", Cursor::usize)?;
    let slide = c.opt_field("slide", Cursor::i64)?;
    let slow_tick_ms = c.opt_field("slow_tick_ms", Cursor::u64)?;
    let tick_deadline_ms = c.opt_field("tick_deadline_ms", Cursor::u64)?;
    let window = c.opt_field("window", Cursor::i64)?;
    c.expect("}")?;
    Ok(SessionConfig {
        window,
        slide,
        incremental,
        shards,
        queue_capacity,
        max_worker_restarts,
        reorder_slack,
        dedup,
        max_events_per_tick,
        max_buffered_bytes,
        tick_deadline_ms,
        eval,
        profile,
        slow_tick_ms,
    })
}

type IngestSection = (
    [u64; DeadLetterReason::ALL.len()],
    u64,
    Option<ReorderSnapshot>,
);

fn read_ingest(c: &mut Cursor<'_>) -> Result<IngestSection, String> {
    c.expect("{")?;
    let mut counts = [0u64; DeadLetterReason::ALL.len()];
    c.opt_field("deadletter", |c| {
        c.expect("{")?;
        for (i, reason) in reasons_by_name() {
            counts[i] = c.opt_field(reason.as_str(), Cursor::u64)?.unwrap_or(0);
        }
        c.expect("}")
    })?;
    let dropped = c
        .opt_field("deadletter_records_dropped", Cursor::u64)?
        .unwrap_or(0);
    let reorder = c.opt_field("reorder", |c| {
        c.expect("{")?;
        let events = c.field("events", |c| c.list(read_event))?;
        let max_seen = c.field("max_seen", Cursor::i64)?;
        let released_to = c.field("released_to", Cursor::i64)?;
        c.expect("}")?;
        Ok(ReorderSnapshot {
            events,
            max_seen,
            released_to,
        })
    })?;
    c.expect("}")?;
    Ok((counts, dropped, reorder))
}

/// The checkpoint file for `session` under `dir`. Session names are
/// escaped so arbitrary names (slashes, dots, unicode) map to safe,
/// distinct file names.
pub fn checkpoint_path(dir: &Path, session: &str) -> PathBuf {
    dir.join(format!("{}.session.json", escape_name(session)))
}

/// Writes `cp` atomically and durably under `dir` (created if missing):
/// the document goes to a temp file which is synced and renamed into
/// place, then the directory itself is synced — so the previous
/// checkpoint survives any mid-write failure and the rename survives a
/// power cut. Injected I/O faults ([`crate::fault`]) surface here.
pub fn save(dir: &Path, cp: &SessionCheckpoint) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
    let path = checkpoint_path(dir, &cp.name);
    let doc = cp.to_json();
    match fault::on_checkpoint_write() {
        Some(fault::IoFaultKind::Error) => {
            return Err("checkpoint write failed (injected I/O error)".to_string());
        }
        Some(fault::IoFaultKind::Torn { keep_bytes }) => {
            // Simulate a crash mid-write: only a prefix reaches the temp
            // file and the rename never happens. The previous checkpoint
            // file is untouched; the torn temp file fails its checksum.
            let tmp = path.with_extension("json.tmp");
            let keep = keep_bytes.min(doc.len());
            let _ = std::fs::write(&tmp, &doc.as_bytes()[..keep]);
            return Err("checkpoint write torn (injected fault)".to_string());
        }
        Some(fault::IoFaultKind::Delayed { millis }) => fault::apply_delay(millis),
        None => {}
    }
    write_durable(&path, doc.as_bytes())?;
    Ok(path)
}

/// Writes `bytes` to `path` via temp-file + `sync_all` + rename, then
/// syncs the parent directory so the rename itself is durable. Without
/// the two syncs a crash shortly after rename can legitimately surface
/// an empty or stale file on the next boot — the classic
/// "atomic-rename is not durable-rename" trap. Shared by checkpoint
/// saves and journal segment rewrites.
pub(crate) fn write_durable(path: &Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let tmp = path.with_extension(
        path.extension()
            .and_then(|e| e.to_str())
            .map(|e| format!("{e}.tmp"))
            .unwrap_or_else(|| "tmp".to_string()),
    );
    let mut file =
        std::fs::File::create(&tmp).map_err(|e| format!("durable write {}: {e}", tmp.display()))?;
    file.write_all(bytes)
        .map_err(|e| format!("durable write {}: {e}", tmp.display()))?;
    file.sync_all()
        .map_err(|e| format!("durable sync {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("durable rename {}: {e}", path.display()))?;
    if let Some(dir) = path.parent() {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// Syncs a directory so a just-renamed (or just-created) entry inside
/// it survives a crash. Best-effort on platforms where directories
/// cannot be opened for sync.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), String> {
    match std::fs::File::open(dir) {
        Ok(handle) => handle
            .sync_all()
            .map_err(|e| format!("dir sync {}: {e}", dir.display())),
        // Opening a directory read-only can fail on exotic filesystems;
        // the rename itself still happened, so don't fail the write.
        Err(_) => Ok(()),
    }
}

/// Loads and verifies the checkpoint for `session` under `dir`.
pub fn load(dir: &Path, session: &str) -> Result<SessionCheckpoint, String> {
    let path = checkpoint_path(dir, session);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("checkpoint read {}: {e}", path.display()))?;
    SessionCheckpoint::from_json(&text)
}

/// Removes the checkpoint for `session`, if present (called on close).
pub fn remove(dir: &Path, session: &str) {
    let _ = std::fs::remove_file(checkpoint_path(dir, session));
}

/// Session names with a checkpoint under `dir` (empty if the directory
/// does not exist).
pub fn list(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let file = e.file_name().into_string().ok()?;
            let encoded = file.strip_suffix(".session.json")?;
            unescape_name(encoded)
        })
        .collect();
    names.sort();
    names
}

/// Escapes a session name for use as a file-name stem: alphanumerics,
/// `-` and `_` pass through, everything else becomes `%xx` per byte.
pub(crate) fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
        }
    }
    out
}

fn unescape_name(encoded: &str) -> Option<String> {
    let mut bytes = Vec::with_capacity(encoded.len());
    let mut chars = encoded.bytes();
    while let Some(b) = chars.next() {
        if b == b'%' {
            let hi = chars.next()?;
            let lo = chars.next()?;
            let hex = [hi, lo];
            let hex = std::str::from_utf8(&hex).ok()?;
            bytes.push(u8::from_str_radix(hex, 16).ok()?);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESC: &str = "
        initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
        terminatedAt(on(X)=true, T) :- happensAt(down(X), T).
    ";

    fn ticked_session(name: &str) -> Session {
        let mut s = Session::open(
            name,
            DESC,
            SessionConfig {
                window: Some(20),
                shards: 2,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        s.ingest_event("up(a)", 5).unwrap();
        s.ingest_event("up(b)", 7).unwrap();
        s.tick(20).unwrap();
        s
    }

    #[test]
    fn capture_save_load_restore_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "rtec-persist-test-{}-{}",
            std::process::id(),
            "round_trip"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = ticked_session("alpha/β");
        let cp = SessionCheckpoint::capture(&s).expect("capturable after tick");
        let path = save(&dir, &cp).unwrap();
        assert!(path.exists());
        assert_eq!(list(&dir), vec!["alpha/β".to_string()]);

        let loaded = load(&dir, "alpha/β").unwrap();
        let mut t = loaded.restore().unwrap();
        s.ingest_event("down(a)", 25).unwrap();
        t.ingest_event("down(a)", 25).unwrap();
        s.tick(40).unwrap();
        t.tick(40).unwrap();
        let (so, ssym) = s.query().unwrap();
        let (to, tsym) = t.query().unwrap();
        let render = |out: &rtec::engine::RecognitionOutput, sym: &rtec::SymbolTable| {
            let mut rows: Vec<String> = out
                .iter()
                .map(|(f, l)| format!("{}={}", f.display(sym), l))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(render(&so, &ssym), render(&to, &tsym));
        assert!(!render(&so, &ssym).is_empty());

        remove(&dir, "alpha/β");
        assert!(list(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        s.close().unwrap();
        t.close().unwrap();
    }

    #[test]
    fn documents_are_deterministic_and_checksummed() {
        let s = ticked_session("det");
        let cp = SessionCheckpoint::capture(&s).unwrap();
        let a = cp.to_json();
        let b = SessionCheckpoint::capture(&s).unwrap().to_json();
        assert_eq!(a, b, "same state must serialize identically");

        // Truncation (a torn write) must fail the checksum or the parse.
        for cut in [a.len() / 2, a.len() - 2] {
            assert!(SessionCheckpoint::from_json(&a[..cut]).is_err());
        }
        // Bit-flip in the payload must fail the checksum.
        let flipped = a.replace("\"events_ingested\":2", "\"events_ingested\":3");
        if flipped != a {
            assert!(SessionCheckpoint::from_json(&flipped).is_err());
        }
        s.close().unwrap();
    }

    #[test]
    fn name_escaping_round_trips() {
        for name in ["plain", "has space", "a/b", "ünïcode", "%25", "-_A9"] {
            assert_eq!(unescape_name(&escape_name(name)).as_deref(), Some(name));
        }
    }
}
