//! Per-session write-ahead journal: the durability layer between
//! per-tick checkpoints.
//!
//! A checkpoint alone loses everything admitted since the last tick
//! when the process dies. The journal closes that window: every ingest
//! request is appended here **before** the acknowledgement frame goes
//! out, so an acked event is always either inside the newest checkpoint
//! or in the journal tail beyond it. Cold recovery restores the newest
//! valid checkpoint and replays the tail through the ordinary
//! reorder-buffer/engine ingest path — the replayed session is
//! byte-identical to one that never crashed, because ingest is
//! deterministic given the same record order.
//!
//! ## On-disk format
//!
//! One file per session, `<escaped-name>.journal`, holding a sequence
//! of self-delimiting frames:
//!
//! ```text
//! [len: u32 LE] [crc: u64 LE, FNV-1a over payload] [payload: len bytes]
//! ```
//!
//! Each payload is a small JSON object with a `"k"` kind tag (`"o"`
//! open, `"e"` event, `"v"` intervals) and a monotonically increasing
//! sequence number `"s"`. Checkpoints record the highest sequence they
//! cover ([`crate::persist::SessionCheckpoint::journal_seq`]); recovery
//! replays only records beyond it, skipping non-increasing sequence
//! numbers so a duplicated tail (a retried append that landed twice) is
//! harmless. A frame whose length overruns the file or whose checksum
//! fails marks a torn tail: everything from that offset on is
//! truncated, which is exactly the newest consistent prefix.
//!
//! ## Rotation
//!
//! After each durable checkpoint the journal is rewritten keeping only
//! the open record and frames beyond the checkpointed sequence (the
//! rewrite goes through `persist::write_durable`, as checkpoint saves
//! do: temp file, `sync_all`, rename, directory sync). Rotating *after*
//! the checkpoint rename means a crash between the two leaves extra
//! covered frames in the file — recovery skips them by sequence number,
//! so the window is benign.
//!
//! ## Fsync policy
//!
//! `always` syncs on every commit (survives power loss per ack),
//! `interval` syncs at most once per configured period (bounded loss on
//! power failure, none on process death — the bytes are in the page
//! cache once `write(2)` returns), `never` leaves syncing to the OS.
//! Process-level failover (`SIGKILL`, the cluster front-end's domain)
//! is safe under all three policies.

use crate::fault::{self, Faults};
use crate::persist;
use rtec::json::{fnv1a64, push_i64, push_quoted, push_seq, push_u64};
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When journal appends reach the disk, relative to the commit that
/// precedes each acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` on every commit: an acked event survives power loss.
    Always,
    /// `fsync` at most once per this many milliseconds: bounded loss on
    /// power failure, zero loss on process death.
    Interval {
        /// Minimum milliseconds between syncs.
        millis: u64,
    },
    /// Never `fsync` explicitly: the OS flushes on its own schedule.
    /// Still zero-loss under process death.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> FsyncPolicy {
        FsyncPolicy::Interval { millis: 100 }
    }
}

impl FsyncPolicy {
    /// Parses `always`, `never`, `interval`, or `interval:<millis>`.
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::default()),
            _ => {
                let millis = text.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval { millis })
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval { millis } => write!(f, "interval:{millis}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// One journaled ingest operation.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// The original `open` request, kept verbatim so a session that
    /// died before its first checkpoint can still be rebuilt.
    Open {
        /// Sequence number (always the lowest in the file).
        seq: u64,
        /// The full open request object as received on the wire.
        request: Value,
    },
    /// A single event ingest.
    Event {
        /// Sequence number.
        seq: u64,
        /// Event timestamp.
        t: i64,
        /// Event term source, e.g. `up(a)`.
        event: String,
    },
    /// A fluent-interval ingest (batch `intervals` entries).
    Intervals {
        /// Sequence number.
        seq: u64,
        /// Fluent term source.
        fluent: String,
        /// Fluent value.
        value: String,
        /// Closed-open interval pairs.
        pairs: Vec<(i64, i64)>,
    },
}

impl JournalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            JournalRecord::Open { seq, .. }
            | JournalRecord::Event { seq, .. }
            | JournalRecord::Intervals { seq, .. } => *seq,
        }
    }

    /// The record's JSON payload, written directly with keys in
    /// alphabetical order — the bytes the generic `serde_json` renderer
    /// produces for the same object.
    fn to_payload(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            JournalRecord::Open { seq, request } => {
                out.push_str("{\"k\":\"o\",\"req\":");
                out.push_str(&serde_json::to_string(request).unwrap_or_default());
                out.push_str(",\"s\":");
                push_i64(&mut out, *seq as i64);
                out.push('}');
            }
            JournalRecord::Event { seq, t, event } => event_payload_into(*seq, *t, event, &mut out),
            JournalRecord::Intervals {
                seq,
                fluent,
                value,
                pairs,
            } => {
                out.push_str("{\"f\":");
                push_quoted(&mut out, fluent);
                out.push_str(",\"iv\":");
                push_seq(&mut out, pairs, |out, &(a, b)| {
                    out.push('[');
                    push_i64(out, a);
                    out.push(',');
                    push_i64(out, b);
                    out.push(']');
                });
                out.push_str(",\"k\":\"v\",\"s\":");
                push_i64(&mut out, *seq as i64);
                out.push_str(",\"v\":");
                push_quoted(&mut out, value);
                out.push('}');
            }
        }
        out.into_bytes()
    }

    fn from_payload(bytes: &[u8]) -> Result<JournalRecord, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "journal record: not UTF-8")?;
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("journal record: bad JSON: {e}"))?;
        let seq = v
            .get("s")
            .and_then(Value::as_i64)
            .filter(|s| *s >= 0)
            .ok_or("journal record: missing \"s\"")? as u64;
        match v.get("k").and_then(Value::as_str) {
            Some("o") => Ok(JournalRecord::Open {
                seq,
                request: v.get("req").cloned().ok_or("journal open: missing req")?,
            }),
            Some("e") => Ok(JournalRecord::Event {
                seq,
                t: v.get("t")
                    .and_then(Value::as_i64)
                    .ok_or("journal event: missing t")?,
                event: v
                    .get("ev")
                    .and_then(Value::as_str)
                    .ok_or("journal event: missing ev")?
                    .to_string(),
            }),
            Some("v") => {
                let pairs = v
                    .get("iv")
                    .and_then(Value::as_array)
                    .ok_or("journal intervals: missing iv")?
                    .iter()
                    .map(|pair| {
                        let pair = pair
                            .as_array()
                            .filter(|p| p.len() == 2)
                            .ok_or("journal intervals: bad pair")?;
                        let a = pair[0].as_i64().ok_or("journal intervals: bad pair")?;
                        let b = pair[1].as_i64().ok_or("journal intervals: bad pair")?;
                        Ok::<(i64, i64), String>((a, b))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(JournalRecord::Intervals {
                    seq,
                    fluent: v
                        .get("f")
                        .and_then(Value::as_str)
                        .ok_or("journal intervals: missing f")?
                        .to_string(),
                    value: v
                        .get("v")
                        .and_then(Value::as_str)
                        .ok_or("journal intervals: missing v")?
                        .to_string(),
                    pairs,
                })
            }
            _ => Err("journal record: unknown kind".to_string()),
        }
    }
}

/// The event-record payload, written straight into `out`: events are
/// the journal's hot path (one per acked ingest), so the staging buffer
/// is reused and nothing is allocated per record.
fn event_payload_into(seq: u64, t: i64, event: &str, out: &mut String) {
    out.reserve(48 + event.len());
    out.push_str("{\"ev\":");
    push_quoted(out, event);
    out.push_str(",\"k\":\"e\",\"s\":");
    push_u64(out, seq);
    out.push_str(",\"t\":");
    push_i64(out, t);
    out.push('}');
}

fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Frames too large to be a sane record mark corruption rather than a
/// legitimate payload (the service caps wire frames at 1 MiB anyway).
const MAX_RECORD: usize = 4 << 20;

/// Decodes the valid frame prefix of `bytes`: returns the records and
/// the byte offset where the valid prefix ends (the file length when
/// the tail is clean).
fn decode_frames(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= 12 {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let crc = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
        let start = offset + 12;
        if len > MAX_RECORD || start + len > bytes.len() {
            break;
        }
        let payload = &bytes[start..start + len];
        if fnv1a64(payload) != crc {
            break;
        }
        // A frame that checksums but does not parse is treated the same
        // as a torn one: nothing after it can be trusted.
        match JournalRecord::from_payload(payload) {
            Ok(record) => records.push(record),
            Err(_) => break,
        }
        offset = start + len;
    }
    (records, offset)
}

/// The journal file for `session` under `dir`, named with the same
/// escaping scheme as checkpoints.
pub fn journal_path(dir: &Path, session: &str) -> PathBuf {
    dir.join(format!("{}.journal", persist::escape_name(session)))
}

/// Removes the journal for `session`, if present (called on close).
pub fn remove(dir: &Path, session: &str) {
    let _ = std::fs::remove_file(journal_path(dir, session));
}

/// What a cold read of a journal file found.
#[derive(Debug)]
pub struct JournalScan {
    /// Valid records in file order.
    pub records: Vec<JournalRecord>,
    /// Bytes truncated off a torn or corrupt tail (0 for a clean file).
    pub truncated_bytes: u64,
}

/// Reads and validates the journal for `session`, truncating any torn
/// tail in place so subsequent appends extend the consistent prefix.
/// A missing file reads as empty.
pub fn scan(dir: &Path, session: &str) -> Result<JournalScan, String> {
    let path = journal_path(dir, session);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("journal read {}: {e}", path.display())),
    };
    let (records, valid_len) = decode_frames(&bytes);
    let truncated_bytes = (bytes.len() - valid_len) as u64;
    if truncated_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("journal truncate {}: {e}", path.display()))?;
        file.set_len(valid_len as u64)
            .map_err(|e| format!("journal truncate {}: {e}", path.display()))?;
        file.sync_all()
            .map_err(|e| format!("journal truncate sync {}: {e}", path.display()))?;
        crate::obs::metrics().journal_truncations.inc();
        rtec_obs::warn(
            "service.journal_truncated",
            &[
                ("session", session.into()),
                ("bytes", truncated_bytes.into()),
            ],
        );
    }
    Ok(JournalScan {
        records,
        truncated_bytes,
    })
}

/// An open, appendable per-session journal.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    session: String,
    file: File,
    /// Last sequence number assigned (or observed on reopen).
    seq: u64,
    policy: FsyncPolicy,
    last_sync: Instant,
    /// Encoded frames staged by `append_*`, flushed by `commit`. A
    /// batch stages many frames and commits once, so the ack still
    /// covers every record with a single `write(2)`.
    pending: Vec<u8>,
    /// Reusable payload buffer for the per-event encode path.
    scratch: String,
    /// Fault-injection handle for commits and rotations (inert unless
    /// set with [`Journal::with_faults`]).
    faults: Faults,
}

impl Journal {
    /// Creates a fresh journal for `session`, truncating any previous
    /// file (a re-opened session starts from empty state, so its old
    /// journal is dead).
    pub fn create(dir: &Path, session: &str, policy: FsyncPolicy) -> Result<Journal, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("journal dir {}: {e}", dir.display()))?;
        let path = journal_path(dir, session);
        File::create(&path).map_err(|e| format!("journal create {}: {e}", path.display()))?;
        persist::fsync_dir(dir)?;
        Journal::reopen(dir, session, policy, 0)
    }

    /// Reopens an existing journal for appending, continuing its
    /// sequence from the highest valid record (the torn tail, if any,
    /// was truncated by the [`scan`] the caller did first).
    pub fn reopen(
        dir: &Path,
        session: &str,
        policy: FsyncPolicy,
        last_seq: u64,
    ) -> Result<Journal, String> {
        let path = journal_path(dir, session);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("journal open {}: {e}", path.display()))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            session: session.to_string(),
            file,
            seq: last_seq,
            policy,
            last_sync: Instant::now(),
            pending: Vec::new(),
            scratch: String::new(),
            faults: Faults::default(),
        })
    }

    /// Puts the journal's writes under a fault-injection handle.
    pub(crate) fn with_faults(mut self, faults: Faults) -> Journal {
        self.faults = faults;
        self
    }

    /// The highest sequence number assigned so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Stages the session's open request as the journal's first record.
    pub fn append_open(&mut self, request: &Value) -> u64 {
        self.append(|seq| JournalRecord::Open {
            seq,
            request: request.clone(),
        })
    }

    /// Stages one event ingest. Encodes straight into the staging
    /// buffer — no record struct, no `Value` tree — because this runs
    /// once per acked ingest.
    pub fn append_event(&mut self, t: i64, event: &str) -> u64 {
        self.seq += 1;
        self.scratch.clear();
        event_payload_into(self.seq, t, event, &mut self.scratch);
        encode_frame(&mut self.pending, self.scratch.as_bytes());
        self.seq
    }

    /// Stages one fluent-interval ingest.
    pub fn append_intervals(&mut self, fluent: &str, value: &str, pairs: &[(i64, i64)]) -> u64 {
        self.append(|seq| JournalRecord::Intervals {
            seq,
            fluent: fluent.to_string(),
            value: value.to_string(),
            pairs: pairs.to_vec(),
        })
    }

    fn append(&mut self, make: impl FnOnce(u64) -> JournalRecord) -> u64 {
        self.seq += 1;
        let record = make(self.seq);
        encode_frame(&mut self.pending, &record.to_payload());
        self.seq
    }

    /// Writes all staged frames to the OS and applies the fsync policy.
    /// Must succeed before the corresponding acknowledgement is sent;
    /// on failure the staged frames remain pending (the next commit
    /// retries them), and the caller surfaces the error instead of the
    /// ack.
    pub fn commit(&mut self) -> Result<(), String> {
        if self.pending.is_empty() {
            return Ok(());
        }
        match self.faults.on_journal_write() {
            Some(fault::IoFaultKind::Error) => {
                return Err("journal write failed (injected I/O error)".to_string());
            }
            Some(fault::IoFaultKind::Torn { keep_bytes }) => {
                // A torn append: a prefix of the staged frames reaches
                // the file and the commit fails. Recovery truncates the
                // partial frame; the client never saw an ack for it.
                let keep = keep_bytes.min(self.pending.len());
                let _ = self.file.write_all(&self.pending[..keep]);
                self.pending.clear();
                return Err("journal write torn (injected fault)".to_string());
            }
            Some(fault::IoFaultKind::Delayed { millis }) => fault::apply_delay(millis),
            None => {}
        }
        let bytes = self.pending.len() as u64;
        self.file
            .write_all(&self.pending)
            .map_err(|e| format!("journal append {}: {e}", self.path().display()))?;
        self.pending.clear();
        let metrics = crate::obs::metrics();
        metrics.journal_appends.inc();
        metrics.journal_bytes.add(bytes);
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval { millis } => {
                self.last_sync.elapsed() >= std::time::Duration::from_millis(millis)
            }
            FsyncPolicy::Never => false,
        };
        if sync {
            self.file
                .sync_data()
                .map_err(|e| format!("journal sync {}: {e}", self.path().display()))?;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// Rotates the journal after a checkpoint covering `upto_seq`:
    /// rewrites the file keeping only the open record and frames beyond
    /// the checkpoint, durably (temp + sync + rename + dir sync), and
    /// reopens it for appending. Called after the checkpoint rename, so
    /// a crash in between merely leaves covered frames for recovery to
    /// skip by sequence number.
    pub fn rotate(&mut self, upto_seq: u64) -> Result<(), String> {
        if let Some(kind) = self.faults.on_journal_write() {
            match kind {
                fault::IoFaultKind::Error => {
                    return Err("journal rotate failed (injected I/O error)".to_string());
                }
                // A torn rotation is indistinguishable from no rotation:
                // the durable-rename protocol leaves the old file.
                fault::IoFaultKind::Torn { .. } => {
                    return Err("journal rotate torn (injected fault)".to_string());
                }
                fault::IoFaultKind::Delayed { millis } => fault::apply_delay(millis),
            }
        }
        let path = self.path();
        let bytes = std::fs::read(&path).unwrap_or_default();
        let (records, _) = decode_frames(&bytes);
        let mut kept = Vec::new();
        for record in &records {
            let keep = matches!(record, JournalRecord::Open { .. }) || record.seq() > upto_seq;
            if keep {
                encode_frame(&mut kept, &record.to_payload());
            }
        }
        persist::write_durable(&path, &kept)?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("journal reopen {}: {e}", path.display()))?;
        crate::obs::metrics().journal_rotations.inc();
        Ok(())
    }

    fn path(&self) -> PathBuf {
        journal_path(&self.dir, &self.session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtec-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval { millis: 100 })
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Some(FsyncPolicy::Interval { millis: 250 })
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(
            FsyncPolicy::Interval { millis: 250 }.to_string(),
            "interval:250"
        );
    }

    #[test]
    fn append_scan_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut j = Journal::create(&dir, "s/1", FsyncPolicy::Never).unwrap();
        let req: Value = serde_json::from_str(r#"{"cmd":"open","session":"s/1"}"#).unwrap();
        j.append_open(&req);
        j.append_event(5, "up(a)");
        j.append_intervals("near(a,b)", "true", &[(1, 4), (9, 12)]);
        j.commit().unwrap();

        let scan = scan(&dir, "s/1").unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(
            scan.records[0],
            JournalRecord::Open {
                seq: 1,
                request: req
            }
        );
        assert_eq!(
            scan.records[1],
            JournalRecord::Event {
                seq: 2,
                t: 5,
                event: "up(a)".to_string()
            }
        );
        assert_eq!(
            scan.records[2],
            JournalRecord::Intervals {
                seq: 3,
                fluent: "near(a,b)".to_string(),
                value: "true".to_string(),
                pairs: vec![(1, 4), (9, 12)],
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hand_written_event_payload_escapes_and_round_trips() {
        // Malformed ingests are journaled verbatim (dead-letter replay),
        // so the hot-path encoder must survive hostile term sources.
        let nasty = "up(\"a\\b\")\n\t\u{01}end";
        let record = JournalRecord::Event {
            seq: 7,
            t: -3,
            event: nasty.to_string(),
        };
        let decoded = JournalRecord::from_payload(&record.to_payload()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn direct_payloads_match_the_generic_serializer() {
        let nasty = "near(\"a\\b\")\n\u{01}é";
        let obj = |pairs: Vec<(&str, Value)>| {
            let map = pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
            serde_json::to_string(&Value::Object(map)).unwrap()
        };
        let request: Value =
            serde_json::from_str(r#"{"cmd":"open","session":"s","window":10,"x":1.5}"#).unwrap();
        let cases = [
            (
                JournalRecord::Open {
                    seq: 1,
                    request: request.clone(),
                },
                obj(vec![
                    ("k", "o".into()),
                    ("s", 1i64.into()),
                    ("req", request),
                ]),
            ),
            (
                JournalRecord::Event {
                    seq: 2,
                    t: -5,
                    event: nasty.to_string(),
                },
                obj(vec![
                    ("k", "e".into()),
                    ("s", 2i64.into()),
                    ("t", (-5i64).into()),
                    ("ev", nasty.into()),
                ]),
            ),
            (
                JournalRecord::Intervals {
                    seq: 3,
                    fluent: nasty.to_string(),
                    value: "true".to_string(),
                    pairs: vec![(-1, 4), (9, 12)],
                },
                obj(vec![
                    ("k", "v".into()),
                    ("s", 3i64.into()),
                    ("f", nasty.into()),
                    ("v", "true".into()),
                    (
                        "iv",
                        Value::Array(vec![
                            Value::Array(vec![(-1i64).into(), 4i64.into()]),
                            Value::Array(vec![9i64.into(), 12i64.into()]),
                        ]),
                    ),
                ]),
            ),
        ];
        for (record, generic) in cases {
            assert_eq!(String::from_utf8(record.to_payload()).unwrap(), generic);
        }
    }

    #[test]
    fn torn_tail_is_truncated_to_newest_consistent_prefix() {
        let dir = temp_dir("torn");
        let mut j = Journal::create(&dir, "s", FsyncPolicy::Never).unwrap();
        j.append_event(1, "up(a)");
        j.append_event(2, "up(b)");
        j.commit().unwrap();
        let path = journal_path(&dir, "s");
        let full = std::fs::read(&path).unwrap();

        // Cut mid-frame: the second record is torn off.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let s = scan(&dir, "s").unwrap();
        assert_eq!(s.records.len(), 1);
        assert!(s.truncated_bytes > 0);
        // The truncation is physical: a second scan is clean.
        let s = scan(&dir, "s").unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.truncated_bytes, 0);

        // Bit-flip in a payload: the checksum rejects it and everything
        // after the flip point goes with it.
        std::fs::write(&path, &full).unwrap();
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let s = scan(&dir, "s").unwrap();
        assert!(s.records.len() < 2);
        assert!(s.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_sequence_and_rotate_keeps_tail() {
        let dir = temp_dir("rotate");
        let mut j = Journal::create(&dir, "s", FsyncPolicy::Never).unwrap();
        let req: Value = serde_json::from_str(r#"{"cmd":"open","session":"s"}"#).unwrap();
        j.append_open(&req);
        for t in 1..=4 {
            j.append_event(t, "up(a)");
        }
        j.commit().unwrap();

        // Checkpoint covered seq 3: rotation keeps open + seqs 4..5.
        j.rotate(3).unwrap();
        let s = scan(&dir, "s").unwrap();
        let seqs: Vec<u64> = s.records.iter().map(JournalRecord::seq).collect();
        assert_eq!(seqs, vec![1, 4, 5]);

        // Reopen continues where the valid records end.
        let last = s.records.last().unwrap().seq();
        let mut j = Journal::reopen(&dir, "s", FsyncPolicy::Never, last).unwrap();
        j.append_event(9, "down(a)");
        j.commit().unwrap();
        let s = scan(&dir, "s").unwrap();
        let seqs: Vec<u64> = s.records.iter().map(JournalRecord::seq).collect();
        assert_eq!(seqs, vec![1, 4, 5, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
