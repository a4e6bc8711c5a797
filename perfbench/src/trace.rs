//! The traced run: the frames of one pass replayed in-process through
//! the public functions `Registry::dispatch` composes, with a span around
//! every call into a layer. Spans live in memory and are written out at
//! the end; a layer's self time is its spans minus their child spans.
//!
//! The mirror renders every reply the way the registry does, so its
//! replies are compared byte for byte with the untraced run's. Layers
//! the session hides (the reorder buffer, the router) are timed on
//! shadow instances fed the same admitted events, and their counters
//! are cross-checked against the session's own.

use rtec::parallel::{FirstArgPartitioner, Partitioner};
use rtec::reorder::ReorderBuffer;
use rtec::term::GroundFvp;
use rtec::{EventDescription, IntervalList, SymbolTable, Term, Timepoint};
use rtec_service::journal::{self, JournalRecord};
use rtec_service::persist::{self, SessionCheckpoint};
use rtec_service::protocol::{
    codes, command, counter, int_field, opt_bool_field, opt_int_field, parse_request, str_field,
    OkFrame, ServiceError,
};
use rtec_service::router::{PendingItem, Route, Router};
use rtec_service::{FsyncPolicy, Ingest, Journal, Session, SessionConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start and end (ns since the tracer started),
/// the enclosing span, and the frame it served.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub frame: u32,
}

/// Calls and self time of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub self_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    frame: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            frame: 0,
        }
    }
}

/// Runs `$body` inside a span named `$name`.
macro_rules! traced {
    ($tracer:expr, $name:expr, $body:expr) => {{
        let span = $tracer.begin($name);
        let out = $body;
        $tracer.end(span);
        out
    }};
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame: self.frame,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Per name: calls and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            let total = span.end_ns - span.start_ns;
            entry.calls += 1;
            entry.self_ns += total.saturating_sub(children);
        }
        totals
    }

    /// Time covered by layer spans: the direct children of frame spans.
    pub fn attributed_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent != NO_PARENT && self.spans[s.parent as usize].name == "frame")
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `frame id parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "frame\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.frame, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counts the mirror keeps at the layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub frames: u64,
    /// Admitted `ingest_event` calls (replays included).
    pub events: u64,
    pub ticks: u64,
    pub journal_appends: u64,
    pub journal_bytes: u64,
    /// Ticks whose checkpoint reached the disk.
    pub checkpointed: u64,
    pub checkpoint_bytes: u64,
    pub restores: u64,
    pub replayed: u64,
    pub reorder_released: u64,
    pub reorder_deadletters: u64,
    pub router_broadcast: u64,
    pub router_buffered: u64,
    pub router_late_couplings: u64,
    /// The sessions' own counters, read at their final close.
    pub session_late_couplings: u64,
    pub session_deadletters: u64,
}

/// Shadow reorder buffer and router, fed the events a session admits.
struct Shadow {
    symbols: SymbolTable,
    reorder: Option<ReorderBuffer>,
    router: Router,
    processed_to: Timepoint,
}

impl Shadow {
    fn new(config: &SessionConfig) -> Shadow {
        Shadow {
            symbols: SymbolTable::new(),
            reorder: config
                .reorder_slack
                .map(|s| ReorderBuffer::new(s, config.dedup)),
            router: Router::new(config.shards),
            processed_to: -1,
        }
    }

    fn route(
        &mut self,
        tracer: &mut Tracer,
        counts: &mut Counts,
        item: PendingItem,
        entities: Vec<Term>,
    ) {
        match traced!(tracer, "router.route", self.router.route(&entities)) {
            Route::Shard(_) => {}
            Route::Broadcast => counts.router_broadcast += 1,
            Route::Buffered => {
                counts.router_buffered += 1;
                self.router.buffer(item, &entities[0]);
            }
        }
    }

    fn event(&mut self, tracer: &mut Tracer, counts: &mut Counts, src: &str, t: Timepoint) {
        let term = rtec::parser::parse_term(src, &mut self.symbols).expect("admitted events parse");
        let released = match self.reorder.as_mut() {
            Some(buf) if t > self.processed_to => traced!(tracer, "reorder.push", {
                match buf.push(term, t) {
                    Ok(()) => buf.drain_ready(),
                    Err(_) => {
                        counts.reorder_deadletters += 1;
                        Vec::new()
                    }
                }
            }),
            _ => vec![(term, t)],
        };
        if self.reorder.is_some() {
            counts.reorder_released += released.len() as u64;
        }
        for (term, t) in released {
            let entities = FirstArgPartitioner.event_entities(&term);
            self.route(tracer, counts, PendingItem::Event(term, t), entities);
        }
    }

    fn intervals(
        &mut self,
        tracer: &mut Tracer,
        counts: &mut Counts,
        fluent: &str,
        value: &str,
        pairs: &[(i64, i64)],
    ) {
        let fluent =
            rtec::parser::parse_term(fluent, &mut self.symbols).expect("admitted fluents parse");
        let value =
            rtec::parser::parse_term(value, &mut self.symbols).expect("admitted values parse");
        let fvp = GroundFvp::new(fluent, value).expect("admitted intervals are ground");
        let entities = FirstArgPartitioner.fvp_entities(&fvp);
        let item = PendingItem::Intervals(fvp, IntervalList::from_pairs(pairs));
        self.route(tracer, counts, item, entities);
    }

    fn tick(&mut self, tracer: &mut Tracer, counts: &mut Counts, to: Timepoint) {
        if let Some(buf) = self.reorder.as_mut() {
            let released = traced!(tracer, "reorder.drain", buf.drain_to(to));
            counts.reorder_released += released.len() as u64;
            for (term, t) in released {
                let entities = FirstArgPartitioner.event_entities(&term);
                self.route(tracer, counts, PendingItem::Event(term, t), entities);
            }
        }
        traced!(tracer, "router.flush", self.router.flush());
        self.processed_to = self.processed_to.max(to);
    }
}

/// The in-process replica of the registry's command handlers.
pub struct Mirror {
    pub tracer: Tracer,
    pub counts: Counts,
    checkpoint_dir: Option<PathBuf>,
    journal_dir: Option<PathBuf>,
    name: String,
    session: Option<Session>,
    journal: Option<Journal>,
    shadow: Option<Shadow>,
}

fn pairs_of(entry: &Value) -> Vec<(i64, i64)> {
    entry
        .get("intervals")
        .and_then(Value::as_array)
        .expect("interval pairs")
        .iter()
        .map(|p| {
            let p = p.as_array().expect("a [start, end] pair");
            (p[0].as_i64().expect("start"), p[1].as_i64().expect("end"))
        })
        .collect()
}

/// Commits the staged journal frames; the file's growth is the bytes
/// the commit appended.
fn commit(tracer: &mut Tracer, counts: &mut Counts, journal: &mut Journal, path: &Path) {
    let before = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    traced!(tracer, "journal.commit", journal.commit()).expect("journal commit");
    let after = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    if after > before {
        counts.journal_appends += 1;
        counts.journal_bytes += after - before;
    }
}

impl Mirror {
    /// A mirror of a registry with the given durability directories.
    pub fn new(checkpoint_dir: Option<PathBuf>, journal_dir: Option<PathBuf>) -> Mirror {
        Mirror {
            tracer: Tracer::default(),
            counts: Counts::default(),
            checkpoint_dir,
            journal_dir,
            name: String::new(),
            session: None,
            journal: None,
            shadow: None,
        }
    }

    /// Handles one frame; `None` for observability frames (`stats`),
    /// which the mirror does not replay.
    pub fn handle(&mut self, frame: u32, line: &str) -> Option<String> {
        if line.contains("\"cmd\":\"stats\"") {
            return None;
        }
        self.counts.frames += 1;
        self.tracer.frame = frame;
        let span = self.tracer.begin("frame");
        let req =
            traced!(self.tracer, "protocol.decode", parse_request(line)).expect("frames parse");
        let reply = match command(&req).expect("frames carry a command") {
            "open" => self.open(&req),
            "batch" => self.batch(&req),
            "tick" => self.tick(&req),
            "query" => self.query(),
            "close" => self.close(&req),
            "restore" => self.restore(&req),
            other => panic!("the mirror does not replay {other:?}"),
        };
        self.tracer.end(span);
        Some(reply)
    }

    fn journal_path(&self) -> Option<PathBuf> {
        self.journal_dir
            .as_ref()
            .map(|d| journal::journal_path(d, &self.name))
    }

    fn open(&mut self, req: &Value) -> String {
        let name = str_field(req, "session").expect("session").to_string();
        let desc = str_field(req, "description").expect("description");
        let config = SessionConfig {
            window: opt_int_field(req, "window").expect("window"),
            slide: opt_int_field(req, "slide").expect("slide"),
            incremental: opt_bool_field(req, "incremental").expect("incremental"),
            shards: opt_int_field(req, "shards")
                .expect("shards")
                .map_or(2, |s| s as usize),
            reorder_slack: opt_int_field(req, "reorder_slack").expect("reorder_slack"),
            ..SessionConfig::default()
        };
        let t = &mut self.tracer;
        let lint = traced!(t, "lint.analyze", rtec_lint::analyze_source(desc));
        if lint.has_semantic_errors() {
            let codes_found: Vec<&str> = lint.semantic_errors().map(|d| d.code).collect();
            return traced!(
                t,
                "protocol.encode",
                ServiceError::new(
                    codes::INVALID_DESCRIPTION,
                    format!(
                        "description failed semantic analysis ({} error(s): {})",
                        codes_found.len(),
                        codes_found.join(", ")
                    ),
                )
                .with_details(lint.to_json())
                .frame()
            );
        }
        let parsed = traced!(t, "description.parse", EventDescription::parse(desc)).expect("parse");
        let compiled = traced!(t, "description.compile", parsed.compile()).expect("compile");
        std::hint::black_box(traced!(
            t,
            "plan.lower",
            rtec_plan::Plan::compile(&compiled)
        ));
        let session = traced!(
            t,
            "session.open",
            Session::open(name.as_str(), desc, config)
        )
        .expect("open");
        self.name = name.clone();
        if let Some(dir) = self.journal_dir.clone() {
            let mut j = traced!(
                self.tracer,
                "journal.create",
                Journal::create(&dir, &name, FsyncPolicy::Never)
            )
            .expect("journal");
            traced!(self.tracer, "journal.append", j.append_open(req));
            let path = self.journal_path().expect("journaled");
            commit(&mut self.tracer, &mut self.counts, &mut j, &path);
            self.journal = Some(j);
        }
        self.shadow = Some(Shadow::new(&config));
        self.session = Some(session);
        traced!(
            self.tracer,
            "protocol.encode",
            OkFrame::new()
                .field("session", name.as_str())
                .field("shards", config.shards as i64)
                .render()
        )
    }

    fn batch(&mut self, req: &Value) -> String {
        let path = self.journal_path();
        let Mirror {
            tracer: t,
            counts,
            session,
            journal,
            shadow,
            ..
        } = self;
        let session = session.as_mut().expect("an open session");
        let shadow = shadow.as_mut().expect("an open session");
        let (mut n_events, mut n_refused, mut n_intervals) = (0i64, 0i64, 0i64);
        for entry in req
            .get("events")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            let tp = int_field(entry, "t").expect("t");
            let ev = str_field(entry, "event").expect("event");
            let outcome =
                traced!(t, "session.ingest", session.ingest_event(ev, tp)).expect("ingest");
            if let Some(j) = journal.as_mut() {
                traced!(t, "journal.append", j.append_event(tp, ev));
            }
            match outcome {
                Ingest::Accepted => {
                    n_events += 1;
                    counts.events += 1;
                    shadow.event(t, counts, ev, tp);
                }
                Ingest::Refused(_) => n_refused += 1,
            }
        }
        for entry in req
            .get("intervals")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            let fluent = str_field(entry, "fluent").expect("fluent");
            let value = str_field(entry, "value").expect("value");
            let pairs = pairs_of(entry);
            traced!(
                t,
                "session.ingest",
                session.ingest_intervals(fluent, value, &pairs)
            )
            .expect("intervals");
            if let Some(j) = journal.as_mut() {
                traced!(
                    t,
                    "journal.append",
                    j.append_intervals(fluent, value, &pairs)
                );
            }
            shadow.intervals(t, counts, fluent, value, &pairs);
            n_intervals += 1;
        }
        if let (Some(j), Some(path)) = (journal.as_mut(), path) {
            commit(t, counts, j, &path);
        }
        traced!(t, "protocol.encode", {
            let mut frame = OkFrame::new()
                .field("events", n_events)
                .field("intervals", n_intervals);
            if n_refused > 0 {
                frame = frame.field("refused", n_refused);
            }
            frame.render()
        })
    }

    fn tick(&mut self, req: &Value) -> String {
        let to = int_field(req, "to").expect("to");
        let Mirror {
            tracer: t,
            counts,
            session,
            journal,
            shadow,
            checkpoint_dir,
            ..
        } = self;
        let session = session.as_mut().expect("an open session");
        let report = traced!(t, "session.tick", session.tick(to)).expect("tick");
        counts.ticks += 1;
        shadow
            .as_mut()
            .expect("an open session")
            .tick(t, counts, to);
        let mut checkpointed = None;
        if let Some(dir) = checkpoint_dir.as_ref() {
            checkpointed = Some(false);
            let mut image = traced!(t, "persist.capture", SessionCheckpoint::capture(session));
            if let (Some(image), Some(j)) = (image.as_mut(), journal.as_ref()) {
                image.journal_seq = j.seq();
            }
            if let Some(image) = image {
                let doc = traced!(t, "persist.encode", image.to_json());
                counts.checkpoint_bytes += doc.len() as u64;
                if traced!(t, "persist.save", persist::save(dir, &image)).is_ok() {
                    checkpointed = Some(true);
                    counts.checkpointed += 1;
                    if let Some(j) = journal.as_mut() {
                        traced!(t, "journal.rotate", j.rotate(image.journal_seq)).expect("rotate");
                    }
                }
            }
        }
        let stats = report.engine;
        traced!(t, "protocol.encode", {
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
            frame.render()
        })
    }

    fn query(&mut self) -> String {
        let t = &mut self.tracer;
        let session = self.session.as_mut().expect("an open session");
        let (out, symbols) = traced!(t, "session.query", session.query()).expect("query");
        traced!(t, "protocol.encode", {
            let mut rows: Vec<(String, String)> = out
                .iter()
                .map(|(fvp, list)| (fvp.display(&symbols).to_string(), list.to_string()))
                .collect();
            rows.sort();
            let rows: Vec<Value> = rows
                .into_iter()
                .map(|(fvp, intervals)| {
                    let mut map = BTreeMap::new();
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
            OkFrame::new()
                .field("rows", Value::Array(rows))
                .field("warnings", Value::Array(warnings))
                .render()
        })
    }

    fn close(&mut self, req: &Value) -> String {
        let keep_durable = opt_bool_field(req, "keep_durable").expect("keep_durable");
        let path = self.journal_path();
        let session = self.session.take().expect("an open session");
        if let Some(mut j) = self.journal.take() {
            if keep_durable {
                commit(
                    &mut self.tracer,
                    &mut self.counts,
                    &mut j,
                    &path.expect("journaled"),
                );
            }
        }
        if !keep_durable {
            self.counts.session_late_couplings += session.late_couplings();
            self.counts.session_deadletters += session.dead_letters().total();
            let shadow = self.shadow.take().expect("an open session");
            self.counts.router_late_couplings += shadow.router.late_couplings;
        }
        let stats = traced!(self.tracer, "session.close", session.close()).expect("close");
        if !keep_durable {
            if let Some(dir) = &self.checkpoint_dir {
                persist::remove(dir, &self.name);
            }
            if let Some(dir) = &self.journal_dir {
                journal::remove(dir, &self.name);
            }
        }
        traced!(
            self.tracer,
            "protocol.encode",
            OkFrame::new()
                .field("session", self.name.as_str())
                .field("events_ingested", counter(stats.events_ingested))
                .field("windows", counter(stats.engine.windows))
                .field("events_processed", counter(stats.engine.events_processed))
                .render()
        )
    }

    fn restore(&mut self, req: &Value) -> String {
        let name = str_field(req, "session").expect("session").to_string();
        let cdir = self
            .checkpoint_dir
            .clone()
            .expect("restore needs a checkpoint directory");
        let jdir = self
            .journal_dir
            .clone()
            .expect("restore needs a journal directory");
        let t = &mut self.tracer;
        let cp = traced!(t, "persist.load", persist::load(&cdir, &name)).expect("checkpoint");
        let scan = traced!(t, "journal.scan", journal::scan(&jdir, &name)).expect("journal scan");
        let mut session = traced!(t, "persist.restore", cp.restore()).expect("restore");
        let mut last_seq = cp.journal_seq;
        let mut replayed = 0u64;
        let replay = t.begin("journal.replay");
        for record in &scan.records {
            if record.seq() <= last_seq {
                continue;
            }
            last_seq = record.seq();
            match record {
                JournalRecord::Open { .. } => continue,
                JournalRecord::Event { t: tp, event, .. } => {
                    if let Ok(Ingest::Accepted) =
                        traced!(t, "session.ingest", session.ingest_event(event, *tp))
                    {
                        self.counts.events += 1;
                    }
                }
                JournalRecord::Intervals {
                    fluent,
                    value,
                    pairs,
                    ..
                } => {
                    let _ = traced!(
                        t,
                        "session.ingest",
                        session.ingest_intervals(fluent, value, pairs)
                    );
                }
            }
            replayed += 1;
        }
        t.end(replay);
        let file_max = scan
            .records
            .iter()
            .map(JournalRecord::seq)
            .max()
            .unwrap_or(0);
        self.journal = Some(
            traced!(
                t,
                "journal.reopen",
                Journal::reopen(&jdir, &name, FsyncPolicy::Never, file_max.max(last_seq))
            )
            .expect("reopen journal"),
        );
        self.counts.restores += 1;
        self.counts.replayed += replayed;
        let shards = session.config().shards;
        let processed_to = session.stats().processed_to;
        self.session = Some(session);
        traced!(
            t,
            "protocol.encode",
            OkFrame::new()
                .field("session", name.as_str())
                .field("shards", shards as i64)
                .field("processed_to", processed_to)
                .field("replayed", counter(replayed as usize))
                .render()
        )
    }
}
