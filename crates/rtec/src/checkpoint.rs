//! Engine state snapshots: serialize the retained window state of an
//! [`Engine`](crate::engine::Engine) so a supervisor can respawn a
//! crashed worker and resume recognition from the last window boundary
//! with byte-identical output.
//!
//! # What is captured
//!
//! Everything `run_to` depends on between windows: the engine-local
//! symbol table (description symbols plus translated stream constants,
//! in interning order, so re-interning reproduces identical ids), the
//! pending event queue, the input-fluent interval lists, the simple-
//! fluent inertia carry, the processed frontier, the accumulated
//! recognition output, the deduplicated warning log, and the run-time
//! counters. The per-window [`FluentCache`](crate::eval::cache) is
//! rebuilt from scratch every chunk, so it never needs snapshotting.
//!
//! # Wire format
//!
//! A checkpoint renders to one compact JSON document, keys in this
//! order and nothing else:
//!
//! ```json
//! {"crc":"<16 hex digits>","eval_mode":"plan","state":{...},"version":1}
//! ```
//!
//! `crc` is the FNV-1a 64 hash of the `state` bytes exactly as stored,
//! so torn or truncated writes are detected on
//! [`EngineCheckpoint::from_json`] rather than silently restoring
//! garbage, and a document that was re-formatted (whitespace, reordered
//! keys) is refused. `eval_mode` is informational and only engine
//! documents carry it; the service's session documents use the same
//! envelope without it ([`write_envelope`], [`read_envelope`]).
//! Map-shaped state (inputs, inertia, output, the sliding snapshots)
//! is sorted by the bytes of each encoded entry, so the same engine
//! state always produces byte-identical documents.
//!
//! Both directions run in one pass over one buffer with the
//! [`crate::json`] primitives: the writer sorts byte ranges of entries
//! it has already rendered and hashes `state` in place; the reader
//! checks the envelope, hashes the stored bytes, and decodes with a
//! [`Cursor`] over the writer's grammar. Reading stays lenient about
//! keys older writers left out (`sliding` here; several session keys in
//! the service) and strict about everything else.
//!
//! Terms are encoded structurally with **raw symbol ids** — not names —
//! because a sharded service hands workers terms interned in the
//! session's *master* table, whose ids exceed the worker engine's local
//! table. Ids are only meaningful together with the symbol-name list in
//! the same checkpoint (or, for the service, the session's master-table
//! snapshot), which travels alongside.

use crate::engine::EngineStats;
use crate::eval::simple::InertiaState;
use crate::interval::{Interval, IntervalList, Timepoint};
use crate::json::{
    fnv1a64, push_counter, push_hex16, push_i64, push_quoted, push_seq, push_u64, Cursor,
};
use crate::symbol::Symbol;
use crate::term::{GroundFvp, Term};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: i64 = 1;

/// Evaluator labels a checkpoint envelope may carry: `plan`, which every
/// writer now writes, and `interpreter` and `optimized` from writers
/// that still had the AST interpreter or the plan optimizer. All
/// restore alike — engine state never depended on the evaluator — and
/// any other label is refused.
pub const EVALUATOR_LABELS: [&str; 3] = ["interpreter", "plan", "optimized"];

/// Encoded inertia state: ground fluent term paired with its open
/// `(value, start)` entries.
pub(crate) type InertiaEntries = Vec<(Term, Vec<(Term, Timepoint)>)>;

/// The sliding-window overlap of an engine: inertia snapshots at past
/// query times plus the retained events of the current window. Absent
/// for tumbling engines, so their checkpoint bytes are unchanged from
/// earlier versions.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlidingSection {
    /// `(query time, inertia as of that time)`, ascending.
    pub(crate) snapshots: Vec<(Timepoint, InertiaEntries)>,
    /// Evaluated events still inside the overlap, time-sorted.
    pub(crate) retained: Vec<(Term, Timepoint)>,
}

/// A serializable snapshot of an engine's retained window state.
///
/// Produced by [`Engine::checkpoint`](crate::engine::Engine::checkpoint),
/// consumed by [`Engine::restore`](crate::engine::Engine::restore).
#[derive(Clone, Debug)]
pub struct EngineCheckpoint {
    /// Engine-local symbol names in interning order.
    pub(crate) symbols: Vec<String>,
    /// Queued, not-yet-evaluated events.
    pub(crate) pending: Vec<(Term, Timepoint)>,
    /// Input-fluent interval lists.
    pub(crate) inputs: Vec<(GroundFvp, IntervalList)>,
    /// Simple-fluent inertia carry (open value + start per fluent).
    pub(crate) inertia: Vec<(Term, Vec<(Term, Timepoint)>)>,
    /// The processed frontier.
    pub(crate) processed_to: Timepoint,
    /// Accumulated recognition output.
    pub(crate) output: Vec<(GroundFvp, IntervalList)>,
    /// Deduplicated warnings in first-occurrence order.
    pub(crate) warnings: Vec<String>,
    /// Run-time counters.
    pub(crate) stats: EngineStats,
    /// Sliding-window overlap state; `None` for tumbling engines (and
    /// for checkpoints written before sliding windows existed).
    pub(crate) sliding: Option<SlidingSection>,
    /// Label of the evaluation strategy that wrote the checkpoint (one
    /// of [`EVALUATOR_LABELS`]). Informational only: it lives in the
    /// JSON envelope, outside the checksummed state, and restore ignores
    /// it.
    pub(crate) eval_mode: Option<String>,
}

impl EngineCheckpoint {
    /// Builds a checkpoint from raw engine state (crate-internal; use
    /// [`Engine::checkpoint`](crate::engine::Engine::checkpoint)).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        symbols: Vec<String>,
        pending: Vec<(Term, Timepoint)>,
        inputs: Vec<(GroundFvp, IntervalList)>,
        inertia: &InertiaState,
        processed_to: Timepoint,
        output: Vec<(GroundFvp, IntervalList)>,
        warnings: Vec<String>,
        stats: EngineStats,
        sliding: Option<SlidingSection>,
        eval_mode: Option<String>,
    ) -> EngineCheckpoint {
        let inertia = inertia
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        EngineCheckpoint {
            symbols,
            pending,
            inputs,
            inertia,
            processed_to,
            output,
            warnings,
            stats,
            sliding,
            eval_mode,
        }
    }

    /// The evaluation-strategy label recorded when the checkpoint was
    /// written, if any. Informational; restore never consults it.
    pub fn eval_mode(&self) -> Option<&str> {
        self.eval_mode.as_deref()
    }

    /// The processed frontier captured in this checkpoint.
    pub fn processed_to(&self) -> Timepoint {
        self.processed_to
    }

    /// The run-time counters captured in this checkpoint.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The symbol names captured in this checkpoint, in interning order.
    pub fn symbol_names(&self) -> &[String] {
        &self.symbols
    }

    /// The inertia carry, for restore (crate-internal).
    pub(crate) fn inertia_state(&self) -> InertiaState {
        self.inertia.iter().cloned().collect()
    }

    /// The sliding-window overlap, for restore (crate-internal).
    pub(crate) fn sliding_section(&self) -> Option<&SlidingSection> {
        self.sliding.as_ref()
    }

    /// Writes the checksummed `state` object (no envelope). The service
    /// embeds per-shard states into its session document this way.
    pub fn write_state(&self, out: &mut String) {
        out.push_str("{\"inertia\":");
        write_inertia(out, &self.inertia);
        out.push_str(",\"inputs\":");
        write_sorted(out, &self.inputs, write_fvp_entry);
        out.push_str(",\"output\":");
        write_sorted(out, &self.output, write_fvp_entry);
        out.push_str(",\"pending\":");
        push_seq(out, &self.pending, write_event);
        out.push_str(",\"processed_to\":");
        push_i64(out, self.processed_to);
        if let Some(sliding) = &self.sliding {
            out.push_str(",\"sliding\":{\"retained\":");
            push_seq(out, &sliding.retained, write_event);
            out.push_str(",\"snapshots\":");
            push_seq(out, &sliding.snapshots, |out, (t, entries)| {
                out.push('[');
                push_i64(out, *t);
                out.push(',');
                write_inertia(out, entries);
                out.push(']');
            });
            out.push('}');
        }
        out.push_str(",\"stats\":");
        write_engine_stats(out, &self.stats);
        out.push_str(",\"symbols\":");
        push_seq(out, &self.symbols, |out, s| push_quoted(out, s));
        out.push_str(",\"warnings\":");
        push_seq(out, &self.warnings, |out, s| push_quoted(out, s));
        out.push('}');
    }

    /// Reads a `state` object written by [`EngineCheckpoint::write_state`].
    pub fn read_state(c: &mut Cursor<'_>) -> Result<EngineCheckpoint, String> {
        c.expect("{")?;
        let inertia = c.field("inertia", read_inertia)?;
        let inputs = c.field("inputs", |c| c.list(read_fvp_entry))?;
        let output = c.field("output", |c| c.list(read_fvp_entry))?;
        let pending = c.field("pending", |c| c.list(read_event))?;
        let processed_to = c.field("processed_to", Cursor::i64)?;
        // Absent in tumbling engines and pre-sliding checkpoints.
        let sliding = c.opt_field("sliding", |c| {
            c.expect("{")?;
            let retained = c.field("retained", |c| c.list(read_event))?;
            let snapshots = c.field("snapshots", |c| {
                c.list(|c| {
                    c.expect("[")?;
                    let t = c.i64()?;
                    c.expect(",")?;
                    let entries = read_inertia(c)?;
                    c.expect("]")?;
                    Ok((t, entries))
                })
            })?;
            c.expect("}")?;
            if snapshots.is_empty() {
                return Err(c.err("sliding section has no snapshots"));
            }
            Ok(SlidingSection {
                snapshots,
                retained,
            })
        })?;
        let stats = c.field("stats", read_engine_stats)?;
        let symbols = c.field("symbols", |c| c.list(Cursor::string))?;
        let warnings = c.field("warnings", |c| c.list(Cursor::string))?;
        c.expect("}")?;
        Ok(EngineCheckpoint {
            symbols,
            pending,
            inputs,
            inertia,
            processed_to,
            output,
            warnings,
            stats,
            sliding,
            eval_mode: None,
        })
    }

    /// Serializes the checkpoint to its versioned, checksummed JSON
    /// document. The same engine state always yields byte-identical
    /// documents (map entries are sorted canonically).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_envelope(&mut out, self.eval_mode.as_deref(), |out| {
            self.write_state(out)
        });
        out
    }

    /// Parses and verifies a checkpoint document: version must match,
    /// and the embedded checksum must agree with the stored state bytes —
    /// a torn or truncated write fails here instead of restoring
    /// corrupt engine state.
    pub fn from_json(text: &str) -> Result<EngineCheckpoint, String> {
        let (eval_mode, mut c) = read_envelope(text, "checkpoint")?;
        let mut checkpoint = EngineCheckpoint::read_state(&mut c)?;
        c.end()?;
        checkpoint.eval_mode = eval_mode;
        Ok(checkpoint)
    }
}

/// Writes `{"crc":…,["eval_mode":…,]"state":…,"version":1}` into `out`,
/// with `state` written by `write_state` and hashed in place.
pub fn write_envelope(
    out: &mut String,
    eval_mode: Option<&str>,
    write_state: impl FnOnce(&mut String),
) {
    out.push_str("{\"crc\":\"");
    let crc_at = out.len();
    out.push_str("0000000000000000\"");
    if let Some(mode) = eval_mode {
        out.push_str(",\"eval_mode\":");
        push_quoted(out, mode);
    }
    out.push_str(",\"state\":");
    let state_at = out.len();
    write_state(out);
    let mut crc = String::with_capacity(16);
    push_hex16(&mut crc, fnv1a64(&out.as_bytes()[state_at..]));
    out.replace_range(crc_at..crc_at + 16, &crc);
    out.push_str(",\"version\":");
    push_i64(out, CHECKPOINT_VERSION);
    out.push('}');
}

/// Checks the envelope [`write_envelope`] produces — layout, version,
/// then the checksum over the stored `state` bytes — and returns the
/// `eval_mode` label with a cursor over exactly the `state` bytes.
/// `what` prefixes every error.
pub fn read_envelope<'t>(
    text: &'t str,
    what: &'static str,
) -> Result<(Option<String>, Cursor<'t>), String> {
    let mut head = Cursor::new(text, what);
    head.expect("{\"crc\":\"")?;
    let stored = head.hex16()?;
    head.expect("\"")?;
    let eval_mode = match head.eat(",\"eval_mode\":") {
        false => None,
        true => match head.string()? {
            mode if EVALUATOR_LABELS.contains(&mode.as_str()) => Some(mode),
            _ => return Err(head.err("unknown \"eval_mode\"")),
        },
    };
    head.expect(",\"state\":")?;
    let (body, version) = text
        .strip_suffix('}')
        .and_then(|t| t.rsplit_once(",\"version\":"))
        .ok_or_else(|| format!("{what}: missing \"version\" — torn write?"))?;
    if version != CHECKPOINT_VERSION.to_string() {
        return Err(format!(
            "{what}: unsupported version {version} (expected {CHECKPOINT_VERSION})"
        ));
    }
    let state = body
        .get(head.offset()..)
        .ok_or_else(|| format!("{what}: missing \"state\" — torn write?"))?;
    let actual = fnv1a64(state.as_bytes());
    if actual != stored {
        return Err(format!(
            "{what}: checksum mismatch (stored {stored:016x}, computed {actual:016x}) — torn write?"
        ));
    }
    Ok((eval_mode, Cursor::new(state, what)))
}

/// Writes `items` as an array sorted by the bytes of each rendered
/// entry (HashMap iteration order must not leak into checkpoint bytes):
/// every entry is rendered once, then the byte ranges are sorted.
fn write_sorted<T>(out: &mut String, items: &[T], write: impl Fn(&mut String, &T)) {
    let base = out.len();
    let mut spans = Vec::with_capacity(items.len());
    for item in items {
        let start = out.len() - base;
        write(out, item);
        spans.push(start..out.len() - base);
    }
    let rendered = out.split_off(base);
    spans.sort_unstable_by(|a, b| rendered[a.clone()].cmp(&rendered[b.clone()]));
    push_seq(out, &spans, |out, span| {
        out.push_str(&rendered[span.clone()])
    });
}

/// Writes inertia entries (ground fluent -> open values), the shape
/// shared by the `inertia` field and the per-snapshot states of the
/// `sliding` section.
fn write_inertia(out: &mut String, entries: &InertiaEntries) {
    write_sorted(out, entries, |out, (fluent, open)| {
        out.push('[');
        write_term(out, fluent);
        out.push(',');
        push_seq(out, open, write_event);
        out.push(']');
    });
}

fn read_inertia(c: &mut Cursor<'_>) -> Result<InertiaEntries, String> {
    c.list(|c| {
        c.expect("[")?;
        let fluent = read_term(c)?;
        c.expect(",")?;
        let open = c.list(read_event)?;
        c.expect("]")?;
        Ok((fluent, open))
    })
}

/// Writes `[term,t]`: pending and retained events, inertia opens.
pub fn write_event(out: &mut String, (term, t): &(Term, Timepoint)) {
    out.push('[');
    write_term(out, term);
    out.push(',');
    push_i64(out, *t);
    out.push(']');
}

/// Reads `[term,t]`.
pub fn read_event(c: &mut Cursor<'_>) -> Result<(Term, Timepoint), String> {
    c.expect("[")?;
    let term = read_term(c)?;
    c.expect(",")?;
    let t = c.i64()?;
    c.expect("]")?;
    Ok((term, t))
}

/// Writes `[[fluent,value],[[start,end],…]]` (an end may be `INF`).
fn write_fvp_entry(out: &mut String, (fvp, list): &(GroundFvp, IntervalList)) {
    out.push_str("[[");
    write_term(out, &fvp.fluent);
    out.push(',');
    write_term(out, &fvp.value);
    out.push_str("],");
    push_seq(out, list.as_slice(), |out, iv| {
        out.push('[');
        push_i64(out, iv.start);
        out.push(',');
        push_i64(out, iv.end);
        out.push(']');
    });
    out.push(']');
}

fn read_fvp_entry(c: &mut Cursor<'_>) -> Result<(GroundFvp, IntervalList), String> {
    c.expect("[[")?;
    let fluent = read_term(c)?;
    c.expect(",")?;
    let value = read_term(c)?;
    c.expect("],")?;
    let fvp = GroundFvp::new(fluent, value).ok_or_else(|| c.err("non-ground fvp"))?;
    let intervals = c.list(|c| {
        c.expect("[")?;
        let start = c.i64()?;
        c.expect(",")?;
        let end = c.i64()?;
        c.expect("]")?;
        if start >= end {
            return Err(c.err(&format!("empty interval [{start}, {end})")));
        }
        Ok(Interval::new(start, end))
    })?;
    c.expect("]")?;
    Ok((fvp, IntervalList::from_intervals(intervals)))
}

/// Writes engine counters as `{"events_dropped":…,"events_processed":…,"windows":…}`.
pub fn write_engine_stats(out: &mut String, stats: &EngineStats) {
    out.push_str("{\"events_dropped\":");
    push_counter(out, stats.events_dropped as u64);
    out.push_str(",\"events_processed\":");
    push_counter(out, stats.events_processed as u64);
    out.push_str(",\"windows\":");
    push_counter(out, stats.windows as u64);
    out.push('}');
}

/// Reads counters written by [`write_engine_stats`].
pub fn read_engine_stats(c: &mut Cursor<'_>) -> Result<EngineStats, String> {
    c.expect("{")?;
    let events_dropped = c.field("events_dropped", Cursor::usize)?;
    let events_processed = c.field("events_processed", Cursor::usize)?;
    let windows = c.field("windows", Cursor::usize)?;
    c.expect("}")?;
    Ok(EngineStats {
        windows,
        events_processed,
        events_dropped,
    })
}

/// Writes a term structurally with raw symbol ids:
/// `{"v":id}` variable, `{"a":id}` atom, `{"i":n}` integer,
/// `{"f":"<hex bits>"}` float (exact bit pattern), `{"c":[id,args…]}`
/// compound, `{"l":[elems…]}` list.
pub fn write_term(out: &mut String, term: &Term) {
    match term {
        Term::Var(sym) => {
            out.push_str("{\"v\":");
            push_u64(out, u64::from(sym.0));
        }
        Term::Atom(sym) => {
            out.push_str("{\"a\":");
            push_u64(out, u64::from(sym.0));
        }
        Term::Int(n) => {
            out.push_str("{\"i\":");
            push_i64(out, *n);
        }
        Term::Float(f) => {
            // Bit-exact: JSON float round-trips could perturb the value.
            out.push_str("{\"f\":\"");
            push_hex16(out, f.to_bits());
            out.push('"');
        }
        Term::Compound(functor, args) => {
            out.push_str("{\"c\":[");
            push_u64(out, u64::from(functor.0));
            for arg in args {
                out.push(',');
                write_term(out, arg);
            }
            out.push(']');
        }
        Term::List(elems) => {
            out.push_str("{\"l\":");
            push_seq(out, elems, write_term);
        }
    }
    out.push('}');
}

/// Terms nest no deeper than this in a document the reader accepts, so
/// a hostile document cannot exhaust the stack.
const MAX_TERM_DEPTH: usize = 256;

/// Reads a term written by [`write_term`]: an object with exactly one
/// known tag.
pub fn read_term(c: &mut Cursor<'_>) -> Result<Term, String> {
    read_term_at(c, 0)
}

fn read_term_at(c: &mut Cursor<'_>, depth: usize) -> Result<Term, String> {
    if depth > MAX_TERM_DEPTH {
        return Err(c.err("term nested too deeply"));
    }
    let term = if c.eat("{\"a\":") {
        Term::Atom(symbol(c)?)
    } else if c.eat("{\"c\":[") {
        let functor = symbol(c)?;
        let mut args = Vec::new();
        while c.eat(",") {
            args.push(read_term_at(c, depth + 1)?);
        }
        c.expect("]")?;
        Term::Compound(functor, args)
    } else if c.eat("{\"f\":\"") {
        let bits = c.hex16()?;
        c.expect("\"")?;
        Term::Float(f64::from_bits(bits))
    } else if c.eat("{\"i\":") {
        Term::Int(c.i64()?)
    } else if c.eat("{\"l\":") {
        Term::List(c.list(|c| read_term_at(c, depth + 1))?)
    } else if c.eat("{\"v\":") {
        Term::Var(symbol(c)?)
    } else {
        return Err(c.err("expected a term object with one of the tags a, c, f, i, l, v"));
    };
    c.expect("}")?;
    Ok(term)
}

fn symbol(c: &mut Cursor<'_>) -> Result<Symbol, String> {
    let id = c.u64()?;
    u32::try_from(id)
        .map(Symbol)
        .map_err(|_| c.err("symbol id out of range"))
}

/// FNV-1a 64-bit hash, rendered as 16 hex digits — the checksum used by
/// checkpoint envelopes.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hex = String::with_capacity(16);
    push_hex16(&mut hex, fnv1a64(bytes));
    hex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn term(src: &str, sym: &mut SymbolTable) -> Term {
        crate::parser::parse_term(src, sym).unwrap()
    }

    fn decode_term(text: &str) -> Result<Term, String> {
        let mut c = Cursor::new(text, "test");
        let term = read_term(&mut c)?;
        c.end().map(|()| term)
    }

    fn encode_term(term: &Term) -> String {
        let mut out = String::new();
        write_term(&mut out, term);
        out
    }

    #[test]
    fn terms_round_trip_structurally() {
        let mut sym = SymbolTable::new();
        for src in [
            "a",
            "f(a, b)",
            "g(f(a), 42, X)",
            "h([a, 1, [b]])",
            "nested(f(g(h(x))), Y)",
            "k(-3, -2.5, [])",
        ] {
            let t = term(src, &mut sym);
            let decoded = decode_term(&encode_term(&t)).unwrap();
            assert_eq!(t, decoded, "{src}");
        }
        for f in [std::f64::consts::PI, -0.0, f64::NAN, f64::NEG_INFINITY] {
            let t = Term::Float(f);
            let Term::Float(back) = decode_term(&encode_term(&t)).unwrap() else {
                panic!("float decoded as another term");
            };
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn term_objects_need_exactly_one_known_tag() {
        assert_eq!(decode_term(r#"{"a":1}"#).unwrap(), Term::Atom(Symbol(1)));
        assert_eq!(
            decode_term(r#"{"c":[2]}"#).unwrap(),
            Term::Compound(Symbol(2), Vec::new())
        );
        for bad in [
            r#"{"a":1,"c":[2]}"#,
            r#"{"i":1,"i":2}"#,
            r#"{"z":1}"#,
            r#"{}"#,
            r#"{"c":[]}"#,
            r#"{"a":-1}"#,
            r#"{"a":4294967296}"#,
            r#"{"f":"3ff"}"#,
            r#"{"f":"3FF0000000000000"}"#,
            r#"{ "a":1}"#,
        ] {
            assert!(decode_term(bad).is_err(), "{bad}");
        }
        let deep = format!(
            "{}{{\"i\":1}}{}",
            r#"{"l":["#.repeat(10_000),
            "]}".repeat(10_000)
        );
        assert!(decode_term(&deep)
            .unwrap_err()
            .contains("nested too deeply"));
    }

    #[test]
    fn interval_lists_round_trip_including_open() {
        let mut sym = SymbolTable::new();
        let fvp = GroundFvp::new(term("p(a)", &mut sym), term("true", &mut sym)).unwrap();
        for list in [
            IntervalList::new(),
            IntervalList::from_pairs(&[(0, 5), (9, 12)]),
            IntervalList::from_intervals(vec![Interval::new(3, 7), Interval::open(100)]),
        ] {
            let entry = (fvp.clone(), list);
            let mut out = String::new();
            write_fvp_entry(&mut out, &entry);
            let mut c = Cursor::new(&out, "test");
            assert_eq!(read_fvp_entry(&mut c).unwrap(), entry);
            c.end().unwrap();
        }
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        let ck = EngineCheckpoint {
            symbols: vec!["a".into()],
            pending: Vec::new(),
            inputs: Vec::new(),
            inertia: Vec::new(),
            processed_to: 7,
            output: Vec::new(),
            warnings: vec!["w".into()],
            stats: EngineStats::default(),
            sliding: None,
            eval_mode: Some("interpreter".into()),
        };
        let json = ck.to_json();
        assert!(EngineCheckpoint::from_json(&json).is_ok());
        // Torn write: truncation breaks parsing or the checksum.
        let torn = &json[..json.len() - 10];
        assert!(EngineCheckpoint::from_json(torn).is_err());
        // Flipped payload byte: checksum mismatch.
        let tampered = json.replace("\"processed_to\":7", "\"processed_to\":8");
        let err = EngineCheckpoint::from_json(&tampered).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        // Wrong version.
        let wrong = json.replace("\"version\":1", "\"version\":99");
        assert!(EngineCheckpoint::from_json(&wrong).is_err());
    }

    #[test]
    fn documents_are_deterministic() {
        let mut sym = SymbolTable::new();
        let mut mk = || {
            let mut inputs = Vec::new();
            let mut output = Vec::new();
            let f1 = GroundFvp::new(term("p(a, b)", &mut sym), term("true", &mut sym)).unwrap();
            let f2 = GroundFvp::new(term("q(c)", &mut sym), term("true", &mut sym)).unwrap();
            inputs.push((f1.clone(), IntervalList::from_pairs(&[(0, 9)])));
            inputs.push((f2.clone(), IntervalList::from_pairs(&[(4, 6)])));
            output.push((f2, IntervalList::from_pairs(&[(5, 6)])));
            output.push((f1, IntervalList::from_pairs(&[(1, 2)])));
            EngineCheckpoint {
                symbols: vec!["p".into(), "q".into()],
                pending: Vec::new(),
                inputs,
                inertia: Vec::new(),
                processed_to: 10,
                output,
                warnings: Vec::new(),
                stats: EngineStats::default(),
                sliding: None,
                eval_mode: None,
            }
        };
        let a = mk().to_json();
        let mut reversed = mk();
        reversed.inputs.reverse();
        reversed.output.reverse();
        assert_eq!(
            a,
            reversed.to_json(),
            "entry order must not leak into bytes"
        );
    }
}
