//! Input streams: a self-contained bundle of time-stamped events and
//! input-fluent intervals.
//!
//! A stream carries its own [`SymbolTable`], so it can be generated once
//! (e.g. six months of maritime critical events) and then replayed against
//! *different* event descriptions — the gold standard and each
//! LLM-generated description — which is exactly the comparison performed in
//! the paper's second experiment (Figure 2c).

use crate::engine::Engine;
use crate::interval::{IntervalList, Timepoint};
use crate::symbol::SymbolTable;
use crate::term::{GroundFvp, Term};

/// A replayable input stream.
#[derive(Clone, Debug, Default)]
pub struct InputStream {
    /// Symbol table the stream's terms are interned in.
    pub symbols: SymbolTable,
    events: Vec<(Term, Timepoint)>,
    intervals: Vec<(GroundFvp, IntervalList)>,
}

impl InputStream {
    /// Creates an empty stream.
    pub fn new() -> InputStream {
        InputStream::default()
    }

    /// Parses and appends an event, e.g. `push_event("entersArea(v1, a1)", 10)`.
    pub fn push_event_src(&mut self, src: &str, t: Timepoint) -> crate::error::RtecResult<()> {
        let ev = crate::parser::parse_term(src, &mut self.symbols)?;
        self.events.push((ev, t));
        Ok(())
    }

    /// Appends an event term already interned in this stream's table.
    ///
    /// A stream is an inert recording, so *any* timestamp is accepted
    /// here — including one at or before a horizon an engine has
    /// already evaluated. Ordering is enforced at the engine boundary
    /// instead: [`Engine::add_event`] (which [`InputStream::load_into`]
    /// calls per event) rejects events at or before its processed
    /// frontier, counts them in `EngineStats::events_dropped`, and
    /// surfaces an aggregated `"... dropped"` warning — they are never
    /// silently absorbed into inertial state.
    /// For out-of-order *tolerant* ingestion, feed events through
    /// [`crate::reorder::ReorderBuffer`] first.
    pub fn push_event(&mut self, event: Term, t: Timepoint) {
        self.events.push((event, t));
    }

    /// Appends input-fluent intervals (e.g. spatial proximity).
    pub fn push_intervals(&mut self, fvp: GroundFvp, list: IntervalList) {
        self.intervals.push((fvp, list));
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in insertion order.
    pub fn events(&self) -> &[(Term, Timepoint)] {
        &self.events
    }

    /// The input-fluent intervals.
    pub fn intervals(&self) -> &[(GroundFvp, IntervalList)] {
        &self.intervals
    }

    /// The largest event time-point (0 for an empty stream).
    pub fn horizon(&self) -> Timepoint {
        self.events.iter().map(|(_, t)| *t).max().unwrap_or(0)
    }

    /// Loads the whole stream into `engine`, translating symbols (with a
    /// memoised per-symbol mapping, so the cost is linear in the stream).
    pub fn load_into(&self, engine: &mut Engine<'_>) {
        let mut mapper = crate::term::SymbolMapper::new();
        for (ev, t) in &self.events {
            let ev = mapper.translate(ev, &self.symbols, engine.symbols_mut());
            engine.add_event(ev, *t);
        }
        for (fvp, list) in &self.intervals {
            let fluent = mapper.translate(&fvp.fluent, &self.symbols, engine.symbols_mut());
            let value = mapper.translate(&fvp.value, &self.symbols, engine.symbols_mut());
            engine.add_input_intervals(GroundFvp { fluent, value }, list.clone());
        }
    }

    /// Merges another stream (translating its symbols into this table).
    pub fn extend_from(&mut self, other: &InputStream) {
        for (ev, t) in &other.events {
            let ev = crate::term::translate(ev, &other.symbols, &mut self.symbols);
            self.events.push((ev, *t));
        }
        for (fvp, list) in &other.intervals {
            let fluent = crate::term::translate(&fvp.fluent, &other.symbols, &mut self.symbols);
            let value = crate::term::translate(&fvp.value, &other.symbols, &mut self.symbols);
            self.intervals
                .push((GroundFvp { fluent, value }, list.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::EventDescription;
    use crate::engine::EngineConfig;

    #[test]
    fn stream_replays_against_description() {
        let mut stream = InputStream::new();
        stream.push_event_src("entersArea(v1, a1)", 10).unwrap();
        stream.push_event_src("leavesArea(v1, a1)", 30).unwrap();
        assert_eq!(stream.len(), 2);
        assert_eq!(stream.horizon(), 30);

        let mut desc = EventDescription::parse(
            "initiatedAt(withinArea(Vl, AreaType)=true, T) :- \
                 happensAt(entersArea(Vl, AreaId), T), areaType(AreaId, AreaType).\n\
             terminatedAt(withinArea(Vl, AreaType)=true, T) :- \
                 happensAt(leavesArea(Vl, AreaId), T), areaType(AreaId, AreaType).\n\
             areaType(a1, fishing).",
        )
        .unwrap();
        let fvp = desc.fvp("withinArea(v1, fishing)=true").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(&compiled, EngineConfig::default());
        stream.load_into(&mut engine);
        let out = engine.run_to(50);
        assert!(out.holds_at(&fvp, 20));
        assert!(!out.holds_at(&fvp, 35));
    }

    #[test]
    fn intervals_replay_too() {
        let mut stream = InputStream::new();
        let f = crate::parser::parse_term("proximity(v1, v2)", &mut stream.symbols).unwrap();
        let v = crate::parser::parse_term("true", &mut stream.symbols).unwrap();
        stream.push_intervals(
            GroundFvp::new(f, v).unwrap(),
            IntervalList::from_pairs(&[(0, 100)]),
        );

        let mut desc = EventDescription::parse(
            "holdsFor(together(V1, V2)=true, I) :- \
                 holdsFor(proximity(V1, V2)=true, Ip), union_all([Ip], I).",
        )
        .unwrap();
        let fvp = desc.fvp("together(v1, v2)=true").unwrap();
        let compiled = desc.compile().unwrap();
        let mut engine = Engine::new(&compiled, EngineConfig::default());
        stream.load_into(&mut engine);
        let out = engine.run_to(100);
        assert!(out.holds_at(&fvp, 50));
    }

    #[test]
    fn extend_from_translates_symbols() {
        let mut a = InputStream::new();
        a.push_event_src("e(v1)", 1).unwrap();
        let mut b = InputStream::new();
        b.push_event_src("f(x9)", 2).unwrap();
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        // The translated term must render identically.
        let (ev, _) = &a.events()[1];
        assert_eq!(ev.display(&a.symbols).to_string(), "f(x9)");
    }
}
