//! Output oracles, run outside every timed section. Any mismatch fails
//! the run.

use crate::grid::query_rows;
use crate::run::GridPass;
use crate::workload::{open_description, GridInput, Kind, SessionPlan, SynthInput, SLIDE, WINDOW};
use adgen_core::evaluation::{accuracy, activity_similarities, recognize};
use rtec::engine::RecognitionOutput;
use rtec::{Engine, EngineConfig, EventDescription, SymbolTable};

/// Rows and warnings rendered the way a `query` reply renders them.
fn rendered(
    out: &RecognitionOutput,
    symbols: &SymbolTable,
) -> (Vec<(String, String)>, Vec<String>) {
    let mut rows: Vec<(String, String)> = out
        .iter()
        .map(|(fvp, list)| (fvp.display(symbols).to_string(), list.to_string()))
        .collect();
    rows.sort();
    let mut warnings = out.warnings.clone();
    warnings.sort();
    (rows, warnings)
}

fn compare(
    what: &str,
    reply: &str,
    expected: (Vec<(String, String)>, Vec<String>),
) -> Result<(), String> {
    let (rows, mut warnings) = query_rows(reply);
    warnings.sort();
    if rows != expected.0 {
        let diff = rows
            .iter()
            .zip(&expected.0)
            .position(|(a, b)| a != b)
            .unwrap_or(rows.len().min(expected.0.len()));
        return Err(format!(
            "{what}: {} rows served, {} expected; first difference at row {diff}: {:?} vs {:?}",
            rows.len(),
            expected.0.len(),
            rows.get(diff),
            expected.0.get(diff)
        ));
    }
    if warnings != expected.1 {
        return Err(format!(
            "{what}: warnings {warnings:?}, expected {:?}",
            expected.1
        ));
    }
    Ok(())
}

/// The final `query` of a stream pass must equal one unsharded,
/// in-order, fully recomputing `rtec::Engine` over the sorted stream with
/// the same window and slide, run to the same tick horizons.
pub fn stream(input: &SynthInput, plan: &SessionPlan, query_reply: &str) -> Result<(), String> {
    let desc = EventDescription::parse(&input.description).map_err(|e| e.to_string())?;
    let compiled = desc.compile().map_err(|e| e.to_string())?;
    let mut engine = Engine::new(&compiled, EngineConfig::sliding(WINDOW, SLIDE));
    let mut symbols = compiled.symbols.clone();
    let mut events = input.events.clone();
    events.sort_by_key(|&(t, _)| t);
    for (t, ev) in &events {
        let term = rtec::parser::parse_term(ev, &mut symbols).map_err(|e| e.to_string())?;
        engine.add_event_from(&term, &symbols, *t);
    }
    for frame in plan.frames.iter().filter(|f| f.kind == Kind::Tick) {
        engine.run_to(frame.to);
    }
    let expected = rendered(engine.output(), engine.symbols());
    compare("stream query", query_reply, expected)
}

/// An in-process recognition result.
pub type Run = (RecognitionOutput, SymbolTable);

/// Every description of the grid: an `invalid_description` refusal is
/// correct exactly when `rtec_lint` reports a semantic error on the text;
/// an accepted description's rows must equal the in-process
/// `adgen_core` recognition, and every f1 and similarity value must
/// equal the in-process `adgen_core` computation. Returns the
/// in-process runs of the accepted descriptions, aligned with the grid.
pub fn grid(
    input: &GridInput,
    gold: &EventDescription,
    pass: &GridPass,
) -> Result<Vec<Option<Run>>, String> {
    let dataset = &input.dataset;
    let gold_run = recognize(
        &dataset.with_background(&input.entries[0].rules),
        dataset,
        None,
    );
    let mut runs = Vec::with_capacity(input.entries.len());
    for (i, entry) in input.entries.iter().enumerate() {
        let label = &entry.label;
        let log = &pass.logs[i];
        let lint_rejects =
            rtec_lint::analyze_source(&open_description(&input.sessions[i])).has_semantic_errors();
        match (&log.rejected, lint_rejects) {
            (Some(_), true) => runs.push(None),
            (Some(reply), false) => {
                return Err(format!("{label}: refused although lint is clean: {reply}"))
            }
            (None, true) => return Err(format!("{label}: accepted although lint reports errors")),
            (None, false) => {
                let run = recognize(&dataset.with_background(&entry.rules), dataset, None);
                let reply = log
                    .query
                    .as_deref()
                    .ok_or(format!("{label}: no query reply"))?;
                compare(label, reply, rendered(&run.0, &run.1))?;
                let report = accuracy((&run.0, &run.1), (&gold_run.0, &gold_run.1), input.horizon);
                let expected: Vec<f64> = report.f1.iter().map(|s| s.value).collect();
                if pass.scores.f1[i].as_ref() != Some(&expected) {
                    return Err(format!(
                        "{label}: f1 {:?}, expected {expected:?}",
                        pass.scores.f1[i]
                    ));
                }
                runs.push(Some(run));
            }
        }
        if let Some(g) = &entry.generated {
            let expected: Vec<f64> = activity_similarities(g, gold)
                .iter()
                .map(|s| s.value)
                .collect();
            if pass.scores.similarity[i].as_ref() != Some(&expected) {
                return Err(format!(
                    "{label}: similarity {:?}, expected {expected:?}",
                    pass.scores.similarity[i]
                ));
            }
        }
    }
    Ok(runs)
}
