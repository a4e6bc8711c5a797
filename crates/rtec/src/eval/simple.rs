//! Evaluation of simple fluents under the common-sense law of inertia.
//!
//! For each simple FVP, RTEC first computes its initiation and termination
//! points by evaluating the `initiatedAt`/`terminatedAt` rules, then builds
//! maximal intervals by matching each initiation `Ts` with the first
//! termination `Te` *after* `Ts`, ignoring intermediate initiations
//! (paper, Section 2 "Reasoning"). Initiating `F=V'` implicitly terminates
//! `F=V` for `V != V'` — fluents are functions of time.
//!
//! State that survives across processing windows is the *open* value of
//! each ground fluent: if `F=V` held at the end of the previous window and
//! nothing terminated it, it keeps holding (inertia).

use crate::arena::{FxHashMap, TermId, Terms};
use crate::ast::{FluentKey, SimpleKind};
use crate::eval::cache::FluentCache;
use crate::interval::{Interval, IntervalList, Timepoint};
use crate::term::Term;
use std::collections::HashMap;

/// Open FVPs carried across windows: ground fluent term -> open
/// `(value, interval start)` pairs. A well-behaved fluent has at most one
/// open value; the vector tolerates degenerate rule sets that initiate two
/// values at the same time-point.
pub type InertiaState = HashMap<Term, Vec<(Term, Timepoint)>>;

/// The open FVPs of one fluent key, taken out of an [`InertiaState`] for
/// one window.
pub type Carried = Vec<(Term, Vec<(Term, Timepoint)>)>;

/// Moves every entry of `inertia` into groups by fluent key, so that
/// each simple stratum reads its own carried instances instead of
/// filtering all of them. Entries without a key (never written by the
/// executor) group under `None`; [`restore_carried`] puts back whatever
/// no stratum took.
pub fn take_carried(inertia: &mut InertiaState) -> FxHashMap<Option<FluentKey>, Carried> {
    let mut by_key: FxHashMap<Option<FluentKey>, Carried> = FxHashMap::default();
    for (fluent, open) in inertia.drain() {
        by_key
            .entry(fluent.signature())
            .or_default()
            .push((fluent, open));
    }
    by_key
}

/// Returns the groups no stratum took to `inertia`.
pub fn restore_carried(inertia: &mut InertiaState, rest: FxHashMap<Option<FluentKey>, Carried>) {
    inertia.extend(rest.into_values().flatten());
}

/// Initiation/termination points collected for one ground fluent.
///
/// Values are kept in first-recorded order, *not* hashed: the order
/// flows into the open-value vector of the [`InertiaState`] (observable
/// in checkpoints) when a degenerate rule set leaves several values of
/// one fluent open at once, so it must be deterministic, not an artifact
/// of hash iteration.
#[derive(Debug, Default)]
struct PointSets {
    /// value -> (initiations, explicit terminations)
    by_value: Vec<(TermId, InitTermPoints)>,
}

/// (initiation time-points, explicit-termination time-points).
type InitTermPoints = (Vec<Timepoint>, Vec<Timepoint>);

impl PointSets {
    fn entry(&mut self, value: TermId) -> &mut InitTermPoints {
        match self.by_value.iter().position(|(v, _)| *v == value) {
            Some(i) => &mut self.by_value[i].1,
            None => {
                self.by_value.push((value, Default::default()));
                &mut self.by_value.last_mut().expect("just pushed").1
            }
        }
    }

    fn get(&self, value: TermId) -> Option<&InitTermPoints> {
        self.by_value
            .iter()
            .find(|(v, _)| *v == value)
            .map(|(_, e)| e)
    }

    fn contains(&self, value: TermId) -> bool {
        self.by_value.iter().any(|(v, _)| *v == value)
    }
}

/// Accumulates the initiation/termination points fired by the rules of
/// one simple fluent within one window; the plan evaluator hands it to
/// [`finalize_simple_fluent`].
#[derive(Debug, Default)]
pub struct PointCollector {
    points: FxHashMap<TermId, PointSets>,
    /// Terminations whose head was not fully instantiated, as `(fluent,
    /// value)` patterns; expanded against the known ground instances at
    /// finalization.
    pattern_terminations: Vec<(TermId, TermId, Timepoint)>,
}

impl PointCollector {
    /// Creates an empty collector.
    pub fn new() -> PointCollector {
        PointCollector::default()
    }

    /// Records a rule firing for a ground head `fluent = value` at `t`.
    pub fn record(&mut self, kind: SimpleKind, fluent: TermId, value: TermId, t: Timepoint) {
        let entry = self.points.entry(fluent).or_default().entry(value);
        match kind {
            SimpleKind::Initiated => entry.0.push(t),
            SimpleKind::Terminated => entry.1.push(t),
        }
    }

    /// Records a termination whose head pattern `fluent = value` kept
    /// unbound variables; it terminates every matching ground instance.
    pub fn record_pattern_termination(&mut self, fluent: TermId, value: TermId, t: Timepoint) {
        self.pattern_terminations.push((fluent, value, t));
    }
}

/// Turns the collected initiation/termination points of one simple fluent
/// into maximal intervals (law of inertia), inserting them into the cache
/// and writing the instances left open back to `inertia`. `carried` is
/// the fluent's share of the inertia state (see [`take_carried`]).
///
/// Terminations whose head the body left non-ground apply universally:
/// e.g. `terminatedAt(withinArea(Vl, AreaType)=true, T) :-
/// happensAt(gap_start(Vl), T).` (paper rule (3)) terminates
/// withinArea(v, *every* AreaType). They are expanded here against the
/// known ground instances.
pub fn finalize_simple_fluent(
    collector: PointCollector,
    carried: Carried,
    cache: &mut FluentCache<'_>,
    inertia: &mut InertiaState,
    terms: &mut Terms<'_>,
) {
    let PointCollector {
        mut points,
        pattern_terminations,
    } = collector;

    // 2. Fold in carried-open values of this key so that cross-value
    //    initiations can terminate them.
    let mut open: FxHashMap<TermId, (Term, Vec<(TermId, Timepoint)>)> = FxHashMap::default();
    for (fluent, values) in carried {
        let fid = terms.intern_term(&fluent);
        let values = values
            .iter()
            .map(|(v, start)| (terms.intern_term(v), *start))
            .collect();
        points.entry(fid).or_default();
        open.insert(fid, (fluent, values));
    }

    // 2b. Expand pattern terminations against the known ground instances
    //     (instances with rule firings this window plus carried-open
    //     ones). The common shape — ground fluent, unbound value, e.g.
    //     `terminatedAt(movingSpeed(v7)=Value, T)` — resolves with one
    //     hash lookup; only patterns with a non-ground fluent scan.
    if !pattern_terminations.is_empty() {
        let candidates: FxHashMap<TermId, Vec<TermId>> = points
            .iter()
            .map(|(fluent, sets)| {
                let mut values: Vec<TermId> = sets.by_value.iter().map(|(v, _)| *v).collect();
                if let Some((_, carried)) = open.get(fluent) {
                    values.extend(
                        carried
                            .iter()
                            .map(|(v, _)| *v)
                            .filter(|v| !sets.contains(*v)),
                    );
                }
                (*fluent, values)
            })
            .collect();
        let add_termination =
            |points: &mut FxHashMap<TermId, PointSets>, fluent: TermId, value: TermId, t| {
                points
                    .get_mut(&fluent)
                    .expect("candidate came from points")
                    .entry(value)
                    .1
                    .push(t);
            };
        // Candidate pairs for the non-ground-fluent fallback, built once
        // for all pattern terminations instead of per firing.
        let needs_fallback = pattern_terminations
            .iter()
            .any(|(fluent, _, _)| !terms.is_ground(*fluent));
        let all_pairs: Vec<(TermId, TermId)> = if needs_fallback {
            candidates
                .iter()
                .flat_map(|(fluent, values)| values.iter().map(move |v| (*fluent, *v)))
                .collect()
        } else {
            Vec::new()
        };
        let mut bindings = Vec::new();
        for &(pat_fluent, pat_value, t) in &pattern_terminations {
            if terms.is_ground(pat_fluent) {
                let Some(values) = candidates.get(&pat_fluent) else {
                    continue;
                };
                for &value in values {
                    bindings.clear();
                    if terms.match_id(pat_value, value, &mut bindings) {
                        add_termination(&mut points, pat_fluent, value, t);
                    }
                }
            } else {
                for &(fluent, value) in &all_pairs {
                    bindings.clear();
                    if terms.match_id(pat_fluent, fluent, &mut bindings)
                        && terms.match_id(pat_value, value, &mut bindings)
                    {
                        add_termination(&mut points, fluent, value, t);
                    }
                }
            }
        }
    }

    // 3. Build maximal intervals per ground fluent.
    for (fluent, sets) in points {
        let (carried_term, open_values) = match open.remove(&fluent) {
            Some((term, values)) => (Some(term), values),
            None => (None, Vec::new()),
        };
        let mut new_open: Vec<(TermId, Timepoint)> = Vec::new();

        // Values to consider: those with rule firings plus carried ones.
        let mut values: Vec<TermId> = sets.by_value.iter().map(|(v, _)| *v).collect();
        for (v, _) in &open_values {
            if !values.contains(v) {
                values.push(*v);
            }
        }

        for value in values {
            let (inits, terms_at) = sets.get(value).cloned().unwrap_or_default();
            // Initiations of *other* values terminate this one.
            let mut all_terms = terms_at;
            for (other_value, (other_inits, _)) in &sets.by_value {
                if *other_value != value {
                    all_terms.extend_from_slice(other_inits);
                }
            }
            let carry = open_values
                .iter()
                .find(|(v, _)| *v == value)
                .map(|(_, s)| *s);
            let (list, open) = make_intervals(carry, inits, all_terms);
            if let Some(start) = open {
                new_open.push((value, start));
            }
            cache.insert((fluent, value), list, terms);
        }

        if !new_open.is_empty() {
            let fluent = carried_term.unwrap_or_else(|| terms.to_term(fluent));
            let values = new_open
                .into_iter()
                .map(|(v, start)| (terms.to_term(v), start))
                .collect();
            inertia.insert(fluent, values);
        }
    }
}

/// Matches initiations with the first strictly-later termination.
///
/// `carry` is the start (already on the interval scale, i.e. `Ts + 1`) of
/// an interval open at the beginning of the window. Returns the maximal
/// intervals plus the start of the interval still open at the end, if any.
/// Open intervals are emitted with an infinite end; the engine clips them
/// to the window when folding into the global output.
pub fn make_intervals(
    carry: Option<Timepoint>,
    mut inits: Vec<Timepoint>,
    mut terms: Vec<Timepoint>,
) -> (IntervalList, Option<Timepoint>) {
    inits.sort_unstable();
    inits.dedup();
    terms.sort_unstable();
    terms.dedup();

    let mut out = IntervalList::new();
    let mut open: Option<Timepoint> = carry;
    let (mut i, mut j) = (0, 0);
    while i < inits.len() || j < terms.len() {
        // Terminations are processed before initiations at the same
        // time-point: a termination at T closes an interval initiated
        // earlier, and an initiation at T re-opens from T + 1.
        let take_term = match (inits.get(i), terms.get(j)) {
            (Some(&ti), Some(&tj)) => tj <= ti,
            (None, Some(_)) => true,
            _ => false,
        };
        if take_term {
            let te = terms[j];
            j += 1;
            if let Some(s) = open {
                // The first termination strictly after the initiation:
                // interval [s, te + 1) is non-empty iff te >= s.
                if te >= s {
                    out.push(Interval::new(s, te + 1));
                    open = None;
                }
            }
        } else {
            let ts = inits[i];
            i += 1;
            if open.is_none() {
                open = Some(ts + 1);
            }
        }
    }
    if let Some(s) = open {
        out.push(Interval::open(s));
    }
    (out, open)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::INF;

    fn closed(l: &IntervalList) -> Vec<(Timepoint, Timepoint)> {
        l.iter().map(|iv| (iv.start, iv.end)).collect()
    }

    #[test]
    fn basic_matching() {
        let (l, open) = make_intervals(None, vec![10], vec![25]);
        assert_eq!(closed(&l), vec![(11, 26)]);
        assert!(open.is_none());
    }

    #[test]
    fn intermediate_initiations_ignored() {
        let (l, open) = make_intervals(None, vec![10, 15, 20], vec![25]);
        assert_eq!(closed(&l), vec![(11, 26)]);
        assert!(open.is_none());
    }

    #[test]
    fn unterminated_initiation_stays_open() {
        let (l, open) = make_intervals(None, vec![10], vec![]);
        assert_eq!(closed(&l), vec![(11, INF)]);
        assert_eq!(open, Some(11));
    }

    #[test]
    fn termination_without_initiation_is_noop() {
        let (l, open) = make_intervals(None, vec![], vec![5]);
        assert!(l.is_empty());
        assert!(open.is_none());
    }

    #[test]
    fn same_point_termination_does_not_close_new_initiation() {
        // Initiated at 10 and terminated at 10: the termination is not
        // strictly after the initiation, so the fluent keeps holding.
        let (l, open) = make_intervals(None, vec![10], vec![10]);
        assert_eq!(closed(&l), vec![(11, INF)]);
        assert_eq!(open, Some(11));
    }

    #[test]
    fn same_point_termination_closes_earlier_interval_then_reopens() {
        // Open since 3 (carry), terminated at 10, re-initiated at 10:
        // continuous holding, single amalgamated open interval from 3.
        // The carried start for the next window is the re-initiation (11);
        // window merging amalgamates the seam.
        let (l, open) = make_intervals(Some(3), vec![10], vec![10]);
        assert_eq!(closed(&l), vec![(3, INF)]);
        assert_eq!(open, Some(11));
    }

    #[test]
    fn carry_closed_by_first_termination() {
        let (l, open) = make_intervals(Some(3), vec![], vec![7, 20]);
        assert_eq!(closed(&l), vec![(3, 8)]);
        assert!(open.is_none());
    }

    #[test]
    fn multiple_cycles() {
        let (l, open) = make_intervals(None, vec![1, 10, 30], vec![5, 20]);
        assert_eq!(closed(&l), vec![(2, 6), (11, 21), (31, INF)]);
        assert_eq!(open, Some(31));
    }

    #[test]
    fn unsorted_duplicated_input_points() {
        let (l, open) = make_intervals(None, vec![10, 1, 10], vec![20, 5, 5]);
        assert_eq!(closed(&l), vec![(2, 6), (11, 21)]);
        assert!(open.is_none());
    }
}
