//! A brute-force reference of the language's point semantics
//! (docs/LANGUAGE.md): the semantics the engine is tested against.
//!
//! The reference shares the parser, the validated rule AST and
//! `match_term` with the engine, and nothing of its evaluation: no plan,
//! frame, fluent cache, instance or event index. Its arithmetic is
//! [`crate::arith`]. It evaluates a description stratum by stratum,
//! bottom-up, each over the whole timeline:
//!
//! * a **simple fluent** follows the inertia recurrence
//!   `holds(F=V, t+1) = init(F=V, t) ∨ (holds(F=V, t) ∧ ¬term(F=V, t))`,
//!   where initiating `F=V'` terminates `F=V` for `V ≠ V'`, and a
//!   termination whose head the body leaves non-ground terminates every
//!   value it matches. The recurrence is stepped at every time-point
//!   that has an event; at any other time-point no rule can fire and it
//!   is the identity.
//! * a **statically determined fluent** holds at `t` for a grounding of
//!   its rule when the rule's interval expression, read point-wise
//!   (union is `or`, intersection `and`, relative complement `and not`),
//!   holds at `t`. Its groundings are found by matching the `holdsFor`
//!   conditions, left to right, against the known instances, starting
//!   from nothing or from any one condition matched against a known
//!   instance; a ground condition no instance matches holds nowhere.
//!   The expression is evaluated at every time-point where one of its
//!   operands starts or stops holding; between two such points it
//!   cannot change.
//!
//! Numbers compare by value everywhere (LANGUAGE.md §4): `1` matches
//! `1.0` in patterns, lookups and `=`.
//!
//! [`assert_agrees`] runs the engine in batch, tumbling-window and
//! sliding-incremental configurations and holds each one's rows at the
//! horizon to the reference's.

use crate::arith::{compare, same};
use rtec::ast::{BodyLiteral, FluentKey, SimpleKind, SimpleRule, StaticLiteral, StaticRule};
use rtec::description::CompiledDescription;
use rtec::interval::IntervalList;
use rtec::term::{match_term, translate, Bindings, GroundFvp, Term};
use rtec::{Engine, EngineConfig, SymbolTable, Timepoint};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The time-points at which an FVP holds, as sorted runs `[start, end)`
/// that neither overlap nor touch; `end` is [`OPEN`] for a run that
/// lasts past every event.
pub type Runs = Vec<(Timepoint, Timepoint)>;

pub const OPEN: Timepoint = Timepoint::MAX;

fn holds_at(runs: &Runs, t: Timepoint) -> bool {
    runs.iter().any(|&(s, e)| s <= t && t < e)
}

/// The runs of `member` over `lists`, point-wise: `member` sees, for a
/// time-point, whether each list holds there. Evaluated at every start
/// and end of every list, which is where the answer can change. Every
/// caller's `member` is false where no list holds.
fn pointwise(lists: &[&Runs], member: impl Fn(&[bool]) -> bool) -> Runs {
    let cuts: BTreeSet<Timepoint> = lists
        .iter()
        .flat_map(|runs| runs.iter().flat_map(|&(s, e)| [s, e]))
        .filter(|&c| c != OPEN)
        .collect();
    let cuts: Vec<Timepoint> = cuts.into_iter().collect();
    let mut out: Runs = Vec::new();
    for (i, &c) in cuts.iter().enumerate() {
        let at: Vec<bool> = lists.iter().map(|runs| holds_at(runs, c)).collect();
        if !member(&at) {
            continue;
        }
        let end = cuts.get(i + 1).copied().unwrap_or(OPEN);
        match out.last_mut() {
            Some(last) if last.1 == c => last.1 = end,
            _ => out.push((c, end)),
        }
    }
    out
}

fn union(lists: &[&Runs]) -> Runs {
    pointwise(lists, |at| at.iter().any(|&h| h))
}

/// A ground FVP the reference knows, and when it holds.
#[derive(Clone, Debug)]
struct Known {
    fluent: Term,
    value: Term,
    runs: Runs,
}

/// Adds `runs` to the instance `fluent=value` of `list`.
fn add_known(list: &mut Vec<Known>, fluent: Term, value: Term, runs: &Runs) {
    match list
        .iter_mut()
        .find(|k| same(&k.fluent, &fluent) && same(&k.value, &value))
    {
        Some(k) => k.runs = union(&[&k.runs, runs]),
        None => list.push(Known {
            fluent,
            value,
            runs: runs.clone(),
        }),
    }
}

/// Initiations and terminations fired at one time-point: `(fluent,
/// value)` heads, terminations possibly non-ground.
#[derive(Default)]
struct Firings {
    inits: Vec<(Term, Term)>,
    terms: Vec<(Term, Term)>,
}

/// One description over one stream, evaluated point by point.
pub struct Reference<'d> {
    desc: &'d CompiledDescription,
    /// The description's symbols, extended by the stream's constants.
    symbols: SymbolTable,
    /// The events, by time-point.
    events: BTreeMap<Timepoint, Vec<Term>>,
    /// Known instances by fluent key: input fluents as given, derived
    /// fluents once their stratum is evaluated.
    known: HashMap<FluentKey, Vec<Known>>,
}

impl<'d> Reference<'d> {
    pub fn new(desc: &'d CompiledDescription) -> Reference<'d> {
        Reference {
            desc,
            symbols: desc.symbols.clone(),
            events: BTreeMap::new(),
            known: HashMap::new(),
        }
    }

    pub fn event(&mut self, event: &Term, from: &SymbolTable, t: Timepoint) {
        let event = translate(event, from, &mut self.symbols);
        self.events.entry(t).or_default().push(event);
    }

    pub fn input(&mut self, fvp: &GroundFvp, from: &SymbolTable, list: &IntervalList) {
        let fluent = translate(&fvp.fluent, from, &mut self.symbols);
        let value = translate(&fvp.value, from, &mut self.symbols);
        let runs: Runs = list.iter().map(|iv| (iv.start, iv.end)).collect();
        let key = fluent.signature().expect("input fluents are predicates");
        add_known(self.known.entry(key).or_default(), fluent, value, &runs);
    }

    fn instances(&self, key: Option<FluentKey>) -> &[Known] {
        key.and_then(|k| self.known.get(&k))
            .map_or(&[], Vec::as_slice)
    }

    /// Evaluates every stratum over the events up to `horizon`, and
    /// returns the rows a run to `horizon` reports.
    pub fn rows(mut self, horizon: Timepoint) -> Rows {
        let desc = self.desc;
        for key in &desc.strata {
            let mut derived = Vec::new();
            if let Some(ids) = desc.simple_by_fluent.get(key) {
                let rules: Vec<&SimpleRule> = ids.iter().map(|&i| &desc.simple[i]).collect();
                derived = self.simple_fluent(&rules, horizon);
            }
            if let Some(ids) = desc.static_by_fluent.get(key) {
                for &i in ids {
                    self.static_rule(&desc.statics[i], &mut derived);
                }
            }
            self.known.insert(*key, derived);
        }
        let mut rows = Rows::new();
        for key in &desc.strata {
            for k in &self.known[key] {
                let runs: Runs = k
                    .runs
                    .iter()
                    .map(|&(s, e)| (s.max(0), e.min(horizon + 1)))
                    .filter(|(s, e)| s < e)
                    .collect();
                if !runs.is_empty() {
                    let fvp = GroundFvp::new(k.fluent.clone(), k.value.clone()).expect("ground");
                    rows.insert(fvp.display(&self.symbols), runs);
                }
            }
        }
        rows
    }

    /// The inertia recurrence for one simple fluent, stepped at every
    /// event time-point up to `horizon`.
    fn simple_fluent(&self, rules: &[&SimpleRule], horizon: Timepoint) -> Vec<Known> {
        // (fluent, value, first time-point it holds) of what holds now.
        let mut held: Vec<(Term, Term, Timepoint)> = Vec::new();
        let mut out: Vec<Known> = Vec::new();
        for (&t, events) in self.events.range(..=horizon) {
            let mut fired = Firings::default();
            for rule in rules {
                self.fire(rule, t, events, &mut fired);
            }
            let initiated = |f: &Term, v: &Term| {
                fired
                    .inits
                    .iter()
                    .any(|(f2, v2)| same(f2, f) && same(v2, v))
            };
            let terminated = |f: &Term, v: &Term| {
                fired.terms.iter().any(|(pf, pv)| {
                    let mut b = Bindings::new();
                    match_term(pf, f, &mut b) && match_term(pv, v, &mut b)
                }) || fired
                    .inits
                    .iter()
                    .any(|(f2, v2)| same(f2, f) && !same(v2, v))
            };
            held.retain(|(f, v, since)| {
                let holds_next = initiated(f, v) || !terminated(f, v);
                if !holds_next {
                    add_known(&mut out, f.clone(), v.clone(), &vec![(*since, t + 1)]);
                }
                holds_next
            });
            for (f, v) in &fired.inits {
                if !held.iter().any(|(f2, v2, _)| same(f2, f) && same(v2, v)) {
                    held.push((f.clone(), v.clone(), t + 1));
                }
            }
        }
        for (f, v, since) in held {
            add_known(&mut out, f, v, &vec![(since, OPEN)]);
        }
        out
    }

    /// Fires `rule` on every event at `t` that matches its first
    /// literal, solving the rest of the body at `t`.
    fn fire(&self, rule: &SimpleRule, t: Timepoint, events: &[Term], fired: &mut Firings) {
        // Validation guarantees a positive `happensAt` first.
        let Some(BodyLiteral::HappensAt {
            negated: false,
            event,
        }) = rule.body.first()
        else {
            return;
        };
        for ev in events {
            let mut b = Bindings::new();
            if !match_term(event, ev, &mut b) {
                continue;
            }
            if b.lookup(rule.time_var).is_none() {
                b.bind(rule.time_var, Term::Int(t));
            }
            self.solve(&rule.body[1..], t, &mut b, &mut |b| {
                let fluent = rule.fvp.fluent.apply(b);
                let value = rule.fvp.value.apply(b);
                match rule.kind {
                    SimpleKind::Terminated => fired.terms.push((fluent, value)),
                    // A non-ground initiation cannot create an instance.
                    SimpleKind::Initiated if fluent.is_ground() && value.is_ground() => {
                        fired.inits.push((fluent, value))
                    }
                    SimpleKind::Initiated => {}
                }
            });
        }
    }

    /// Solves simple-rule body literals at `t`, left to right, calling
    /// `on_solution` once per solution; `b` is restored on return.
    fn solve(
        &self,
        body: &[BodyLiteral],
        t: Timepoint,
        b: &mut Bindings,
        on_solution: &mut dyn FnMut(&Bindings),
    ) {
        let Some((lit, rest)) = body.split_first() else {
            on_solution(b);
            return;
        };
        let mark = b.len();
        let events = self.events.get(&t).map_or(&[][..], Vec::as_slice);
        match lit {
            BodyLiteral::HappensAt {
                negated: false,
                event,
            } => {
                for ev in events {
                    if match_term(event, ev, b) {
                        self.solve(rest, t, b, on_solution);
                        b.truncate(mark);
                    }
                }
            }
            BodyLiteral::HappensAt {
                negated: true,
                event,
            } => {
                let pattern = event.apply(b);
                if !events.iter().any(|ev| same(&pattern, ev)) {
                    self.solve(rest, t, b, on_solution);
                }
            }
            BodyLiteral::HoldsAt { negated, fvp } => {
                let (fluent, value) = (fvp.fluent.apply(b), fvp.value.apply(b));
                let instances = self.instances(fluent.signature());
                if *negated {
                    let any = instances.iter().any(|k| {
                        let mut fresh = Bindings::new();
                        match_term(&fluent, &k.fluent, &mut fresh)
                            && match_term(&value, &k.value, &mut fresh)
                            && holds_at(&k.runs, t)
                    });
                    if !any {
                        self.solve(rest, t, b, on_solution);
                    }
                } else {
                    for k in instances {
                        if match_term(&fluent, &k.fluent, b)
                            && match_term(&value, &k.value, b)
                            && holds_at(&k.runs, t)
                        {
                            self.solve(rest, t, b, on_solution);
                        }
                        b.truncate(mark);
                    }
                }
            }
            BodyLiteral::Atemporal { negated, pattern } => self.lookup(*negated, pattern, b, |b| {
                self.solve(rest, t, b, on_solution)
            }),
            BodyLiteral::Compare { op, lhs, rhs } => {
                if compare(*op, lhs, rhs, b, &self.symbols) {
                    self.solve(rest, t, b, on_solution);
                }
                b.truncate(mark);
            }
        }
    }

    /// A background lookup: `then` once per matching fact, or, negated,
    /// once when no fact matches. `b` is restored on return.
    fn lookup(
        &self,
        negated: bool,
        pattern: &Term,
        b: &mut Bindings,
        mut then: impl FnMut(&mut Bindings),
    ) {
        let mark = b.len();
        if negated {
            let pattern = pattern.apply(b);
            if !self.desc.facts.iter().any(|fact| same(&pattern, fact)) {
                then(b);
            }
            return;
        }
        for fact in self.desc.facts.iter() {
            if match_term(pattern, fact, b) {
                then(b);
            }
            b.truncate(mark);
        }
    }

    /// Adds to `derived` every head instance of one `holdsFor` rule.
    fn static_rule(&self, rule: &StaticRule, derived: &mut Vec<Known>) {
        let mut seeds = vec![Bindings::new()];
        for lit in &rule.body {
            let StaticLiteral::HoldsFor { fvp, .. } = lit else {
                continue;
            };
            for k in self.instances(fvp.fluent.signature()) {
                let mut b = Bindings::new();
                if match_term(&fvp.fluent, &k.fluent, &mut b)
                    && match_term(&fvp.value, &k.value, &mut b)
                {
                    seeds.push(b);
                }
            }
        }
        for mut b in seeds {
            let mut env: HashMap<rtec::Symbol, Runs> = HashMap::new();
            self.ground(rule, &rule.body, &mut b, &mut env, derived);
        }
    }

    /// Grounds the remaining `body` of `rule`, evaluating its interval
    /// expression point-wise into `env`, and records each ground head.
    fn ground(
        &self,
        rule: &StaticRule,
        body: &[StaticLiteral],
        b: &mut Bindings,
        env: &mut HashMap<rtec::Symbol, Runs>,
        derived: &mut Vec<Known>,
    ) {
        let Some((lit, rest)) = body.split_first() else {
            let (fluent, value) = (rule.fvp.fluent.apply(b), rule.fvp.value.apply(b));
            if fluent.is_ground() && value.is_ground() && !env[&rule.out].is_empty() {
                add_known(derived, fluent, value, &env[&rule.out]);
            }
            return;
        };
        let read =
            |vars: &[rtec::Symbol]| -> Vec<Runs> { vars.iter().map(|v| env[v].clone()).collect() };
        let computed = match lit {
            StaticLiteral::HoldsFor { fvp, out } => {
                let (fluent, value) = (fvp.fluent.apply(b), fvp.value.apply(b));
                let instances = self.instances(fluent.signature());
                if fluent.is_ground() && value.is_ground() {
                    let matching: Vec<&Runs> = instances
                        .iter()
                        .filter(|k| same(&fluent, &k.fluent) && same(&value, &k.value))
                        .map(|k| &k.runs)
                        .collect();
                    Some((*out, union(&matching)))
                } else {
                    let mark = b.len();
                    for k in instances {
                        if match_term(&fluent, &k.fluent, b) && match_term(&value, &k.value, b) {
                            env.insert(*out, k.runs.clone());
                            self.ground(rule, rest, b, env, derived);
                            env.remove(out);
                        }
                        b.truncate(mark);
                    }
                    None
                }
            }
            StaticLiteral::Union { inputs, out } => {
                let lists = read(inputs);
                Some((*out, union(&lists.iter().collect::<Vec<_>>())))
            }
            StaticLiteral::Intersect { inputs, out } => {
                let lists = read(inputs);
                let refs: Vec<&Runs> = lists.iter().collect();
                Some((*out, pointwise(&refs, |at| at.iter().all(|&h| h))))
            }
            StaticLiteral::RelComplement {
                base,
                subtract,
                out,
            } => {
                let lists = read(&[&[*base][..], subtract].concat());
                let refs: Vec<&Runs> = lists.iter().collect();
                let runs = pointwise(&refs, |at| at[0] && !at[1..].iter().any(|&h| h));
                Some((*out, runs))
            }
            StaticLiteral::Atemporal { negated, pattern } => {
                self.lookup(*negated, pattern, b, |b| {
                    self.ground(rule, rest, b, env, derived)
                });
                None
            }
            StaticLiteral::Compare { op, lhs, rhs } => {
                let mark = b.len();
                if compare(*op, lhs, rhs, b, &self.symbols) {
                    self.ground(rule, rest, b, env, derived);
                }
                b.truncate(mark);
                None
            }
        };
        if let Some((out, runs)) = computed {
            env.insert(out, runs);
            self.ground(rule, rest, b, env, derived);
            env.remove(&out);
        }
    }
}

/// Rendered FVP -> the runs it holds over.
pub type Rows = BTreeMap<String, Runs>;

pub fn engine_rows(engine: &Engine<'_>) -> Rows {
    engine
        .output()
        .iter()
        .map(|(fvp, list)| {
            let runs = list.iter().map(|iv| (iv.start, iv.end)).collect();
            (fvp.display(engine.symbols()), runs)
        })
        .collect()
}

/// A stream: events and input-fluent intervals, over their own symbols.
pub struct Feed {
    pub symbols: SymbolTable,
    pub events: Vec<(Term, Timepoint)>,
    pub inputs: Vec<(GroundFvp, IntervalList)>,
}

/// Runs `desc` over `feed` under `config`: the inputs first, then the
/// events up to each step of `steps` before the `run_to` of that step.
/// The last step is the horizon.
pub fn run_engine(
    desc: &CompiledDescription,
    config: EngineConfig,
    feed: &Feed,
    steps: &[Timepoint],
) -> Rows {
    let mut engine = Engine::new(desc, config);
    for (fvp, list) in &feed.inputs {
        engine.add_input_intervals_from(fvp, &feed.symbols, list.clone());
    }
    let mut from = Timepoint::MIN;
    for &to in steps {
        for (event, t) in feed.events.iter().filter(|(_, t)| *t > from && *t <= to) {
            engine.add_event_from(event, &feed.symbols, *t);
        }
        engine.run_to(to);
        from = to;
    }
    engine_rows(&engine)
}

pub fn reference_rows(desc: &CompiledDescription, feed: &Feed, horizon: Timepoint) -> Rows {
    let mut reference = Reference::new(desc);
    for (fvp, list) in &feed.inputs {
        reference.input(fvp, &feed.symbols, list);
    }
    for (event, t) in &feed.events {
        reference.event(event, &feed.symbols, *t);
    }
    reference.rows(horizon)
}

/// Runs the engine in batch, tumbling and sliding-incremental
/// configurations and asserts each one's rows at the horizon equal the
/// reference's. Returns the reference rows.
pub fn assert_agrees(
    desc: &CompiledDescription,
    feed: &Feed,
    steps: &[Timepoint],
    (window, slide): (Timepoint, Timepoint),
    what: &str,
) -> Rows {
    let horizon = *steps.last().expect("a horizon");
    let expected = reference_rows(desc, feed, horizon);
    for (label, config) in [
        ("batch", EngineConfig::default()),
        ("tumbling", EngineConfig::windowed(window)),
        (
            "sliding-incremental",
            EngineConfig::sliding(window, slide).with_incremental(true),
        ),
    ] {
        let actual = run_engine(desc, config, feed, steps);
        assert!(
            actual == expected,
            "{what}: {label} (window {window}, slide {slide}) disagrees with the reference\n\
             only in the engine: {:#?}\nonly in the reference: {:#?}",
            actual
                .iter()
                .filter(|(k, v)| expected.get(*k) != Some(v))
                .collect::<Vec<_>>(),
            expected
                .iter()
                .filter(|(k, v)| actual.get(*k) != Some(v))
                .collect::<Vec<_>>(),
        );
    }
    expected
}
