//! Per-rule evaluation profiling: cost attribution, aggregation and
//! bounded-cardinality exposition.
//!
//! The engine's plan executor attributes self wall-time, invocation
//! counts and interval-algebra op counts to each fluent symbol as it
//! evaluates a window, flushing one [`WindowProfile`] per
//! window into a session-lifetime [`ProfileAggregate`]. This module is
//! deliberately string-keyed and engine-agnostic so the same shapes
//! serve the engine, the service's `profile` wire command, the CLI's
//! `--profile` table and the Prometheus scrape.
//!
//! Exposition is *bounded*: [`bounded_samples`] keeps the top-N rules
//! by self-time and rolls everything else into a single `other` sample,
//! so the scrape's label cardinality is capped by N regardless of how
//! many rules a description defines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default top-N cut for bounded exposition and rendered tables.
pub const DEFAULT_TOP_N: usize = 8;

/// What kind of rule a profile entry charges time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleKind {
    /// A simple fluent (initiatedAt/terminatedAt rules plus inertia).
    Simple,
    /// A statically determined fluent (holdsFor rules).
    Static,
}

impl RuleKind {
    /// Canonical lower-case spelling (used as a metric label value).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleKind::Simple => "simple",
            RuleKind::Static => "static",
        }
    }
}

/// Accumulated evaluation cost charged to one rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleCost {
    /// Number of times the rule's evaluation ran (once per window it
    /// participated in).
    pub calls: u64,
    /// Self wall-time in nanoseconds (time inside the rule's own
    /// evaluation, excluding other strata).
    pub self_ns: u64,
    /// Interval-algebra primitive operations (union / intersect /
    /// complement) executed while evaluating the rule.
    pub interval_ops: u64,
}

impl RuleCost {
    /// Self wall-time in whole microseconds.
    pub fn self_us(&self) -> u64 {
        self.self_ns / 1_000
    }

    /// Adds another cost into this one.
    pub fn add(&mut self, other: &RuleCost) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        self.interval_ops += other.interval_ops;
    }

    /// The cost left after subtracting `other` (saturating; used to
    /// derive per-tick deltas from two lifetime aggregates).
    pub fn saturating_sub(&self, other: &RuleCost) -> RuleCost {
        RuleCost {
            calls: self.calls.saturating_sub(other.calls),
            self_ns: self.self_ns.saturating_sub(other.self_ns),
            interval_ops: self.interval_ops.saturating_sub(other.interval_ops),
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.calls == 0 && self.self_ns == 0 && self.interval_ops == 0
    }
}

/// One attributed cost line: a rule name (`fluent/arity`), its kind and
/// its cost.
#[derive(Clone, Debug)]
pub struct ProfileEntry {
    /// Rule name, conventionally `functor/arity` of the defined fluent.
    pub name: String,
    /// Simple or statically determined.
    pub kind: RuleKind,
    /// The attributed cost.
    pub cost: RuleCost,
}

/// Per-rule costs of a single evaluated window, in evaluation
/// (stratification) order.
#[derive(Clone, Debug, Default)]
pub struct WindowProfile {
    /// One entry per rule evaluated in this window.
    pub entries: Vec<ProfileEntry>,
    /// Total wall time of the window evaluation, nanoseconds.
    pub total_ns: u64,
}

impl WindowProfile {
    /// An empty window profile.
    pub fn new() -> WindowProfile {
        WindowProfile::default()
    }

    /// Records one rule's cost for this window.
    pub fn record(&mut self, name: String, kind: RuleKind, self_ns: u64, interval_ops: u64) {
        self.entries.push(ProfileEntry {
            name,
            kind,
            cost: RuleCost {
                calls: 1,
                self_ns,
                interval_ops,
            },
        });
    }
}

/// Session-lifetime per-rule cost totals.
#[derive(Clone, Debug, Default)]
pub struct ProfileAggregate {
    entries: BTreeMap<(String, RuleKind), RuleCost>,
    /// Number of windows absorbed.
    pub windows: u64,
}

impl ProfileAggregate {
    /// An empty aggregate.
    pub fn new() -> ProfileAggregate {
        ProfileAggregate::default()
    }

    /// Folds one window's profile into the totals.
    pub fn absorb_window(&mut self, window: &WindowProfile) {
        self.windows += 1;
        for e in &window.entries {
            self.entries
                .entry((e.name.clone(), e.kind))
                .or_default()
                .add(&e.cost);
        }
    }

    /// Merges another aggregate into this one (e.g. combining per-shard
    /// engines of one session). Windows add; per-rule costs add.
    pub fn merge(&mut self, other: &ProfileAggregate) {
        self.windows += other.windows;
        for ((name, kind), cost) in &other.entries {
            self.entries
                .entry((name.clone(), *kind))
                .or_default()
                .add(cost);
        }
    }

    /// The per-tick (or per-anything) delta `self - earlier`, keeping
    /// only rules whose cost actually advanced.
    pub fn delta_since(&self, earlier: &ProfileAggregate) -> Vec<ProfileEntry> {
        let mut out = Vec::new();
        for ((name, kind), cost) in &self.entries {
            let before = earlier
                .entries
                .get(&(name.clone(), *kind))
                .copied()
                .unwrap_or_default();
            let d = cost.saturating_sub(&before);
            if !d.is_zero() {
                out.push(ProfileEntry {
                    name: name.clone(),
                    kind: *kind,
                    cost: d,
                });
            }
        }
        sort_by_cost(&mut out);
        out
    }

    /// Number of distinct rules attributed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been attributed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of every rule's cost.
    pub fn total(&self) -> RuleCost {
        let mut t = RuleCost::default();
        for cost in self.entries.values() {
            t.add(cost);
        }
        t
    }

    /// Every entry, sorted by self-time descending (name ascending on
    /// ties, so the order is deterministic).
    pub fn sorted(&self) -> Vec<ProfileEntry> {
        let mut out: Vec<ProfileEntry> = self
            .entries
            .iter()
            .map(|((name, kind), cost)| ProfileEntry {
                name: name.clone(),
                kind: *kind,
                cost: *cost,
            })
            .collect();
        sort_by_cost(&mut out);
        out
    }

    /// Renders a fixed-width top-N table (the `rtec run --profile`
    /// output). `top_n == 0` means all rules.
    pub fn render_table(&self, top_n: usize) -> String {
        let entries = self.sorted();
        let total = self.total();
        let shown = if top_n == 0 {
            entries.len()
        } else {
            top_n.min(entries.len())
        };
        let name_w = entries
            .iter()
            .take(shown)
            .map(|e| e.name.len())
            .chain(std::iter::once("rule".len()))
            .max()
            .unwrap_or(4);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:<6}  {:>8}  {:>12}  {:>12}  {:>6}",
            "rule", "kind", "calls", "self(us)", "ivl-ops", "share"
        );
        for e in entries.iter().take(shown) {
            let share = if total.self_ns == 0 {
                0.0
            } else {
                e.cost.self_ns as f64 * 100.0 / total.self_ns as f64
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:<6}  {:>8}  {:>12}  {:>12}  {:>5.1}%",
                e.name,
                e.kind.as_str(),
                e.cost.calls,
                e.cost.self_us(),
                e.cost.interval_ops,
                share
            );
        }
        if entries.len() > shown {
            let mut rest = RuleCost::default();
            for e in entries.iter().skip(shown) {
                rest.add(&e.cost);
            }
            let share = if total.self_ns == 0 {
                0.0
            } else {
                rest.self_ns as f64 * 100.0 / total.self_ns as f64
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:<6}  {:>8}  {:>12}  {:>12}  {:>5.1}%",
                format!("({} more)", entries.len() - shown),
                "-",
                rest.calls,
                rest.self_us(),
                rest.interval_ops,
                share
            );
        }
        let _ = writeln!(
            out,
            "{:<name_w$}  {:<6}  {:>8}  {:>12}  {:>12}  {:>6}",
            "total",
            "-",
            total.calls,
            total.self_us(),
            total.interval_ops,
            format!("{} win", self.windows)
        );
        out
    }
}

fn sort_by_cost(entries: &mut [ProfileEntry]) {
    entries.sort_by(|a, b| {
        b.cost
            .self_ns
            .cmp(&a.cost.self_ns)
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.kind.cmp(&b.kind))
    });
}

/// One bounded-exposition sample: a real rule, or the `other` rollup.
#[derive(Clone, Debug)]
pub struct BoundedSample {
    /// Rule name, or `"other"` for the rollup of everything past top-N.
    pub rule: String,
    /// `"simple"` / `"static"`, or `"all"` for the rollup.
    pub kind: &'static str,
    /// The (possibly rolled-up) cost.
    pub cost: RuleCost,
}

/// The top-N rules by self-time plus an `other` rollup — at most
/// `top_n + 1` samples, whatever the description size. The rollup is
/// emitted even when zero so the series set is stable across scrapes.
pub fn bounded_samples(aggregate: &ProfileAggregate, top_n: usize) -> Vec<BoundedSample> {
    let entries = aggregate.sorted();
    let shown = top_n.min(entries.len());
    let mut out: Vec<BoundedSample> = entries
        .iter()
        .take(shown)
        .map(|e| BoundedSample {
            rule: e.name.clone(),
            kind: e.kind.as_str(),
            cost: e.cost,
        })
        .collect();
    let mut rest = RuleCost::default();
    for e in entries.iter().skip(shown) {
        rest.add(&e.cost);
    }
    out.push(BoundedSample {
        rule: "other".to_string(),
        kind: "all",
        cost: rest,
    });
    out
}

/// Renders the three bounded per-rule gauge families
/// (`rtec_profile_rule_self_us` / `_calls` / `_interval_ops`) for a set
/// of sessions, Prometheus text format. Values are cumulative totals
/// sampled at scrape time; membership of the top-N set may shift
/// between scrapes, which is why these are gauges, not counters.
pub fn render_prometheus(out: &mut String, sessions: &[(&str, &ProfileAggregate)], top_n: usize) {
    /// One gauge family: name, help text, and the cost column it reads.
    type Family = (&'static str, &'static str, fn(&RuleCost) -> u64);
    let bounded: Vec<(&str, Vec<BoundedSample>)> = sessions
        .iter()
        .map(|(name, agg)| (*name, bounded_samples(agg, top_n)))
        .collect();
    let families: [Family; 3] = [
        (
            "rtec_profile_rule_self_us",
            "Cumulative self evaluation wall time per rule, microseconds \
             (top-N rules by self time; remainder rolled into rule=\"other\")",
            |c| c.self_us(),
        ),
        (
            "rtec_profile_rule_calls",
            "Cumulative rule evaluations (one per window the rule ran in; \
             top-N rules by self time, remainder in rule=\"other\")",
            |c| c.calls,
        ),
        (
            "rtec_profile_rule_interval_ops",
            "Cumulative interval-algebra primitive ops attributed per rule \
             (top-N rules by self time, remainder in rule=\"other\")",
            |c| c.interval_ops,
        ),
    ];
    for (name, help, value) in families {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (session, samples) in &bounded {
            for s in samples {
                let labels = crate::registry::render_labels(&[
                    ("session", session),
                    ("rule", &s.rule),
                    ("kind", s.kind),
                ]);
                let _ = writeln!(out, "{name}{{{labels}}} {}", value(&s.cost));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(entries: &[(&str, RuleKind, u64, u64)]) -> WindowProfile {
        let mut w = WindowProfile::new();
        for &(name, kind, ns, ops) in entries {
            w.record(name.to_string(), kind, ns, ops);
        }
        w.total_ns = entries.iter().map(|e| e.2).sum();
        w
    }

    #[test]
    fn aggregate_absorbs_and_merges() {
        let mut a = ProfileAggregate::new();
        a.absorb_window(&window(&[
            ("f/1", RuleKind::Simple, 3_000, 0),
            ("g/2", RuleKind::Static, 9_000, 4),
        ]));
        a.absorb_window(&window(&[("f/1", RuleKind::Simple, 2_000, 1)]));
        assert_eq!(a.windows, 2);
        let mut b = ProfileAggregate::new();
        b.absorb_window(&window(&[("g/2", RuleKind::Static, 1_000, 2)]));
        a.merge(&b);
        assert_eq!(a.windows, 3);
        let sorted = a.sorted();
        assert_eq!(sorted[0].name, "g/2");
        assert_eq!(sorted[0].cost.self_ns, 10_000);
        assert_eq!(sorted[0].cost.interval_ops, 6);
        assert_eq!(sorted[1].name, "f/1");
        assert_eq!(sorted[1].cost.calls, 2);
        let total = a.total();
        assert_eq!(total.self_us(), 15);
        assert_eq!(total.calls, 4);
    }

    #[test]
    fn delta_since_keeps_only_advanced_rules() {
        let mut before = ProfileAggregate::new();
        before.absorb_window(&window(&[
            ("f/1", RuleKind::Simple, 1_000, 0),
            ("g/2", RuleKind::Static, 5_000, 2),
        ]));
        let mut after = before.clone();
        after.absorb_window(&window(&[("g/2", RuleKind::Static, 7_000, 3)]));
        let delta = after.delta_since(&before);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].name, "g/2");
        assert_eq!(delta[0].cost.self_ns, 7_000);
        assert_eq!(delta[0].cost.calls, 1);
        assert_eq!(delta[0].cost.interval_ops, 3);
    }

    #[test]
    fn bounded_samples_cap_cardinality() {
        let mut agg = ProfileAggregate::new();
        // 100 rules, each with distinct cost — far past any sane top-N.
        let names: Vec<String> = (0..100).map(|i| format!("r{i}/1")).collect();
        let mut w = WindowProfile::new();
        for (i, name) in names.iter().enumerate() {
            w.record(name.clone(), RuleKind::Simple, (i as u64 + 1) * 100, 1);
        }
        agg.absorb_window(&w);
        let samples = bounded_samples(&agg, DEFAULT_TOP_N);
        assert_eq!(samples.len(), DEFAULT_TOP_N + 1);
        assert_eq!(samples.last().unwrap().rule, "other");
        assert_eq!(samples.last().unwrap().kind, "all");
        // Everything is accounted for: top-N + other == total.
        let mut sum = RuleCost::default();
        for s in &samples {
            sum.add(&s.cost);
        }
        assert_eq!(sum, agg.total());
        // Top of the list is the most expensive rule.
        assert_eq!(samples[0].rule, "r99/1");
    }

    #[test]
    fn bounded_samples_emit_stable_other_when_small() {
        let mut agg = ProfileAggregate::new();
        agg.absorb_window(&window(&[("f/1", RuleKind::Simple, 1_000, 0)]));
        let samples = bounded_samples(&agg, 8);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].rule, "other");
        assert!(samples[1].cost.is_zero());
    }

    /// Byte-exact golden of the bounded exposition: the families the CI
    /// scrape check asserts on.
    #[test]
    fn prometheus_rendering_golden() {
        let mut agg = ProfileAggregate::new();
        agg.absorb_window(&window(&[
            ("slow/2", RuleKind::Static, 120_000, 7),
            ("fast/1", RuleKind::Simple, 30_000, 0),
            ("tail/1", RuleKind::Simple, 1_000, 1),
        ]));
        let mut out = String::new();
        render_prometheus(&mut out, &[("s1", &agg)], 2);
        let expected = "\
# HELP rtec_profile_rule_self_us Cumulative self evaluation wall time per rule, microseconds (top-N rules by self time; remainder rolled into rule=\"other\")
# TYPE rtec_profile_rule_self_us gauge
rtec_profile_rule_self_us{kind=\"static\",rule=\"slow/2\",session=\"s1\"} 120
rtec_profile_rule_self_us{kind=\"simple\",rule=\"fast/1\",session=\"s1\"} 30
rtec_profile_rule_self_us{kind=\"all\",rule=\"other\",session=\"s1\"} 1
# HELP rtec_profile_rule_calls Cumulative rule evaluations (one per window the rule ran in; top-N rules by self time, remainder in rule=\"other\")
# TYPE rtec_profile_rule_calls gauge
rtec_profile_rule_calls{kind=\"static\",rule=\"slow/2\",session=\"s1\"} 1
rtec_profile_rule_calls{kind=\"simple\",rule=\"fast/1\",session=\"s1\"} 1
rtec_profile_rule_calls{kind=\"all\",rule=\"other\",session=\"s1\"} 1
# HELP rtec_profile_rule_interval_ops Cumulative interval-algebra primitive ops attributed per rule (top-N rules by self time, remainder in rule=\"other\")
# TYPE rtec_profile_rule_interval_ops gauge
rtec_profile_rule_interval_ops{kind=\"static\",rule=\"slow/2\",session=\"s1\"} 7
rtec_profile_rule_interval_ops{kind=\"simple\",rule=\"fast/1\",session=\"s1\"} 0
rtec_profile_rule_interval_ops{kind=\"all\",rule=\"other\",session=\"s1\"} 1
";
        assert_eq!(out, expected);
        crate::expo::validate(&out).expect("bounded profile exposition is valid");
    }

    #[test]
    fn table_renders_top_n_with_rollup_and_total() {
        let mut agg = ProfileAggregate::new();
        agg.absorb_window(&window(&[
            ("a/1", RuleKind::Simple, 10_000, 1),
            ("b/1", RuleKind::Simple, 20_000, 2),
            ("c/1", RuleKind::Static, 30_000, 3),
        ]));
        let table = agg.render_table(2);
        assert!(table.contains("c/1"));
        assert!(table.contains("b/1"));
        assert!(!table.contains("a/1  "));
        assert!(table.contains("(1 more)"));
        assert!(table.contains("total"));
        assert!(table.contains("1 win"));
    }
}
