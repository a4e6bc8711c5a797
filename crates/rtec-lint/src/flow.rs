//! `RL1xxx` flow diagnostics: findings derived from `rtec-analysis`'s
//! whole-program abstract interpretation of the evaluation plan.
//!
//! Where the `RL0xxx` passes reason about one clause (or one dependency
//! edge) at a time, the flow pass propagates value domains and
//! reachability through the entire stratified program, so it catches
//! rules that are individually well-formed but *jointly* dead — a
//! contradiction only visible after narrowing against background facts,
//! a fluent value no upstream rule can produce, or emptiness that flows
//! transitively through a chain of dependent fluents.
//!
//! Routing: the analysis classifies each empty rule with an
//! [`EmptyReason`]; reasons that duplicate an existing `RL0xxx` finding
//! are routed there instead of double-reporting —
//! [`EmptyReason::NeverHolds`] feeds `RL0501` (see
//! [`checks::dead_rules`](crate::checks::dead_rules)) and
//! [`EmptyReason::UnreachableTrigger`] is already `RL0102`.

use crate::checks::diag;
use crate::model::DescriptionModel;
use crate::{codes, Diagnostic};
use rtec::ast::FluentKey;
use rtec::error::Severity;
use rtec_analysis::{Analysis, EmptyReason, RuleKind};
use std::collections::BTreeSet;

/// The defined fluents that can never hold under lint semantics —
/// consumed by `dead_rules` part (b) so that `RL0501` also fires for
/// rules that are only reachable through statically-empty fluents.
pub fn never_holding(analysis: &Analysis, model: &DescriptionModel<'_>) -> BTreeSet<FluentKey> {
    analysis
        .never_holding()
        .filter(|f| !model.input_fluents.contains(&f.key))
        .map(|f| f.key)
        .collect()
}

/// RL1001 / RL1002 / RL1003.
pub fn flow_lints(analysis: &Analysis, model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    // RL1001: statically-empty rule bodies. Only reasons with no
    // dedicated RL0xxx code are reported here.
    for r in &analysis.rules {
        let Some(reason) = &r.empty else { continue };
        if matches!(
            reason,
            EmptyReason::Contradiction(_)
                | EmptyReason::DisjointValue { .. }
                | EmptyReason::EmptyAlgebra { .. }
        ) {
            out.push(diag(
                model,
                codes::EMPTY_RULE,
                Severity::Warning,
                Some(r.clause),
                format!("rule body is statically empty: {}", reason.describe()),
                Some(
                    "this rule can never fire on any input stream; fix the condition or remove it"
                        .into(),
                ),
            ));
        }
    }

    for f in &analysis.fluents {
        if model.input_fluents.contains(&f.key) {
            continue;
        }
        let anchor = f.clauses.first().copied();
        if !f.can_hold {
            // Only meaningful when something actually tries to derive
            // the fluent; a fluent with nothing but terminatedAt rules
            // is RL0501's "never initiated" finding.
            let has_derivation = analysis
                .rules
                .iter()
                .any(|r| r.head == f.key && r.kind != RuleKind::Terminated);
            if has_derivation {
                out.push(diag(
                    model,
                    codes::UNREACHABLE_FLUENT,
                    Severity::Warning,
                    anchor,
                    format!(
                        "fluent `{}` can never hold: every rule deriving it is statically empty",
                        f.name
                    ),
                    None,
                ));
            }
        } else if f.can_terminate == Some(false) {
            out.push(diag(
                model,
                codes::NON_TERMINATING_FLUENT,
                Severity::Warning,
                anchor,
                format!(
                    "fluent `{}` can never terminate once initiated: no satisfiable \
                     terminatedAt rule and a single initiation value, so its intervals \
                     only ever close at the forget horizon",
                    f.name
                ),
                Some("add a terminatedAt rule (or a second initiation value) for it".into()),
            ));
        }
    }
}
