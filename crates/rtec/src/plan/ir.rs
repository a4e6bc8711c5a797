//! The lowered, nameless rule representation executed by the plan
//! evaluator.
//!
//! Lowering replaces every logic variable with a dense per-rule *slot*
//! index, so unification reads and writes a flat array of interned
//! terms instead of scanning a name→term association list. Comparison
//! operands are lowered to arithmetic [`Expr`]s; the raw operands and
//! the original rules stay for warning texts and the flow analysis.

use crate::ast::{CmpOp, FluentKey, SimpleRule, StaticRule};
use crate::eval::arith::Expr;
use crate::symbol::Symbol;
use crate::term::Term;

/// A lowered term: like [`Term`], but variables are slot indices.
#[derive(Clone, Debug, PartialEq)]
pub enum LTerm {
    /// A rule variable, identified by its slot in the rule's [`VarTable`].
    Slot(u16),
    /// A constant.
    Atom(Symbol),
    /// An integer constant.
    Int(i64),
    /// A floating-point constant.
    Float(f64),
    /// A compound term.
    Compound(Symbol, Vec<LTerm>),
    /// A Prolog list.
    List(Vec<LTerm>),
}

impl LTerm {
    /// Whether the pattern has no slot.
    pub fn is_ground(&self) -> bool {
        match self {
            LTerm::Slot(_) => false,
            LTerm::Atom(_) | LTerm::Int(_) | LTerm::Float(_) => true,
            LTerm::Compound(_, items) | LTerm::List(items) => items.iter().all(LTerm::is_ground),
        }
    }

    /// The `(functor, arity)` of an atom or compound pattern.
    pub fn signature(&self) -> Option<(Symbol, usize)> {
        match self {
            LTerm::Atom(s) => Some((*s, 0)),
            LTerm::Compound(f, args) => Some((*f, args.len())),
            _ => None,
        }
    }

    /// The term this pattern was lowered from: each slot becomes its
    /// variable in `vars`.
    pub fn to_term(&self, vars: &VarTable) -> Term {
        match self {
            LTerm::Slot(s) => Term::Var(vars.syms[*s as usize]),
            LTerm::Atom(a) => Term::Atom(*a),
            LTerm::Int(i) => Term::Int(*i),
            LTerm::Float(x) => Term::Float(*x),
            LTerm::Compound(f, items) => {
                Term::Compound(*f, items.iter().map(|i| i.to_term(vars)).collect())
            }
            LTerm::List(items) => Term::List(items.iter().map(|i| i.to_term(vars)).collect()),
        }
    }

    /// Whether the pattern reads `slot`.
    pub fn uses_slot(&self, slot: u16) -> bool {
        match self {
            LTerm::Slot(s) => *s == slot,
            LTerm::Atom(_) | LTerm::Int(_) | LTerm::Float(_) => false,
            LTerm::Compound(_, items) | LTerm::List(items) => {
                items.iter().any(|i| i.uses_slot(slot))
            }
        }
    }
}

/// Per-rule variable table: maps each distinct variable symbol of the
/// rule to a slot index (its position in `syms`).
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    /// The variable symbols, indexed by slot.
    pub syms: Vec<Symbol>,
}

impl VarTable {
    /// Interns `sym`, returning its (possibly pre-existing) slot.
    pub fn intern(&mut self, sym: Symbol) -> u16 {
        if let Some(i) = self.slot(sym) {
            return i;
        }
        let i = u16::try_from(self.syms.len()).expect("more than 65535 variables in one rule");
        self.syms.push(sym);
        i
    }

    /// The slot of `sym`, if it is a variable of this rule.
    ///
    /// Rules rarely have more than ten variables, so a linear scan beats
    /// a hash map (mirroring the argument for [`crate::term::Bindings`]).
    pub fn slot(&self, sym: Symbol) -> Option<u16> {
        self.syms.iter().position(|s| *s == sym).map(|i| i as u16)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether the rule has no variables.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }
}

/// A lowered body literal of a simple-fluent rule (everything after the
/// leading `happensAt`).
#[derive(Clone, Debug)]
pub enum LBody {
    /// `[not] happensAt(E, T)`.
    HappensAt {
        /// Whether the literal is negated.
        negated: bool,
        /// The lowered event pattern.
        event: LTerm,
        /// The event signature when the pattern is a predicate
        /// (precomputed: applying bindings never changes functor or
        /// arity); `None` when the pattern is a bare variable and the
        /// signature must be taken from the materialized term.
        sig: Option<(Symbol, usize)>,
    },
    /// `[not] holdsAt(F=V, T)`.
    HoldsAt {
        /// Whether the literal is negated.
        negated: bool,
        /// The lowered fluent pattern.
        fluent: LTerm,
        /// The lowered value pattern.
        value: LTerm,
    },
    /// `[not] p(args...)` background lookup.
    Atemporal {
        /// Whether the literal is negated.
        negated: bool,
        /// The lowered fact pattern.
        pattern: LTerm,
        /// Pre-rendered "no background facts" warning. `Some` iff the
        /// description's fact store (immutable after compilation) has no
        /// fact with this pattern's signature, so the condition is
        /// decided once, at lowering. Only positive literals warn.
        sig_warn: Option<String>,
    },
    /// An arithmetic comparison.
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// The operands, lowered.
        lowered: LCompare,
    },
}

/// The operands of a comparison, lowered twice: as arithmetic for the
/// numeric case, and as patterns for `=`/`\=` over non-numeric terms and
/// for the texts of failures that display the operands as bound.
#[derive(Clone, Debug)]
pub struct LCompare {
    /// Left operand as arithmetic.
    pub lhs: Expr,
    /// Right operand as arithmetic.
    pub rhs: Expr,
    /// Left operand as a pattern.
    pub lhs_term: LTerm,
    /// Right operand as a pattern.
    pub rhs_term: LTerm,
}

/// A lowered simple-fluent rule.
#[derive(Clone, Debug)]
pub struct LoweredSimple {
    /// The original rule, kept for head-warning texts ([`crate::ast::Fvp::display`])
    /// and the initiation/termination kind.
    pub rule: SimpleRule,
    /// The rule's variable table.
    pub vars: VarTable,
    /// The leading positive `happensAt` pattern, lowered.
    pub first_event: LTerm,
    /// The leading pattern's signature (validation guarantees a
    /// predicate here; rules without one are dropped at lowering).
    pub first_sig: (Symbol, usize),
    /// Slot of the rule's time variable.
    pub time_slot: u16,
    /// Whether a pattern or comparison of the rule reads the time
    /// variable, which the executor then binds per event.
    pub reads_time: bool,
    /// The remaining body literals, lowered.
    pub body: Vec<LBody>,
    /// The lowered head fluent pattern.
    pub head_fluent: LTerm,
    /// The lowered head value pattern.
    pub head_value: LTerm,
}

/// A lowered body element of a statically-determined-fluent rule.
#[derive(Clone, Debug)]
pub enum LStatic {
    /// `holdsFor(F=V, I)`.
    HoldsFor {
        /// The lowered fluent pattern.
        fluent: LTerm,
        /// The lowered value pattern.
        value: LTerm,
        /// Destination interval register.
        out: u16,
    },
    /// `union_all([...], Out)`, possibly with fused upstream inputs.
    Union {
        /// Source interval registers.
        inputs: Vec<u16>,
        /// Destination interval register.
        out: u16,
    },
    /// `intersect_all([...], Out)`, possibly with fused upstream inputs.
    Intersect {
        /// Source interval registers.
        inputs: Vec<u16>,
        /// Destination interval register.
        out: u16,
    },
    /// `relative_complement_all(I, [...], Out)`; fused unions feed the
    /// subtrahend list directly.
    RelComplement {
        /// Base interval register.
        base: u16,
        /// Interval registers whose union is subtracted.
        subtract: Vec<u16>,
        /// Destination interval register.
        out: u16,
    },
    /// `[not] p(args...)` background lookup.
    Atemporal {
        /// Whether the literal is negated.
        negated: bool,
        /// The lowered fact pattern.
        pattern: LTerm,
        /// Pre-rendered "no background facts" warning (see
        /// [`LBody::Atemporal::sig_warn`]).
        sig_warn: Option<String>,
    },
    /// An arithmetic comparison (see [`LBody::Compare`]).
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// The operands, lowered.
        lowered: LCompare,
    },
}

/// A lowered statically-determined-fluent rule.
#[derive(Clone, Debug)]
pub struct LoweredStatic {
    /// The original rule, kept for warning texts and the flow analysis.
    pub rule: StaticRule,
    /// The rule's variable table.
    pub vars: VarTable,
    /// The lowered body, with fused interval operators.
    pub body: Vec<LStatic>,
    /// The lowered head fluent pattern.
    pub head_fluent: LTerm,
    /// The lowered head value pattern.
    pub head_value: LTerm,
    /// Register holding the head's interval list at emission time.
    pub out_reg: u16,
    /// Number of interval registers.
    pub n_regs: usize,
}

/// One entry of the precomputed bottom-up evaluation order: a defined
/// fluent plus its lowered rules. A fluent is either simple or static,
/// never both (enforced at description compilation).
#[derive(Clone, Debug)]
pub struct Stratum {
    /// The fluent this stratum derives.
    pub key: FluentKey,
    /// Whether the description defines this fluent with simple rules.
    /// Kept separate from `simple.is_empty()`: a simple fluent whose
    /// every rule was dropped at lowering must still run interval
    /// assembly, which re-emits intervals carried open by inertia.
    pub has_simple: bool,
    /// Whether the description defines this fluent with `holdsFor` rules.
    pub has_static: bool,
    /// Lowered `initiatedAt`/`terminatedAt` rules, in description order.
    pub simple: Vec<LoweredSimple>,
    /// Lowered `holdsFor` rules, in description order.
    pub statics: Vec<LoweredStatic>,
}
