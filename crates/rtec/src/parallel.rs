//! Entity extraction for entity-sharded recognition.
//!
//! Composite maritime activities are *relational*: most are per-vessel,
//! some (tugging, pilot boarding) relate vessels that interact. Two
//! vessels can only affect each other's activities if some input couples
//! them (here: a `proximity` interval or a shared event). A
//! [`Partitioner`] names the entities each input item mentions; a
//! sharded consumer (the streaming service's router) groups entities
//! into *interaction components* with a union-find over the coupling
//! inputs, pins components to shards round-robin in entity-discovery
//! order, runs one [`Engine`](crate::Engine) per shard, and merges the
//! shard outputs.
//!
//! # Correctness contract
//!
//! Sharding is sound iff no rule joins fluents of entities in *different*
//! components. Couplings are derived from the input stream (events that
//! mention several entities, input fluents such as `proximity` over
//! entity pairs), which covers event descriptions — like the maritime
//! one — whose only cross-entity joins go through such inputs. When every
//! coupling arrives before the first evaluation, the sharded output is
//! identical to a single-engine run.

use crate::term::{GroundFvp, Term};

/// Extracts the entity terms an event or input FVP mentions.
pub trait Partitioner: Sync {
    /// Entities mentioned by an input event (master-table term).
    fn event_entities(&self, event: &Term) -> Vec<Term>;
    /// Entities mentioned by an input fluent instance.
    fn fvp_entities(&self, fvp: &GroundFvp) -> Vec<Term>;
}

/// The convention of the maritime stream (and most RTEC event
/// descriptions): the first argument of an event is its subject entity;
/// every atom argument of an input fluent couples its entities.
pub struct FirstArgPartitioner;

impl Partitioner for FirstArgPartitioner {
    fn event_entities(&self, event: &Term) -> Vec<Term> {
        match event.args().first() {
            Some(t @ Term::Atom(_)) => vec![t.clone()],
            _ => Vec::new(),
        }
    }

    fn fvp_entities(&self, fvp: &GroundFvp) -> Vec<Term> {
        fvp.fluent
            .args()
            .iter()
            .filter(|a| matches!(a, Term::Atom(_)))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    #[test]
    fn first_arg_partitioner_extracts_entities() {
        let mut sym = SymbolTable::new();
        let ev = crate::parser::parse_term("start(v1)", &mut sym).unwrap();
        let p = FirstArgPartitioner;
        assert_eq!(p.event_entities(&ev).len(), 1);
        let f = crate::parser::parse_term("near(v0, v1)", &mut sym).unwrap();
        let t = crate::parser::parse_term("true", &mut sym).unwrap();
        let fvp = GroundFvp::new(f, t).unwrap();
        assert_eq!(p.fvp_entities(&fvp).len(), 2);
        // Numeric or variable first args yield no entity.
        let num = crate::parser::parse_term("tick(42)", &mut sym).unwrap();
        assert!(p.event_entities(&num).is_empty());
    }
}
