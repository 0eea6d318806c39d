//! A convenience bundle of vocabulary + triples for one KG.

use crate::store::TripleStore;
use crate::triple::Triple;
use crate::vocab::{EntityId, RelationId, Vocab};
use serde::{Deserialize, Serialize};

/// A named knowledge graph: a [`Vocab`] plus a [`TripleStore`].
///
/// Examples and IO use this type; the model stack mostly works on bare
/// stores with an externally shared vocabulary (original KG and DEKG
/// must share the relation space and keep entity ids disjoint, which a
/// single shared [`Vocab`] guarantees automatically).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeGraph {
    vocab: Vocab,
    store: TripleStore,
}

impl KnowledgeGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fact by names, interning as needed. Returns the triple.
    pub fn add_fact(&mut self, head: &str, rel: &str, tail: &str) -> Triple {
        let h = self.vocab.intern_entity(head);
        let r = self.vocab.intern_relation(rel);
        let t = self.vocab.intern_entity(tail);
        let triple = Triple::new(h, r, t);
        self.store.insert(triple);
        triple
    }

    /// Checks a fact by names; `false` when any name is unknown.
    pub fn has_fact(&self, head: &str, rel: &str, tail: &str) -> bool {
        match (self.vocab.entity(head), self.vocab.relation(rel), self.vocab.entity(tail)) {
            (Some(h), Some(r), Some(t)) => self.store.contains(&Triple::new(h, r, t)),
            _ => false,
        }
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Mutable vocabulary access (for pre-interning shared spaces).
    pub fn vocab_mut(&mut self) -> &mut Vocab {
        &mut self.vocab
    }

    /// The triple store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Renders a triple with names for display.
    pub fn render(&self, t: &Triple) -> String {
        format!(
            "({}, {}, {})",
            self.vocab.entity_name(t.head),
            self.vocab.relation_name(t.rel),
            self.vocab.entity_name(t.tail)
        )
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

/// Resolved ids of a fact expressed with names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedFact {
    /// Head entity id.
    pub head: EntityId,
    /// Relation id.
    pub rel: RelationId,
    /// Tail entity id.
    pub tail: EntityId,
}

impl KnowledgeGraph {
    /// Resolves names to ids without interning.
    pub fn resolve(&self, head: &str, rel: &str, tail: &str) -> Option<ResolvedFact> {
        Some(ResolvedFact {
            head: self.vocab.entity(head)?,
            rel: self.vocab.relation(rel)?,
            tail: self.vocab.entity(tail)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_by_name() {
        let mut kg = KnowledgeGraph::new();
        kg.add_fact("thunder", "employ", "russell");
        kg.add_fact("russell", "teammate", "kevin_love");
        assert!(kg.has_fact("thunder", "employ", "russell"));
        assert!(!kg.has_fact("russell", "employ", "thunder"));
        assert!(!kg.has_fact("unknown", "employ", "russell"));
        assert_eq!(kg.len(), 2);
    }

    #[test]
    fn render_roundtrips_names() {
        let mut kg = KnowledgeGraph::new();
        let t = kg.add_fact("a", "likes", "b");
        assert_eq!(kg.render(&t), "(a, likes, b)");
    }

    #[test]
    fn resolve_does_not_intern() {
        let mut kg = KnowledgeGraph::new();
        kg.add_fact("a", "r", "b");
        assert!(kg.resolve("a", "r", "b").is_some());
        assert!(kg.resolve("a", "r", "zzz").is_none());
        assert_eq!(kg.vocab().num_entities(), 2);
    }
}
