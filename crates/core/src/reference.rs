//! The tape-path reference scorer — the oracle the batched engine is
//! pinned against.
//!
//! [`TapeReference`] scores a [`DekgIlp`] the way the seed pipeline
//! did: φ_sem exactly as the model does, and φ_tpo one candidate
//! subgraph at a time through the autograd tape
//! ([`Gsm::score_subgraphs_eval`](crate::gsm::Gsm::score_subgraphs_eval)),
//! the same forward training records. It has no packing, no BFS reuse
//! and no threads of its own, so it shares none of the batched
//! engine's moving parts. Every production score must equal it bit for
//! bit; `evaluate(&TapeReference::new(&model), …)` is the end-to-end
//! oracle the tests run against.

use crate::model::DekgIlp;
use crate::traits::{InferenceGraph, LinkPredictor};
use dekg_kg::{RelationId, Subgraph, Triple};

/// Triples scored per tape: bounds tape memory on large candidate sets.
const CHUNK: usize = 64;

/// A [`LinkPredictor`] that scores a [`DekgIlp`] through the tape.
///
/// Extraction runs on the model's own extractor, one plain
/// [`extract`](dekg_kg::SubgraphExtractor::extract) per candidate.
#[derive(Debug, Clone, Copy)]
pub struct TapeReference<'m> {
    model: &'m DekgIlp,
}

impl<'m> TapeReference<'m> {
    /// Wraps `model`; its parameters are borrowed, not copied.
    pub fn new(model: &'m DekgIlp) -> Self {
        TapeReference { model }
    }
}

impl LinkPredictor for TapeReference<'_> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn score_batch(&self, graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
        if triples.is_empty() {
            return Vec::new();
        }
        let model = self.model;
        let extractor = model.extractor(graph);
        let mut scores = model.sem_scores(graph, triples);
        let mut tpo = Vec::with_capacity(triples.len());
        for chunk in triples.chunks(CHUNK) {
            let subgraphs: Vec<Subgraph> =
                chunk.iter().map(|t| extractor.extract(t.head, t.tail, None)).collect();
            let items: Vec<(&Subgraph, RelationId)> =
                subgraphs.iter().zip(chunk).map(|(sg, t)| (sg, t.rel)).collect();
            tpo.extend(model.gsm().score_subgraphs_eval(model.params(), &items));
        }
        for (s, t) in scores.iter_mut().zip(&tpo) {
            *s += t;
        }
        scores
    }

    fn num_parameters(&self) -> usize {
        self.model.num_parameters()
    }
}
