//! Per-layer values shared by more than one workload.

use crate::metrics::{Outcome, TENSOR_OPS};
use dekg_kg::Subgraph;

/// Shape counts over extracted subgraphs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shapes {
    subgraphs: u64,
    nodes: u64,
    edges: u64,
    /// Nodes with a −1 distance label (reached from one endpoint only).
    one_sided: u64,
}

impl Shapes {
    /// Counts `sgs`.
    pub fn add(&mut self, sgs: &[Subgraph]) {
        for sg in sgs {
            self.subgraphs += 1;
            self.nodes += sg.num_nodes() as u64;
            self.edges += sg.num_edges() as u64;
            self.one_sided += (0..sg.num_nodes())
                .filter(|&u| matches!(sg.label(u), (-1, _) | (_, -1)))
                .count() as u64;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, o: &Shapes) {
        self.subgraphs += o.subgraphs;
        self.nodes += o.nodes;
        self.edges += o.edges;
        self.one_sided += o.one_sided;
    }

    /// Subgraphs counted.
    pub fn subgraphs(&self) -> u64 {
        self.subgraphs
    }

    /// The `kg.subgraph.*` shape means.
    pub fn set(&self, out: &mut Outcome) {
        let n = self.subgraphs.max(1) as f64;
        out.set("kg.subgraph.nodes_mean", self.nodes as f64 / n);
        out.set("kg.subgraph.edges_mean", self.edges as f64 / n);
        out.set("kg.subgraph.one_sided_share", self.one_sided as f64 / self.nodes.max(1) as f64);
    }
}

/// The tensor profiler's rows for [`TENSOR_OPS`], read from the
/// existing `dekg_tensor::prof` snapshot.
pub fn set_tensor_profile(out: &mut Outcome) {
    let snap = dekg_tensor::prof::snapshot();
    for op in TENSOR_OPS {
        let row = snap.ops.iter().find(|o| o.op == op);
        let (fwd_s, bwd_s, calls, bytes) = row.map_or((0.0, 0.0, 0, 0), |r| {
            (
                r.forward_seconds,
                r.backward_seconds,
                r.total_calls(),
                r.forward_bytes + r.backward_bytes,
            )
        });
        out.set(format!("tensor.{op}.fwd_s"), fwd_s);
        out.set(format!("tensor.{op}.bwd_s"), bwd_s);
        out.set(format!("tensor.{op}.calls"), calls as f64);
        out.set(format!("tensor.{op}.mb"), bytes as f64 / 1e6);
    }
}
