#![warn(missing_docs)]

//! # dekg-gnn
//!
//! Graph-neural-network substrate for GSM (and the GraIL/TACT
//! baselines): the improved node-labeling featurizer, an R-GCN layer
//! with GraIL-style edge attention, and a multi-layer subgraph encoder
//! with average-pool readout.
//!
//! The encoder consumes [`dekg_kg::Subgraph`]s and produces, on a
//! [`dekg_tensor::Graph`] tape, the node embeddings `h_u^L`, the pooled
//! graph embedding `h_G^L` (Eq. 10 of the paper) and the endpoint
//! embeddings used by the topological score (Eq. 11).

pub mod encoder;
pub mod labeling;
pub mod rgcn;

pub use encoder::{
    BatchedEncodeWorkspace, EncodedSubgraph, SubgraphEncoder, SubgraphEncoderConfig,
};
pub use labeling::{node_features, LabelingMode};
pub use rgcn::{BatchedLayerScratch, MountedRgcnLayer, RgcnLayer, RgcnLayerConfig};
