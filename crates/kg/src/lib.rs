#![warn(missing_docs)]

//! # dekg-kg
//!
//! Knowledge-graph substrate for the DEKG-ILP reproduction: vocabularies,
//! triple storage with secondary indexes, undirected adjacency, bounded
//! BFS, enclosing-subgraph extraction (both GraIL-style pruning and the
//! paper's improved union mode), and relation-component tables.
//!
//! The paper's setting (Definitions 1–4):
//!
//! * an **original KG** `G(E, R)` of training triples,
//! * a **disconnected emerging KG** `G'(E', R)` over unseen entities
//!   `E' ∩ E = ∅` sharing the relation set `R`,
//! * **enclosing links** entirely inside `G'`, and
//! * **bridging links** with one endpoint in each graph.
//!
//! Everything here is entity-id based; [`Vocab`] maps external names to
//! dense ids so adjacency and distance buffers can be flat vectors.

pub mod adjacency;
pub mod batch;
pub mod bfs;
pub mod component_table;
pub mod graph;
pub mod io;
pub mod paths;
pub mod store;
pub mod subgraph;
pub mod triple;
pub mod vocab;

pub use adjacency::Adjacency;
pub use batch::{BatchedSubgraphs, RelEdgeGroup};
pub use component_table::{ComponentRow, ComponentTable};
pub use graph::KnowledgeGraph;
pub use store::TripleStore;
pub use subgraph::{ExtractionMode, QueryExtractionCache, Subgraph, SubgraphExtractor};
pub use triple::Triple;
pub use vocab::{EntityId, RelationId, Vocab};
