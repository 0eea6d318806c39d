#![warn(missing_docs)]

//! # dekg-tensor
//!
//! A small, self-contained dense-tensor and reverse-mode automatic
//! differentiation library. It is the numerical substrate for the
//! DEKG-ILP reproduction: every model (DEKG-ILP itself and all baselines)
//! expresses its forward pass as a [`Graph`] of operations over [`Tensor`]
//! values and obtains gradients for its [`ParamStore`] parameters via
//! [`Graph::backward`].
//!
//! Design points:
//!
//! * **Tape-based autograd.** A [`Graph`] is an arena of nodes indexed by
//!   [`Var`]. Recording an op stores its inputs and its forward value;
//!   [`Graph::backward`] sweeps the arena in reverse, accumulating
//!   gradients. No `Rc<RefCell<_>>` graphs, no lifetimes in user code.
//! * **Fresh tape per step.** Training loops create a new `Graph` each
//!   step, insert parameters as leaves, and apply the resulting
//!   [`GradStore`] with an optimizer from [`optim`]. This sidesteps every
//!   graph-reuse hazard.
//! * **Determinism.** All random initialization goes through explicit
//!   `Rng` arguments; given a fixed seed the whole stack is reproducible.
//!
//! ```
//! use dekg_tensor::{Graph, Tensor, ParamStore, optim::{Sgd, Optimizer}};
//!
//! let mut params = ParamStore::new();
//! let w = params.insert("w", Tensor::from_vec(vec![2], vec![1.0, -1.0]));
//!
//! // One gradient step minimizing ||w||^2.
//! let mut g = Graph::new();
//! let wv = g.param(&params, w);
//! let sq = g.mul(wv, wv);
//! let loss = g.sum_all(sq);
//! let grads = g.backward(loss);
//! Sgd::new(0.1).step(&mut params, &grads);
//!
//! assert!(params.get(w).data()[0] < 1.0);
//! ```

pub mod check;
pub mod gradcheck;
pub mod init;
pub mod interp;
pub mod kernels;
pub mod optim;
pub mod params;
pub mod prof;
pub mod serialize;
pub mod shape;
pub mod tape;
pub mod tapecheck;
pub mod tensor;

pub use check::{Diagnostic, Severity, ShapeError, ShapeErrorKind, ALL_OPS};
pub use interp::DiffBudget;
pub use params::{GradStore, ParamId, ParamStore};
pub use prof::{OpProfile, ProfSnapshot, TapeProfile};
pub use shape::Shape;
pub use tape::{Backward, Deferred, Graph, SharedGrads, Var};
pub use tapecheck::{MemoryPlan, TapeCache, TapeReport};
pub use tensor::Tensor;
