//! Reverse-mode automatic differentiation on an arena tape.
//!
//! A [`Graph`] records every operation as a node in a flat arena. Each
//! node stores the operation, its input [`Var`]s and its forward value.
//! [`Graph::backward`] seeds the loss gradient with 1 and sweeps the
//! arena in reverse creation order (which is a valid reverse topological
//! order because inputs always precede outputs), accumulating gradients
//! into a [`GradStore`] keyed by [`ParamId`].
//!
//! The op set is exactly what the DEKG-ILP models and baselines need:
//! elementwise arithmetic, matmul, gathers/scatters for embedding lookup
//! and message passing, concatenation, reductions, pointwise
//! nonlinearities, dropout and an `im2col`-style flat gather that powers
//! the ConvE baseline's convolution.

use crate::kernels;
use crate::params::{GradStore, ParamId, ParamStore};
use crate::prof;
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node's arena index — matches [`crate::check::Diagnostic::node`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Sentinel index for [`Graph::gather_flat`]: positions carrying it read
/// as `0.0` and receive no gradient. Used to zero-pad `im2col` patches.
pub const PAD: usize = usize::MAX;

// Every payload is read by the f64 reference interpreter in
// `interp.rs`, which re-executes recorded tapes from this enum alone.
// When adding a variant: extend `check::ALL_OPS`/`op_ordinal`, the
// interpreter (forward + backward), and register a gradcheck in
// `gradcheck::registry` — the coverage audit fails until all exist.
#[derive(Debug)]
pub(crate) enum Op {
    /// A leaf value; `Some(id)` when it is a trainable parameter.
    Leaf(Option<ParamId>),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    AddScalar(Var, f32),
    MulScalar(Var, f32),
    Matmul(Var, Var),
    /// Block-row matmul: row `e` of `x [E, k]` times the `k`-row block
    /// `blocks[e]` of `w [B·k, n]`, giving `[E, n]`.
    RelMatmul {
        x: Var,
        w: Var,
        blocks: Vec<usize>,
    },
    /// Select rows `idx` of a rank-2 input.
    GatherRows(Var, Vec<usize>),
    /// Select arbitrary flat offsets (or [`PAD`]) into a new shape.
    GatherFlat(Var, Vec<usize>),
    /// Same data, new shape.
    Reshape(Var),
    /// Concatenate along axis 0 (rows).
    ConcatRows(Vec<Var>),
    /// Concatenate rank-2 inputs along axis 1 (columns).
    ConcatCols(Vec<Var>),
    SumAll(Var),
    MeanAll(Var),
    /// Column sums of a rank-2 input: `[m, n] -> [n]`.
    SumAxis0(Var),
    /// Row sums of a rank-2 input: `[m, n] -> [m]`.
    SumAxis1(Var),
    /// Column means of a rank-2 input: `[m, n] -> [n]`.
    MeanAxis0(Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Sqrt(Var),
    Exp(Var),
    Ln(Var),
    Sin(Var),
    Cos(Var),
    Square(Var),
    Abs(Var),
    /// Multiply by a precomputed inverted-dropout mask.
    Dropout(Var, Vec<f32>),
    /// Stack scalar vars into a rank-1 tensor.
    StackScalars(Vec<Var>),
    /// `out[idx[e], :] += src[e, :]` over `rows` output rows.
    ScatterAddRows {
        src: Var,
        idx: Vec<usize>,
        rows: usize,
    },
    /// Repeat a rank-1 `[d]` input as `rows` identical rows: `[rows, d]`.
    BroadcastRow(Var, usize),
}

struct Node {
    op: Op,
    value: Tensor,
    needs_grad: bool,
}

/// A single-use computation tape.
///
/// See the [module documentation](self) for the usage pattern.
#[derive(Default)]
pub struct Graph {
    /// Nodes recorded before [`Graph::fork`], read-only and shared with
    /// every tape forked at that point; empty on a tape never forked.
    shared: Arc<Vec<Node>>,
    /// Nodes recorded on this tape; node `i` here has index
    /// `shared.len() + i`.
    nodes: Vec<Node>,
    /// Whether this tape came out of [`Graph::fork`]: it may use the
    /// shared leaves but mount no parameter of its own.
    child: bool,
    /// The store every parameter on this tape was mounted from (its
    /// [`ParamStore::identity`]), fixed by the first [`Graph::param`].
    store: Option<u64>,
    /// The tape's one leaf per mounted parameter, by `ParamId` index.
    leaves: Vec<Option<Var>>,
    /// Nodes recorded by [`Graph::memo`]: `(tag, inputs, output)`.
    memos: Vec<(&'static str, Vec<Var>, Var)>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes, the shared ones of a forked tape
    /// included.
    pub fn len(&self) -> usize {
        self.shared.len() + self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node behind `v`, shared or recorded here.
    fn node(&self, v: Var) -> &Node {
        self.node_at(v.0)
    }

    fn node_at(&self, id: usize) -> &Node {
        match id.checked_sub(self.shared.len()) {
            Some(own) => &self.nodes[own],
            None => &self.shared[id],
        }
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.node(v).value
    }

    /// The shape of `v`'s value.
    pub fn shape(&self, v: Var) -> &Shape {
        self.node(v).value.shape()
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        let id = self.len();
        self.nodes.push(Node { op, value, needs_grad });
        Var(id)
    }

    /// [`push`](Self::push) plus per-op profiling: when `t` is armed
    /// (see [`crate::prof::set_enabled`]), folds the op's elapsed wall
    /// time and the bytes it moved — what its kernel reads plus the
    /// output written, 4 bytes per f32 — into the global profile tables.
    /// The timer is armed by the op constructor *before* it computes the
    /// forward value, so the elapsed time covers the kernel itself.
    fn push_prof(&mut self, op: Op, value: Tensor, needs_grad: bool, t: prof::ProfTimer) -> Var {
        if let Some(elapsed) = t.finish() {
            let bytes = (value.numel() + self.floats_read(&op)) as u64 * 4;
            prof::record_forward(crate::check::op_ordinal(&op), bytes, elapsed);
        }
        self.push(op, value, needs_grad)
    }

    /// The f32s `op`'s forward kernel reads: every input in full, except
    /// that a `RelMatmul` reads one `[k, n]` weight block per run of
    /// equal blocks and a `GatherRows` reads only the rows it gathers.
    fn floats_read(&self, op: &Op) -> usize {
        match op {
            Op::RelMatmul { x, w, blocks } => {
                let xv = &self.node(*x).value;
                let (_, k) = xv.shape().as_matrix();
                let (_, n) = self.node(*w).value.shape().as_matrix();
                xv.numel() + block_runs(blocks).count() * k * n
            }
            Op::GatherRows(a, idx) => idx.len() * self.node(*a).value.shape().as_matrix().1,
            _ => {
                let mut floats = 0;
                crate::check::for_each_input(op, |v| floats += self.node(v).value.numel());
                floats
            }
        }
    }

    fn needs(&self, v: Var) -> bool {
        self.node(v).needs_grad
    }

    /// The recorded op of a node (analyzer access).
    pub(crate) fn node_op(&self, v: Var) -> &Op {
        &self.node(v).op
    }

    /// The recorded forward value of a node (analyzer access).
    pub(crate) fn node_value(&self, v: Var) -> &Tensor {
        &self.node(v).value
    }

    /// True when `v` is a non-parameter leaf — a value the analyzer may
    /// treat as provably constant.
    pub(crate) fn is_constant(&self, v: Var) -> bool {
        let node = self.node(v);
        matches!(node.op, Op::Leaf(None)) && !node.needs_grad
    }

    /// Whether gradients flow through node `v` (analyzer access).
    pub(crate) fn node_needs_grad(&self, v: Var) -> bool {
        self.node(v).needs_grad
    }

    /// Runs the centralized shape inference of [`crate::check`] for an
    /// op about to be recorded, panicking with the typed
    /// [`crate::check::ShapeError`]'s message on failure. This is the
    /// single place eager construction validates shapes and indices.
    fn expect_shape(&self, op: &Op, declared: Option<&Shape>) -> Shape {
        match self.infer_shape(op, declared) {
            Ok(shape) => shape,
            // The would-be arena index of the op being validated is
            // nodes.len(): provenance for the panic message.
            Err(e) => {
                let e = e.with_context(crate::check::op_context(self, op, self.len(), None));
                panic!("{e}")
            }
        }
    }

    // ---- leaves ----

    /// Mounts parameter `id` from `store` as a differentiable leaf.
    ///
    /// A tape holds one leaf per parameter: the first call records it
    /// with the parameter's current value, and every later call returns
    /// that same leaf, so a step that scores many subgraphs copies each
    /// weight once and sums all of its gradient into one slot.
    ///
    /// # Panics
    /// If the tape already holds parameters of a different
    /// [`ParamStore`] (a clone counts as different): `ParamId`s index
    /// one store, so answering with the first store's leaf would be
    /// silently wrong.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let identity = store.identity();
        assert_eq!(
            *self.store.get_or_insert(identity),
            identity,
            "parameter {:?} mounted from a second ParamStore on one tape",
            store.name_of(id)
        );
        if let Some(&Some(leaf)) = self.leaves.get(id.index()) {
            return leaf;
        }
        assert!(
            !self.child,
            "parameter {:?} was not mounted before the fork: a forked tape mounts nothing",
            store.name_of(id)
        );
        let t = prof::start();
        let leaf = self.push_prof(Op::Leaf(Some(id)), store.get(id).clone(), true, t);
        if self.leaves.len() <= id.index() {
            self.leaves.resize(id.index() + 1, None);
        }
        self.leaves[id.index()] = Some(leaf);
        leaf
    }

    /// Records `build` once per tape for each `(tag, inputs)` key and
    /// returns the same node on every later call: for values derived
    /// from parameter leaves alone, which a step would otherwise
    /// recompute per use (an R-GCN layer's composed basis weights).
    /// `build` must be a pure function of `inputs`, and `tag` must name
    /// that function uniquely.
    pub fn memo(
        &mut self,
        tag: &'static str,
        inputs: &[Var],
        build: impl FnOnce(&mut Self) -> Var,
    ) -> Var {
        if let Some(&(_, _, out)) =
            self.memos.iter().find(|(t, key, _)| *t == tag && key.as_slice() == inputs)
        {
            return out;
        }
        let out = build(self);
        self.memos.push((tag, inputs.to_vec(), out));
        out
    }

    /// Freezes everything recorded so far into a prefix shared with the
    /// returned child tape, so that two threads can record and
    /// backpropagate on one mounted model at once.
    ///
    /// The child sees this tape's nodes, parameter leaves and
    /// [`Graph::memo`] results under their own `Var`s and records its own
    /// nodes after them; it mounts no new parameter. Both tapes keep
    /// recording independently, and a `Var` recorded after the fork is
    /// only meaningful on the tape that recorded it. Calling `fork` again
    /// with nothing recorded since returns another child of the same
    /// prefix; a tape forks at one point only.
    ///
    /// A forked step backpropagates this tape's own nodes first
    /// ([`Graph::backward_to_fork`], whose [`Backward::grad`] seeds the
    /// children), then each child ([`Graph::backward_forked`] writes the
    /// shared slots at once, [`Graph::backward_deferred`] holds them back
    /// for [`Deferred::replay`]), then the shared prefix
    /// ([`Graph::finish_backward`]). When children `C1 … Ck` make their
    /// shared writes in the order `Ck … C1`, the gradients equal, bit
    /// for bit, [`Graph::backward`] over one tape that recorded the
    /// prefix, then `C1 … Ck`, then this tape's own nodes, with each
    /// [`Graph::input`] standing for the child outputs it copies: every
    /// gradient slot receives the same writes, through the same kernel
    /// calls, in the same order.
    ///
    /// # Panics
    /// If this tape was forked before and recorded nodes since.
    pub fn fork(&mut self) -> Graph {
        if !self.nodes.is_empty() {
            assert!(self.shared.is_empty(), "a tape forks at one point only");
            self.shared = Arc::new(std::mem::take(&mut self.nodes));
        }
        Graph {
            shared: Arc::clone(&self.shared),
            nodes: Vec::new(),
            child: true,
            store: self.store,
            leaves: self.leaves.clone(),
            memos: self.memos.clone(),
        }
    }

    /// Inserts `value` as a differentiable leaf that is not a parameter:
    /// the seam where values computed on another tape (a forked child's
    /// outputs) enter this one. Its gradient is not propagated anywhere;
    /// read it from [`Backward::grad`] after [`Graph::backward_to_fork`].
    pub fn input(&mut self, value: Tensor) -> Var {
        let t = prof::start();
        self.push_prof(Op::Leaf(None), value, true, t)
    }

    /// Inserts a non-differentiable constant.
    pub fn constant(&mut self, value: Tensor) -> Var {
        let t = prof::start();
        self.push_prof(Op::Leaf(None), value, false, t)
    }

    /// Inserts a scalar constant.
    pub fn scalar(&mut self, value: f32) -> Var {
        self.constant(Tensor::scalar(value))
    }

    // ---- arithmetic ----

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let t = prof::start();
        let op = Op::Add(a, b);
        self.expect_shape(&op, None);
        let v = self.node(a).value.add(&self.node(b).value);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let t = prof::start();
        let op = Op::Sub(a, b);
        let shape = self.expect_shape(&op, None);
        let av = &self.node(a).value;
        let bv = &self.node(b).value;
        let data = av.data().iter().zip(bv.data()).map(|(&x, &y)| x - y).collect();
        let v = Tensor::from_vec(shape, data);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let t = prof::start();
        let op = Op::Mul(a, b);
        self.expect_shape(&op, None);
        let v = self.node(a).value.mul(&self.node(b).value);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Elementwise `a / b` (same shape).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let t = prof::start();
        let op = Op::Div(a, b);
        let shape = self.expect_shape(&op, None);
        let av = &self.node(a).value;
        let bv = &self.node(b).value;
        let data = av.data().iter().zip(bv.data()).map(|(&x, &y)| x / y).collect();
        let v = Tensor::from_vec(shape, data);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.scale(-1.0);
        let ng = self.needs(a);
        self.push_prof(Op::Neg(a), v, ng, t)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(|x| x + s);
        let ng = self.needs(a);
        self.push_prof(Op::AddScalar(a, s), v, ng, t)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let t = prof::start();
        let v = self.node(a).value.scale(s);
        let ng = self.needs(a);
        self.push_prof(Op::MulScalar(a, s), v, ng, t)
    }

    /// Matrix product of rank-2 vars.
    ///
    /// Edge-case contract (the reference interpreter replicates both,
    /// see `interp.rs`):
    /// * an exact `0.0` entry of `a` annihilates its whole term — even
    ///   against `Inf`/`NaN` in `b` — because the kernel skips zero
    ///   left factors (`kernels::matmul`'s sparsity shortcut);
    /// * a `0`-length inner dimension (`[m, 0] × [0, n]`) produces an
    ///   all-zero `[m, n]` result, the empty-sum convention.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t = prof::start();
        let op = Op::Matmul(a, b);
        self.expect_shape(&op, None);
        let v = self.node(a).value.matmul(&self.node(b).value);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Block-row matrix product: row `e` of `x [E, k]` is multiplied by
    /// rows `blocks[e]·k .. (blocks[e] + 1)·k` of `w [B·k, n]`, giving
    /// `[E, n]`. This is the R-GCN message primitive: one op applies
    /// every relation's weight to its edges, `w` stacking the `[k, n]`
    /// relation weights.
    ///
    /// Each maximal run of equal consecutive `blocks` is one
    /// [`kernels::matmul`] call, so the output is bit-identical to a
    /// separate [`Graph::matmul`] per run stacked by
    /// [`Graph::concat_rows`], zero-skip contract included. `blocks`
    /// need not be sorted and may skip blocks; a block that no row uses
    /// gets a zero gradient.
    ///
    /// # Panics
    /// If `w`'s row count is not a multiple of `k`, a block lies past
    /// `w`'s rows, or `blocks.len()` differs from `x`'s row count.
    pub fn rel_matmul(&mut self, x: Var, w: Var, blocks: &[usize]) -> Var {
        let t = prof::start();
        let op = Op::RelMatmul { x, w, blocks: blocks.to_vec() };
        let shape = self.expect_shape(&op, None);
        let (_, k) = self.node(x).value.shape().as_matrix();
        let (_, n) = shape.as_matrix();
        let xv = self.node(x).value.data();
        let wv = self.node(w).value.data();
        let mut out = vec![0.0; shape.numel()];
        for (start, end, b) in block_runs(blocks) {
            kernels::matmul(
                &xv[start * k..end * k],
                &wv[b * k * n..(b + 1) * k * n],
                &mut out[start * n..end * n],
                end - start,
                k,
                n,
            );
        }
        let ng = self.needs(x) || self.needs(w);
        self.push_prof(op, Tensor::from_vec(shape, out), ng, t)
    }

    // ---- structure ----

    /// Selects rows `idx` of a rank-2 var, producing `[idx.len(), cols]`.
    ///
    /// This is the embedding-lookup primitive; indices may repeat.
    pub fn gather_rows(&mut self, a: Var, idx: &[usize]) -> Var {
        let t = prof::start();
        let op = Op::GatherRows(a, idx.to_vec());
        let shape = self.expect_shape(&op, None);
        let av = &self.node(a).value;
        let (_, cols) = av.shape().as_matrix();
        let mut data = Vec::with_capacity(idx.len() * cols);
        for &i in idx {
            data.extend_from_slice(av.row(i));
        }
        let v = Tensor::from_vec(shape, data);
        let ng = self.needs(a);
        self.push_prof(op, v, ng, t)
    }

    /// Gathers arbitrary flat offsets of `a` into a tensor of `shape`.
    ///
    /// Offsets equal to [`PAD`] read as `0.0`. This is the `im2col`
    /// primitive behind the ConvE baseline's `im2col` convolution.
    /// A row of exclusively `PAD` offsets is legal: it reads all zeros
    /// and routes no gradient anywhere — the backward pass produces an
    /// explicit zero gradient for `a`, not a missing one.
    ///
    /// # Panics
    /// If `idx.len() != shape.numel()` or any non-PAD offset is out of
    /// bounds.
    pub fn gather_flat(&mut self, a: Var, idx: &[usize], shape: impl Into<Shape>) -> Var {
        let t = prof::start();
        let shape = shape.into();
        let op = Op::GatherFlat(a, idx.to_vec());
        let shape = self.expect_shape(&op, Some(&shape));
        let av = self.node(a).value.data();
        let data = idx.iter().map(|&i| if i == PAD { 0.0 } else { av[i] }).collect();
        let v = Tensor::from_vec(shape, data);
        let ng = self.needs(a);
        self.push_prof(op, v, ng, t)
    }

    /// Reinterprets `a` under a new shape (same element count).
    pub fn reshape(&mut self, a: Var, shape: impl Into<Shape>) -> Var {
        let t = prof::start();
        let shape = shape.into();
        let op = Op::Reshape(a);
        let shape = self.expect_shape(&op, Some(&shape));
        let v = self.node(a).value.clone().reshape(shape);
        let ng = self.needs(a);
        self.push_prof(op, v, ng, t)
    }

    /// Concatenates along axis 0. Rank-1 inputs concatenate into a longer
    /// rank-1; rank-2 inputs stack rows (equal column counts required).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let t = prof::start();
        let op = Op::ConcatRows(parts.to_vec());
        let shape = self.expect_shape(&op, None);
        let mut data = Vec::with_capacity(shape.numel());
        for &p in parts {
            data.extend_from_slice(self.node(p).value.data());
        }
        let v = Tensor::from_vec(shape, data);
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push_prof(op, v, ng, t)
    }

    /// Concatenates rank-2 inputs along axis 1 (equal row counts).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let t = prof::start();
        let op = Op::ConcatCols(parts.to_vec());
        let shape = self.expect_shape(&op, None);
        let (rows, total) = shape.as_matrix();
        let mut data = Vec::with_capacity(rows * total);
        for i in 0..rows {
            for &p in parts {
                data.extend_from_slice(self.node(p).value.row(i));
            }
        }
        let v = Tensor::from_vec(shape, data);
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push_prof(op, v, ng, t)
    }

    // ---- reductions ----

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = Tensor::scalar(self.node(a).value.sum());
        let ng = self.needs(a);
        self.push_prof(Op::SumAll(a), v, ng, t)
    }

    /// Mean of all elements (scalar output).
    ///
    /// The mean of an empty var is defined as `0.0` (and its backward
    /// pass divides by `numel().max(1)`), matching the interpreter.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = Tensor::scalar(self.node(a).value.mean());
        let ng = self.needs(a);
        self.push_prof(Op::MeanAll(a), v, ng, t)
    }

    /// Column sums of a rank-2 var: `[m, n] -> [n]`.
    pub fn sum_axis0(&mut self, a: Var) -> Var {
        let t = prof::start();
        let op = Op::SumAxis0(a);
        self.expect_shape(&op, None);
        let av = &self.node(a).value;
        let (m, n) = av.shape().as_matrix();
        let mut out = vec![0.0; n];
        for i in 0..m {
            kernels::add_assign(&mut out, av.row(i));
        }
        let ng = self.needs(a);
        self.push_prof(op, Tensor::from_vec(vec![n], out), ng, t)
    }

    /// Row sums of a rank-2 var: `[m, n] -> [m]`.
    pub fn sum_axis1(&mut self, a: Var) -> Var {
        let t = prof::start();
        let op = Op::SumAxis1(a);
        self.expect_shape(&op, None);
        let av = &self.node(a).value;
        let (m, _n) = av.shape().as_matrix();
        let out: Vec<f32> = (0..m).map(|i| av.row(i).iter().sum()).collect();
        let ng = self.needs(a);
        self.push_prof(op, Tensor::from_vec(vec![m], out), ng, t)
    }

    /// Column means of a rank-2 var: `[m, n] -> [n]`.
    ///
    /// `m == 0` yields the zero vector (empty-mean convention, same as
    /// [`Graph::mean_all`]).
    pub fn mean_axis0(&mut self, a: Var) -> Var {
        let t = prof::start();
        let op = Op::MeanAxis0(a);
        self.expect_shape(&op, None);
        let av = &self.node(a).value;
        let (m, n) = av.shape().as_matrix();
        let mut out = vec![0.0; n];
        for i in 0..m {
            kernels::add_assign(&mut out, av.row(i));
        }
        let inv = if m == 0 { 0.0 } else { 1.0 / m as f32 };
        for x in &mut out {
            *x *= inv;
        }
        let ng = self.needs(a);
        self.push_prof(op, Tensor::from_vec(vec![n], out), ng, t)
    }

    // ---- nonlinearities ----

    /// `max(0, x)` elementwise.
    pub fn relu(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push_prof(Op::Relu(a), v, ng, t)
    }

    /// Logistic sigmoid elementwise.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(|x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.needs(a);
        self.push_prof(Op::Sigmoid(a), v, ng, t)
    }

    /// Hyperbolic tangent elementwise.
    pub fn tanh(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(f32::tanh);
        let ng = self.needs(a);
        self.push_prof(Op::Tanh(a), v, ng, t)
    }

    /// Elementwise square root (inputs are expected non-negative).
    pub fn sqrt(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(f32::sqrt);
        let ng = self.needs(a);
        self.push_prof(Op::Sqrt(a), v, ng, t)
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(f32::exp);
        let ng = self.needs(a);
        self.push_prof(Op::Exp(a), v, ng, t)
    }

    /// Elementwise natural log.
    pub fn ln(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(f32::ln);
        let ng = self.needs(a);
        self.push_prof(Op::Ln(a), v, ng, t)
    }

    /// Elementwise sine.
    pub fn sin(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(f32::sin);
        let ng = self.needs(a);
        self.push_prof(Op::Sin(a), v, ng, t)
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(f32::cos);
        let ng = self.needs(a);
        self.push_prof(Op::Cos(a), v, ng, t)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(|x| x * x);
        let ng = self.needs(a);
        self.push_prof(Op::Square(a), v, ng, t)
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.node(a).value.map(f32::abs);
        let ng = self.needs(a);
        self.push_prof(Op::Abs(a), v, ng, t)
    }

    /// Inverted dropout: zeroes each element with probability `rate` and
    /// scales survivors by `1/(1-rate)`. `rate == 0` is the identity.
    pub fn dropout(&mut self, a: Var, rate: f32, rng: &mut impl Rng) -> Var {
        assert!((0.0..1.0).contains(&rate), "dropout rate {rate} outside [0, 1)");
        if rate == 0.0 {
            return a;
        }
        let t = prof::start();
        let keep = 1.0 - rate;
        let scale = 1.0 / keep;
        let av = &self.node(a).value;
        let mask: Vec<f32> =
            (0..av.numel()).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }).collect();
        let data = av.data().iter().zip(&mask).map(|(&x, &m)| x * m).collect();
        let v = Tensor::from_vec(av.shape().clone(), data);
        let ng = self.needs(a);
        self.push_prof(Op::Dropout(a, mask), v, ng, t)
    }

    // ---- graph-structured ops ----

    /// Stacks scalar vars into a rank-1 tensor `[parts.len()]`.
    pub fn stack_scalars(&mut self, parts: &[Var]) -> Var {
        let t = prof::start();
        let op = Op::StackScalars(parts.to_vec());
        let shape = self.expect_shape(&op, None);
        let data: Vec<f32> = parts.iter().map(|&p| self.node(p).value.data()[0]).collect();
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push_prof(op, Tensor::from_vec(shape, data), ng, t)
    }

    /// Row scatter-add: output has `rows` rows; row `idx[e]` accumulates
    /// `src[e, :]`. The message-aggregation primitive of the GNN.
    ///
    /// # Panics
    /// If `idx.len()` differs from `src`'s row count or any index is out
    /// of bounds.
    pub fn scatter_add_rows(&mut self, src: Var, idx: &[usize], rows: usize) -> Var {
        let t = prof::start();
        let op = Op::ScatterAddRows { src, idx: idx.to_vec(), rows };
        let shape = self.expect_shape(&op, None);
        let sv = &self.node(src).value;
        let mut out = Tensor::zeros(shape);
        for (r, &target) in idx.iter().enumerate() {
            kernels::add_assign(out.row_mut(target), sv.row(r));
        }
        let ng = self.needs(src);
        self.push_prof(op, out, ng, t)
    }

    /// Repeats a rank-1 `[d]` var into `[rows, d]`.
    pub fn broadcast_row(&mut self, a: Var, rows: usize) -> Var {
        let t = prof::start();
        let op = Op::BroadcastRow(a, rows);
        let shape = self.expect_shape(&op, None);
        let av = &self.node(a).value;
        let mut data = Vec::with_capacity(shape.numel());
        for _ in 0..rows {
            data.extend_from_slice(av.data());
        }
        let ng = self.needs(a);
        self.push_prof(op, Tensor::from_vec(shape, data), ng, t)
    }

    // ---- composites ----

    /// Row-wise squared L2 distance between `[m, d]` vars: `[m]`.
    pub fn rowwise_sq_dist(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.square(d);
        self.sum_axis1(sq)
    }

    /// Row-wise Euclidean distance between `[m, d]` vars: `[m]`.
    ///
    /// A small epsilon keeps the sqrt differentiable at zero distance.
    pub fn rowwise_dist(&mut self, a: Var, b: Var) -> Var {
        let sq = self.rowwise_sq_dist(a, b);
        let eps = self.add_scalar(sq, 1e-12);
        self.sqrt(eps)
    }

    /// DistMult-style trilinear score per row: `sum(a * r * b, axis=1)`.
    pub fn trilinear_rows(&mut self, a: Var, r: Var, b: Var) -> Var {
        let ar = self.mul(a, r);
        let arb = self.mul(ar, b);
        self.sum_axis1(arb)
    }

    /// Margin ranking loss `mean(relu(margin - pos + neg))` over rank-1
    /// score vectors.
    pub fn margin_ranking_loss(&mut self, pos: Var, neg: Var, margin: f32) -> Var {
        let diff = self.sub(neg, pos);
        let shifted = self.add_scalar(diff, margin);
        let hinge = self.relu(shifted);
        self.mean_all(hinge)
    }

    // ---- backward ----

    /// Runs the reverse sweep from the scalar `loss`, returning parameter
    /// gradients.
    ///
    /// # Panics
    /// If `loss` is not a scalar (1-element) value.
    pub fn backward(&self, loss: Var) -> GradStore {
        let seed = self.loss_seed(loss);
        let mut grads = empty_slots(self.len());
        grads[loss.0] = Some(seed);
        let mut store = GradStore::new();
        let mut slots = Slots::whole(&mut grads);
        self.sweep(0..loss.0 + 1, &mut slots, &mut store);
        store
    }

    /// The scalar `loss`'s seed gradient `1`, after the debug build's
    /// tapecheck shape pass.
    fn loss_seed(&self, loss: Var) -> Tensor {
        assert_eq!(
            self.node(loss).value.numel(),
            1,
            "backward() needs a scalar loss, got {}",
            self.node(loss).value.shape()
        );
        // In debug builds, run tapecheck's shape pass before sweeping so
        // corruption fails loudly at its origin node rather than as
        // garbage gradients. Release builds compile this out.
        #[cfg(debug_assertions)]
        if let Some(d) = crate::tapecheck::abstract_shapes(self, loss).1.first() {
            panic!("tape linter: {d}");
        }
        Tensor::from_vec(self.node(loss).value.shape().clone(), vec![1.0])
    }

    /// The first part of a forked step's backward (see [`Graph::fork`]):
    /// sweeps this tape's own nodes from the scalar `loss`, writing the
    /// shared nodes' gradient slots at once, and stops at the fork
    /// point. The returned [`Backward`] holds the [`Graph::input`]
    /// gradients that seed the children; the [`SharedGrads`] go through
    /// the children and then to [`Graph::finish_backward`].
    ///
    /// # Panics
    /// If `loss` is not a scalar recorded on this tape after the fork.
    pub fn backward_to_fork(&self, loss: Var) -> (Backward, SharedGrads) {
        let base = self.shared.len();
        assert!(loss.0 >= base, "the loss must be recorded after the fork");
        let seed = self.loss_seed(loss);
        let mut own = empty_slots(self.nodes.len());
        let mut shared = empty_slots(base);
        own[loss.0 - base] = Some(seed);
        let mut store = GradStore::new();
        let mut slots = Slots {
            base,
            own: &mut own,
            shared: &mut shared,
            shared_writes: true,
            part: None,
            own_writes: true,
        };
        self.sweep(base..loss.0 + 1, &mut slots, &mut store);
        (Backward { base, own, store }, SharedGrads(shared))
    }

    /// The last part of a forked step's backward: sweeps the shared
    /// prefix once every tape has written its slots, returning the
    /// parameter gradients of the whole step.
    ///
    /// # Panics
    /// If `sweep` or `shared` belong to another fork point.
    pub fn finish_backward(&self, sweep: Backward, shared: SharedGrads) -> GradStore {
        let base = self.shared.len();
        assert!(sweep.base == base && shared.0.len() == base, "gradients of another fork point");
        let Backward { mut store, .. } = sweep;
        let mut grads = shared.0;
        let mut slots = Slots::whole(&mut grads);
        self.sweep(0..base, &mut slots, &mut store);
        store
    }

    /// Backpropagates a forked child from `seeds` (each output's
    /// gradient, typically read off the parent's [`Backward::grad`]),
    /// writing the shared slots in `shared` at once, in sweep order. The
    /// sweep consumes the tape, freeing each value once no rule can read
    /// it again.
    ///
    /// # Panics
    /// If a seed is not a node of this tape or has another shape, or
    /// `shared` belongs to another fork point.
    pub fn backward_forked(self, seeds: Vec<(Var, Tensor)>, shared: &mut SharedGrads) {
        self.sweep_child(seeds, Some(&mut shared.0));
    }

    /// [`Graph::backward_forked`] with every write into a shared slot
    /// held back: each node that makes one keeps its incoming gradient
    /// (and the values its rule reads) in the returned [`Deferred`],
    /// whose [`Deferred::replay`] makes those writes later, once the
    /// tapes earlier in sweep order have made theirs. Writes into this
    /// tape's own slots happen now.
    ///
    /// # Panics
    /// As [`Graph::backward_forked`].
    pub fn backward_deferred(self, seeds: Vec<(Var, Tensor)>) -> Deferred {
        self.sweep_child(seeds, None)
    }

    fn sweep_child(
        mut self,
        seeds: Vec<(Var, Tensor)>,
        shared: Option<&mut [Option<Tensor>]>,
    ) -> Deferred {
        let base = self.shared.len();
        if let Some(s) = &shared {
            assert_eq!(s.len(), base, "gradients of another fork point");
        }
        let mut held = Vec::new();
        let mut own = empty_slots(self.nodes.len());
        let mut keep = vec![false; self.nodes.len()];
        let shared_writes = shared.is_some();
        let shared = shared.unwrap_or_default();
        let mut slots =
            Slots { base, own: &mut own, shared, shared_writes, part: None, own_writes: true };
        // A child holds no parameter leaf of its own (it mounts nothing).
        let mut no_leaves = GradStore::new();
        for (v, grad) in seeds {
            assert!(v.0 >= base && v.0 < self.len(), "seed {v:?} is not a node of this tape");
            assert_eq!(grad.shape(), self.node(v).value.shape(), "seed shape of {v:?}");
            // The rule `stack_scalars` applies to its parts.
            self.accum_owned(&mut slots, v, grad);
        }
        for id in (base..self.len()).rev() {
            if let Some(grad) = self.sweep_node(id, &mut slots, &mut no_leaves) {
                if !shared_writes && self.writes_shared(id) {
                    // The replay reads this node's value and its inputs'.
                    keep[id - base] = true;
                    crate::check::for_each_input(&self.node_at(id).op, |v| {
                        if let Some(own) = v.0.checked_sub(base) {
                            keep[own] = true;
                        }
                    });
                    held.push((id, grad));
                }
            }
            // Every rule that reads this value has run: its consumers
            // come later on the tape, and its own rule just ran.
            if !keep[id - base] {
                self.nodes[id - base].value.release();
            }
        }
        Deferred { tape: self, held }
    }

    /// Runs the reverse sweep over nodes `ids`, last first.
    fn sweep(&self, ids: std::ops::Range<usize>, slots: &mut Slots<'_>, store: &mut GradStore) {
        for id in ids.rev() {
            self.sweep_node(id, slots, store);
        }
    }

    /// Runs node `id`'s backward rule when its slot holds a gradient,
    /// returning that gradient. Input leaves keep theirs for
    /// [`Backward::grad`].
    fn sweep_node(
        &self,
        id: usize,
        slots: &mut Slots<'_>,
        store: &mut GradStore,
    ) -> Option<Tensor> {
        let node = self.node_at(id);
        if !node.needs_grad || matches!(node.op, Op::Leaf(None)) {
            return None;
        }
        let grad = slots.own[id - slots.base].take()?;
        let t = prof::start();
        self.backprop_node(id, &grad, slots, store);
        if let Some(elapsed) = t.finish() {
            prof::record_backward(
                crate::check::op_ordinal(&node.op),
                grad.numel() as u64 * 4,
                elapsed,
            );
        }
        Some(grad)
    }

    /// Whether node `id`'s rule writes a shared node's slot.
    fn writes_shared(&self, id: usize) -> bool {
        let mut shared = false;
        crate::check::for_each_input(&self.node_at(id).op, |v| {
            shared |= v.0 < self.shared.len() && self.node(v).needs_grad;
        });
        shared
    }

    /// Whether this sweep writes `v`'s gradient now.
    fn takes(&self, slots: &Slots<'_>, v: Var) -> bool {
        self.node(v).needs_grad && slots.routes(v)
    }

    fn accum(&self, slots: &mut Slots<'_>, v: Var, delta: &Tensor) {
        if !self.takes(slots, v) {
            return;
        }
        match slots.get(v) {
            Some(g) => kernels::add_assign(g.data_mut(), delta.data()),
            slot @ None => *slot = Some(delta.clone()),
        }
    }

    /// The gradient slot of `v`, zero-filled first if still empty, for
    /// backward rules that accumulate in place. Callers check
    /// [`Graph::takes`] first.
    fn grad_slot<'s>(&self, slots: &'s mut Slots<'_>, v: Var) -> &'s mut Tensor {
        slots.get(v).get_or_insert_with(|| Tensor::zeros(self.node(v).value.shape().clone()))
    }

    /// Like [`accum`] but takes ownership, avoiding a copy when the slot
    /// is empty.
    fn accum_owned(&self, slots: &mut Slots<'_>, v: Var, delta: Tensor) {
        self.accum_with(slots, v, || delta);
    }

    /// [`Graph::accum_owned`] of a delta computed only when this sweep
    /// writes `v`.
    fn accum_with(&self, slots: &mut Slots<'_>, v: Var, delta: impl FnOnce() -> Tensor) {
        if !self.takes(slots, v) {
            return;
        }
        let delta = delta();
        match slots.get(v) {
            Some(g) => kernels::add_assign(g.data_mut(), delta.data()),
            slot @ None => *slot = Some(delta),
        }
    }

    fn backprop_node(
        &self,
        id: usize,
        grad: &Tensor,
        slots: &mut Slots<'_>,
        store: &mut GradStore,
    ) {
        let node = self.node_at(id);
        match &node.op {
            Op::Leaf(Some(pid)) => {
                store.accumulate(*pid, grad);
            }
            Op::Leaf(None) => {}
            Op::Add(a, b) => {
                self.accum(slots, *a, grad);
                self.accum(slots, *b, grad);
            }
            Op::Sub(a, b) => {
                self.accum(slots, *a, grad);
                self.accum_with(slots, *b, || grad.scale(-1.0));
            }
            Op::Mul(a, b) => {
                self.accum_with(slots, *a, || grad.mul(&self.node(*b).value));
                self.accum_with(slots, *b, || grad.mul(&self.node(*a).value));
            }
            Op::Div(a, b) => {
                let bv = &self.node(*b).value;
                self.accum_with(slots, *a, || {
                    let d = grad.data().iter().zip(bv.data()).map(|(&g, &y)| g / y).collect();
                    Tensor::from_vec(grad.shape().clone(), d)
                });
                self.accum_with(slots, *b, || {
                    let av = &self.node(*a).value;
                    let d = grad
                        .data()
                        .iter()
                        .zip(av.data().iter().zip(bv.data()))
                        .map(|(&g, (&x, &y))| -g * x / (y * y))
                        .collect();
                    Tensor::from_vec(grad.shape().clone(), d)
                });
            }
            Op::Neg(a) => self.accum_with(slots, *a, || grad.scale(-1.0)),
            Op::AddScalar(a, _) => self.accum(slots, *a, grad),
            Op::MulScalar(a, s) => self.accum_with(slots, *a, || grad.scale(*s)),
            // The matmul rules accumulate straight into the operands'
            // gradient slots: zeros are allocated only for an empty
            // slot, never a fresh product buffer per call.
            Op::Matmul(a, b) => {
                let av = &self.node(*a).value;
                let bv = &self.node(*b).value;
                let (m, k) = av.shape().as_matrix();
                let (_, n) = bv.shape().as_matrix();
                if self.takes(slots, *a) {
                    // dA += dC * B^T
                    let da = self.grad_slot(slots, *a);
                    kernels::matmul_a_bt_acc(grad.data(), bv.data(), da.data_mut(), m, n, k);
                }
                if self.takes(slots, *b) {
                    // dB += A^T * dC
                    let db = self.grad_slot(slots, *b);
                    kernels::matmul_at_b_acc(av.data(), grad.data(), db.data_mut(), k, m, n);
                }
            }
            Op::RelMatmul { x, w, blocks } => {
                let xv = self.node(*x).value.data();
                let wv = self.node(*w).value.data();
                let (_, k) = self.node(*x).value.shape().as_matrix();
                let (_, n) = grad.shape().as_matrix();
                if self.takes(slots, *x) {
                    // dX[run] += dC[run] * W_b^T
                    let dx = self.grad_slot(slots, *x).data_mut();
                    for (start, end, b) in block_runs(blocks) {
                        kernels::matmul_a_bt_acc(
                            &grad.data()[start * n..end * n],
                            &wv[b * k * n..(b + 1) * k * n],
                            &mut dx[start * k..end * k],
                            end - start,
                            n,
                            k,
                        );
                    }
                }
                if self.takes(slots, *w) {
                    // dW_b += X[run]^T * dC[run]
                    let dw = self.grad_slot(slots, *w).data_mut();
                    for (start, end, b) in block_runs(blocks) {
                        kernels::matmul_at_b_acc(
                            &xv[start * k..end * k],
                            &grad.data()[start * n..end * n],
                            &mut dw[b * k * n..(b + 1) * k * n],
                            k,
                            end - start,
                            n,
                        );
                    }
                }
            }
            Op::GatherRows(a, idx) => {
                // Sparse: each gathered row's gradient goes straight into
                // the input's slot. Zeros are allocated only when the slot
                // is still empty, never a dense copy per call.
                if self.takes(slots, *a) {
                    let da = self.grad_slot(slots, *a);
                    for (r, &i) in idx.iter().enumerate() {
                        kernels::add_assign(da.row_mut(i), grad.row(r));
                    }
                }
            }
            Op::GatherFlat(a, idx) => self.accum_with(slots, *a, || {
                let mut da = Tensor::zeros(self.node(*a).value.shape().clone());
                let dd = da.data_mut();
                for (pos, &i) in idx.iter().enumerate() {
                    if i != PAD {
                        dd[i] += grad.data()[pos];
                    }
                }
                da
            }),
            Op::Reshape(a) => self.accum_with(slots, *a, || {
                grad.clone().reshape(self.node(*a).value.shape().clone())
            }),
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let pv = &self.node(p).value;
                    let n = pv.numel();
                    self.accum_with(slots, p, || {
                        Tensor::from_vec(pv.shape().clone(), grad.data()[off..off + n].to_vec())
                    });
                    off += n;
                }
            }
            Op::ConcatCols(parts) => {
                let (rows, _) = grad.shape().as_matrix();
                let mut col_off = 0;
                for &p in parts {
                    let (_, c) = self.node(p).value.shape().as_matrix();
                    self.accum_with(slots, p, || {
                        let mut dp = Tensor::zeros([rows, c]);
                        for i in 0..rows {
                            dp.row_mut(i).copy_from_slice(&grad.row(i)[col_off..col_off + c]);
                        }
                        dp
                    });
                    col_off += c;
                }
            }
            Op::SumAll(a) => self.accum_with(slots, *a, || {
                Tensor::full(self.node(*a).value.shape().clone(), grad.item())
            }),
            Op::MeanAll(a) => self.accum_with(slots, *a, || {
                let n = self.node(*a).value.numel().max(1);
                Tensor::full(self.node(*a).value.shape().clone(), grad.item() / n as f32)
            }),
            Op::SumAxis0(a) => self.accum_with(slots, *a, || {
                let (m, n) = self.node(*a).value.shape().as_matrix();
                let mut da = Tensor::zeros([m, n]);
                for i in 0..m {
                    da.row_mut(i).copy_from_slice(grad.data());
                }
                da
            }),
            Op::SumAxis1(a) => self.accum_with(slots, *a, || {
                let (m, n) = self.node(*a).value.shape().as_matrix();
                let mut da = Tensor::zeros([m, n]);
                for i in 0..m {
                    let g = grad.data()[i];
                    for x in da.row_mut(i) {
                        *x = g;
                    }
                }
                da
            }),
            Op::MeanAxis0(a) => self.accum_with(slots, *a, || {
                let (m, n) = self.node(*a).value.shape().as_matrix();
                let inv = if m == 0 { 0.0 } else { 1.0 / m as f32 };
                let mut da = Tensor::zeros([m, n]);
                for i in 0..m {
                    for (x, &g) in da.row_mut(i).iter_mut().zip(grad.data()) {
                        *x = g * inv;
                    }
                }
                da
            }),
            Op::Relu(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &self.node(*a).value, |g, x| if x > 0.0 { g } else { 0.0 })
            }),
            Op::Sigmoid(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &node.value, |g, y| g * y * (1.0 - y))
            }),
            Op::Tanh(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &node.value, |g, y| g * (1.0 - y * y))
            }),
            Op::Sqrt(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &node.value, |g, y| if y > 0.0 { g * 0.5 / y } else { 0.0 })
            }),
            Op::Exp(a) => {
                self.accum_with(slots, *a, || self.zip_grad(grad, &node.value, |g, y| g * y));
            }
            Op::Ln(a) => self
                .accum_with(slots, *a, || self.zip_grad(grad, &self.node(*a).value, |g, x| g / x)),
            Op::Sin(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &self.node(*a).value, |g, x| g * x.cos())
            }),
            Op::Cos(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &self.node(*a).value, |g, x| -g * x.sin())
            }),
            Op::Square(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &self.node(*a).value, |g, x| 2.0 * g * x)
            }),
            Op::Abs(a) => self.accum_with(slots, *a, || {
                self.zip_grad(grad, &self.node(*a).value, |g, x| if x >= 0.0 { g } else { -g })
            }),
            Op::Dropout(a, mask) => self.accum_with(slots, *a, || {
                let d = grad.data().iter().zip(mask).map(|(&g, &m)| g * m).collect();
                Tensor::from_vec(grad.shape().clone(), d)
            }),
            Op::StackScalars(parts) => {
                for (i, &p) in parts.iter().enumerate() {
                    self.accum_with(slots, p, || {
                        Tensor::from_vec(self.node(p).value.shape().clone(), vec![grad.data()[i]])
                    });
                }
            }
            Op::ScatterAddRows { src, idx, rows: _ } => self.accum_with(slots, *src, || {
                let (e, cols) = self.node(*src).value.shape().as_matrix();
                let mut ds = Tensor::zeros([e, cols]);
                for (r, &target) in idx.iter().enumerate() {
                    ds.row_mut(r).copy_from_slice(grad.row(target));
                }
                ds
            }),
            Op::BroadcastRow(a, rows) => self.accum_with(slots, *a, || {
                let d = self.node(*a).value.numel();
                let mut da = Tensor::zeros([d]);
                for r in 0..*rows {
                    kernels::add_assign(da.data_mut(), grad.row(r));
                }
                da
            }),
        }
    }

    /// `f(grad, value)` elementwise, shaped like `grad`: the pointwise
    /// backward rules.
    fn zip_grad(&self, grad: &Tensor, value: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let d = grad.data().iter().zip(value.data()).map(|(&g, &x)| f(g, x)).collect();
        Tensor::from_vec(grad.shape().clone(), d)
    }
}

/// `n` empty gradient slots.
fn empty_slots(n: usize) -> Vec<Option<Tensor>> {
    (0..n).map(|_| None).collect()
}

/// Where one reverse sweep reads and writes gradient slots.
struct Slots<'a> {
    /// Index of the first node `own` covers.
    base: usize,
    /// Slots of nodes `base..`.
    own: &'a mut [Option<Tensor>],
    /// Slots of the shared nodes `..base`.
    shared: &'a mut [Option<Tensor>],
    /// False while [`Graph::backward_deferred`] holds writes into the
    /// shared slots back.
    shared_writes: bool,
    /// When set, only the shared slots whose mark equals the flag are
    /// written ([`Deferred::replay_part`]).
    part: Option<(&'a [bool], bool)>,
    /// False while [`Deferred::replay`] makes held-back writes: the sweep
    /// that held them made the same nodes' writes into `own`.
    own_writes: bool,
}

impl<'a> Slots<'a> {
    /// One tape's slots, none shared.
    fn whole(own: &'a mut [Option<Tensor>]) -> Self {
        Slots { base: 0, own, shared: &mut [], shared_writes: false, part: None, own_writes: true }
    }

    /// Whether writes into `v`'s slot happen in this sweep.
    fn routes(&self, v: Var) -> bool {
        if v.0 >= self.base {
            self.own_writes
        } else {
            self.shared_writes && self.part.map_or(true, |(marks, side)| marks[v.0] == side)
        }
    }

    /// `v`'s slot; only for a `v` this sweep [routes](Self::routes).
    fn get(&mut self, v: Var) -> &mut Option<Tensor> {
        match v.0.checked_sub(self.base) {
            Some(own) => &mut self.own[own],
            None => &mut self.shared[v.0],
        }
    }
}

/// A forked parent's backward, paused at the fork point by
/// [`Graph::backward_to_fork`] and ended by [`Graph::finish_backward`].
pub struct Backward {
    base: usize,
    /// Slots of the parent's own nodes; after the sweep only the
    /// [`Graph::input`] leaves' are left.
    own: Vec<Option<Tensor>>,
    /// Gradients of the parent's own parameter leaves.
    store: GradStore,
}

impl Backward {
    /// The gradient reaching [`Graph::input`] leaf `v`, if the loss
    /// depends on it (`None` too for a `v` recorded before the fork).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        let own = v.0.checked_sub(self.base)?;
        self.own.get(own).and_then(Option::as_ref)
    }
}

/// The gradient slots of a fork point's shared nodes. It travels from
/// [`Graph::backward_to_fork`] through the children's sweeps (by value
/// across threads) to [`Graph::finish_backward`].
pub struct SharedGrads(Vec<Option<Tensor>>);

impl SharedGrads {
    /// Moves the slots `marks` selects into a new set (the others stay
    /// here, and read as empty there), so another thread can write them.
    pub fn take_marked(&mut self, marks: &[bool]) -> SharedGrads {
        let slots = self.0.iter_mut().zip(marks);
        SharedGrads(slots.map(|(slot, &marked)| if marked { slot.take() } else { None }).collect())
    }

    /// Moves the slots `marks` selects back from `part`.
    pub fn restore_marked(&mut self, part: SharedGrads, marks: &[bool]) {
        for ((slot, back), &marked) in self.0.iter_mut().zip(part.0).zip(marks) {
            if marked {
                *slot = back;
            }
        }
    }
}

/// Shared-slot writes [`Graph::backward_deferred`] held back: the swept
/// tape (each value a held write reads, no other) and each writing
/// node's index and incoming gradient, in sweep order.
pub struct Deferred {
    tape: Graph,
    held: Vec<(usize, Tensor)>,
}

impl Deferred {
    /// Makes the held-back shared-slot writes, in their sweep order,
    /// through the same backward rules (so the same kernel calls and the
    /// same empty-slot rule).
    ///
    /// # Panics
    /// If `shared` belongs to another fork point.
    pub fn replay(&self, shared: &mut SharedGrads) {
        self.replay_where(shared, None);
    }

    /// [`Deferred::replay`] restricted to the shared slots whose mark in
    /// `marks` equals `side`. Writes into different slots commute, so two
    /// threads may replay the two sides at once, each into its own
    /// [`SharedGrads::take_marked`] part.
    ///
    /// # Panics
    /// As [`Deferred::replay`], or if `marks` is shorter than the shared
    /// prefix.
    pub fn replay_part(&self, shared: &mut SharedGrads, marks: &[bool], side: bool) {
        self.replay_where(shared, Some((marks, side)));
    }

    fn replay_where(&self, shared: &mut SharedGrads, part: Option<(&[bool], bool)>) {
        let tape = &self.tape;
        let base = tape.shared.len();
        assert_eq!(shared.0.len(), base, "gradients of another fork point");
        let mut slots = Slots {
            base,
            own: &mut [],
            shared: &mut shared.0,
            shared_writes: true,
            part,
            own_writes: false,
        };
        let mut no_leaves = GradStore::new();
        for (id, grad) in &self.held {
            tape.backprop_node(*id, grad, &mut slots, &mut no_leaves);
        }
    }

    /// Marks the shared slots the held writes go to so that the marked
    /// and the unmarked ones take about equal kernel work to replay
    /// (multiply-adds of the matmul rules, one per gradient element
    /// otherwise), for two threads to replay a side each.
    pub fn split_slots(&self) -> Vec<bool> {
        let tape = &self.tape;
        let base = tape.shared.len();
        let mut work = vec![0usize; base];
        for (id, grad) in &self.held {
            let op = &tape.node_at(*id).op;
            let inner = match op {
                Op::Matmul(a, _) | Op::RelMatmul { x: a, .. } => tape.shape(*a).as_matrix().1,
                _ => 1,
            };
            crate::check::for_each_input(op, |v| {
                if v.0 < base && tape.node(v).needs_grad {
                    work[v.0] += grad.numel() * inner.max(1);
                }
            });
        }
        // Heaviest first onto the lighter side; ties keep slot order.
        let mut order: Vec<usize> = (0..base).filter(|&i| work[i] > 0).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(work[i]));
        let mut marks = vec![false; base];
        let (mut unmarked, mut marked) = (0, 0);
        for i in order {
            if marked < unmarked {
                marks[i] = true;
                marked += work[i];
            } else {
                unmarked += work[i];
            }
        }
        marks
    }
}

/// Maximal runs of equal consecutive entries of `blocks`, as
/// `(start, end, block)` with `blocks[start..end]` all equal to `block`,
/// in row order: the units [`Graph::rel_matmul`] multiplies.
fn block_runs(blocks: &[usize]) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let &b = blocks.get(start)?;
        let end = start + blocks[start..].iter().take_while(|&&x| x == b).count();
        let run = (start, end, b);
        start = end;
        Some(run)
    })
}

/// Fault injection for analyzer tests: these deliberately record broken
/// nodes that the eager constructors would reject, so
/// [`crate::tapecheck`] has something to find.
#[cfg(test)]
impl Graph {
    /// Records a `GatherRows` without bounds validation; out-of-range
    /// rows read as zeros.
    pub(crate) fn fault_gather_rows_unchecked(&mut self, a: Var, idx: &[usize]) -> Var {
        let av = &self.node(a).value;
        let (rows, cols) = av.shape().as_matrix();
        let mut data = Vec::with_capacity(idx.len() * cols);
        for &i in idx {
            if i < rows {
                data.extend_from_slice(av.row(i));
            } else {
                data.extend(std::iter::repeat(0.0).take(cols));
            }
        }
        let v = Tensor::from_vec(vec![idx.len(), cols], data);
        let ng = self.needs(a);
        self.push(Op::GatherRows(a, idx.to_vec()), v, ng)
    }

    /// Records a `RelMatmul` without shape or bounds validation; rows
    /// whose block lies past `w` read as zeros.
    pub(crate) fn fault_rel_matmul_unchecked(&mut self, x: Var, w: Var, blocks: &[usize]) -> Var {
        let (e, k) = self.node(x).value.shape().as_matrix();
        let (w_rows, n) = self.node(w).value.shape().as_matrix();
        let mut data = vec![0.0; e * n];
        for (row, &b) in blocks.iter().enumerate() {
            if b < w_rows / k {
                let x_row = &self.node(x).value.data()[row * k..(row + 1) * k];
                let w_block = &self.node(w).value.data()[b * k * n..(b + 1) * k * n];
                kernels::matmul(x_row, w_block, &mut data[row * n..(row + 1) * n], 1, k, n);
            }
        }
        let ng = self.needs(x) || self.needs(w);
        let op = Op::RelMatmul { x, w, blocks: blocks.to_vec() };
        self.push(op, Tensor::from_vec(vec![e, n], data), ng)
    }

    /// Overwrites a node's recorded forward value, breaking the
    /// op/value shape agreement tapecheck's shape pass verifies.
    pub(crate) fn fault_override_value(&mut self, v: Var, value: Tensor) {
        let own = v.0 - self.shared.len();
        self.nodes[own].value = value;
    }

    /// Records a `Dropout` with a caller-chosen mask (which the RNG draw
    /// in [`Graph::dropout`] can never produce when it is non-finite).
    pub(crate) fn fault_dropout_with_mask(&mut self, a: Var, mask: Vec<f32>) -> Var {
        let av = &self.node(a).value;
        let data = av.data().iter().zip(&mask).map(|(&x, &m)| x * m).collect();
        let v = Tensor::from_vec(av.shape().clone(), data);
        let ng = self.needs(a);
        self.push(Op::Dropout(a, mask), v, ng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn store_with(shape: impl Into<Shape>, data: Vec<f32>) -> (ParamStore, ParamId) {
        let mut ps = ParamStore::new();
        let id = ps.insert("p", Tensor::from_vec(shape, data));
        (ps, id)
    }

    #[test]
    fn a_second_store_on_one_tape_fails_loudly() {
        let (first, id) = store_with([1], vec![1.0]);
        let (second, other) = store_with([1], vec![2.0]);
        assert_eq!(id, other, "both stores hand out the same first id");
        for (what, store) in [("a second store", &second), ("a clone", &first.clone())] {
            let mut g = Graph::new();
            let leaf = g.param(&first, id);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.param(store, id);
            }))
            .expect_err(what);
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("mounted from a second ParamStore"), "{what}: {msg}");
            assert_eq!(g.value(leaf).data(), &[1.0], "{what}");
            assert_eq!(g.len(), 1, "{what}: nothing recorded");
        }
    }

    #[test]
    fn memo_records_once_per_key() {
        let (ps, id) = store_with([2], vec![1.0, 2.0]);
        let mut g = Graph::new();
        let p = g.param(&ps, id);
        let mut builds = 0;
        let mut twice = |g: &mut Graph, tag| {
            g.memo(tag, &[p], |g| {
                builds += 1;
                g.add(p, p)
            })
        };
        let a = twice(&mut g, "double");
        let b = twice(&mut g, "double");
        let c = twice(&mut g, "other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(builds, 2);
        assert_eq!(g.len(), 3);
    }

    /// Central-difference gradient check for a scalar function of one
    /// parameter tensor.
    #[allow(clippy::needless_pass_by_value)] // call-site ergonomics: literals go in directly
    fn grad_check(
        shape: impl Into<Shape> + Clone,
        data: Vec<f32>,
        f: impl Fn(&mut Graph, Var) -> Var,
    ) {
        let (mut ps, id) = store_with(shape.clone(), data.clone());

        let mut g = Graph::new();
        let p = g.param(&ps, id);
        let loss = f(&mut g, p);
        let analytic = g.backward(loss);
        let an = analytic.get(id).expect("param should have grad").clone();

        let eps = 1e-3f32;
        for i in 0..data.len() {
            let orig = ps.get(id).data()[i];
            ps.get_mut(id).data_mut()[i] = orig + eps;
            let mut gp = Graph::new();
            let pp = gp.param(&ps, id);
            let lp = f(&mut gp, pp);
            let fp = gp.value(lp).item();

            ps.get_mut(id).data_mut()[i] = orig - eps;
            let mut gm = Graph::new();
            let pm = gm.param(&ps, id);
            let lm = f(&mut gm, pm);
            let fm = gm.value(lm).item();
            ps.get_mut(id).data_mut()[i] = orig;

            let numeric = (fp - fm) / (2.0 * eps);
            let a = an.data()[i];
            assert!(
                (numeric - a).abs() < 1e-2 * (1.0 + numeric.abs().max(a.abs())),
                "grad mismatch at {i}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    #[test]
    fn grad_sum_of_squares() {
        grad_check([3], vec![1.0, -2.0, 0.5], |g, p| {
            let sq = g.square(p);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_matmul() {
        grad_check([2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], |g, p| {
            let w = g.constant(Tensor::from_vec([3, 2], vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.0]));
            let y = g.matmul(p, w);
            let s = g.square(y);
            g.sum_all(s)
        });
    }

    #[test]
    fn grad_matmul_right_operand() {
        grad_check([3, 2], vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.0], |g, p| {
            let x = g.constant(Tensor::from_vec([2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]));
            let y = g.matmul(x, p);
            let s = g.square(y);
            g.sum_all(s)
        });
    }

    /// One Var is the left operand of two matmuls and the right operand
    /// of a third. The reverse sweep reaches the third product first,
    /// so its rule fills the empty slot and the two later rules add
    /// into the filled one; the sum must match central differences.
    #[test]
    fn matmul_backward_accumulates_in_place_across_uses() {
        grad_check([2, 2], vec![0.5, -1.0, 2.0, 0.25], |g, p| {
            let a = g.constant(Tensor::from_vec([2, 3], vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.0]));
            let b = g.constant(Tensor::from_vec([2, 2], vec![-0.5, 1.5, 0.75, -2.0]));
            let c = g.constant(Tensor::from_vec([3, 2], vec![0.3, -0.7, 1.1, 0.0, -0.4, 0.9]));
            let y1 = g.matmul(p, a);
            let y2 = g.matmul(p, b);
            let y3 = g.matmul(c, p);
            let s1 = g.square(y1);
            let s2 = g.square(y2);
            let s3 = g.square(y3);
            let l1 = g.sum_all(s1);
            let l2 = g.sum_all(s2);
            let l3 = g.sum_all(s3);
            let l12 = g.add(l1, l2);
            g.add(l12, l3)
        });
    }

    /// `rel_matmul` is bit-identical to one `matmul` per run of equal
    /// blocks stacked by `concat_rows`, for unsorted blocks with a
    /// block in two separate runs.
    #[test]
    fn rel_matmul_matches_per_run_matmuls_bitwise() {
        let (k, n) = (3, 2);
        let xs: Vec<f32> = (0..5 * k).map(|i| (i as f32 * 0.7).sin()).collect();
        let ws: Vec<f32> = (0..3 * k * n).map(|i| (i as f32 * 1.3).cos()).collect();
        let blocks = [2, 2, 0, 2, 1];
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec([5, k], xs));
        let w = g.constant(Tensor::from_vec([3 * k, n], ws));
        let fused = g.rel_matmul(x, w, &blocks);
        let mut parts = Vec::new();
        for (rows, b) in [(0..2, 2), (2..3, 0), (3..4, 2), (4..5, 1)] {
            let xr = g.gather_rows(x, &rows.collect::<Vec<_>>());
            let wb = g.gather_rows(w, &(b * k..(b + 1) * k).collect::<Vec<_>>());
            parts.push(g.matmul(xr, wb));
        }
        let stacked = g.concat_rows(&parts);
        let bits = |v: Var| g.value(v).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(g.shape(fused).dims(), &[5, n]);
        assert_eq!(bits(fused), bits(stacked));
    }

    #[test]
    fn grad_sigmoid_tanh_exp_ln() {
        grad_check([3], vec![0.3, 1.2, 2.0], |g, p| {
            let a = g.sigmoid(p);
            let b = g.tanh(a);
            let c = g.exp(b);
            let d = g.ln(c);
            g.sum_all(d)
        });
    }

    #[test]
    fn grad_sin_cos() {
        grad_check([3], vec![0.1, -0.7, 2.2], |g, p| {
            let s = g.sin(p);
            let c = g.cos(p);
            let m = g.mul(s, c);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_div() {
        grad_check([2], vec![1.5, -0.4], |g, p| {
            let denom = g.constant(Tensor::from_vec([2], vec![2.0, 4.0]));
            let q = g.div(p, denom);
            g.sum_all(q)
        });
        // denominator side
        grad_check([2], vec![2.0, 4.0], |g, p| {
            let num = g.constant(Tensor::from_vec([2], vec![1.5, -0.4]));
            let q = g.div(num, p);
            g.sum_all(q)
        });
    }

    #[test]
    fn grad_gather_rows() {
        grad_check([3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], |g, p| {
            let sel = g.gather_rows(p, &[0, 2, 0]);
            let s = g.square(sel);
            g.sum_all(s)
        });
    }

    #[test]
    fn grad_scatter_add() {
        grad_check([3, 2], vec![1.0, -1.0, 0.5, 2.0, 0.0, 1.0], |g, p| {
            let agg = g.scatter_add_rows(p, &[1, 0, 1], 2);
            let s = g.square(agg);
            g.sum_all(s)
        });
    }

    #[test]
    fn grad_concat_cols_and_rows() {
        grad_check([2, 2], vec![1.0, 2.0, 3.0, 4.0], |g, p| {
            let c = g.constant(Tensor::from_vec([2, 1], vec![5.0, 6.0]));
            let cat = g.concat_cols(&[p, c]);
            let cat2 = g.concat_rows(&[cat, cat]);
            let s = g.square(cat2);
            g.sum_all(s)
        });
    }

    #[test]
    fn grad_axis_reductions() {
        grad_check([2, 3], vec![1.0, -2.0, 3.0, 0.5, 1.5, -0.5], |g, p| {
            let s0 = g.sum_axis0(p);
            let s1 = g.sum_axis1(p);
            let m0 = g.mean_axis0(p);
            let a = g.sum_all(s0);
            let b = g.sum_all(s1);
            let c = g.sum_all(m0);
            let ab = g.add(a, b);
            let abc = g.add(ab, c);
            let sq = g.square(abc);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_broadcast_row() {
        grad_check([3], vec![0.5, -1.0, 2.0], |g, p| {
            let b = g.broadcast_row(p, 4);
            let s = g.square(b);
            g.sum_all(s)
        });
    }

    #[test]
    fn grad_trilinear() {
        grad_check([2, 3], vec![0.2, -0.3, 0.7, 1.0, 0.1, -0.9], |g, p| {
            let r = g.constant(Tensor::from_vec([2, 3], vec![1.0; 6]));
            let b = g.constant(Tensor::from_vec([2, 3], vec![0.5, 0.5, 0.5, 1.0, -1.0, 1.0]));
            let scores = g.trilinear_rows(p, r, b);
            g.sum_all(scores)
        });
    }

    #[test]
    fn grad_rowwise_dist() {
        grad_check([2, 2], vec![1.0, 2.0, 3.0, 4.0], |g, p| {
            let b = g.constant(Tensor::from_vec([2, 2], vec![0.0, 0.5, 2.0, 7.0]));
            let d = g.rowwise_dist(p, b);
            g.sum_all(d)
        });
    }

    #[test]
    fn grad_margin_loss() {
        grad_check([3], vec![0.2, 1.4, -0.1], |g, p| {
            let neg = g.constant(Tensor::from_vec([3], vec![0.5, 0.1, 0.4]));
            g.margin_ranking_loss(p, neg, 1.0)
        });
    }

    #[test]
    fn grad_gather_flat_with_pad() {
        grad_check([4], vec![1.0, 2.0, 3.0, 4.0], |g, p| {
            let sel = g.gather_flat(p, &[3, PAD, 0, 0], [4]);
            let s = g.square(sel);
            g.sum_all(s)
        });
    }

    #[test]
    fn grad_stack_scalars() {
        grad_check([2], vec![2.0, -1.0], |g, p| {
            let s = g.sum_all(p);
            let m = g.mean_all(p);
            let stacked = g.stack_scalars(&[s, m]);
            let sq = g.square(stacked);
            g.sum_all(sq)
        });
    }

    #[test]
    fn dropout_mask_consistency() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (ps, id) = store_with([100], vec![1.0; 100]);
        let mut g = Graph::new();
        let p = g.param(&ps, id);
        let d = g.dropout(p, 0.5, &mut rng);
        let loss = g.sum_all(d);
        let grads = g.backward(loss);
        let grad = grads.get(id).unwrap();
        // Gradient equals the mask: zero where dropped, 2.0 where kept.
        for (&y, &dg) in g.value(d).data().iter().zip(grad.data()) {
            assert_eq!(y, dg, "grad must equal mask entry");
            assert!(y == 0.0 || (y - 2.0).abs() < 1e-6);
        }
    }

    /// The debug hook runs tapecheck's shape pass before the sweep: a
    /// tape whose recorded value lies about its shape panics up front.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "tape linter: error[shape-mismatch] node 2 (Add)")]
    fn backward_debug_hook_rejects_a_shape_lie() {
        let (ps, id) = store_with([2], vec![1.0, 2.0]);
        let mut g = Graph::new();
        let p = g.param(&ps, id);
        let c = g.constant(Tensor::from_vec([2], vec![3.0, 4.0]));
        let sum = g.add(p, c);
        g.fault_override_value(sum, Tensor::zeros([3]));
        let loss = g.sum_all(sum);
        let _ = g.backward(loss);
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut g = Graph::new();
        let c = g.constant(Tensor::ones([4]));
        let d = g.dropout(c, 0.0, &mut rng);
        assert_eq!(c, d);
    }

    #[test]
    fn constants_get_no_grad() {
        let (ps, id) = store_with([2], vec![1.0, 2.0]);
        let mut g = Graph::new();
        let p = g.param(&ps, id);
        let c = g.constant(Tensor::ones([2]));
        let s = g.mul(p, c);
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads.get(id).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn reused_var_accumulates() {
        // loss = sum(p * p_same_var) should give grad 2p.
        let (ps, id) = store_with([2], vec![3.0, -2.0]);
        let mut g = Graph::new();
        let p = g.param(&ps, id);
        let prod = g.mul(p, p);
        let loss = g.sum_all(prod);
        let grads = g.backward(loss);
        assert_eq!(grads.get(id).unwrap().data(), &[6.0, -4.0]);
    }

    #[test]
    fn param_mounted_twice_accumulates() {
        let (ps, id) = store_with([1], vec![2.0]);
        let mut g = Graph::new();
        let p1 = g.param(&ps, id);
        let p2 = g.param(&ps, id);
        // One leaf per parameter per tape; both uses sum into its gradient.
        assert_eq!(p1, p2);
        assert_eq!(g.len(), 1);
        let s = g.add(p1, p2);
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        assert_eq!(grads.get(id).unwrap().data(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let (ps, id) = store_with([2], vec![1.0, 2.0]);
        let mut g = Graph::new();
        let p = g.param(&ps, id);
        g.backward(p);
    }

    /// A small model for the fork tests: a `[3, 2]` table and a basis
    /// pair composed into a `[2·2, 2]` stack, shared by every item.
    fn fork_model() -> (ParamStore, [ParamId; 3]) {
        let mut ps = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut t = |shape: [usize; 2]| {
            let n = shape[0] * shape[1];
            Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
        };
        let table = ps.insert("table", t([3, 2]));
        let coeffs = ps.insert("coeffs", t([2, 1]));
        let bases = ps.insert("bases", t([1, 4]));
        (ps, [table, coeffs, bases])
    }

    /// Mounts the fork model: the table leaf and the memoized stack.
    fn mount(g: &mut Graph, ps: &ParamStore, [table, coeffs, bases]: [ParamId; 3]) -> [Var; 2] {
        let t = g.param(ps, table);
        let c = g.param(ps, coeffs);
        let b = g.param(ps, bases);
        let stack = g.memo("stack", &[c, b], |g| {
            let flat = g.matmul(c, b);
            g.reshape(flat, [4, 2])
        });
        [t, stack]
    }

    /// One item's score: gathered rows through the block matmul, a
    /// nonlinearity and a row sum, reading both shared nodes.
    fn item(g: &mut Graph, [table, stack]: [Var; 2], i: usize) -> Var {
        let rows = g.gather_rows(table, &[i % 3, (i + 1) % 3, i % 3]);
        let msgs = g.rel_matmul(rows, stack, &[i % 2, 1, 1]);
        let act = g.tanh(msgs);
        let s = g.sum_all(act);
        g.reshape(s, [1, 1])
    }

    /// The loss tail over the stacked scores.
    fn tail(g: &mut Graph, scores: Var) -> Var {
        let sq = g.square(scores);
        let s = g.sin(scores);
        let both = g.mul(sq, s);
        g.mean_all(both)
    }

    fn bits(ps: &ParamStore, grads: &GradStore) -> Vec<Vec<u32>> {
        ps.iter()
            .map(|(id, _, _)| {
                grads.get(id).map_or(Vec::new(), |t| t.data().iter().map(|x| x.to_bits()).collect())
            })
            .collect()
    }

    /// The forked backward equals one tape's, bit for bit: prefix,
    /// then the earlier child's items, then the later child's, then the
    /// parent's tail over `input` leaves carrying the scores.
    #[test]
    fn forked_backward_matches_one_tape_bitwise() {
        let (ps, ids) = fork_model();
        let n = 7;
        let split = 3;

        let mut one = Graph::new();
        let mounted = mount(&mut one, &ps, ids);
        let scores: Vec<Var> = (0..n).map(|i| item(&mut one, mounted, i)).collect();
        let stacked = one.stack_scalars(&scores);
        let stacked = one.reshape(stacked, [n]);
        let loss = tail(&mut one, stacked);
        let expected = bits(&ps, &one.backward(loss));

        // Replayed whole, and in the two parts `split_slots` marks.
        for split_replay in [false, true] {
            let mut parent = Graph::new();
            let mounted = mount(&mut parent, &ps, ids);
            let mut early = parent.fork();
            let mut late = parent.fork();
            let early_scores: Vec<Var> = (0..split).map(|i| item(&mut early, mounted, i)).collect();
            let late_scores: Vec<Var> = (split..n).map(|i| item(&mut late, mounted, i)).collect();
            let values: Vec<f32> = early_scores
                .iter()
                .map(|&s| early.value(s).item())
                .chain(late_scores.iter().map(|&s| late.value(s).item()))
                .collect();
            let input = parent.input(Tensor::from_vec([n], values));
            let forked_loss = tail(&mut parent, input);
            assert_eq!(
                parent.value(forked_loss).item().to_bits(),
                one.value(loss).item().to_bits()
            );

            let (sweep, mut shared) = parent.backward_to_fork(forked_loss);
            let grad = sweep.grad(input).expect("the loss reads the input").data().to_vec();
            let seeds = |scores: &[Var], grad: &[f32]| -> Vec<(Var, Tensor)> {
                let seed = |(&s, &x)| (s, Tensor::from_vec([1, 1], vec![x]));
                scores.iter().zip(grad).map(seed).collect()
            };
            let deferred = early.backward_deferred(seeds(&early_scores, &grad[..split]));
            late.backward_forked(seeds(&late_scores, &grad[split..]), &mut shared);
            if split_replay {
                let marks = deferred.split_slots();
                assert!(marks.contains(&true) && marks.contains(&false), "{marks:?}");
                let mut marked = shared.take_marked(&marks);
                deferred.replay_part(&mut marked, &marks, true);
                deferred.replay_part(&mut shared, &marks, false);
                shared.restore_marked(marked, &marks);
            } else {
                deferred.replay(&mut shared);
            }
            let got = bits(&ps, &parent.finish_backward(sweep, shared));
            assert_eq!(got, expected, "split replay {split_replay}");
        }
    }

    #[test]
    fn a_forked_tape_mounts_nothing_new() {
        let (ps, [table, coeffs, _]) = fork_model();
        let mut parent = Graph::new();
        let t = parent.param(&ps, table);
        let mut child = parent.fork();
        assert_eq!(child.param(&ps, table), t, "the shared leaf");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            child.param(&ps, coeffs);
        }))
        .expect_err("a new parameter on a fork");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("not mounted before the fork"), "{msg}");
    }
}
