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
    nodes: Vec<Node>,
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

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The shape of `v`'s value.
    pub fn shape(&self, v: Var) -> &Shape {
        self.nodes[v.0].value.shape()
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        let id = self.nodes.len();
        self.nodes.push(Node { op, value, needs_grad });
        Var(id)
    }

    /// [`push`](Self::push) plus per-op profiling: when `t` is armed
    /// (see [`crate::prof::set_enabled`]), folds the op's elapsed wall
    /// time and the bytes it moved — every input read plus the output
    /// written, 4 bytes per f32 — into the global profile tables. The
    /// timer is armed by the op constructor *before* it computes the
    /// forward value, so the elapsed time covers the kernel itself.
    fn push_prof(&mut self, op: Op, value: Tensor, needs_grad: bool, t: prof::ProfTimer) -> Var {
        if let Some(elapsed) = t.finish() {
            let mut bytes = value.numel() as u64 * 4;
            crate::check::for_each_input(&op, |v| {
                bytes += self.nodes[v.0].value.numel() as u64 * 4;
            });
            prof::record_forward(crate::check::op_ordinal(&op), bytes, elapsed);
        }
        self.push(op, value, needs_grad)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// The recorded op of a node (analyzer access).
    pub(crate) fn node_op(&self, v: Var) -> &Op {
        &self.nodes[v.0].op
    }

    /// The recorded forward value of a node (analyzer access).
    pub(crate) fn node_value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// True when `v` is a non-parameter leaf — a value the analyzer may
    /// treat as provably constant.
    pub(crate) fn is_constant(&self, v: Var) -> bool {
        matches!(self.nodes[v.0].op, Op::Leaf(None))
    }

    /// Whether gradients flow through node `v` (analyzer access).
    pub(crate) fn node_needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
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
                let e = e.with_context(crate::check::op_context(self, op, self.nodes.len(), None));
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
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let t = prof::start();
        let op = Op::Sub(a, b);
        let shape = self.expect_shape(&op, None);
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
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
        let v = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Elementwise `a / b` (same shape).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let t = prof::start();
        let op = Op::Div(a, b);
        let shape = self.expect_shape(&op, None);
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        let data = av.data().iter().zip(bv.data()).map(|(&x, &y)| x / y).collect();
        let v = Tensor::from_vec(shape, data);
        let ng = self.needs(a) || self.needs(b);
        self.push_prof(op, v, ng, t)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.scale(-1.0);
        let ng = self.needs(a);
        self.push_prof(Op::Neg(a), v, ng, t)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(|x| x + s);
        let ng = self.needs(a);
        self.push_prof(Op::AddScalar(a, s), v, ng, t)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.scale(s);
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
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
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
        let (_, k) = self.nodes[x.0].value.shape().as_matrix();
        let (_, n) = shape.as_matrix();
        let xv = self.nodes[x.0].value.data();
        let wv = self.nodes[w.0].value.data();
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
        let av = &self.nodes[a.0].value;
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
        let av = self.nodes[a.0].value.data();
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
        let v = self.nodes[a.0].value.clone().reshape(shape);
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
            data.extend_from_slice(self.nodes[p.0].value.data());
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
                data.extend_from_slice(self.nodes[p.0].value.row(i));
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
        let v = Tensor::scalar(self.nodes[a.0].value.sum());
        let ng = self.needs(a);
        self.push_prof(Op::SumAll(a), v, ng, t)
    }

    /// Mean of all elements (scalar output).
    ///
    /// The mean of an empty var is defined as `0.0` (and its backward
    /// pass divides by `numel().max(1)`), matching the interpreter.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = Tensor::scalar(self.nodes[a.0].value.mean());
        let ng = self.needs(a);
        self.push_prof(Op::MeanAll(a), v, ng, t)
    }

    /// Column sums of a rank-2 var: `[m, n] -> [n]`.
    pub fn sum_axis0(&mut self, a: Var) -> Var {
        let t = prof::start();
        let op = Op::SumAxis0(a);
        self.expect_shape(&op, None);
        let av = &self.nodes[a.0].value;
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
        let av = &self.nodes[a.0].value;
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
        let av = &self.nodes[a.0].value;
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
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push_prof(Op::Relu(a), v, ng, t)
    }

    /// Logistic sigmoid elementwise.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.needs(a);
        self.push_prof(Op::Sigmoid(a), v, ng, t)
    }

    /// Hyperbolic tangent elementwise.
    pub fn tanh(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(f32::tanh);
        let ng = self.needs(a);
        self.push_prof(Op::Tanh(a), v, ng, t)
    }

    /// Elementwise square root (inputs are expected non-negative).
    pub fn sqrt(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(f32::sqrt);
        let ng = self.needs(a);
        self.push_prof(Op::Sqrt(a), v, ng, t)
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(f32::exp);
        let ng = self.needs(a);
        self.push_prof(Op::Exp(a), v, ng, t)
    }

    /// Elementwise natural log.
    pub fn ln(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(f32::ln);
        let ng = self.needs(a);
        self.push_prof(Op::Ln(a), v, ng, t)
    }

    /// Elementwise sine.
    pub fn sin(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(f32::sin);
        let ng = self.needs(a);
        self.push_prof(Op::Sin(a), v, ng, t)
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(f32::cos);
        let ng = self.needs(a);
        self.push_prof(Op::Cos(a), v, ng, t)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(|x| x * x);
        let ng = self.needs(a);
        self.push_prof(Op::Square(a), v, ng, t)
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        let t = prof::start();
        let v = self.nodes[a.0].value.map(f32::abs);
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
        let av = &self.nodes[a.0].value;
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
        let data: Vec<f32> = parts.iter().map(|&p| self.nodes[p.0].value.data()[0]).collect();
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
        let sv = &self.nodes[src.0].value;
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
        let av = &self.nodes[a.0].value;
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
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward() needs a scalar loss, got {}",
            self.nodes[loss.0].value.shape()
        );
        // In debug builds, run tapecheck's shape pass before sweeping so
        // corruption fails loudly at its origin node rather than as
        // garbage gradients. Release builds compile this out.
        #[cfg(debug_assertions)]
        if let Some(d) = crate::tapecheck::abstract_shapes(self, loss).1.first() {
            panic!("tape linter: {d}");
        }
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::from_vec(self.nodes[loss.0].value.shape().clone(), vec![1.0]));

        let mut store = GradStore::new();
        for id in (0..=loss.0).rev() {
            if !self.nodes[id].needs_grad {
                continue;
            }
            let Some(grad) = grads[id].take() else { continue };
            let t = prof::start();
            self.backprop_node(id, &grad, &mut grads, &mut store);
            if let Some(elapsed) = t.finish() {
                prof::record_backward(
                    crate::check::op_ordinal(&self.nodes[id].op),
                    grad.numel() as u64 * 4,
                    elapsed,
                );
            }
        }
        store
    }

    fn accum(&self, grads: &mut [Option<Tensor>], v: Var, delta: &Tensor) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut grads[v.0] {
            Some(g) => kernels::add_assign(g.data_mut(), delta.data()),
            slot @ None => *slot = Some(delta.clone()),
        }
    }

    /// The gradient slot of `v`, zero-filled first if still empty, for
    /// backward rules that accumulate in place.
    fn grad_slot<'s>(&self, grads: &'s mut [Option<Tensor>], v: Var) -> &'s mut Tensor {
        grads[v.0].get_or_insert_with(|| Tensor::zeros(self.nodes[v.0].value.shape().clone()))
    }

    /// Like [`accum`] but takes ownership, avoiding a copy when the slot
    /// is empty.
    fn accum_owned(&self, grads: &mut [Option<Tensor>], v: Var, delta: Tensor) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut grads[v.0] {
            Some(g) => kernels::add_assign(g.data_mut(), delta.data()),
            slot @ None => *slot = Some(delta),
        }
    }

    fn backprop_node(
        &self,
        id: usize,
        grad: &Tensor,
        grads: &mut [Option<Tensor>],
        store: &mut GradStore,
    ) {
        let node = &self.nodes[id];
        match &node.op {
            Op::Leaf(Some(pid)) => store.accumulate(*pid, grad),
            Op::Leaf(None) => {}
            Op::Add(a, b) => {
                self.accum(grads, *a, grad);
                self.accum(grads, *b, grad);
            }
            Op::Sub(a, b) => {
                self.accum(grads, *a, grad);
                self.accum_owned(grads, *b, grad.scale(-1.0));
            }
            Op::Mul(a, b) => {
                if self.needs(*a) {
                    self.accum_owned(grads, *a, grad.mul(&self.nodes[b.0].value));
                }
                if self.needs(*b) {
                    self.accum_owned(grads, *b, grad.mul(&self.nodes[a.0].value));
                }
            }
            Op::Div(a, b) => {
                let bv = &self.nodes[b.0].value;
                if self.needs(*a) {
                    let d = grad.data().iter().zip(bv.data()).map(|(&g, &y)| g / y).collect();
                    self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
                }
                if self.needs(*b) {
                    let av = &self.nodes[a.0].value;
                    let d = grad
                        .data()
                        .iter()
                        .zip(av.data().iter().zip(bv.data()))
                        .map(|(&g, (&x, &y))| -g * x / (y * y))
                        .collect();
                    self.accum_owned(grads, *b, Tensor::from_vec(grad.shape().clone(), d));
                }
            }
            Op::Neg(a) => self.accum_owned(grads, *a, grad.scale(-1.0)),
            Op::AddScalar(a, _) => self.accum(grads, *a, grad),
            Op::MulScalar(a, s) => self.accum_owned(grads, *a, grad.scale(*s)),
            // The matmul rules accumulate straight into the operands'
            // gradient slots: zeros are allocated only for an empty
            // slot, never a fresh product buffer per call.
            Op::Matmul(a, b) => {
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                let (m, k) = av.shape().as_matrix();
                let (_, n) = bv.shape().as_matrix();
                if self.needs(*a) {
                    // dA += dC * B^T
                    let da = self.grad_slot(grads, *a);
                    kernels::matmul_a_bt_acc(grad.data(), bv.data(), da.data_mut(), m, n, k);
                }
                if self.needs(*b) {
                    // dB += A^T * dC
                    let db = self.grad_slot(grads, *b);
                    kernels::matmul_at_b_acc(av.data(), grad.data(), db.data_mut(), k, m, n);
                }
            }
            Op::RelMatmul { x, w, blocks } => {
                let xv = self.nodes[x.0].value.data();
                let wv = self.nodes[w.0].value.data();
                let (_, k) = self.nodes[x.0].value.shape().as_matrix();
                let (_, n) = grad.shape().as_matrix();
                if self.needs(*x) {
                    // dX[run] += dC[run] * W_b^T
                    let dx = self.grad_slot(grads, *x).data_mut();
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
                if self.needs(*w) {
                    // dW_b += X[run]^T * dC[run]
                    let dw = self.grad_slot(grads, *w).data_mut();
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
                if self.needs(*a) {
                    let da = self.grad_slot(grads, *a);
                    for (r, &i) in idx.iter().enumerate() {
                        kernels::add_assign(da.row_mut(i), grad.row(r));
                    }
                }
            }
            Op::GatherFlat(a, idx) => {
                let mut da = Tensor::zeros(self.nodes[a.0].value.shape().clone());
                let dd = da.data_mut();
                for (pos, &i) in idx.iter().enumerate() {
                    if i != PAD {
                        dd[i] += grad.data()[pos];
                    }
                }
                self.accum_owned(grads, *a, da);
            }
            Op::Reshape(a) => {
                let da = grad.clone().reshape(self.nodes[a.0].value.shape().clone());
                self.accum_owned(grads, *a, da);
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let pv = &self.nodes[p.0].value;
                    let n = pv.numel();
                    if self.needs(p) {
                        let slice = grad.data()[off..off + n].to_vec();
                        self.accum_owned(grads, p, Tensor::from_vec(pv.shape().clone(), slice));
                    }
                    off += n;
                }
            }
            Op::ConcatCols(parts) => {
                let (rows, _) = grad.shape().as_matrix();
                let mut col_off = 0;
                for &p in parts {
                    let pv = &self.nodes[p.0].value;
                    let (_, c) = pv.shape().as_matrix();
                    if self.needs(p) {
                        let mut dp = Tensor::zeros([rows, c]);
                        for i in 0..rows {
                            dp.row_mut(i).copy_from_slice(&grad.row(i)[col_off..col_off + c]);
                        }
                        self.accum_owned(grads, p, dp);
                    }
                    col_off += c;
                }
            }
            Op::SumAll(a) => {
                let g = grad.item();
                let da = Tensor::full(self.nodes[a.0].value.shape().clone(), g);
                self.accum_owned(grads, *a, da);
            }
            Op::MeanAll(a) => {
                let n = self.nodes[a.0].value.numel().max(1);
                let g = grad.item() / n as f32;
                let da = Tensor::full(self.nodes[a.0].value.shape().clone(), g);
                self.accum_owned(grads, *a, da);
            }
            Op::SumAxis0(a) => {
                let (m, n) = self.nodes[a.0].value.shape().as_matrix();
                let mut da = Tensor::zeros([m, n]);
                for i in 0..m {
                    da.row_mut(i).copy_from_slice(grad.data());
                }
                self.accum_owned(grads, *a, da);
            }
            Op::SumAxis1(a) => {
                let (m, n) = self.nodes[a.0].value.shape().as_matrix();
                let mut da = Tensor::zeros([m, n]);
                for i in 0..m {
                    let g = grad.data()[i];
                    for x in da.row_mut(i) {
                        *x = g;
                    }
                }
                self.accum_owned(grads, *a, da);
            }
            Op::MeanAxis0(a) => {
                let (m, n) = self.nodes[a.0].value.shape().as_matrix();
                let inv = if m == 0 { 0.0 } else { 1.0 / m as f32 };
                let mut da = Tensor::zeros([m, n]);
                for i in 0..m {
                    for (x, &g) in da.row_mut(i).iter_mut().zip(grad.data()) {
                        *x = g * inv;
                    }
                }
                self.accum_owned(grads, *a, da);
            }
            Op::Relu(a) => {
                let av = &self.nodes[a.0].value;
                let d = grad
                    .data()
                    .iter()
                    .zip(av.data())
                    .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
                    .collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Sigmoid(a) => {
                let yv = &node.value;
                let d =
                    grad.data().iter().zip(yv.data()).map(|(&g, &y)| g * y * (1.0 - y)).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Tanh(a) => {
                let yv = &node.value;
                let d =
                    grad.data().iter().zip(yv.data()).map(|(&g, &y)| g * (1.0 - y * y)).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Sqrt(a) => {
                let yv = &node.value;
                let d = grad
                    .data()
                    .iter()
                    .zip(yv.data())
                    .map(|(&g, &y)| if y > 0.0 { g * 0.5 / y } else { 0.0 })
                    .collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Exp(a) => {
                let yv = &node.value;
                let d = grad.data().iter().zip(yv.data()).map(|(&g, &y)| g * y).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Ln(a) => {
                let av = &self.nodes[a.0].value;
                let d = grad.data().iter().zip(av.data()).map(|(&g, &x)| g / x).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Sin(a) => {
                let av = &self.nodes[a.0].value;
                let d = grad.data().iter().zip(av.data()).map(|(&g, &x)| g * x.cos()).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Cos(a) => {
                let av = &self.nodes[a.0].value;
                let d = grad.data().iter().zip(av.data()).map(|(&g, &x)| -g * x.sin()).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Square(a) => {
                let av = &self.nodes[a.0].value;
                let d = grad.data().iter().zip(av.data()).map(|(&g, &x)| 2.0 * g * x).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Abs(a) => {
                let av = &self.nodes[a.0].value;
                let d = grad
                    .data()
                    .iter()
                    .zip(av.data())
                    .map(|(&g, &x)| if x >= 0.0 { g } else { -g })
                    .collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::Dropout(a, mask) => {
                let d = grad.data().iter().zip(mask).map(|(&g, &m)| g * m).collect();
                self.accum_owned(grads, *a, Tensor::from_vec(grad.shape().clone(), d));
            }
            Op::StackScalars(parts) => {
                for (i, &p) in parts.iter().enumerate() {
                    if self.needs(p) {
                        let dp = Tensor::from_vec(
                            self.nodes[p.0].value.shape().clone(),
                            vec![grad.data()[i]],
                        );
                        self.accum_owned(grads, p, dp);
                    }
                }
            }
            Op::ScatterAddRows { src, idx, rows: _ } => {
                let (e, cols) = self.nodes[src.0].value.shape().as_matrix();
                let mut ds = Tensor::zeros([e, cols]);
                for (r, &target) in idx.iter().enumerate() {
                    ds.row_mut(r).copy_from_slice(grad.row(target));
                }
                self.accum_owned(grads, *src, ds);
            }
            Op::BroadcastRow(a, rows) => {
                let d = self.nodes[a.0].value.numel();
                let mut da = Tensor::zeros([d]);
                for r in 0..*rows {
                    kernels::add_assign(da.data_mut(), grad.row(r));
                }
                self.accum_owned(grads, *a, da);
            }
        }
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
        let av = &self.nodes[a.0].value;
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
        let (e, k) = self.nodes[x.0].value.shape().as_matrix();
        let (w_rows, n) = self.nodes[w.0].value.shape().as_matrix();
        let mut data = vec![0.0; e * n];
        for (row, &b) in blocks.iter().enumerate() {
            if b < w_rows / k {
                let x_row = &self.nodes[x.0].value.data()[row * k..(row + 1) * k];
                let w_block = &self.nodes[w.0].value.data()[b * k * n..(b + 1) * k * n];
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
        self.nodes[v.0].value = value;
    }

    /// Records a `Dropout` with a caller-chosen mask (which the RNG draw
    /// in [`Graph::dropout`] can never produce when it is non-finite).
    pub(crate) fn fault_dropout_with_mask(&mut self, a: Var, mask: Vec<f32>) -> Var {
        let av = &self.nodes[a.0].value;
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
}
