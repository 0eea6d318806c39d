//! dekg-grad pass 1: a pure-`f64` reference interpreter for recorded
//! tapes.
//!
//! [`Graph::diff_check`] re-executes a recorded tape op-by-op from the
//! `Op` enum alone, with naive textbook implementations in `f64`, and
//! differentially compares the results against the optimized
//! `f32` path:
//!
//! * **Forward**: every node is recomputed from its *recorded* inputs
//!   and compared against its recorded value. Recomputing locally (per
//!   node, from the recorded `f32` inputs) rather than globally (from
//!   the leaves) keeps the comparison tight — upstream rounding drift
//!   cannot mask a wrong kernel, and the budgets can be a few ULP
//!   instead of a guessed end-to-end tolerance.
//! * **Backward**: an independent textbook reverse sweep in `f64`
//!   produces reference parameter gradients, compared against
//!   [`Graph::backward`]'s `f32` gradients.
//!
//! Tolerance policy (see [`DiffBudget`]): ops whose `f32` kernel
//! performs at most one rounding per element (data movement,
//! elementwise arithmetic) must match the rounded `f64` reference
//! within [`DiffBudget::ulp_exact`] ULP; `libm`-backed transcendentals
//! get [`DiffBudget::ulp_libm`] ULP; accumulation ops (matmul, block-row
//! matmul, reductions, scatter-add) are compared against a per-element
//! rounding-error bound `slack · ε₃₂ · (terms + 2) · Σ|term|` that
//! scales with the reduction length. Parameter gradients use a
//! relative tolerance scaled by the gradient's infinity norm.
//!
//! Subgradient conventions are part of the op contract and are
//! replicated exactly (and documented on the op constructors): `Relu`
//! passes gradient only for `x > 0`, `Abs` uses `+g` at `x == 0`,
//! `Sqrt` clamps the gradient to `0` when the forward value is `≤ 0`,
//! and a `0.0` left factor in `Matmul` annihilates even non-finite
//! right factors (the kernel's sparsity shortcut).

use crate::check::{op_mnemonic, Diagnostic};
use crate::params::{ParamId, ParamStore};
use crate::tape::{Graph, Op, Var, PAD};
use std::collections::{BTreeMap, BTreeSet};

/// Per-op error budgets for [`Graph::diff_check_with`].
#[derive(Debug, Clone, Copy)]
pub struct DiffBudget {
    /// ULP slack for ops with at most one `f32` rounding per element
    /// (arithmetic, data movement; covers double-rounding artifacts).
    pub ulp_exact: u32,
    /// ULP slack for `libm`-backed transcendentals, whose `f32` and
    /// `f64` implementations may differ by a few ULP.
    pub ulp_libm: u32,
    /// Multiplier on the accumulation rounding bound
    /// `ε₃₂ · (terms + 2) · Σ|term|` for matmul/reduction/scatter ops.
    pub accum_slack: f64,
    /// Relative gradient tolerance, scaled by the larger infinity norm
    /// of the two gradients being compared.
    pub grad_rel: f64,
    /// Absolute gradient tolerance floor.
    pub grad_abs: f64,
}

impl Default for DiffBudget {
    fn default() -> Self {
        DiffBudget { ulp_exact: 2, ulp_libm: 16, accum_slack: 8.0, grad_rel: 2e-3, grad_abs: 1e-6 }
    }
}

/// Result of re-evaluating one node in `f64`.
struct RefValue {
    data: Vec<f64>,
    /// For accumulation ops: per-element `Σ|term|` and the reduction
    /// length, driving the rounding-error bound.
    accum: Option<(Vec<f64>, usize)>,
}

impl RefValue {
    fn exact(data: Vec<f64>) -> Self {
        RefValue { data, accum: None }
    }
}

/// How a node's recomputed value is compared to its recorded value.
enum BudgetClass {
    /// Leaves are the interpreter's inputs — nothing to compare.
    Leaf,
    /// At most one rounding per element: ULP comparison.
    Exact,
    /// Transcendental: looser ULP comparison.
    Libm,
    /// Accumulation: rounding bound scaled by reduction length.
    Accum,
}

fn budget_class(op: &Op) -> BudgetClass {
    match op {
        Op::Leaf(_) => BudgetClass::Leaf,
        Op::Sigmoid(_) | Op::Tanh(_) | Op::Exp(_) | Op::Ln(_) | Op::Sin(_) | Op::Cos(_) => {
            BudgetClass::Libm
        }
        Op::Matmul(..)
        | Op::RelMatmul { .. }
        | Op::SumAll(_)
        | Op::MeanAll(_)
        | Op::SumAxis0(_)
        | Op::SumAxis1(_)
        | Op::MeanAxis0(_)
        | Op::ScatterAddRows { .. } => BudgetClass::Accum,
        _ => BudgetClass::Exact,
    }
}

/// Distance between two `f32` values in units in the last place, using
/// the monotone integer mapping of IEEE-754 bit patterns. `NaN ↔ NaN`
/// and equal infinities count as 0; any other finite/non-finite
/// mismatch is `u64::MAX`.
fn ulp_distance(a: f32, b: f32) -> u64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    if a.is_nan() != b.is_nan() || a.is_infinite() || b.is_infinite() {
        return u64::MAX;
    }
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            -i64::from(bits & 0x7fff_ffff)
        } else {
            i64::from(bits)
        }
    }
    ordered(a).abs_diff(ordered(b))
}

/// True when `got` (the `f32` kernel result) and `want` (the `f64`
/// reference) agree as non-finite values — both NaN, or equal
/// infinities. Used where a magnitude tolerance is meaningless.
fn non_finite_agree(got: f64, want: f64) -> bool {
    (got.is_nan() && want.is_nan()) || (got == want && got.is_infinite())
}

impl Graph {
    /// Differentially checks this tape against the `f64` reference
    /// interpreter under the default [`DiffBudget`].
    ///
    /// Runs tapecheck's shape pass
    /// ([`abstract_shapes`](crate::tapecheck::abstract_shapes)) first (its findings are returned
    /// as-is when shapes or indices are broken — numeric comparison
    /// over a corrupt tape would be meaningless), then compares every
    /// node's forward value and every parameter gradient. `params`, if
    /// given, is only used to name parameters in messages.
    pub fn diff_check(&self, loss: Var, params: Option<&ParamStore>) -> Vec<Diagnostic> {
        self.diff_check_with(loss, params, &DiffBudget::default())
    }

    /// [`Graph::diff_check`] with explicit budgets.
    pub fn diff_check_with(
        &self,
        loss: Var,
        params: Option<&ParamStore>,
        budget: &DiffBudget,
    ) -> Vec<Diagnostic> {
        if self.node_value(loss).numel() != 1 {
            return vec![Diagnostic::error(
                "interp-loss",
                Some(loss.index()),
                op_mnemonic(self.node_op(loss)),
                format!("diff_check needs a scalar loss, got shape {}", self.shape(loss)),
            )];
        }
        let (_, structural) = crate::tapecheck::abstract_shapes(self, loss);
        if !structural.is_empty() {
            return structural;
        }

        let mut out = Vec::new();
        for id in 0..=loss.index() {
            self.diff_check_node(Var(id), budget, &mut out);
        }

        let got = self.backward(loss);
        let want = self.reference_backward(loss);
        let ids: BTreeSet<usize> =
            got.iter().map(|(pid, _)| pid.index()).chain(want.keys().copied()).collect();
        for idx in ids {
            let pid = ParamId(idx);
            let name = match params {
                Some(ps) => ps.name_of(pid).to_string(),
                None => format!("#{idx}"),
            };
            let got_data: Vec<f64> = match got.get(pid) {
                Some(t) => t.data().iter().map(|&x| f64::from(x)).collect(),
                None => vec![0.0; want.get(&idx).map_or(0, Vec::len)],
            };
            let zeros;
            let want_data: &[f64] = match want.get(&idx) {
                Some(w) => w,
                None => {
                    // The tape found no gradient path; the reference
                    // must then produce (implicit) zeros.
                    zeros = vec![0.0; got_data.len()];
                    &zeros
                }
            };
            let scale = got_data
                .iter()
                .chain(want_data)
                .filter(|x| x.is_finite())
                .fold(0.0f64, |m, &x| m.max(x.abs()));
            let tol = budget.grad_abs + budget.grad_rel * scale;
            for (i, (&g, &w)) in got_data.iter().zip(want_data).enumerate() {
                let bad = if g.is_finite() && w.is_finite() {
                    (g - w).abs() > tol
                } else {
                    !non_finite_agree(g, w)
                };
                if bad {
                    out.push(Diagnostic::error(
                        "grad-mismatch",
                        None,
                        "backward",
                        format!(
                            "parameter {name} gradient element {i}: \
                             tape {g:e} vs reference {w:e} (tolerance {tol:e})"
                        ),
                    ));
                    break;
                }
            }
        }
        out
    }

    /// Recomputes node `v` from its recorded inputs and compares.
    fn diff_check_node(&self, v: Var, budget: &DiffBudget, out: &mut Vec<Diagnostic>) {
        let op = self.node_op(v);
        let class = budget_class(op);
        if matches!(class, BudgetClass::Leaf) {
            return;
        }
        let reference = self.ref_eval(v);
        let recorded = self.node_value(v).data();
        debug_assert_eq!(recorded.len(), reference.data.len(), "ref_eval shape drift");
        for (i, (&got, &want)) in recorded.iter().zip(&reference.data).enumerate() {
            let mismatch = match class {
                BudgetClass::Leaf => unreachable!(),
                BudgetClass::Exact | BudgetClass::Libm => {
                    let limit = if matches!(class, BudgetClass::Exact) {
                        budget.ulp_exact
                    } else {
                        budget.ulp_libm
                    };
                    let d = ulp_distance(got, want as f32);
                    (d > u64::from(limit)).then(|| format!("{d} ULP apart (budget {limit} ULP)"))
                }
                BudgetClass::Accum => {
                    let (bound, terms) = reference.accum.as_ref().expect("accum op without bound");
                    let tol = budget.accum_slack
                        * f64::from(f32::EPSILON)
                        * (*terms as f64 + 2.0)
                        * bound[i]
                        + 1e-10;
                    let g = f64::from(got);
                    let bad = if g.is_finite() && want.is_finite() {
                        (g - want).abs() > tol
                    } else {
                        !non_finite_agree(g, want)
                    };
                    bad.then(|| format!("off by {:e} (tolerance {tol:e})", (g - want).abs()))
                }
            };
            if let Some(detail) = mismatch {
                out.push(Diagnostic::error(
                    "fwd-mismatch",
                    Some(v.index()),
                    op_mnemonic(op),
                    format!("element {i}: kernel {got:e} vs f64 reference {want:e}, {detail}"),
                ));
                return; // one finding per node keeps reports readable
            }
        }
    }

    /// Textbook `f64` re-evaluation of one node from its recorded
    /// (`f32`) inputs.
    #[allow(clippy::too_many_lines)] // one arm per op variant, by design
    fn ref_eval(&self, v: Var) -> RefValue {
        let val = |x: Var| -> Vec<f64> {
            self.node_value(x).data().iter().map(|&q| f64::from(q)).collect()
        };
        let mat = |x: Var| self.node_value(x).shape().as_matrix();
        match self.node_op(v) {
            Op::Leaf(_) => RefValue::exact(val(v)),
            Op::Add(a, b) => {
                RefValue::exact(val(*a).iter().zip(val(*b)).map(|(x, y)| x + y).collect())
            }
            Op::Sub(a, b) => {
                RefValue::exact(val(*a).iter().zip(val(*b)).map(|(x, y)| x - y).collect())
            }
            Op::Mul(a, b) => {
                RefValue::exact(val(*a).iter().zip(val(*b)).map(|(x, y)| x * y).collect())
            }
            Op::Div(a, b) => {
                RefValue::exact(val(*a).iter().zip(val(*b)).map(|(x, y)| x / y).collect())
            }
            Op::Neg(a) => RefValue::exact(val(*a).iter().map(|x| -x).collect()),
            Op::AddScalar(a, s) => {
                let s = f64::from(*s);
                RefValue::exact(val(*a).iter().map(|x| x + s).collect())
            }
            Op::MulScalar(a, s) => {
                let s = f64::from(*s);
                RefValue::exact(val(*a).iter().map(|x| x * s).collect())
            }
            Op::Matmul(a, b) => {
                let (m, k) = mat(*a);
                let (_, n) = mat(*b);
                let av = val(*a);
                let bv = val(*b);
                let mut data = vec![0.0; m * n];
                let mut bound = vec![0.0; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0;
                        let mut mag = 0.0;
                        for p in 0..k {
                            let x = av[i * k + p];
                            // The kernel's sparsity shortcut is part of
                            // the contract: a 0.0 left factor contributes
                            // nothing, even against Inf/NaN.
                            if x == 0.0 {
                                continue;
                            }
                            let term = x * bv[p * n + j];
                            acc += term;
                            mag += term.abs();
                        }
                        data[i * n + j] = acc;
                        bound[i * n + j] = mag;
                    }
                }
                RefValue { data, accum: Some((bound, k)) }
            }
            Op::RelMatmul { x, w, blocks } => {
                let (e, k) = mat(*x);
                let (_, n) = mat(*w);
                let (xv, wv) = (val(*x), val(*w));
                let mut data = vec![0.0; e * n];
                let mut bound = vec![0.0; e * n];
                for (r, &blk) in blocks.iter().enumerate() {
                    for j in 0..n {
                        let mut acc = 0.0;
                        let mut mag = 0.0;
                        for p in 0..k {
                            let a = xv[r * k + p];
                            // Same zero-skip contract as Matmul.
                            if a == 0.0 {
                                continue;
                            }
                            let term = a * wv[(blk * k + p) * n + j];
                            acc += term;
                            mag += term.abs();
                        }
                        data[r * n + j] = acc;
                        bound[r * n + j] = mag;
                    }
                }
                RefValue { data, accum: Some((bound, k)) }
            }
            Op::GatherRows(a, idx) => {
                let (_, cols) = mat(*a);
                let av = val(*a);
                let mut data = Vec::with_capacity(idx.len() * cols);
                for &i in idx {
                    data.extend_from_slice(&av[i * cols..(i + 1) * cols]);
                }
                RefValue::exact(data)
            }
            Op::GatherFlat(a, idx) => {
                let av = val(*a);
                RefValue::exact(idx.iter().map(|&i| if i == PAD { 0.0 } else { av[i] }).collect())
            }
            Op::Reshape(a) => RefValue::exact(val(*a)),
            Op::ConcatRows(parts) => {
                let mut data = Vec::new();
                for &p in parts {
                    data.extend(val(p));
                }
                RefValue::exact(data)
            }
            Op::ConcatCols(parts) => {
                let rows = parts.first().map_or(0, |&p| mat(p).0);
                let mut data = Vec::new();
                for i in 0..rows {
                    for &p in parts {
                        let (_, c) = mat(p);
                        let pv = val(p);
                        data.extend_from_slice(&pv[i * c..(i + 1) * c]);
                    }
                }
                RefValue::exact(data)
            }
            Op::SumAll(a) => {
                let av = val(*a);
                let sum: f64 = av.iter().sum();
                let mag: f64 = av.iter().map(|x| x.abs()).sum();
                RefValue { data: vec![sum], accum: Some((vec![mag], av.len())) }
            }
            Op::MeanAll(a) => {
                let av = val(*a);
                if av.is_empty() {
                    // Empty mean is defined as 0.0 (see `Tensor::mean`).
                    return RefValue { data: vec![0.0], accum: Some((vec![0.0], 0)) };
                }
                let n = av.len() as f64;
                let sum: f64 = av.iter().sum();
                let mag: f64 = av.iter().map(|x| x.abs()).sum();
                RefValue { data: vec![sum / n], accum: Some((vec![mag / n], av.len())) }
            }
            Op::SumAxis0(a) => {
                let (m, n) = mat(*a);
                let av = val(*a);
                let mut data = vec![0.0; n];
                let mut bound = vec![0.0; n];
                for i in 0..m {
                    for j in 0..n {
                        data[j] += av[i * n + j];
                        bound[j] += av[i * n + j].abs();
                    }
                }
                RefValue { data, accum: Some((bound, m)) }
            }
            Op::SumAxis1(a) => {
                let (m, n) = mat(*a);
                let av = val(*a);
                let mut data = vec![0.0; m];
                let mut bound = vec![0.0; m];
                for i in 0..m {
                    for j in 0..n {
                        data[i] += av[i * n + j];
                        bound[i] += av[i * n + j].abs();
                    }
                }
                RefValue { data, accum: Some((bound, n)) }
            }
            Op::MeanAxis0(a) => {
                let (m, n) = mat(*a);
                let av = val(*a);
                let mut data = vec![0.0; n];
                let mut bound = vec![0.0; n];
                // m == 0 leaves the zero vector (see `Graph::mean_axis0`).
                if m > 0 {
                    let inv = 1.0 / m as f64;
                    for i in 0..m {
                        for j in 0..n {
                            data[j] += av[i * n + j];
                            bound[j] += av[i * n + j].abs();
                        }
                    }
                    for x in data.iter_mut().chain(&mut bound) {
                        *x *= inv;
                    }
                }
                RefValue { data, accum: Some((bound, m)) }
            }
            Op::Relu(a) => RefValue::exact(val(*a).iter().map(|x| x.max(0.0)).collect()),
            Op::Sigmoid(a) => {
                RefValue::exact(val(*a).iter().map(|x| 1.0 / (1.0 + (-x).exp())).collect())
            }
            Op::Tanh(a) => RefValue::exact(val(*a).iter().map(|x| x.tanh()).collect()),
            Op::Sqrt(a) => RefValue::exact(val(*a).iter().map(|x| x.sqrt()).collect()),
            Op::Exp(a) => RefValue::exact(val(*a).iter().map(|x| x.exp()).collect()),
            Op::Ln(a) => RefValue::exact(val(*a).iter().map(|x| x.ln()).collect()),
            Op::Sin(a) => RefValue::exact(val(*a).iter().map(|x| x.sin()).collect()),
            Op::Cos(a) => RefValue::exact(val(*a).iter().map(|x| x.cos()).collect()),
            Op::Square(a) => RefValue::exact(val(*a).iter().map(|x| x * x).collect()),
            Op::Abs(a) => RefValue::exact(val(*a).iter().map(|x| x.abs()).collect()),
            Op::Dropout(a, mask) => {
                RefValue::exact(val(*a).iter().zip(mask).map(|(x, &m)| x * f64::from(m)).collect())
            }
            Op::StackScalars(parts) => RefValue::exact(parts.iter().map(|&p| val(p)[0]).collect()),
            Op::ScatterAddRows { src, idx, rows } => {
                let (_, cols) = mat(*src);
                let sv = val(*src);
                let mut data = vec![0.0; rows * cols];
                let mut bound = vec![0.0; rows * cols];
                for (r, &target) in idx.iter().enumerate() {
                    for j in 0..cols {
                        data[target * cols + j] += sv[r * cols + j];
                        bound[target * cols + j] += sv[r * cols + j].abs();
                    }
                }
                RefValue { data, accum: Some((bound, idx.len())) }
            }
            Op::BroadcastRow(a, rows) => {
                let av = val(*a);
                let mut data = Vec::with_capacity(av.len() * rows);
                for _ in 0..*rows {
                    data.extend_from_slice(&av);
                }
                RefValue::exact(data)
            }
        }
    }

    /// Independent textbook reverse sweep in `f64`, producing parameter
    /// gradients keyed by [`ParamId::index`]. Uses the recorded `f32`
    /// forward values (exactly what `backward()` sees), so divergence
    /// here isolates a wrong backward *rule* rather than forward drift.
    pub(crate) fn reference_backward(&self, loss: Var) -> BTreeMap<usize, Vec<f64>> {
        let n = loss.index() + 1;
        let mut grads: Vec<Option<Vec<f64>>> = vec![None; n];
        grads[loss.index()] = Some(vec![1.0]);
        let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for id in (0..n).rev() {
            let Some(grad) = grads[id].take() else { continue };
            self.ref_backprop(Var(id), &grad, &mut grads, &mut out);
        }
        out
    }

    #[allow(clippy::too_many_lines)] // one arm per op variant, by design
    fn ref_backprop(
        &self,
        v: Var,
        grad: &[f64],
        grads: &mut [Option<Vec<f64>>],
        out: &mut BTreeMap<usize, Vec<f64>>,
    ) {
        let val = |x: Var| -> Vec<f64> {
            self.node_value(x).data().iter().map(|&q| f64::from(q)).collect()
        };
        let mat = |x: Var| self.node_value(x).shape().as_matrix();
        let accum =
            |grads: &mut [Option<Vec<f64>>], t: Var, delta: Vec<f64>| match &mut grads[t.index()] {
                Some(g) => {
                    for (x, d) in g.iter_mut().zip(delta) {
                        *x += d;
                    }
                }
                slot @ None => *slot = Some(delta),
            };
        match self.node_op(v) {
            Op::Leaf(Some(pid)) => {
                let slot = out.entry(pid.index()).or_insert_with(|| vec![0.0; grad.len()]);
                for (x, &g) in slot.iter_mut().zip(grad) {
                    *x += g;
                }
            }
            Op::Leaf(None) => {}
            Op::Add(a, b) => {
                accum(grads, *a, grad.to_vec());
                accum(grads, *b, grad.to_vec());
            }
            Op::Sub(a, b) => {
                accum(grads, *a, grad.to_vec());
                accum(grads, *b, grad.iter().map(|g| -g).collect());
            }
            Op::Mul(a, b) => {
                let (av, bv) = (val(*a), val(*b));
                accum(grads, *a, grad.iter().zip(&bv).map(|(g, y)| g * y).collect());
                accum(grads, *b, grad.iter().zip(&av).map(|(g, x)| g * x).collect());
            }
            Op::Div(a, b) => {
                let (av, bv) = (val(*a), val(*b));
                accum(grads, *a, grad.iter().zip(&bv).map(|(g, y)| g / y).collect());
                accum(
                    grads,
                    *b,
                    grad.iter()
                        .zip(av.iter().zip(&bv))
                        .map(|(g, (x, y))| -g * x / (y * y))
                        .collect(),
                );
            }
            Op::Neg(a) => accum(grads, *a, grad.iter().map(|g| -g).collect()),
            Op::AddScalar(a, _) => accum(grads, *a, grad.to_vec()),
            Op::MulScalar(a, s) => {
                let s = f64::from(*s);
                accum(grads, *a, grad.iter().map(|g| g * s).collect());
            }
            Op::Matmul(a, b) => {
                let (m, k) = mat(*a);
                let (_, n) = mat(*b);
                let (av, bv) = (val(*a), val(*b));
                // dA = dC · Bᵀ
                let mut da = vec![0.0; m * k];
                for i in 0..m {
                    for p in 0..k {
                        let mut acc = 0.0;
                        for j in 0..n {
                            acc += grad[i * n + j] * bv[p * n + j];
                        }
                        da[i * k + p] = acc;
                    }
                }
                accum(grads, *a, da);
                // dB = Aᵀ · dC; the backward kernel skips 0.0 entries
                // of A (same annihilation contract as forward matmul).
                let mut db = vec![0.0; k * n];
                for p in 0..k {
                    for i in 0..m {
                        let x = av[i * k + p];
                        if x == 0.0 {
                            continue;
                        }
                        for j in 0..n {
                            db[p * n + j] += x * grad[i * n + j];
                        }
                    }
                }
                accum(grads, *b, db);
            }
            Op::RelMatmul { x, w, blocks } => {
                let (e, k) = mat(*x);
                let (w_rows, n) = mat(*w);
                let (xv, wv) = (val(*x), val(*w));
                // Row r sees block b = blocks[r]: dX[r] = dC[r] · W_bᵀ,
                // dW_b += X[r]ᵀ · dC[r] (skipping 0.0 entries of X).
                let mut dx = vec![0.0; e * k];
                let mut dw = vec![0.0; w_rows * n];
                for (r, &blk) in blocks.iter().enumerate() {
                    for p in 0..k {
                        let row = blk * k + p;
                        let mut acc = 0.0;
                        for j in 0..n {
                            acc += grad[r * n + j] * wv[row * n + j];
                        }
                        dx[r * k + p] = acc;
                        let a = xv[r * k + p];
                        if a == 0.0 {
                            continue;
                        }
                        for j in 0..n {
                            dw[row * n + j] += a * grad[r * n + j];
                        }
                    }
                }
                accum(grads, *x, dx);
                accum(grads, *w, dw);
            }
            Op::GatherRows(a, idx) => {
                let (rows, cols) = mat(*a);
                let mut da = vec![0.0; rows * cols];
                for (r, &i) in idx.iter().enumerate() {
                    for j in 0..cols {
                        da[i * cols + j] += grad[r * cols + j];
                    }
                }
                accum(grads, *a, da);
            }
            Op::GatherFlat(a, idx) => {
                let mut da = vec![0.0; self.node_value(*a).numel()];
                for (pos, &i) in idx.iter().enumerate() {
                    if i != PAD {
                        da[i] += grad[pos];
                    }
                }
                accum(grads, *a, da);
            }
            Op::Reshape(a) => accum(grads, *a, grad.to_vec()),
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let n = self.node_value(p).numel();
                    accum(grads, p, grad[off..off + n].to_vec());
                    off += n;
                }
            }
            Op::ConcatCols(parts) => {
                let rows = parts.first().map_or(0, |&p| mat(p).0);
                let total: usize = parts.iter().map(|&p| mat(p).1).sum();
                let mut col_off = 0;
                for &p in parts {
                    let (_, c) = mat(p);
                    let mut dp = vec![0.0; rows * c];
                    for i in 0..rows {
                        dp[i * c..(i + 1) * c]
                            .copy_from_slice(&grad[i * total + col_off..i * total + col_off + c]);
                    }
                    accum(grads, p, dp);
                    col_off += c;
                }
            }
            Op::SumAll(a) => {
                accum(grads, *a, vec![grad[0]; self.node_value(*a).numel()]);
            }
            Op::MeanAll(a) => {
                let n = self.node_value(*a).numel();
                accum(grads, *a, vec![grad[0] / n.max(1) as f64; n]);
            }
            Op::SumAxis0(a) => {
                let (m, n) = mat(*a);
                let mut da = vec![0.0; m * n];
                for i in 0..m {
                    da[i * n..(i + 1) * n].copy_from_slice(grad);
                }
                accum(grads, *a, da);
            }
            Op::SumAxis1(a) => {
                let (m, n) = mat(*a);
                let mut da = vec![0.0; m * n];
                for i in 0..m {
                    for x in &mut da[i * n..(i + 1) * n] {
                        *x = grad[i];
                    }
                }
                accum(grads, *a, da);
            }
            Op::MeanAxis0(a) => {
                let (m, n) = mat(*a);
                let inv = if m == 0 { 0.0 } else { 1.0 / m as f64 };
                let mut da = vec![0.0; m * n];
                for i in 0..m {
                    for (x, &g) in da[i * n..(i + 1) * n].iter_mut().zip(grad) {
                        *x = g * inv;
                    }
                }
                accum(grads, *a, da);
            }
            Op::Relu(a) => {
                let av = val(*a);
                accum(
                    grads,
                    *a,
                    grad.iter().zip(&av).map(|(&g, &x)| if x > 0.0 { g } else { 0.0 }).collect(),
                );
            }
            Op::Sigmoid(a) => {
                let yv = val(v);
                accum(grads, *a, grad.iter().zip(&yv).map(|(g, y)| g * y * (1.0 - y)).collect());
            }
            Op::Tanh(a) => {
                let yv = val(v);
                accum(grads, *a, grad.iter().zip(&yv).map(|(g, y)| g * (1.0 - y * y)).collect());
            }
            Op::Sqrt(a) => {
                let yv = val(v);
                accum(
                    grads,
                    *a,
                    grad.iter()
                        .zip(&yv)
                        .map(|(&g, &y)| if y > 0.0 { g * 0.5 / y } else { 0.0 })
                        .collect(),
                );
            }
            Op::Exp(a) => {
                let yv = val(v);
                accum(grads, *a, grad.iter().zip(&yv).map(|(g, y)| g * y).collect());
            }
            Op::Ln(a) => {
                let av = val(*a);
                accum(grads, *a, grad.iter().zip(&av).map(|(g, x)| g / x).collect());
            }
            Op::Sin(a) => {
                let av = val(*a);
                accum(grads, *a, grad.iter().zip(&av).map(|(g, x)| g * x.cos()).collect());
            }
            Op::Cos(a) => {
                let av = val(*a);
                accum(grads, *a, grad.iter().zip(&av).map(|(g, x)| -g * x.sin()).collect());
            }
            Op::Square(a) => {
                let av = val(*a);
                accum(grads, *a, grad.iter().zip(&av).map(|(g, x)| 2.0 * g * x).collect());
            }
            Op::Abs(a) => {
                let av = val(*a);
                accum(
                    grads,
                    *a,
                    grad.iter().zip(&av).map(|(&g, &x)| if x >= 0.0 { g } else { -g }).collect(),
                );
            }
            Op::Dropout(a, mask) => {
                accum(grads, *a, grad.iter().zip(mask).map(|(g, &m)| g * f64::from(m)).collect());
            }
            Op::StackScalars(parts) => {
                for (i, &p) in parts.iter().enumerate() {
                    accum(grads, p, vec![grad[i]]);
                }
            }
            Op::ScatterAddRows { src, idx, rows: _ } => {
                let (_, cols) = mat(*src);
                let mut ds = vec![0.0; idx.len() * cols];
                for (r, &target) in idx.iter().enumerate() {
                    ds[r * cols..(r + 1) * cols]
                        .copy_from_slice(&grad[target * cols..(target + 1) * cols]);
                }
                accum(grads, *src, ds);
            }
            Op::BroadcastRow(a, rows) => {
                let d = self.node_value(*a).numel();
                let mut da = vec![0.0; d];
                for r in 0..*rows {
                    for j in 0..d {
                        da[j] += grad[r * d + j];
                    }
                }
                accum(grads, *a, da);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(f32::NAN, f32::NAN), 0);
        assert_eq!(ulp_distance(1.0, f32::NAN), u64::MAX);
        assert_eq!(ulp_distance(f32::INFINITY, f32::INFINITY), 0);
        assert_eq!(ulp_distance(f32::INFINITY, f32::NEG_INFINITY), u64::MAX);
        // Distance spans the sign boundary correctly.
        assert_eq!(ulp_distance(f32::from_bits(0x8000_0001), f32::from_bits(0x0000_0001)), 2);
    }

    /// A tape exercising most of the op set at once: the interpreter
    /// must agree with the kernels forward and backward.
    #[test]
    fn composite_tape_is_clean() {
        let mut ps = ParamStore::new();
        let w = ps
            .insert("w", Tensor::from_vec([3, 4], (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()));
        let r = ps.insert(
            "r",
            Tensor::from_vec([2, 4], vec![0.3, -0.2, 0.8, 0.1, -0.4, 0.9, 0.05, -0.7]),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(7);

        let mut g = Graph::new();
        let wv = g.param(&ps, w);
        let rv = g.param(&ps, r);
        let rows = g.gather_rows(wv, &[0, 2, 2]);
        let dropped = g.dropout(rows, 0.4, &mut rng);
        let scat = g.scatter_add_rows(dropped, &[1, 0, 1], 2);
        let act = g.tanh(scat);
        let tri = g.trilinear_rows(act, rv, rv);
        let dist = g.rowwise_dist(act, rv);
        let mixed = g.sub(tri, dist);
        let loss = g.mean_all(mixed);

        let diags = g.diff_check(loss, Some(&ps));
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn corrupted_forward_value_is_flagged() {
        let mut ps = ParamStore::new();
        let w = ps.insert("w", Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new();
        let wv = g.param(&ps, w);
        let sq = g.square(wv);
        let loss = g.sum_all(sq);
        // Same shape, wrong numbers: structurally valid, semantically not.
        g.fault_override_value(sq, Tensor::from_vec([2, 2], vec![1.0, 4.0, 9.0, 17.0]));
        let diags = g.diff_check(loss, Some(&ps));
        assert!(
            diags.iter().any(|d| d.code == "fwd-mismatch" && d.node == Some(sq.index())),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn structurally_broken_tape_short_circuits() {
        let mut ps = ParamStore::new();
        let w = ps.insert("w", Tensor::from_vec([2, 2], vec![1.0; 4]));
        let mut g = Graph::new();
        let wv = g.param(&ps, w);
        let bad = g.fault_gather_rows_unchecked(wv, &[5]);
        let loss = g.sum_all(bad);
        let diags = g.diff_check(loss, Some(&ps));
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["oob-index"], "diags: {diags:?}");
    }

    #[test]
    fn non_scalar_loss_is_reported_not_panicked() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::from_vec([2], vec![1.0, 2.0]));
        let diags = g.diff_check(c, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "interp-loss");
    }

    /// Edge cases the kernels and the interpreter must agree on:
    /// inner-dimension-0 matmul yields zeros, all-PAD gathers read
    /// zeros and route no gradient, empty reductions are zero.
    #[test]
    fn edge_case_semantics_agree() {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::zeros([2, 0]));
        let b = ps.insert("b", Tensor::from_vec([2, 3], vec![0.5; 6]));
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        let empty_b = g.constant(Tensor::zeros([0, 3]));
        let mm = g.matmul(av, empty_b); // [2,0] x [0,3] = zeros [2,3]
        assert_eq!(g.value(mm).data(), &[0.0; 6]);
        let padded = g.gather_flat(bv, &[PAD, PAD, 1, PAD], [2, 2]);
        let zero_col = g.constant(Tensor::zeros([2, 1]));
        let padded3 = g.concat_cols(&[padded, zero_col]);
        let summed = g.add(mm, padded3);
        let empty = g.constant(Tensor::zeros([0]));
        let empty_mean = g.mean_all(empty);
        let joined = g.sum_all(summed);
        let loss = g.add(joined, empty_mean);
        let diags = g.diff_check(loss, Some(&ps));
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    /// A gather of exclusively PAD offsets must produce an explicit
    /// all-zero gradient for the source parameter on both paths.
    #[test]
    fn all_pad_gather_gradient_is_zero_on_both_paths() {
        let mut ps = ParamStore::new();
        let w = ps.insert("w", Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new();
        let wv = g.param(&ps, w);
        let gf = g.gather_flat(wv, &[PAD, PAD], [2]);
        let loss = g.sum_all(gf);
        assert!(g.diff_check(loss, Some(&ps)).is_empty());
        let grads = g.backward(loss);
        let id = ps.id_of("w").unwrap();
        assert_eq!(grads.get(id).unwrap().data(), &[0.0; 4]);
    }
}
