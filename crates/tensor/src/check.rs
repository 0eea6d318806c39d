//! The diagnostic currency and the per-op shape rules of tape analysis.
//!
//! [`Diagnostic`] (with its [`Severity`]) is the one finding type every
//! analyzer in the workspace reports through: [`crate::tapecheck`] over
//! recorded tapes, the reference interpreter and gradcheck in
//! [`crate::interp`] / [`crate::gradcheck`], and the KG validators of
//! `dekg-check`.
//!
//! The module also owns the op tables those analyzers share:
//!
//! * [`ALL_OPS`] and `op_ordinal` — one mnemonic per `Op` variant, kept
//!   exhaustive by a wildcard-free `match` and audited against the
//!   gradcheck registry;
//! * `for_each_input` — the input edges of an op, in recording order;
//! * `infer_shape_with` — the single per-op shape/index rule set, run by
//!   the eager [`Graph`] constructors (panicking with a typed
//!   [`ShapeError`]) and by tapecheck's pass 1 (reporting
//!   [`Diagnostic`]s);
//! * `op_context` — the node provenance both attach to a [`ShapeError`].

use crate::shape::Shape;
use crate::tape::{Graph, Op, Var, PAD};
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily fatal (dead code, NaN patterns).
    Warning,
    /// A broken invariant: `backward()` would compute garbage or panic.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding from tape analysis ([`crate::tapecheck`], the reference
/// interpreter, gradcheck) or from the KG validators, which reuse this
/// type through `dekg-check`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `"shape-mismatch"`.
    pub code: &'static str,
    /// Arena index of the offending node, when one exists.
    pub node: Option<usize>,
    /// Op mnemonic (or subsystem name) for provenance.
    pub op: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        code: &'static str,
        node: Option<usize>,
        op: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic { severity: Severity::Error, code, node, op: op.into(), message: message.into() }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        node: Option<usize>,
        op: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            node,
            op: op.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
        }
        if !self.op.is_empty() {
            write!(f, " ({})", self.op)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// What went wrong inside a [`ShapeError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeErrorKind {
    /// Operand shapes are incompatible with each other.
    Mismatch,
    /// An operand has the wrong rank for the op.
    Rank,
    /// An index points outside its operand.
    OutOfBounds,
    /// A count-level invariant failed (empty input, length mismatch).
    Arity,
}

/// A typed shape-inference failure.
///
/// Produced by the centralized per-op shape inference that both the
/// eager [`Graph`] constructors and tapecheck's shape pass run; the eager
/// path panics with its [`Display`](fmt::Display) text, the shape pass
/// converts it into a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    kind: ShapeErrorKind,
    message: String,
    context: Option<String>,
}

impl ShapeError {
    pub(crate) fn new(op: &'static str, kind: ShapeErrorKind, message: impl Into<String>) -> Self {
        ShapeError { op, kind, message: message.into(), context: None }
    }

    /// Attaches node provenance — op ordinal and mnemonic, arena index,
    /// input/output `Var` ids with their shapes — rendered in square
    /// brackets after the base message (see `op_context`).
    #[must_use]
    pub fn with_context(mut self, context: impl Into<String>) -> Self {
        self.context = Some(context.into());
        self
    }

    /// The op mnemonic the error originated from.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// The failure category.
    pub fn kind(&self) -> ShapeErrorKind {
        self.kind
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The attached node provenance, when any.
    pub fn context(&self) -> Option<&str> {
        self.context.as_deref()
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Space, not colon: the op mnemonic leads straight into the
        // message ("matmul inner dims: ..."), matching the panic texts
        // the kernels originally produced. Provenance, when attached,
        // trails in brackets so the leading text stays grep-stable.
        write!(f, "{} {}", self.op, self.message)?;
        if let Some(ctx) = &self.context {
            write!(f, " [{ctx}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShapeError {}

/// Every op mnemonic the tape can record, indexed by `op_ordinal`.
///
/// This table is the single source of truth that the dekg-grad coverage
/// audit ([`crate::gradcheck::coverage_gaps`]) walks: every entry must
/// have a registered finite-difference gradcheck. Adding an `Op`
/// variant without extending both the exhaustive match in `op_ordinal`
/// and this table fails to compile (non-exhaustive match) or panics on
/// the first diagnostic that names the new op (index out of bounds) —
/// either way, new ops cannot land unverified.
pub const ALL_OPS: &[&str] = &[
    "Param",
    "Constant",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "AddScalar",
    "MulScalar",
    "Matmul",
    "GatherRows",
    "GatherFlat",
    "Reshape",
    "ConcatRows",
    "ConcatCols",
    "SumAll",
    "MeanAll",
    "SumAxis0",
    "SumAxis1",
    "MeanAxis0",
    "Relu",
    "Sigmoid",
    "Tanh",
    "Sqrt",
    "Exp",
    "Ln",
    "Sin",
    "Cos",
    "Square",
    "Abs",
    "Dropout",
    "StackScalars",
    "ScatterAddRows",
    "BroadcastRow",
    "RelMatmul",
];

/// Position of `op`'s mnemonic in [`ALL_OPS`].
///
/// Deliberately written without a wildcard arm: a new `Op` variant must
/// be given an ordinal here, a name in [`ALL_OPS`], and a gradcheck in
/// [`crate::gradcheck`] before the workspace compiles and tests green.
pub(crate) fn op_ordinal(op: &Op) -> usize {
    match op {
        Op::Leaf(Some(_)) => 0,
        Op::Leaf(None) => 1,
        Op::Add(..) => 2,
        Op::Sub(..) => 3,
        Op::Mul(..) => 4,
        Op::Div(..) => 5,
        Op::Neg(..) => 6,
        Op::AddScalar(..) => 7,
        Op::MulScalar(..) => 8,
        Op::Matmul(..) => 9,
        Op::GatherRows(..) => 10,
        Op::GatherFlat(..) => 11,
        Op::Reshape(..) => 12,
        Op::ConcatRows(..) => 13,
        Op::ConcatCols(..) => 14,
        Op::SumAll(..) => 15,
        Op::MeanAll(..) => 16,
        Op::SumAxis0(..) => 17,
        Op::SumAxis1(..) => 18,
        Op::MeanAxis0(..) => 19,
        Op::Relu(..) => 20,
        Op::Sigmoid(..) => 21,
        Op::Tanh(..) => 22,
        Op::Sqrt(..) => 23,
        Op::Exp(..) => 24,
        Op::Ln(..) => 25,
        Op::Sin(..) => 26,
        Op::Cos(..) => 27,
        Op::Square(..) => 28,
        Op::Abs(..) => 29,
        Op::Dropout(..) => 30,
        Op::StackScalars(..) => 31,
        Op::ScatterAddRows { .. } => 32,
        Op::BroadcastRow(..) => 33,
        Op::RelMatmul { .. } => 34,
    }
}

/// Short mnemonic for an op, safe to embed in diagnostics (never dumps
/// index payloads).
pub(crate) fn op_mnemonic(op: &Op) -> &'static str {
    ALL_OPS[op_ordinal(op)]
}

/// Calls `f` with every input [`Var`] of `op`, in recording order.
pub(crate) fn for_each_input(op: &Op, mut f: impl FnMut(Var)) {
    match op {
        Op::Leaf(_) => {}
        Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Mul(a, b)
        | Op::Div(a, b)
        | Op::Matmul(a, b)
        | Op::RelMatmul { x: a, w: b, .. } => {
            f(*a);
            f(*b);
        }
        Op::Neg(a)
        | Op::AddScalar(a, _)
        | Op::MulScalar(a, _)
        | Op::GatherRows(a, _)
        | Op::GatherFlat(a, _)
        | Op::Reshape(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::SumAxis0(a)
        | Op::SumAxis1(a)
        | Op::MeanAxis0(a)
        | Op::Relu(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Sqrt(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sin(a)
        | Op::Cos(a)
        | Op::Square(a)
        | Op::Abs(a)
        | Op::Dropout(a, _)
        | Op::BroadcastRow(a, _) => f(*a),
        Op::ConcatRows(parts) | Op::ConcatCols(parts) | Op::StackScalars(parts) => {
            for &p in parts {
                f(p);
            }
        }
        Op::ScatterAddRows { src, .. } => f(*src),
    }
}

/// Non-panicking matrix view of a shape.
fn as_matrix(op: &'static str, s: &Shape) -> Result<(usize, usize), ShapeError> {
    if s.rank() == 2 {
        Ok((s.dim(0), s.dim(1)))
    } else {
        Err(ShapeError::new(op, ShapeErrorKind::Rank, format!("expected a matrix, got shape {s}")))
    }
}

fn same_shape(op: &'static str, a: &Shape, b: &Shape) -> Result<Shape, ShapeError> {
    if a.same_as(b) {
        Ok(a.clone())
    } else {
        Err(ShapeError::new(op, ShapeErrorKind::Mismatch, format!("shape mismatch {a} vs {b}")))
    }
}

/// Centralized per-op shape inference, parameterized over the input
/// shape lookup.
///
/// `declared` carries the caller-declared output shape for the ops that
/// take one (`Leaf`, `Reshape`, `GatherFlat`); for every other op it is
/// ignored. Two callers share this single routine: the eager [`Graph`]
/// constructors (lookup = the inputs' values, panic on `Err`) and
/// pass 1 of [`crate::tapecheck`] (lookup = the inputs' recorded
/// shapes, `Err` downgraded to a [`Diagnostic`]), which also backs the
/// `backward()` debug hook and `diff_check`'s structural pre-check.
pub(crate) fn infer_shape_with<'s>(
    op: &Op,
    declared: Option<&Shape>,
    sh: &impl Fn(Var) -> &'s Shape,
) -> Result<Shape, ShapeError> {
    match op {
        Op::Leaf(_) => Ok(declared.cloned().unwrap_or_else(Shape::scalar)),
        Op::Add(a, b) => same_shape("add", sh(*a), sh(*b)),
        Op::Sub(a, b) => same_shape("sub", sh(*a), sh(*b)),
        Op::Mul(a, b) => same_shape("mul", sh(*a), sh(*b)),
        Op::Div(a, b) => same_shape("div", sh(*a), sh(*b)),
        Op::Neg(a)
        | Op::AddScalar(a, _)
        | Op::MulScalar(a, _)
        | Op::Relu(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Sqrt(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sin(a)
        | Op::Cos(a)
        | Op::Square(a)
        | Op::Abs(a) => Ok(sh(*a).clone()),
        Op::Dropout(a, mask) => {
            let s = sh(*a);
            if mask.len() != s.numel() {
                return Err(ShapeError::new(
                    "dropout",
                    ShapeErrorKind::Arity,
                    format!("mask length {} does not cover input {s}", mask.len()),
                ));
            }
            Ok(s.clone())
        }
        Op::Matmul(a, b) => {
            let (m, k) = as_matrix("matmul", sh(*a))?;
            let (k2, n) = as_matrix("matmul", sh(*b))?;
            if k != k2 {
                return Err(ShapeError::new(
                    "matmul",
                    ShapeErrorKind::Mismatch,
                    format!("inner dims: {} vs {}", sh(*a), sh(*b)),
                ));
            }
            Ok(Shape::new(vec![m, n]))
        }
        Op::RelMatmul { x, w, blocks } => {
            let (e, k) = as_matrix("rel_matmul", sh(*x))?;
            let (w_rows, n) = as_matrix("rel_matmul", sh(*w))?;
            if blocks.len() != e {
                return Err(ShapeError::new(
                    "rel_matmul",
                    ShapeErrorKind::Arity,
                    format!("block count {} does not match {e} rows", blocks.len()),
                ));
            }
            if k == 0 || w_rows % k != 0 {
                return Err(ShapeError::new(
                    "rel_matmul",
                    ShapeErrorKind::Mismatch,
                    format!("weight rows {w_rows} do not split into blocks of {k} rows"),
                ));
            }
            let num_blocks = w_rows / k;
            if let Some(&b) = blocks.iter().find(|&&b| b >= num_blocks) {
                return Err(ShapeError::new(
                    "rel_matmul",
                    ShapeErrorKind::OutOfBounds,
                    format!("block {b} out of bounds for {num_blocks} blocks of {k} rows"),
                ));
            }
            Ok(Shape::new(vec![e, n]))
        }
        Op::GatherRows(a, idx) => {
            let (rows, cols) = as_matrix("gather_rows", sh(*a))?;
            for &i in idx {
                if i >= rows {
                    return Err(ShapeError::new(
                        "gather_rows",
                        ShapeErrorKind::OutOfBounds,
                        format!("index {i} out of bounds for {rows} rows"),
                    ));
                }
            }
            Ok(Shape::new(vec![idx.len(), cols]))
        }
        Op::GatherFlat(a, idx) => {
            let declared = declared.ok_or_else(|| {
                ShapeError::new(
                    "gather_flat",
                    ShapeErrorKind::Arity,
                    "missing declared output shape",
                )
            })?;
            if idx.len() != declared.numel() {
                return Err(ShapeError::new(
                    "gather_flat",
                    ShapeErrorKind::Arity,
                    format!("index count {} does not fill output {declared}", idx.len()),
                ));
            }
            let n = sh(*a).numel();
            for &i in idx {
                if i != PAD && i >= n {
                    return Err(ShapeError::new(
                        "gather_flat",
                        ShapeErrorKind::OutOfBounds,
                        format!("offset {i} out of bounds for {n} elements"),
                    ));
                }
            }
            Ok(declared.clone())
        }
        Op::Reshape(a) => {
            let declared = declared.ok_or_else(|| {
                ShapeError::new("reshape", ShapeErrorKind::Arity, "missing declared output shape")
            })?;
            let n = sh(*a).numel();
            if declared.numel() != n {
                return Err(ShapeError::new(
                    "reshape",
                    ShapeErrorKind::Mismatch,
                    format!("cannot reshape {n} elements to {declared}"),
                ));
            }
            Ok(declared.clone())
        }
        Op::ConcatRows(parts) => {
            if parts.is_empty() {
                return Err(ShapeError::new("concat_rows", ShapeErrorKind::Arity, "empty input"));
            }
            let first = sh(parts[0]);
            if first.rank() == 1 {
                let mut total = 0;
                for &p in parts {
                    let s = sh(p);
                    if s.rank() != 1 {
                        return Err(ShapeError::new(
                            "concat_rows",
                            ShapeErrorKind::Rank,
                            format!("mixed ranks: [{}] vs {s}", first.dim(0)),
                        ));
                    }
                    total += s.dim(0);
                }
                Ok(Shape::new(vec![total]))
            } else {
                let (_, cols) = as_matrix("concat_rows", first)?;
                let mut rows = 0;
                for &p in parts {
                    let (r, c) = as_matrix("concat_rows", sh(p))?;
                    if c != cols {
                        return Err(ShapeError::new(
                            "concat_rows",
                            ShapeErrorKind::Mismatch,
                            format!("column mismatch: {cols} vs {c}"),
                        ));
                    }
                    rows += r;
                }
                Ok(Shape::new(vec![rows, cols]))
            }
        }
        Op::ConcatCols(parts) => {
            if parts.is_empty() {
                return Err(ShapeError::new("concat_cols", ShapeErrorKind::Arity, "empty input"));
            }
            let (rows, _) = as_matrix("concat_cols", sh(parts[0]))?;
            let mut total = 0;
            for &p in parts {
                let (r, c) = as_matrix("concat_cols", sh(p))?;
                if r != rows {
                    return Err(ShapeError::new(
                        "concat_cols",
                        ShapeErrorKind::Mismatch,
                        format!("row mismatch: {rows} vs {r}"),
                    ));
                }
                total += c;
            }
            Ok(Shape::new(vec![rows, total]))
        }
        Op::SumAll(_) | Op::MeanAll(_) => Ok(Shape::scalar()),
        Op::SumAxis0(a) | Op::MeanAxis0(a) => {
            let (_, n) = as_matrix("sum_axis0", sh(*a))?;
            Ok(Shape::new(vec![n]))
        }
        Op::SumAxis1(a) => {
            let (m, _) = as_matrix("sum_axis1", sh(*a))?;
            Ok(Shape::new(vec![m]))
        }
        Op::StackScalars(parts) => {
            if parts.is_empty() {
                return Err(ShapeError::new("stack_scalars", ShapeErrorKind::Arity, "empty input"));
            }
            for &p in parts {
                let s = sh(p);
                if s.numel() != 1 {
                    return Err(ShapeError::new(
                        "stack_scalars",
                        ShapeErrorKind::Mismatch,
                        format!("non-scalar input {s}"),
                    ));
                }
            }
            Ok(Shape::new(vec![parts.len()]))
        }
        Op::ScatterAddRows { src, idx, rows } => {
            let (e, cols) = as_matrix("scatter_add_rows", sh(*src))?;
            if idx.len() != e {
                return Err(ShapeError::new(
                    "scatter_add_rows",
                    ShapeErrorKind::Arity,
                    format!("index count {} does not match {e} source rows", idx.len()),
                ));
            }
            for &t in idx {
                if t >= *rows {
                    return Err(ShapeError::new(
                        "scatter_add_rows",
                        ShapeErrorKind::OutOfBounds,
                        format!("target {t} out of bounds for {rows} rows"),
                    ));
                }
            }
            Ok(Shape::new(vec![*rows, cols]))
        }
        Op::BroadcastRow(a, rows) => {
            let s = sh(*a);
            if s.rank() != 1 {
                return Err(ShapeError::new(
                    "broadcast_row",
                    ShapeErrorKind::Rank,
                    format!("expected rank-1, got {s}"),
                ));
            }
            Ok(Shape::new(vec![*rows, s.dim(0)]))
        }
    }
}

/// Renders node provenance for a [`ShapeError`]: the op ordinal and
/// mnemonic, the node's arena index, every input `Var` id with its
/// recorded shape, and (when the node already exists) the recorded
/// output shape. Attached via [`ShapeError::with_context`] so a
/// constructor panic or shape-pass diagnostic pinpoints the offending node
/// without a debugger.
pub(crate) fn op_context(g: &Graph, op: &Op, node: usize, output: Option<&Shape>) -> String {
    use std::fmt::Write as _;
    let mut out = format!("op #{} {} at node {node}", op_ordinal(op), op_mnemonic(op));
    let mut first = true;
    for_each_input(op, |v| {
        let sep = if first { "; inputs: " } else { ", " };
        first = false;
        let _ = write!(out, "{sep}v{} {}", v.index(), g.node_value(v).shape());
    });
    if let Some(s) = output {
        let _ = write!(out, "; output v{node} {s}");
    }
    out
}

impl Graph {
    /// Centralized shape inference for one op given the shapes of its
    /// already-recorded inputs (see [`infer_shape_with`]).
    pub(crate) fn infer_shape(
        &self,
        op: &Op,
        declared: Option<&Shape>,
    ) -> Result<Shape, ShapeError> {
        infer_shape_with(op, declared, &|v: Var| self.node_value(v).shape())
    }
}

#[cfg(test)]
mod tests {
    //! One test per diagnostic code tape analysis emits, each driven
    //! through [`crate::tapecheck::tapecheck_with`] (the red fixtures in
    //! `tapecheck.rs` pin the full rendered transcripts).

    use super::*;
    use crate::params::{ParamId, ParamStore};
    use crate::tapecheck::{tapecheck_with, TapeReport};
    use crate::tensor::Tensor;
    use proptest::prelude::*;

    fn two_param_store() -> (ParamStore, ParamId, ParamId) {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::from_vec([2], vec![1.0, 2.0]));
        let b = ps.insert("b", Tensor::from_vec([2], vec![3.0, 4.0]));
        (ps, a, b)
    }

    fn codes(report: &TapeReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_tape_has_zero_diagnostics() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        let p = g.mul(av, bv);
        let loss = g.sum_all(p);
        assert!(tapecheck_with(&g, loss, &[], Some(&ps)).is_clean());
    }

    #[test]
    fn dead_param_is_reported() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let sq = g.square(av);
        let loss = g.sum_all(sq);
        let diags = tapecheck_with(&g, loss, &[], Some(&ps)).diagnostics;
        assert_eq!(diags.len(), 1, "diags: {diags:?}");
        assert_eq!(diags[0].code, "dead-param");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("\"b\""), "message: {}", diags[0].message);
    }

    #[test]
    fn dead_subgraph_is_reported_once() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        // A dangling branch off `b` that never reaches the loss.
        let dangling = g.square(bv);
        let _more_dangling = g.sum_all(dangling);
        let sq = g.square(av);
        let loss = g.sum_all(sq);
        let diags = tapecheck_with(&g, loss, &[], None).diagnostics;
        let dead: Vec<_> = diags.iter().filter(|d| d.code == "dead-code").collect();
        assert_eq!(dead.len(), 1, "diags: {diags:?}");
        assert!(dead[0].message.contains("3 node(s)"), "message: {}", dead[0].message);
    }

    #[test]
    fn oob_gather_is_reported() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let m = g.reshape(av, [1, 2]);
        let bad = g.fault_gather_rows_unchecked(m, &[0, 7]);
        let s = g.sum_all(bad);
        let diags = tapecheck_with(&g, s, &[], None).diagnostics;
        assert!(
            diags.iter().any(|d| d.code == "oob-index" && d.severity == Severity::Error),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        let sum = g.add(av, bv);
        g.fault_override_value(sum, Tensor::zeros([3]));
        let loss = g.sum_all(sum);
        let diags = tapecheck_with(&g, loss, &[], None).diagnostics;
        assert!(
            diags.iter().any(|d| d.code == "shape-mismatch" && d.node == Some(sum.index())),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn inconsistent_inputs_are_a_shape_error() {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::ones([2, 3]));
        let b = ps.insert("b", Tensor::ones([3, 4]));
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        let prod = g.matmul(av, bv);
        let loss = g.sum_all(prod);
        // The leaf now claims [2, 2]: the recorded product's inputs no
        // longer multiply, so inference itself fails at the Matmul.
        g.fault_override_value(av, Tensor::ones([2, 2]));
        let report = tapecheck_with(&g, loss, &[], Some(&ps));
        assert_eq!(codes(&report), vec!["shape-error"], "diags: {:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].node, Some(prod.index()));
    }

    #[test]
    fn non_scalar_loss_is_reported() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let report = tapecheck_with(&g, av, &[], None);
        assert!(codes(&report).contains(&"non-scalar-loss"), "diags: {:?}", report.diagnostics);
    }

    #[test]
    fn div_by_zero_constant_warns() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let z = g.constant(Tensor::from_vec([2], vec![1.0, 0.0]));
        let q = g.div(av, z);
        let loss = g.sum_all(q);
        let report = tapecheck_with(&g, loss, &[], None);
        assert!(codes(&report).contains(&"div-by-zero"), "diags: {:?}", report.diagnostics);
        // The division by zero also produces an Inf at the Div node.
        assert!(codes(&report).contains(&"non-finite"), "diags: {:?}", report.diagnostics);
    }

    #[test]
    fn log_of_nonpositive_constant_warns() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::from_vec([2], vec![0.5, -1.0]));
        let l = g.ln(c);
        let loss = g.sum_all(l);
        let report = tapecheck_with(&g, loss, &[], None);
        assert!(codes(&report).contains(&"log-nonpositive"), "diags: {:?}", report.diagnostics);
    }

    #[test]
    fn sqrt_of_negative_constant_warns() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::from_vec([2], vec![4.0, -1.0]));
        let r = g.sqrt(c);
        let loss = g.sum_all(r);
        let report = tapecheck_with(&g, loss, &[], None);
        // The NaN is born at the Sqrt node and reported there only.
        assert_eq!(codes(&report), vec!["sqrt-negative", "non-finite"]);
        assert!(report.diagnostics.iter().all(|d| d.node == Some(r.index())));
    }

    #[test]
    fn non_finite_dropout_mask_warns() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let d = g.fault_dropout_with_mask(av, vec![2.0, f32::INFINITY]);
        let loss = g.sum_all(d);
        let diags = tapecheck_with(&g, loss, &[], Some(&ps)).diagnostics;
        assert!(
            diags.iter().any(|x| x.code == "non-finite-mask" && x.node == Some(d.index())),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn non_finite_scalar_payload_warns() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let shifted = g.add_scalar(av, f32::NAN);
        let loss = g.sum_all(shifted);
        let diags = tapecheck_with(&g, loss, &[], Some(&ps)).diagnostics;
        assert!(
            diags.iter().any(|x| x.code == "non-finite-scalar" && x.node == Some(shifted.index())),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn diagnostic_display_is_stable() {
        let d = Diagnostic::error(
            "oob-index",
            Some(3),
            "GatherRows",
            "index 7 out of bounds for 2 rows",
        );
        assert_eq!(
            d.to_string(),
            "error[oob-index] node 3 (GatherRows): index 7 out of bounds for 2 rows"
        );
    }

    proptest! {
        /// A randomly shaped, randomly valued but well-formed training
        /// tape analyzes clean, and stays clean while it converges.
        #[test]
        fn converging_tape_stays_clean(rows in 1usize..5, cols in 1usize..5, steps in 1usize..4) {
            let mut ps = ParamStore::new();
            let n = rows * cols;
            let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let w = ps.insert("w", Tensor::from_vec(vec![rows, cols], data));
            for _ in 0..steps {
                let mut g = Graph::new();
                let wv = g.param(&ps, w);
                let sq = g.square(wv);
                let loss = g.mean_all(sq);
                let report = tapecheck_with(&g, loss, &[], Some(&ps));
                prop_assert!(report.is_clean(), "diags: {:?}", report.diagnostics);
                let grads = g.backward(loss);
                use crate::optim::{Optimizer, Sgd};
                Sgd::new(0.1).step(&mut ps, &grads);
            }
        }
    }
}
