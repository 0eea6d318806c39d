//! Tape analysis: the one producer of diagnostics over a recorded
//! autograd tape.
//!
//! A recorded [`Graph`] is a complete dataflow program — ops, edges,
//! shapes, `needs_grad` bits — plus one execution of it (the recorded
//! values). [`tapecheck_with`] runs four passes over the arena, none of
//! which executes a kernel:
//!
//! 1. **Shapes and indices** ([`abstract_shapes`]): every node's output
//!    shape is re-derived from its op and its inputs' recorded shapes
//!    through the same centralized inference the eager constructors use
//!    ([`crate::check`]'s `infer_shape_with`) and cross-checked against
//!    the recorded one (`shape-mismatch`, `shape-error`, `oob-index`),
//!    and the loss must be a single element (`non-scalar-loss`). This
//!    is the only per-node shape check in the crate: `backward()` runs
//!    it under `debug_assertions` and [`Graph::diff_check`] runs it
//!    before comparing values. Op coverage of the shape rules comes
//!    from the gradcheck registry ([`crate::gradcheck`]), whose every
//!    case goes through `diff_check` and is audited against
//!    [`crate::check::ALL_OPS`].
//! 2. **Gradient-flow reachability**: backward reachability from the
//!    loss along differentiable edges, treating value-independent
//!    gradient killers (`MulScalar(_, 0.0)`, an all-zero dropout mask,
//!    an all-[`PAD`] gather) as cut edges. Reports dead parameters
//!    (registered but receiving no gradient), zero-gradient subtapes
//!    (nodes that reach the loss yet provably train nothing), ops whose
//!    outputs nothing consumes, and nodes no root reaches (dead code).
//! 3. **Liveness + memory planning** ([`memory_plan`]): last-use
//!    computation per [`Var`] yielding a [`MemoryPlan`] — an
//!    interval-graph buffer-reuse assignment and the predicted peak
//!    live bytes of an executor that frees each value after its last
//!    structural use (the eager [`Graph`] keeps everything alive, so
//!    `total_value_bytes` is what we pay today and `peak_live_bytes` is
//!    the floor a reuse-aware executor can reach). `perf --alloc-check`
//!    in dekg-bench validates the prediction against the counting
//!    allocator.
//! 4. **Values**: NaN/Inf hazards in the recorded values and payloads —
//!    division by, `ln` or `sqrt` of a constant outside the op's
//!    domain, non-finite dropout masks and scalar payloads, and the node
//!    where a NaN/Inf first appears.
//!
//! Because GraIL-style subgraph scorers build thousands of small
//! per-batch tapes, [`TapeCache`] amortizes the three static passes:
//! tapes are keyed by [`structure_key`], a fingerprint of exactly the
//! facts those passes consume (ops, edges, shapes, `needs_grad` bits,
//! and *abstracted* payloads — index vectors collapse to their length
//! and bounds/padding flags, dropout masks to their length and an
//! all-zero flag). Two tapes with equal keys provably produce equal
//! static reports, so per-batch tapes that differ only in gathered
//! indices or mask draws are analyzed once. The key ignores values, so
//! the value pass never goes through the cache: `train --tape-report`
//! (cached, per batch) reports the static passes, while
//! [`tapecheck_with`] (`dekg check --tape`,
//! `dekg_core::tape_check_dataset`) runs all four.
//!
//! ```
//! use dekg_tensor::{Graph, ParamStore, Tensor};
//!
//! let mut ps = ParamStore::new();
//! let w = ps.insert("w", Tensor::ones([2]));
//! let dead = ps.insert("unused", Tensor::ones([2]));
//!
//! let mut g = Graph::new();
//! let wv = g.param(&ps, w);
//! let sq = g.square(wv);
//! let loss = g.sum_all(sq);
//!
//! let report = g.tapecheck_with_params(loss, &ps);
//! assert_eq!(report.dead_params, vec!["unused".to_string()]);
//! assert!(report.plan.peak_live_bytes <= report.plan.total_value_bytes);
//! let _ = dead;
//! ```

use crate::check::{
    for_each_input, op_context, op_mnemonic, op_ordinal, Diagnostic, Severity, ShapeErrorKind,
};
use crate::params::ParamStore;
use crate::shape::Shape;
use crate::tape::{Graph, Op, Var, PAD};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Bytes per tape element (`f32` values throughout).
const BYTES_PER_ELEM: usize = 4;

// ---------------------------------------------------------------------
// Pass 1: shapes and indices
// ---------------------------------------------------------------------

/// Checks every node's op against its inputs' recorded shapes, and the
/// loss against the scalar contract of `backward()`.
///
/// Each node's output shape is re-derived from its op and its inputs'
/// recorded shapes (`Leaf`, `Reshape` and `GatherFlat` read their
/// declared shape back from the recorded value) and compared with the
/// node's own recorded shape: a disagreement is a `shape-mismatch`, a
/// failed inference a `shape-error`, or an `oob-index` when an index
/// falls outside its operand. Since inputs are always taken at their
/// recorded shapes, one corrupted value yields one finding at its own
/// node rather than a cascade downstream. A `loss` of more than one
/// element is a `non-scalar-loss`, reported first.
///
/// Returns every node's recorded shape (what the memory plan sizes) and
/// the findings.
pub fn abstract_shapes(g: &Graph, loss: Var) -> (Vec<Shape>, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let loss_shape = g.node_value(loss).shape();
    if loss_shape.numel() != 1 {
        diags.push(Diagnostic::error(
            "non-scalar-loss",
            Some(loss.index()),
            op_mnemonic(g.node_op(loss)),
            format!("backward() needs a scalar loss, got {loss_shape}"),
        ));
    }
    let mut shapes: Vec<Shape> = Vec::with_capacity(g.len());
    for id in 0..g.len() {
        let op = g.node_op(Var(id));
        let recorded = g.node_value(Var(id)).shape();
        let declared =
            matches!(op, Op::Leaf(_) | Op::Reshape(_) | Op::GatherFlat(..)).then_some(recorded);
        match g.infer_shape(op, declared) {
            Ok(inferred) if inferred.same_as(recorded) => {}
            Ok(inferred) => diags.push(Diagnostic::error(
                "shape-mismatch",
                Some(id),
                op_mnemonic(op),
                format!(
                    "recorded value has shape {recorded}, abstract interpretation derives \
                     {inferred} [{}]",
                    op_context(g, op, id, Some(recorded))
                ),
            )),
            Err(e) => {
                let code = match e.kind() {
                    ShapeErrorKind::OutOfBounds => "oob-index",
                    _ => "shape-error",
                };
                let e = e.with_context(op_context(g, op, id, Some(recorded)));
                diags.push(Diagnostic::error(code, Some(id), op_mnemonic(op), e.to_string()));
            }
        }
        shapes.push(recorded.clone());
    }
    (shapes, diags)
}

// ---------------------------------------------------------------------
// Pass 2: gradient-flow reachability
// ---------------------------------------------------------------------

/// True when `op` provably transmits zero gradient to every input, by
/// structure alone. Deliberately value-independent (a `Mul` by a
/// zero-valued constant is *not* listed): every fact here is part of
/// [`structure_key`], which keeps the analysis cache sound.
fn blocks_gradient(op: &Op) -> bool {
    match op {
        Op::MulScalar(_, s) => *s == 0.0,
        Op::Dropout(_, mask) => mask.iter().all(|&m| m == 0.0),
        Op::GatherFlat(_, idx) => idx.iter().all(|&i| i == PAD),
        _ => false,
    }
}

/// Marks every node whose output receives a non-trivial gradient when
/// `backward(loss)` runs: backward reachability from the loss along
/// differentiable edges, cut at [`blocks_gradient`] ops.
fn grad_reachable(g: &Graph, loss: Var) -> Vec<bool> {
    let mut reach = vec![false; g.len()];
    if !g.node_needs_grad(loss) {
        return reach;
    }
    reach[loss.index()] = true;
    let mut stack = vec![loss.index()];
    while let Some(id) = stack.pop() {
        let op = g.node_op(Var(id));
        if blocks_gradient(op) {
            continue;
        }
        for_each_input(op, |u| {
            if g.node_needs_grad(u) && !reach[u.index()] {
                reach[u.index()] = true;
                stack.push(u.index());
            }
        });
    }
    reach
}

/// Marks every node some root reads, directly or transitively: the one
/// reachability routine behind both the zero-grad check (rooted at the
/// loss) and dead code (rooted at the loss plus the observed roots).
fn value_reachable(g: &Graph, roots: &[Var]) -> Vec<bool> {
    let mut reach = vec![false; g.len()];
    let mut stack = Vec::new();
    for r in roots {
        if !reach[r.index()] {
            reach[r.index()] = true;
            stack.push(r.index());
        }
    }
    while let Some(id) = stack.pop() {
        for_each_input(g.node_op(Var(id)), |u| {
            if !reach[u.index()] {
                reach[u.index()] = true;
                stack.push(u.index());
            }
        });
    }
    reach
}

// ---------------------------------------------------------------------
// Pass 3: liveness + memory planning
// ---------------------------------------------------------------------

/// The buffer-reuse plan a free-after-last-use executor would run this
/// tape under. See the module docs for what "predicted" means relative
/// to the eager [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// For each node, the arena index of the last node consuming its
    /// value (its own index when nothing does; declared roots are
    /// pinned to the end of the tape).
    pub last_use: Vec<usize>,
    /// For each node, the reuse buffer its value is assigned to.
    pub buffer_of: Vec<usize>,
    /// Capacity in bytes of each reuse buffer.
    pub buffer_bytes: Vec<usize>,
    /// Peak bytes simultaneously live under free-after-last-use — the
    /// prediction `perf --alloc-check` validates.
    pub peak_live_bytes: usize,
    /// Total bytes of every recorded value: what the eager tape holds
    /// live for its whole lifetime.
    pub total_value_bytes: usize,
}

impl MemoryPlan {
    /// Number of distinct buffers the interval assignment needs.
    pub fn num_buffers(&self) -> usize {
        self.buffer_bytes.len()
    }

    /// Total bytes the reuse buffers occupy (an upper bound on
    /// [`MemoryPlan::peak_live_bytes`] the exact-size free list pays
    /// for determinism).
    pub fn planned_bytes(&self) -> usize {
        self.buffer_bytes.iter().sum()
    }
}

/// Computes per-node last uses and assigns values to reuse buffers.
///
/// `shapes` are the (abstract) per-node shapes — sized in bytes at
/// `BYTES_PER_ELEM` each — and `roots` are the outputs that must
/// survive to the end of the tape (the loss plus any declared
/// observation nodes). The assignment walks the arena in recording
/// order keeping an exact-size free list keyed by byte size: a freed
/// buffer is reused only for a value of identical size, which is
/// deterministic and never oversubscribes a buffer. A node may not
/// reuse the buffer of a value whose last use is the node itself
/// (kernels read their inputs while writing their output).
pub fn memory_plan(g: &Graph, shapes: &[Shape], roots: &[Var]) -> MemoryPlan {
    let n = g.len();
    let bytes: Vec<usize> = shapes.iter().map(|s| s.numel() * BYTES_PER_ELEM).collect();
    let mut last_use: Vec<usize> = (0..n).collect();
    for id in 0..n {
        for_each_input(g.node_op(Var(id)), |u| last_use[u.index()] = id);
    }
    let end = n.saturating_sub(1);
    for r in roots {
        last_use[r.index()] = end;
    }
    let mut expiring: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, &last) in last_use.iter().enumerate() {
        expiring[last].push(id);
    }
    let mut free: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut buffer_of = vec![0usize; n];
    let mut buffer_bytes: Vec<usize> = Vec::new();
    let mut live = 0usize;
    let mut peak = 0usize;
    for t in 0..n {
        if t > 0 {
            for &e in &expiring[t - 1] {
                free.entry(bytes[e]).or_default().push(buffer_of[e]);
            }
        }
        buffer_of[t] = if let Some(b) = free.get_mut(&bytes[t]).and_then(Vec::pop) {
            b
        } else {
            buffer_bytes.push(bytes[t]);
            buffer_bytes.len() - 1
        };
        live += bytes[t];
        peak = peak.max(live);
        for &e in &expiring[t] {
            live -= bytes[e];
        }
    }
    MemoryPlan {
        last_use,
        buffer_of,
        buffer_bytes,
        peak_live_bytes: peak,
        total_value_bytes: bytes.iter().sum(),
    }
}

// ---------------------------------------------------------------------
// The combined report
// ---------------------------------------------------------------------

/// Everything tape analysis found on one tape.
#[derive(Debug, Clone)]
pub struct TapeReport {
    /// All findings, shape pass first, then gradient flow, then
    /// structure, then values (absent from [`TapeCache`] reports) —
    /// each order deterministic.
    pub diagnostics: Vec<Diagnostic>,
    /// The recorded shape of every node, as pass 1 checked it.
    pub shapes: Vec<Shape>,
    /// Arena length at analysis time.
    pub num_nodes: usize,
    /// How many registered parameters were checked for gradient flow
    /// (0 when no store was supplied).
    pub params_checked: usize,
    /// Names of parameters with no gradient path to the loss.
    pub dead_params: Vec<String>,
    /// Arena indices of nodes whose output nothing consumes (and that
    /// are not declared roots).
    pub unconsumed_ops: Vec<usize>,
    /// Nodes unreachable from the loss and every declared root.
    pub dead_nodes: usize,
    /// Differentiable nodes that reach the loss but provably receive
    /// zero gradient (stopped subtapes).
    pub zero_grad_nodes: usize,
    /// The liveness/buffer-reuse plan (pass 3).
    pub plan: MemoryPlan,
}

impl TapeReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True when no pass found anything at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the findings plus a fixed-format summary block (the
    /// transcript the red-fixture golden tests pin byte-for-byte).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "tapecheck: {} node(s), {} param(s) checked; {} error(s), {} warning(s)",
            self.num_nodes,
            self.params_checked,
            self.errors(),
            self.warnings()
        );
        let _ = writeln!(
            out,
            "  grad-flow: {} dead param(s), {} zero-grad node(s), {} unconsumed op(s), {} dead \
             node(s)",
            self.dead_params.len(),
            self.zero_grad_nodes,
            self.unconsumed_ops.len(),
            self.dead_nodes
        );
        let _ = writeln!(
            out,
            "  memory plan: predicted peak {} live byte(s) in {} buffer(s) ({} byte(s) planned, \
             {} byte(s) recorded)",
            self.plan.peak_live_bytes,
            self.plan.num_buffers(),
            self.plan.planned_bytes(),
            self.plan.total_value_bytes
        );
        out
    }
}

/// Runs all four passes over the arena: the three static ones of
/// [`TapeCache`] plus the value pass.
///
/// `observed` declares outputs beyond the loss that are read by the
/// caller (e.g. the diagnostic-only loss components the training loop
/// logs): they count as roots for the structure pass and the memory
/// plan, but *not* for gradient flow — gradients only ever start at the
/// loss. Pass `params` to also check registered-parameter coverage.
pub fn tapecheck_with(
    g: &Graph,
    loss: Var,
    observed: &[Var],
    params: Option<&ParamStore>,
) -> TapeReport {
    let mut report = static_report(g, loss, observed, params);
    report.diagnostics.extend(value_diagnostics(g));
    report
}

/// Passes 1–3: everything [`structure_key`] determines, hence what
/// [`TapeCache`] memoizes.
fn static_report(
    g: &Graph,
    loss: Var,
    observed: &[Var],
    params: Option<&ParamStore>,
) -> TapeReport {
    let n = g.len();
    let mut roots = vec![loss];
    roots.extend(observed.iter().copied().filter(|v| *v != loss));

    let (shapes, mut diagnostics) = abstract_shapes(g, loss);

    // -- gradient flow --
    let grad_live = grad_reachable(g, loss);
    let loss_live = value_reachable(g, &[loss]);
    let zero_grad: Vec<usize> = (0..n)
        .filter(|&id| {
            id != loss.index() && loss_live[id] && g.node_needs_grad(Var(id)) && !grad_live[id]
        })
        .collect();
    if !zero_grad.is_empty() {
        let preview: Vec<String> = zero_grad.iter().take(5).map(ToString::to_string).collect();
        let suffix = if zero_grad.len() > 5 { ", .." } else { "" };
        diagnostics.push(Diagnostic::warning(
            "zero-grad",
            Some(zero_grad[0]),
            op_mnemonic(g.node_op(Var(zero_grad[0]))),
            format!(
                "{} differentiable node(s) reach the loss but provably receive zero gradient \
                 (nodes {}{suffix})",
                zero_grad.len(),
                preview.join(", ")
            ),
        ));
    }

    let mut dead_params = Vec::new();
    let params_checked = params.map_or(0, ParamStore::len);
    if let Some(ps) = params {
        let mut has_grad = vec![false; ps.len()];
        for (id, &reached) in grad_live.iter().enumerate() {
            if let Op::Leaf(Some(pid)) = g.node_op(Var(id)) {
                if reached && pid.index() < has_grad.len() {
                    has_grad[pid.index()] = true;
                }
            }
        }
        for (pid, name, _) in ps.iter() {
            if !has_grad[pid.index()] {
                dead_params.push(name.to_string());
                diagnostics.push(Diagnostic::warning(
                    "dead-param",
                    None,
                    "Param",
                    format!("registered parameter {name:?} has no gradient path to the loss"),
                ));
            }
        }
    }

    // -- structure: unconsumed outputs and dead subtapes --
    let mut consumed = vec![false; n];
    for id in 0..n {
        for_each_input(g.node_op(Var(id)), |u| consumed[u.index()] = true);
    }
    let mut is_root = vec![false; n];
    for r in &roots {
        is_root[r.index()] = true;
    }
    let unconsumed_ops: Vec<usize> = (0..n).filter(|&id| !consumed[id] && !is_root[id]).collect();
    for &id in &unconsumed_ops {
        diagnostics.push(Diagnostic::warning(
            "unconsumed-op",
            Some(id),
            op_mnemonic(g.node_op(Var(id))),
            format!("output of shape {} is never consumed and is not a declared root", shapes[id]),
        ));
    }
    let reachable = value_reachable(g, &roots);
    let dead: Vec<usize> = (0..n).filter(|&id| !reachable[id]).collect();
    if !dead.is_empty() {
        let preview: Vec<String> = dead.iter().take(5).map(ToString::to_string).collect();
        let suffix = if dead.len() > 5 { ", .." } else { "" };
        diagnostics.push(Diagnostic::warning(
            "dead-code",
            Some(dead[0]),
            op_mnemonic(g.node_op(Var(dead[0]))),
            format!(
                "{} node(s) never reach the loss or a declared root (nodes {}{suffix})",
                dead.len(),
                preview.join(", ")
            ),
        ));
    }

    let plan = memory_plan(g, &shapes, &roots);
    TapeReport {
        diagnostics,
        shapes,
        num_nodes: n,
        params_checked,
        dead_params,
        unconsumed_ops,
        dead_nodes: dead.len(),
        zero_grad_nodes: zero_grad.len(),
        plan,
    }
}

// ---------------------------------------------------------------------
// Pass 4: values
// ---------------------------------------------------------------------

/// Pass 4: NaN/Inf hazards that live in recorded values and payloads,
/// which [`structure_key`] deliberately ignores — so this pass runs on
/// every [`tapecheck_with`] call and never through [`TapeCache`].
///
/// Per node, in recording order: division by a constant containing 0
/// (`div-by-zero`), `ln` of a constant with a value <= 0
/// (`log-nonpositive`), `sqrt` of a constant with a negative value
/// (`sqrt-negative`), a NaN/Inf dropout mask (`non-finite-mask`) or
/// scalar payload (`non-finite-scalar`) — these corrupt gradients even
/// while every value looks finite — and a value that introduces NaN/Inf
/// from finite inputs (`non-finite`, reported at its origin only).
fn value_diagnostics(g: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let constant_with = |v: Var, bad: fn(f32) -> bool| {
        g.is_constant(v) && g.node_value(v).data().iter().any(|&x| bad(x))
    };
    for id in 0..g.len() {
        let op = g.node_op(Var(id));
        match op {
            Op::Div(_, b) if constant_with(*b, |x| x == 0.0) => out.push(Diagnostic::warning(
                "div-by-zero",
                Some(id),
                "Div",
                format!("divides by constant node {} which contains 0", b.index()),
            )),
            Op::Ln(a) if constant_with(*a, |x| x <= 0.0) => out.push(Diagnostic::warning(
                "log-nonpositive",
                Some(id),
                "Ln",
                format!("takes ln of constant node {} with a value <= 0", a.index()),
            )),
            Op::Sqrt(a) if constant_with(*a, |x| x < 0.0) => out.push(Diagnostic::warning(
                "sqrt-negative",
                Some(id),
                "Sqrt",
                format!("takes sqrt of constant node {} with a negative value", a.index()),
            )),
            Op::Dropout(_, mask) if mask.iter().any(|m| !m.is_finite()) => {
                out.push(Diagnostic::warning(
                    "non-finite-mask",
                    Some(id),
                    "Dropout",
                    "recorded dropout mask contains NaN or Inf",
                ));
            }
            Op::AddScalar(_, s) | Op::MulScalar(_, s) if !s.is_finite() => {
                out.push(Diagnostic::warning(
                    "non-finite-scalar",
                    Some(id),
                    op_mnemonic(op),
                    format!("scalar payload {s} is not finite"),
                ));
            }
            _ => {}
        }
        if g.node_value(Var(id)).has_non_finite() {
            let mut inputs_finite = true;
            for_each_input(op, |u| inputs_finite &= !g.node_value(u).has_non_finite());
            if inputs_finite {
                out.push(Diagnostic::warning(
                    "non-finite",
                    Some(id),
                    op_mnemonic(op),
                    "forward value introduces NaN or Inf from finite inputs",
                ));
            }
        }
    }
    out
}

impl Graph {
    /// All four tape-analysis passes over the tape below (and around)
    /// `loss`. See the [`crate::tapecheck`] module docs.
    pub fn tapecheck(&self, loss: Var) -> TapeReport {
        tapecheck_with(self, loss, &[], None)
    }

    /// [`Graph::tapecheck`] plus registered-parameter gradient
    /// coverage.
    pub fn tapecheck_with_params(&self, loss: Var, params: &ParamStore) -> TapeReport {
        tapecheck_with(self, loss, &[], Some(params))
    }
}

// ---------------------------------------------------------------------
// Structure-keyed analysis cache
// ---------------------------------------------------------------------

/// 64-bit FNV-1a, the same mixing the gradcheck seed decorrelator uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }

    fn len(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn text(&mut self, s: &str) {
        self.len(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn shape(&mut self, s: &Shape) {
        self.len(s.rank());
        for &d in s.dims() {
            self.len(d);
        }
    }
}

/// Fingerprints exactly the facts the three static passes consume, so
/// equal keys imply equal static [`TapeReport`]s. Values are not
/// hashed, which is why the value pass stays outside [`TapeCache`].
///
/// Per node: op ordinal, `needs_grad` bit, recorded shape, input `Var`
/// ids, and an *abstraction* of the payload — index vectors collapse to
/// their length plus bounds/all-[`PAD`] flags (the full vector is only
/// hashed when an index is out of bounds, because then the diagnostic
/// message quotes it), dropout masks to their length plus an all-zero
/// flag, `MulScalar` to its is-zero flag. Recorded per-batch tapes that
/// differ only in which rows they gather or which mask the RNG drew
/// therefore share a key and one analysis.
pub fn structure_key(g: &Graph, loss: Var, observed: &[Var], params: Option<&ParamStore>) -> u64 {
    let mut h = Fnv::new();
    h.len(g.len());
    h.len(loss.index());
    h.len(observed.len());
    for v in observed {
        h.len(v.index());
    }
    match params {
        None => h.len(0),
        Some(ps) => {
            h.len(1 + ps.len());
            for (pid, name, _) in ps.iter() {
                h.len(pid.index());
                h.text(name);
            }
        }
    }
    for id in 0..g.len() {
        let v = Var(id);
        let op = g.node_op(v);
        h.len(op_ordinal(op));
        h.byte(u8::from(g.node_needs_grad(v)));
        h.shape(g.node_value(v).shape());
        for_each_input(op, |u| h.len(u.index()));
        match op {
            Op::Leaf(Some(pid)) => h.len(pid.index()),
            Op::MulScalar(_, s) => h.byte(u8::from(*s == 0.0)),
            Op::Dropout(_, mask) => {
                h.len(mask.len());
                h.byte(u8::from(mask.iter().all(|&m| m == 0.0)));
            }
            Op::GatherRows(a, idx) => {
                h.len(idx.len());
                let s = g.node_value(*a).shape();
                let oob = s.rank() != 2 || idx.iter().any(|&i| i >= s.dim(0));
                h.byte(u8::from(oob));
                if oob {
                    for &i in idx {
                        h.len(i);
                    }
                }
            }
            Op::RelMatmul { x, w, blocks } => {
                h.len(blocks.len());
                let (xs, ws) = (g.node_value(*x).shape(), g.node_value(*w).shape());
                let oob = xs.rank() != 2
                    || ws.rank() != 2
                    || xs.dim(1) == 0
                    || blocks.iter().any(|&b| b >= ws.dim(0) / xs.dim(1));
                h.byte(u8::from(oob));
                if oob {
                    for &b in blocks {
                        h.len(b);
                    }
                }
            }
            Op::GatherFlat(a, idx) => {
                h.len(idx.len());
                let numel = g.node_value(*a).shape().numel();
                let oob = idx.iter().any(|&i| i != PAD && i >= numel);
                h.byte(u8::from(oob));
                h.byte(u8::from(idx.iter().all(|&i| i == PAD)));
                if oob {
                    for &i in idx {
                        h.len(i);
                    }
                }
            }
            Op::ScatterAddRows { idx, rows, .. } => {
                h.len(idx.len());
                h.len(*rows);
                let oob = idx.iter().any(|&t| t >= *rows);
                h.byte(u8::from(oob));
                if oob {
                    for &t in idx {
                        h.len(t);
                    }
                }
            }
            Op::BroadcastRow(_, rows) => h.len(*rows),
            _ => {}
        }
    }
    h.0
}

/// Memoizes the three static passes of [`tapecheck_with`] by
/// [`structure_key`].
///
/// The training loop holds one of these across batches: per-batch tapes
/// of identical structure (the common case within an epoch at a fixed
/// batch size and subgraph census) are analyzed once and served from
/// the cache afterwards. Cached reports carry no value-pass findings:
/// those depend on recorded values the key ignores, so callers that
/// want them run [`tapecheck_with`].
#[derive(Debug, Default)]
pub struct TapeCache {
    entries: BTreeMap<u64, TapeReport>,
    hits: u64,
    misses: u64,
}

impl TapeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the static report for this tape's structure, computing it
    /// on first sight and serving every structurally identical tape from
    /// the cache afterwards.
    pub fn analyze(
        &mut self,
        g: &Graph,
        loss: Var,
        observed: &[Var],
        params: Option<&ParamStore>,
    ) -> &TapeReport {
        let key = structure_key(g, loss, observed, params);
        match self.entries.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(static_report(g, loss, observed, params))
            }
        }
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran the static passes.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct tape structures seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use std::path::PathBuf;

    fn two_param_store() -> (ParamStore, crate::params::ParamId, crate::params::ParamId) {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::from_vec([2], vec![1.0, 2.0]));
        let b = ps.insert("b", Tensor::from_vec([2], vec![3.0, 4.0]));
        (ps, a, b)
    }

    /// A deterministic positive constant with the given dims.
    fn constant_of(g: &mut Graph, dims: &[usize]) -> Var {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() + 1.5).collect();
        g.constant(Tensor::from_vec(dims.to_vec(), data))
    }

    #[test]
    fn clean_tape_reports_clean() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        let p = g.mul(av, bv);
        let loss = g.sum_all(p);
        let report = g.tapecheck_with_params(loss, &ps);
        assert!(report.is_clean(), "diags: {:?}", report.diagnostics);
        assert_eq!(report.shapes.len(), g.len());
        assert_eq!(report.params_checked, 2);
        assert!(report.plan.peak_live_bytes <= report.plan.total_value_bytes);
    }

    #[test]
    fn memory_plan_reuses_buffers_on_a_unary_chain() {
        let mut g = Graph::new();
        let mut x = constant_of(&mut g, &[4, 4]);
        for _ in 0..6 {
            x = g.relu(x);
        }
        let loss = g.sum_all(x);
        let report = g.tapecheck(loss);
        assert!(report.is_clean(), "diags: {:?}", report.diagnostics);
        // The chain alternates between two 64-byte buffers plus the
        // scalar loss; without reuse it would need one buffer per node.
        assert!(
            report.plan.num_buffers() < g.len(),
            "no reuse: {} buffers for {} nodes",
            report.plan.num_buffers(),
            g.len()
        );
        assert!(report.plan.peak_live_bytes < report.plan.total_value_bytes);
        // Peak: two 4x4 values live across each unary step + the loss.
        assert_eq!(report.plan.peak_live_bytes, 2 * 16 * BYTES_PER_ELEM);
    }

    #[test]
    fn stopped_gradient_subtape_is_flagged() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let sq_a = g.square(av);
        let stopped = g.mul_scalar(sq_a, 0.0);
        let bv = g.param(&ps, b);
        let sq_b = g.square(bv);
        let sum = g.add(stopped, sq_b);
        let loss = g.sum_all(sum);
        let report = g.tapecheck_with_params(loss, &ps);
        // `stopped` itself still receives a gradient; its inputs do not.
        assert_eq!(report.zero_grad_nodes, 2, "diags: {:?}", report.diagnostics);
        assert_eq!(report.dead_params, vec!["a".to_string()]);
        assert!(report.diagnostics.iter().any(|d| d.code == "zero-grad"));
    }

    #[test]
    fn observed_roots_suppress_unconsumed_and_dead_findings() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let sq = g.square(av);
        let loss = g.sum_all(sq);
        // A diagnostic-only mean the caller logs but the loss ignores.
        let watched = g.mean_all(sq);
        let noisy = tapecheck_with(&g, loss, &[], None);
        assert!(noisy.diagnostics.iter().any(|d| d.code == "unconsumed-op"));
        let quiet = tapecheck_with(&g, loss, &[watched], None);
        assert!(quiet.is_clean(), "diags: {:?}", quiet.diagnostics);
    }

    #[test]
    fn cache_hits_on_structurally_identical_tapes() {
        fn build(scale: f32, idx: &[usize]) -> (Graph, Var) {
            let mut g = Graph::new();
            let a = g.constant(Tensor::from_vec(
                [3, 2],
                (0..6).map(|i| i as f32 * scale).collect::<Vec<f32>>(),
            ));
            let picked = g.gather_rows(a, idx);
            let loss = g.mean_all(picked);
            (g, loss)
        }
        let mut cache = TapeCache::new();
        let (g1, l1) = build(1.0, &[0, 2]);
        let (g2, l2) = build(7.5, &[1, 1]); // other values, other rows
        let (g3, l3) = build(1.0, &[0, 1, 2]); // other gather arity
        cache.analyze(&g1, l1, &[], None);
        cache.analyze(&g2, l2, &[], None);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.analyze(&g3, l3, &[], None);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    /// The value pass sees what the structure key does not: two tapes
    /// sharing a key share one cached static report, while only
    /// [`tapecheck_with`] reports the non-finite constant.
    #[test]
    fn value_findings_stay_out_of_the_cache() {
        fn build(c: f32) -> (Graph, Var) {
            let mut g = Graph::new();
            let x = g.constant(Tensor::from_vec([2], vec![1.0, c]));
            let sq = g.square(x);
            let loss = g.sum_all(sq);
            (g, loss)
        }
        let (finite, l1) = build(2.0);
        let (poisoned, l2) = build(f32::INFINITY);
        assert_eq!(structure_key(&finite, l1, &[], None), structure_key(&poisoned, l2, &[], None));

        let mut cache = TapeCache::new();
        let first = cache.analyze(&finite, l1, &[], None).render();
        let second = cache.analyze(&poisoned, l2, &[], None).render();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first, second);
        assert_eq!(first, static_report(&poisoned, l2, &[], None).render());

        assert!(tapecheck_with(&finite, l1, &[], None).is_clean());
        let full = tapecheck_with(&poisoned, l2, &[], None);
        assert_eq!(full.diagnostics.len(), 1, "diags: {:?}", full.diagnostics);
        assert_eq!((full.diagnostics[0].code, full.diagnostics[0].node), ("non-finite", Some(0)));
    }

    #[test]
    fn structure_key_sees_grad_killing_payloads() {
        fn build(s: f32) -> (Graph, Var) {
            let mut g = Graph::new();
            let a = constant_of(&mut g, &[2, 2]);
            let m = g.mul_scalar(a, s);
            let loss = g.sum_all(m);
            (g, loss)
        }
        let (g1, l1) = build(0.5);
        let (g2, l2) = build(2.0);
        let (g3, l3) = build(0.0);
        assert_eq!(structure_key(&g1, l1, &[], None), structure_key(&g2, l2, &[], None));
        assert_ne!(structure_key(&g1, l1, &[], None), structure_key(&g3, l3, &[], None));
    }

    // ---- red fixtures: known-bad tapes with golden transcripts ----

    /// diagnostic code -> tape builder; the audit test below keeps
    /// this table and the code set covering each other.
    type RedFixture = (&'static str, fn() -> TapeReport);

    const RED_FIXTURES: &[RedFixture] = &[
        ("dead-param", red_dead_param),
        ("shape-mismatch", red_shape_lie),
        ("unconsumed-op", red_unconsumed_op),
        ("non-scalar-loss", red_non_scalar_loss),
        ("div-by-zero", red_div_by_zero),
        ("oob-index", red_rel_matmul_block_past_weight),
    ];

    const RED_CODES: &[&str] = &[
        "dead-param",
        "shape-mismatch",
        "unconsumed-op",
        "non-scalar-loss",
        "div-by-zero",
        "oob-index",
    ];

    fn red_dead_param() -> TapeReport {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let sq = g.square(av);
        let loss = g.sum_all(sq);
        g.tapecheck_with_params(loss, &ps)
    }

    fn red_shape_lie() -> TapeReport {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec([2], vec![1.0, 2.0]));
        let b = g.constant(Tensor::from_vec([2], vec![3.0, 4.0]));
        let sum = g.add(a, b);
        // Corrupt the recorded value after the fact: the program says
        // [2], the tape now claims [3].
        g.fault_override_value(sum, Tensor::zeros([3]));
        let loss = g.sum_all(sum);
        g.tapecheck(loss)
    }

    fn red_unconsumed_op() -> TapeReport {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec([2], vec![1.0, 2.0]));
        let b = g.constant(Tensor::from_vec([2], vec![3.0, 4.0]));
        let dangling = g.square(b);
        let sq = g.square(a);
        let loss = g.sum_all(sq);
        let _ = dangling;
        g.tapecheck(loss)
    }

    fn red_non_scalar_loss() -> TapeReport {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        // The reduction to a scalar was forgotten.
        let sq = g.square(av);
        g.tapecheck(sq)
    }

    fn red_div_by_zero() -> TapeReport {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let z = g.constant(Tensor::from_vec([2], vec![1.0, 0.0]));
        // The division by zero also produces an Inf at the Div node.
        let q = g.div(av, z);
        let loss = g.sum_all(q);
        g.tapecheck(loss)
    }

    fn red_rel_matmul_block_past_weight() -> TapeReport {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        // Two blocks of two rows; block 2 lies past the stack.
        let w = g.constant(Tensor::ones([4, 3]));
        let m = g.fault_rel_matmul_unchecked(x, w, &[1, 2]);
        let loss = g.sum_all(m);
        g.tapecheck(loss)
    }

    fn golden_path(code: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("tapecheck_{code}.expected"))
    }

    /// Every pinned code has a fixture, every fixture names a pinned
    /// code and actually produces it — the same two-way audit the lint
    /// red-fixture suite runs.
    #[test]
    fn red_fixtures_and_codes_cover_each_other() {
        for code in RED_CODES {
            assert!(
                RED_FIXTURES.iter().any(|(c, _)| c == code),
                "diagnostic code {code} has no red fixture"
            );
        }
        for (code, build) in RED_FIXTURES {
            assert!(RED_CODES.contains(code), "fixture {code} names an unpinned code");
            let report = build();
            assert!(
                report.diagnostics.iter().any(|d| d.code == *code),
                "fixture {code} does not produce its diagnostic; got {:?}",
                report.diagnostics
            );
        }
    }

    /// Each fixture's full rendered report must match its golden
    /// transcript byte-for-byte (`UPDATE_GOLDEN=1` regenerates).
    #[test]
    fn red_fixtures_produce_golden_transcripts() {
        for (code, build) in RED_FIXTURES {
            let rendered = build().render();
            let expected_file = golden_path(code);
            if std::env::var_os("UPDATE_GOLDEN").is_some() {
                std::fs::write(&expected_file, &rendered).expect("write golden transcript");
                continue;
            }
            let expected = std::fs::read_to_string(&expected_file)
                .unwrap_or_else(|e| panic!("read golden {}: {e}", expected_file.display()));
            assert_eq!(
                rendered,
                expected,
                "fixture {code}: report drifted from the golden transcript ({}) — update it \
                 if the change is intentional",
                expected_file.display()
            );
        }
    }
}
