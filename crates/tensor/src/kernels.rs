//! Raw numeric kernels on `f32` slices.
//!
//! These are the shared inner loops used by both the forward pass of
//! [`crate::Tensor`] methods and the backward pass in [`crate::tape`].
//! Keeping them as free functions over slices lets the backward sweep
//! reuse them without constructing intermediate `Tensor`s.
//!
//! # The matmul order of additions
//!
//! [`matmul`] and [`matmul_at_b_acc`] compute each output element as one
//! left-to-right sum over the inner index `p`, ascending, starting from
//! `+0.0` ([`matmul`]) or from the element's current value
//! ([`matmul_at_b_acc`]). A term whose left factor is an exact zero
//! (`±0.0`) is skipped, never added. The tape, `rel_matmul`, the batched
//! inference engine and the f64 reference interpreter all rely on this
//! order, so every path below yields the scalar loop's bits. The path is
//! picked from the shape alone:
//!
//! * **`n == 1`** (attention logits, the GSM scorer, attention `dW`):
//!   eight output rows at a time, each its own chain of additions in a
//!   register, so eight chains overlap where the scalar loop runs one;
//! * **`n` a nonzero multiple of 32** (messages, the self term, the basis
//!   composition, the attention widen, message and self `dW`): one
//!   `[f32; 32]` register row per 32-column block of an output row, with
//!   the zero-skip branch, where the scalar loop reads and writes the `c`
//!   row in memory for every nonzero left factor;
//! * **any other shape**: the scalar loop.
//!
//! Why the register paths are bit-identical to the scalar loop:
//!
//! * each element sees the same operations in the same order, and Rust
//!   never contracts a multiply and an add into one fused multiply-add,
//!   so holding the partial sum in a register changes no rounding;
//! * [`matmul`]'s `n == 1` path replaces the skip by adding `+0.0`
//!   (`s += if x == 0 { 0 } else { x·y }`), which keeps the eight chains
//!   branch-free. That is exact because a fresh chain starts at `+0.0`
//!   and never holds `−0.0`: under round-to-nearest a sum is `−0.0` only
//!   when both operands are, and `s + 0.0 == s` bit for bit for every
//!   other `s`, `±Inf` included. `x·y` is not formed for a zero `x`, so
//!   `0 · Inf` still contributes nothing;
//! * an accumulating `c` *can* hold `−0.0`, where adding `+0.0` would
//!   flip the sign, so [`matmul_at_b_acc`]'s `n == 1` path blends
//!   instead: `s = if x == 0 { s } else { s + x·y }`.
//!
//! A `NaN` stays a `NaN` on every path; which `NaN` payload a vector
//! lane yields is not part of the contract.
//!
//! [`matmul_a_bt_acc`] has its own fixed 8-lane order, documented there.
//!
//! # Indexed reads
//!
//! The batched R-GCN layer reads its per-edge rows in place instead of
//! gathering them first. [`indexed_concat_dot`] computes the attention
//! logits `[h[src] ⊕ h[dst] ⊕ q] · w` of a relation group, and
//! [`indexed_matmul_scale_scatter`] its messages `h[src] · W`, each scaled
//! by its edge's weight and added into the destination row. Both keep the
//! matmul contract over the *virtual* row they never write out, and both
//! compute each value once however many edges share it:
//!
//! * a logit is [`matmul`]'s `n == 1` chain over `h[src]`, then `h[dst]`,
//!   then `q`, in ascending `p` from `+0.0`. Its first `k` terms depend on
//!   the source alone, so the caller computes that prefix once per node
//!   (`p_src = h · w[..k]`, itself a [`matmul`] `n == 1` chain from
//!   `+0.0`) and each edge's chain resumes from `p_src[src]`. Resuming is
//!   exact: the prefix is the very value the uncut chain holds after `k`
//!   terms, and since a `+0.0`-started chain never holds `−0.0`, adding
//!   `+0.0` for a zero left factor and skipping it agree on every path;
//! * a message element is its `[f32; 32]` register row's sum over
//!   `h[src]` in ascending `p`, a pure function of `h[src]` and `W`, so a
//!   run of consecutive edges with one source builds it once and scales
//!   it per edge;
//! * every zero left factor is skipped, and the scatter adds `m·a` into
//!   each destination row in edge order: for any one `agg` element the
//!   adds arrive in the same order as when every edge built its own
//!   message.
//!
//! So each kernel has the bits of the gather → [`matmul`] → scale →
//! scatter composition it replaces, element for element, and the tests
//! below pin that against the composition and against the per-edge
//! kernels these replaced.

/// `out[i] = a[i] + b[i]`.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len(), "add: operand lengths differ");
    debug_assert_eq!(a.len(), out.len(), "add: output length differs from operands");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out[i] += a[i]` — gradient accumulation.
pub fn add_assign(out: &mut [f32], a: &[f32]) {
    debug_assert_eq!(a.len(), out.len(), "add_assign: accumulator length differs from input");
    for (o, &x) in out.iter_mut().zip(a) {
        *o += x;
    }
}

/// `out[i] += s * a[i]`.
pub fn axpy(s: f32, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len(), "axpy: accumulator length differs from input");
    for (o, &x) in out.iter_mut().zip(a) {
        *o += s * x;
    }
}

/// `out[i] = a[i] * b[i]`.
pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len(), "mul: operand lengths differ");
    debug_assert_eq!(a.len(), out.len(), "mul: output length differs from operands");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// `out[i] += a[i] * b[i]` — fused multiply-accumulate.
pub fn mul_acc(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len(), "mul_acc: operand lengths differ");
    debug_assert_eq!(a.len(), out.len(), "mul_acc: output length differs from operands");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o += x * y;
    }
}

/// Width of the register row in the `n % 32 == 0` matmul paths.
const BLOCK: usize = 32;

/// Output rows per group of independent add chains in the `n == 1`
/// matmul paths.
const CHAINS: usize = 8;

/// Dense row-major matrix multiply: `c[m,n] = a[m,k] * b[k,n]`.
///
/// Each element is `+0.0 + a[i,0]·b[0,j] + a[i,1]·b[1,j] + …` in
/// ascending `p` (the module's order contract), on the register path
/// the shape selects.
///
/// Exact `0.0` entries of `a` are skipped (component tables and one-hot
/// features are sparse), so a zero left factor annihilates its term
/// even against non-finite `b` entries: `0 · Inf ≡ 0`, never `NaN`.
/// `k == 0` leaves `c` all zeros (empty-sum convention). Both behaviors
/// are contractual — the f64 reference interpreter replicates them.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "matmul: lhs is not [{m}, {k}]");
    debug_assert_eq!(b.len(), k * n, "matmul: rhs is not [{k}, {n}]");
    debug_assert_eq!(c.len(), m * n, "matmul: output is not [{m}, {n}]");
    if k == 0 || n == 0 {
        c.fill(0.0); // the empty sum (an empty `c` has nothing to fill)
    } else if n == 1 {
        matmul_chains(a, b, c, k);
    } else if n % BLOCK == 0 {
        matmul_blocks(a, b, c, k, n);
    } else {
        matmul_scalar(a, b, c, m, k, n);
    }
}

/// [`matmul`] for `n == 1`, `k > 0`: eight rows at a time, each row's
/// dot product its own chain in a register. Adding `+0.0` for a zero
/// left factor equals skipping it, because a fresh chain never holds
/// `−0.0` (module docs).
fn matmul_chains(a: &[f32], b: &[f32], c: &mut [f32], k: usize) {
    let mut c_groups = c.chunks_exact_mut(CHAINS);
    let mut a_groups = a.chunks_exact(CHAINS * k);
    for (c8, a8) in (&mut c_groups).zip(&mut a_groups) {
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|r| &a8[r * k..(r + 1) * k]);
        let mut acc = [0.0f32; CHAINS];
        for (p, &y) in b.iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(&rows) {
                let x = row[p];
                *s += if x == 0.0 { 0.0 } else { x * y };
            }
        }
        c8.copy_from_slice(&acc);
    }
    let rest = c_groups.into_remainder();
    for (c_v, a_row) in rest.iter_mut().zip(a_groups.remainder().chunks_exact(k)) {
        let mut s = 0.0f32;
        for (&x, &y) in a_row.iter().zip(b) {
            if x != 0.0 {
                s += x * y;
            }
        }
        *c_v = s;
    }
}

/// [`matmul`] for `n` a nonzero multiple of 32, `k > 0`: one `[f32; 32]`
/// register row per 32-column block of each output row.
fn matmul_blocks(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (j, c_blk) in c_row.chunks_exact_mut(BLOCK).enumerate() {
            let mut acc = [0.0f32; BLOCK];
            for (&x, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                if x == 0.0 {
                    continue; // component tables and one-hot features are sparse
                }
                for (s, &y) in acc.iter_mut().zip(&b_row[j * BLOCK..(j + 1) * BLOCK]) {
                    *s += x * y;
                }
            }
            c_blk.copy_from_slice(&acc);
        }
    }
}

/// The scalar [`matmul`] loop, for shapes no register path covers (and
/// the tests' oracle for the ones it does). Loop order (m, k, n) keeps
/// the inner loop streaming over contiguous rows of `b` and `c`.
fn matmul_scalar(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// `c[m,n] += a^T[m,k] * b[k,n]` where `a` is stored as `[k, m]`.
///
/// Used by matmul backward for the right operand's gradient without
/// materializing a transpose. Each element is `c[i,j] + a[0,i]·b[0,j] +
/// a[1,i]·b[1,j] + …` in ascending `p`, zero left factors skipped —
/// [`matmul`]'s contract, starting from `c` — on the same register
/// paths: eight chains for `n == 1`, a 32-wide register row for `n` a
/// multiple of 32, each loaded from `c` first.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m, "matmul_at_b_acc: lhs is not [{k}, {m}]");
    debug_assert_eq!(b.len(), k * n, "matmul_at_b_acc: rhs is not [{k}, {n}]");
    debug_assert_eq!(c.len(), m * n, "matmul_at_b_acc: output is not [{m}, {n}]");
    if m == 0 || n == 0 {
        // Nothing to write (and `a` or `c` has no rows to chunk by).
    } else if n == 1 {
        at_b_chains(a, b, c, m);
    } else if n % BLOCK == 0 {
        at_b_blocks(a, b, c, m, n);
    } else {
        at_b_scalar(a, b, c, m, k, n);
    }
}

/// [`matmul_at_b_acc`] for `n == 1`, `m > 0`: eight output rows at a
/// time, read as one contiguous run of each row of `a`. The chains start
/// from `c`, which may hold `−0.0`, so a zero left factor blends the old
/// sum through rather than adding `+0.0`.
fn at_b_chains(a: &[f32], b: &[f32], c: &mut [f32], m: usize) {
    let full = m - m % CHAINS;
    for (g, c8) in c[..full].chunks_exact_mut(CHAINS).enumerate() {
        let mut acc = [0.0f32; CHAINS];
        acc.copy_from_slice(c8);
        for (a_row, &y) in a.chunks_exact(m).zip(b) {
            for (s, &x) in acc.iter_mut().zip(&a_row[g * CHAINS..(g + 1) * CHAINS]) {
                *s = if x == 0.0 { *s } else { *s + x * y };
            }
        }
        c8.copy_from_slice(&acc);
    }
    for (i, c_v) in c.iter_mut().enumerate().skip(full) {
        for (a_row, &y) in a.chunks_exact(m).zip(b) {
            let x = a_row[i];
            if x != 0.0 {
                *c_v += x * y;
            }
        }
    }
}

/// [`matmul_at_b_acc`] for `n` a nonzero multiple of 32, `m > 0`: one
/// `[f32; 32]` register row per 32-column block of each output row,
/// loaded from `c`.
fn at_b_blocks(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize) {
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        for (j, c_blk) in c_row.chunks_exact_mut(BLOCK).enumerate() {
            let mut acc = [0.0f32; BLOCK];
            acc.copy_from_slice(c_blk);
            for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                let x = a_row[i];
                if x == 0.0 {
                    continue;
                }
                for (s, &y) in acc.iter_mut().zip(&b_row[j * BLOCK..(j + 1) * BLOCK]) {
                    *s += x * y;
                }
            }
            c_blk.copy_from_slice(&acc);
        }
    }
}

/// The scalar [`matmul_at_b_acc`] loop, for shapes no register path
/// covers (and the tests' oracle for the ones it does).
fn at_b_scalar(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            if a_pi == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_pi * b_v;
            }
        }
    }
}

/// Number of independent partial sums in [`matmul_a_bt_acc`]'s dot
/// products.
const LANES: usize = 8;

/// `c[m,n] += a[m,k] * b^T[k,n]` where `b` is stored as `[n, k]`.
///
/// Used by matmul backward for the left operand's gradient (`dA = dC ·
/// Bᵀ`). Each output element is one dot product `s = Σ_p a[i,p] ·
/// b[j,p]`, reduced in a fixed order:
///
/// 1. eight lanes, lane `l` summing the terms `p ≡ l (mod 8)` of the
///    leading `8·⌊k/8⌋` terms in ascending `p`;
/// 2. the lanes combined by the fixed tree
///    `((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))`;
/// 3. the `k mod 8` tail terms added to that sum left to right;
/// 4. `c[i,j] += s`.
///
/// For `k < 8` steps 1–2 are skipped: eight empty lanes combine to
/// `+0.0`, so the tail alone, started from `+0.0`, has the same bits
/// (and runs 32 outputs at a time in registers).
///
/// The order depends only on `k`, never on threads or data, so results
/// are bit-reproducible. Unlike the other matmul kernels this one does
/// **no** zero skipping — its access pattern gains nothing from
/// sparsity — so non-finite values propagate unconditionally here.
pub fn matmul_a_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "matmul_a_bt_acc: lhs is not [{m}, {k}]");
    debug_assert_eq!(b.len(), n * k, "matmul_a_bt_acc: rhs is not [{n}, {k}]");
    debug_assert_eq!(c.len(), m * n, "matmul_a_bt_acc: output is not [{m}, {n}]");
    if k == 0 || n == 0 {
        return; // empty sums leave c unchanged; an empty c has nothing to add to
    }
    if k >= LANES {
        a_bt_lanes(a, b, c, k, n);
    } else {
        a_bt_short(a, b, c, k, n);
    }
}

/// [`matmul_a_bt_acc`] for `0 < k < 8`: the tail alone. Each block of 32
/// rows of `b` is transposed once into a stack buffer, so every output
/// row sums its 32 columns in one register row, `+0.0` then the `k`
/// terms left to right, before adding them to `c`.
fn a_bt_short(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let mut bt = [0.0f32; LANES * BLOCK];
    for (jb, b_blk) in b.chunks(BLOCK * k).enumerate() {
        let width = b_blk.len() / k;
        for (jj, b_row) in b_blk.chunks_exact(k).enumerate() {
            for (p, &y) in b_row.iter().enumerate() {
                bt[p * BLOCK + jj] = y;
            }
        }
        for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            let mut acc = [0.0f32; BLOCK];
            for (&x, bt_row) in a_row.iter().zip(bt.chunks_exact(BLOCK)) {
                for (s, &y) in acc.iter_mut().zip(bt_row) {
                    *s += x * y;
                }
            }
            let c_blk = &mut c_row[jb * BLOCK..jb * BLOCK + width];
            for (c_v, &s) in c_blk.iter_mut().zip(&acc) {
                *c_v += s;
            }
        }
    }
}

/// [`matmul_a_bt_acc`]'s lane reduction (steps 1–4), for `k, n > 0`.
fn a_bt_lanes(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let body = k - k % LANES;
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (b_row, c_v) in b.chunks_exact(k).zip(c_row.iter_mut()) {
            let mut lanes = [0.0f32; LANES];
            for (xa, xb) in a_row[..body].chunks_exact(LANES).zip(b_row[..body].chunks_exact(LANES))
            {
                for ((s, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
                    *s += x * y;
                }
            }
            let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
                + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
            for (&x, &y) in a_row[body..].iter().zip(&b_row[body..]) {
                acc += x * y;
            }
            *c_v += acc;
        }
    }
}

/// Attention logits over indexed rows: `out[e] = x_e · w`, where the
/// virtual row `x_e = h[srcs[e]] ⊕ h[dsts[e]] ⊕ q` is read in place, `h`
/// being row-major with `k` columns and `w` holding `2·k + q.len()`
/// entries.
///
/// The source third of every chain comes precomputed: `p_src[i]` must
/// be [`matmul`]'s `n == 1` sum of row `i` of `h` against `w[..k]`, one
/// value per node however many edges leave it. Each edge's chain starts
/// from `p_src[srcs[e]]` and adds the `h[dst]` terms, then the `q`
/// terms, in ascending `p`: eight edges at a time as eight register
/// chains, the rest one scalar chain each. That is the chain [`matmul`]
/// runs over the gathered `[E, 2k + q.len()]` matrix, cut after its
/// first `k` terms, so the logits have its bits (module docs).
#[allow(clippy::too_many_arguments)] // the source prefix joins the operands of the composition it fuses
pub fn indexed_concat_dot(
    p_src: &[f32],
    h: &[f32],
    k: usize,
    srcs: &[u32],
    dsts: &[u32],
    q: &[f32],
    w: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(srcs.len(), dsts.len(), "indexed_concat_dot: srcs and dsts differ");
    debug_assert_eq!(out.len(), srcs.len(), "indexed_concat_dot: one logit per edge");
    debug_assert_eq!(w.len(), 2 * k + q.len(), "indexed_concat_dot: w is not the row width");
    debug_assert_eq!(p_src.len() * k, h.len(), "indexed_concat_dot: one source prefix per row");
    let (w_dst, w_q) = w[k..].split_at(k);
    let row = |i: u32| &h[i as usize * k..(i as usize + 1) * k];
    let mut out_groups = out.chunks_exact_mut(CHAINS);
    let mut src_groups = srcs.chunks_exact(CHAINS);
    let mut dst_groups = dsts.chunks_exact(CHAINS);
    for ((o8, s8), d8) in (&mut out_groups).zip(&mut src_groups).zip(&mut dst_groups) {
        let mut acc: [f32; CHAINS] = std::array::from_fn(|r| p_src[s8[r] as usize]);
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|r| row(d8[r]));
        for (p, &y) in w_dst.iter().enumerate() {
            for (s, r) in acc.iter_mut().zip(&rows) {
                let x = r[p];
                *s += if x == 0.0 { 0.0 } else { x * y };
            }
        }
        for (&x, &y) in q.iter().zip(w_q) {
            let t = if x == 0.0 { 0.0 } else { x * y };
            for s in &mut acc {
                *s += t;
            }
        }
        o8.copy_from_slice(&acc);
    }
    let tails = src_groups.remainder().iter().zip(dst_groups.remainder());
    for (o, (&s, &d)) in out_groups.into_remainder().iter_mut().zip(tails) {
        let mut acc = p_src[s as usize];
        for (part, w_part) in [(row(d), w_dst), (q, w_q)] {
            for (&x, &y) in part.iter().zip(w_part) {
                if x != 0.0 {
                    acc += x * y;
                }
            }
        }
        *o = acc;
    }
}

/// Scaled message scatter over indexed rows: for each edge `e` in order,
/// `agg[dsts[e]] += (h[srcs[e]] · w) * scale[e]`, where `h` is row-major
/// with `k` columns, `w` is `[k, n]` and `agg` has `n` columns.
///
/// A message is a pure function of `h[src]` and `w`, so each run of
/// consecutive edges with equal sources builds it once: 32 columns at a
/// time in a register row, `+0.0` then `h[src, p] · w[p, ·]` in
/// ascending `p` with zero left factors skipped, then scaled by each
/// edge's weight and added into that edge's destination row, in edge
/// order. So every `agg` element gets the bits of gathering the sources,
/// one [`matmul`], scaling each message row and a scatter-add in edge
/// order (module docs), without the `[E, k]` or `[E, n]` copies. A width
/// that is not a multiple of 32 ends in one narrower block on the same
/// stack row.
#[allow(clippy::too_many_arguments)] // one operand per factor of the composition it fuses
pub fn indexed_matmul_scale_scatter(
    h: &[f32],
    srcs: &[u32],
    dsts: &[u32],
    w: &[f32],
    scale: &[f32],
    agg: &mut [f32],
    k: usize,
    n: usize,
) {
    debug_assert_eq!(srcs.len(), dsts.len(), "indexed_matmul_scale_scatter: srcs and dsts differ");
    debug_assert_eq!(scale.len(), srcs.len(), "indexed_matmul_scale_scatter: one scale per edge");
    debug_assert_eq!(w.len(), k * n, "indexed_matmul_scale_scatter: w is not [{k}, {n}]");
    if n == 0 {
        return; // zero-width messages add nothing
    }
    debug_assert_eq!(agg.len() % n, 0, "indexed_matmul_scale_scatter: agg is not [_, {n}]");
    let full = n - n % BLOCK;
    let mut start = 0;
    while let Some(&s) = srcs.get(start) {
        let end = start + srcs[start..].iter().take_while(|&&x| x == s).count();
        let h_row = &h[s as usize * k..(s as usize + 1) * k];
        let (run_dsts, run_scale) = (&dsts[start..end], &scale[start..end]);
        start = end;
        for j in (0..full).step_by(BLOCK) {
            let mut acc = [0.0f32; BLOCK];
            for (&x, w_row) in h_row.iter().zip(w.chunks_exact(n)) {
                if x == 0.0 {
                    continue;
                }
                for (m, &y) in acc.iter_mut().zip(&w_row[j..j + BLOCK]) {
                    *m += x * y;
                }
            }
            scatter_scaled(&acc, run_dsts, run_scale, agg, n, j);
        }
        if full < n {
            let mut acc = [0.0f32; BLOCK];
            let acc = &mut acc[..n - full];
            for (&x, w_row) in h_row.iter().zip(w.chunks_exact(n)) {
                if x == 0.0 {
                    continue;
                }
                for (m, &y) in acc.iter_mut().zip(&w_row[full..]) {
                    *m += x * y;
                }
            }
            scatter_scaled(acc, run_dsts, run_scale, agg, n, full);
        }
    }
}

/// `agg[d, col..col + m.len()] += m * a` for each `(d, a)` of one run,
/// in edge order.
fn scatter_scaled(m: &[f32], dsts: &[u32], scale: &[f32], agg: &mut [f32], n: usize, col: usize) {
    for (&d, &a) in dsts.iter().zip(scale) {
        let dst = &mut agg[d as usize * n + col..][..m.len()];
        for (o, &x) in dst.iter_mut().zip(m) {
            *o += x * a;
        }
    }
}

/// Transposes a row-major `[m, n]` matrix into `out` as `[n, m]`.
pub fn transpose(a: &[f32], out: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n, "transpose: input is not [{m}, {n}]");
    debug_assert_eq!(out.len(), m * n, "transpose: output cannot hold [{n}, {m}]");
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
}

/// Dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: operand lengths differ");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Squared L2 norm.
pub fn norm_sq(a: &[f32]) -> f32 {
    a.iter().map(|&x| x * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // [1 2 3] (1x3) * [[1],[2],[3]] (3x1) = [14]
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0];
        let mut c = [0.0; 1];
        matmul(&a, &b, &mut c, 1, 3, 1);
        assert_eq!(c, [14.0]);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [3,2] -> a^T is [2,3]
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]; // [3,2]
        let mut at = [0.0; 6];
        transpose(&a, &mut at, 3, 2);
        let mut want = [0.0; 4];
        matmul(&at, &b, &mut want, 2, 3, 2);
        let mut got = [0.0; 4];
        matmul_at_b_acc(&a, &b, &mut got, 2, 3, 2);
        assert_eq!(got, want);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = [1.0, 2.0, 3.0, 4.0]; // [2,2]
        let b = [5.0, 6.0, 7.0, 8.0]; // [2,2], b^T used
        let mut bt = [0.0; 4];
        transpose(&b, &mut bt, 2, 2);
        let mut want = [0.0; 4];
        matmul(&a, &bt, &mut want, 2, 2, 2);
        let mut got = [0.0; 4];
        matmul_a_bt_acc(&a, &b, &mut got, 2, 2, 2);
        assert_eq!(got, want);
    }

    /// Deterministic pseudo-random values in `[-1, 1)`.
    fn wave(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.618 + phase).sin()).collect()
    }

    /// The lane-reduced dot products agree with an `f64` product against
    /// the explicit transpose, within the interpreter's accumulation
    /// budget `8 · ε₃₂ · (k + 2) · Σ|term|`, for inner lengths below,
    /// at, and past one lane width, with a tail, and at the basis
    /// composition's length.
    #[test]
    fn a_bt_lanes_agree_with_the_transpose_product() {
        let (m, n) = (3, 2);
        for k in [1, 7, 8, 9, 33, 1024] {
            let a = wave(m * k, 0.3);
            let b = wave(n * k, 1.7);
            let mut bt = vec![0.0; n * k];
            transpose(&b, &mut bt, n, k);
            let c0 = wave(m * n, 2.9);
            let mut got = c0.clone();
            matmul_a_bt_acc(&a, &b, &mut got, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let c = f64::from(c0[i * n + j]);
                    let (mut want, mut mag) = (c, c.abs());
                    for p in 0..k {
                        let term = f64::from(a[i * k + p]) * f64::from(bt[p * n + j]);
                        want += term;
                        mag += term.abs();
                    }
                    let tol = 8.0 * f64::from(f32::EPSILON) * (k as f64 + 2.0) * mag;
                    let g = f64::from(got[i * n + j]);
                    assert!((g - want).abs() <= tol, "k {k} [{i},{j}]: {g} vs {want}");
                }
            }
        }
    }

    #[test]
    fn a_bt_lanes_are_bit_reproducible() {
        let (m, k, n) = (2, 1024 + 5, 3);
        let a = wave(m * k, 0.1);
        let b = wave(n * k, 0.2);
        let run = || {
            let mut c = vec![0.5; m * n];
            matmul_a_bt_acc(&a, &b, &mut c, m, k, n);
            c.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let first = run();
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }

    /// No zero skip: an `Inf` in `b` meets a `0.0` of `a` and still
    /// poisons the result, in the lane body, in the tail, and in the
    /// tail-only path of a short inner length.
    #[test]
    fn a_bt_lanes_propagate_non_finite() {
        for (k, at) in [(16, 3), (19, 17), (3, 1)] {
            let a = vec![0.0; k];
            let mut b = vec![1.0; k];
            b[at] = f32::INFINITY;
            let mut c = [0.0];
            matmul_a_bt_acc(&a, &b, &mut c, 1, k, 1);
            assert!(!c[0].is_finite(), "k {k}, Inf at {at}: got {}", c[0]);
        }
    }

    // ---- register paths against the scalar loops, bit for bit ----

    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const MS: [usize; 7] = [0, 1, 7, 8, 9, 17, 200];
    const NS: [usize; 7] = [1, 16, 31, 32, 33, 64, 1024];
    const KS: [usize; 8] = [0, 1, 6, 7, 8, 9, 32, 72];

    /// ReLU-like values: about half exact zeros in random positions
    /// (a few of them `−0.0`), the rest in `(0, 1)`.
    fn relu_like(len: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..20) {
                0 => -0.0,
                1..=9 => 0.0,
                _ => rng.gen::<f32>(),
            })
            .collect()
    }

    /// Dense signed values in `[-1, 1)`, a few of them `−0.0`.
    fn signed(len: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        (0..len)
            .map(|_| if rng.gen_range(0..16) == 0 { -0.0 } else { rng.gen::<f32>() * 2.0 - 1.0 })
            .collect()
    }

    /// Bit patterns with every `NaN` folded to one: which `NaN` a lane
    /// yields is outside the contract, that it is a `NaN` is not.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// `matmul` on every path equals the scalar loop over the whole
    /// shape grid: ragged `m` around the 8-row groups, `n` on and off the
    /// 32-column blocks, `k` on both sides of zero and eight.
    #[test]
    fn matmul_paths_match_the_scalar_loop_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for m in MS {
            for n in NS {
                for k in KS {
                    let a = relu_like(m * k, &mut rng);
                    let b = signed(k * n, &mut rng);
                    let mut want = vec![f32::NAN; m * n];
                    matmul_scalar(&a, &b, &mut want, m, k, n);
                    let mut got = vec![f32::NAN; m * n];
                    matmul(&a, &b, &mut got, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "matmul [{m}, {k}]·[{k}, {n}]");
                }
            }
        }
    }

    /// `matmul_at_b_acc` on every path equals the scalar loop over the
    /// same grid, accumulating into a `c` that holds `−0.0` entries.
    #[test]
    fn at_b_paths_match_the_scalar_loop_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for m in MS {
            for n in NS {
                for k in KS {
                    let a = relu_like(k * m, &mut rng);
                    let b = signed(k * n, &mut rng);
                    let c0 = signed(m * n, &mut rng);
                    let mut want = c0.clone();
                    at_b_scalar(&a, &b, &mut want, m, k, n);
                    let mut got = c0;
                    matmul_at_b_acc(&a, &b, &mut got, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "at_b [{m}, {k}]ᵀ·[{k}, {n}]");
                }
            }
        }
    }

    /// Short inner lengths skip the lane tree; the result still has the
    /// bits of the lane reduction, for ragged and whole 32-row blocks.
    #[test]
    fn a_bt_short_matches_the_lane_formula_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        for k in 1..LANES {
            for m in MS {
                for n in NS {
                    let a = signed(m * k, &mut rng);
                    let b = signed(n * k, &mut rng);
                    let c0 = signed(m * n, &mut rng);
                    let mut want = c0.clone();
                    a_bt_lanes(&a, &b, &mut want, k, n);
                    let mut got = c0;
                    matmul_a_bt_acc(&a, &b, &mut got, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "a_bt [{m}, {k}]·[{n}, {k}]ᵀ");
                }
            }
        }
    }

    /// A zero left factor (`+0.0` or `−0.0`) shields its term from an
    /// `Inf` or `NaN` in `b` on every path, in full 8-row groups and in
    /// the remainder rows; a `NaN` in `a` poisons its row.
    #[test]
    fn zero_left_factor_shields_non_finite_b_and_nan_in_a_poisons() {
        let k = 5;
        for n in [1, 32, 64, 33] {
            for m in [8, 11] {
                let mut rng = ChaCha8Rng::seed_from_u64(19);
                let mut a = signed(m * k, &mut rng);
                let mut b = signed(k * n, &mut rng);
                for i in 0..m {
                    a[i * k + 2] = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                b[2 * n..3 * n].fill(f32::INFINITY);
                b[2 * n] = f32::NAN;
                let mut got = vec![0.0; m * n];
                matmul(&a, &b, &mut got, m, k, n);
                assert!(got.iter().all(|x| x.is_finite()), "matmul n {n} m {m}: {got:?}");

                // The same data as a_t [k, m] for the accumulating kernel.
                let mut at = vec![0.0; k * m];
                transpose(&a, &mut at, m, k);
                let mut acc = vec![0.5; m * n];
                matmul_at_b_acc(&at, &b, &mut acc, m, k, n);
                assert!(acc.iter().all(|x| x.is_finite()), "at_b n {n} m {m}: {acc:?}");

                let poisoned = m - 1; // a remainder row when m = 11
                a[poisoned * k] = f32::NAN;
                matmul(&a, &b, &mut got, m, k, n);
                for (i, row) in got.chunks_exact(n).enumerate() {
                    assert_eq!(row.iter().all(|x| x.is_nan()), i == poisoned, "row {i}, n {n}");
                }
            }
        }
    }

    /// An accumulating `c` that holds `−0.0` keeps it where its column of
    /// `aᵀ` is all zeros: the zero terms are skipped, never added as
    /// `+0.0` (which would flip the sign).
    #[test]
    fn at_b_keeps_negative_zero_behind_an_all_zero_column() {
        for n in [1, 32, 33] {
            for m in [8, 9, 16, 17] {
                let k = 4;
                let mut a = vec![1.0; k * m];
                for p in 0..k {
                    a[p * m] = 0.0; // column 0 of aᵀ: all +0.0
                    a[p * m + m - 1] = -0.0; // last column: all −0.0
                }
                let b = vec![1.0; k * n];
                let mut c = vec![-0.0f32; m * n];
                matmul_at_b_acc(&a, &b, &mut c, m, k, n);
                for (i, row) in c.chunks_exact(n).enumerate() {
                    let want =
                        if i == 0 || i == m - 1 { (-0.0f32).to_bits() } else { 4.0f32.to_bits() };
                    assert!(
                        row.iter().all(|x| x.to_bits() == want),
                        "n {n} m {m} row {i}: {row:?}"
                    );
                }
            }
        }
    }

    /// A fresh `matmul` sum over only zero left factors is `+0.0`, as the
    /// scalar loop's zero fill leaves it, even when `b` holds `−0.0`.
    #[test]
    fn matmul_all_zero_row_is_positive_zero() {
        for n in [1, 32, 33] {
            let (m, k) = (9, 3);
            let a = [0.0, -0.0, 0.0].repeat(m);
            let b = vec![-0.0; k * n];
            let mut c = vec![f32::NAN; m * n];
            matmul(&a, &b, &mut c, m, k, n);
            assert!(c.iter().all(|x| x.to_bits() == 0), "n {n}: {c:?}");
        }
    }

    // ---- indexed kernels against the gather → matmul → scale → scatter composition ----

    /// An edge list: sources and destinations.
    type EdgeList = (Vec<u32>, Vec<u32>);

    /// Random edge lists over `rows` packed nodes, destinations repeating
    /// so the scatter order matters.
    fn edges(n_e: usize, rows: usize, rng: &mut ChaCha8Rng) -> EdgeList {
        let pick = |rng: &mut ChaCha8Rng| rng.gen_range(0..rows as u32);
        let srcs = (0..n_e).map(|_| pick(rng)).collect();
        let dsts = (0..n_e).map(|_| pick(rng) / 2).collect();
        (srcs, dsts)
    }

    /// Edge lists made of runs of equal sources with the given lengths,
    /// each run's source differing from the one before, destinations
    /// random and repeating.
    fn run_edges(lens: &[usize], rows: usize, rng: &mut ChaCha8Rng) -> EdgeList {
        let mut srcs = Vec::new();
        let mut prev = u32::MAX;
        for &len in lens {
            let mut s = rng.gen_range(0..rows as u32);
            if s == prev {
                s = (s + 1) % rows as u32;
            }
            srcs.extend(std::iter::repeat(s).take(len));
            prev = s;
        }
        let dsts = (0..srcs.len()).map(|_| rng.gen_range(0..rows as u32) / 2).collect();
        (srcs, dsts)
    }

    fn gather(h: &[f32], k: usize, ids: &[u32]) -> Vec<f32> {
        ids.iter().flat_map(|&i| &h[i as usize * k..(i as usize + 1) * k]).copied().collect()
    }

    /// The logits the way the layer used to compute them: each row
    /// `h[src] ⊕ h[dst] ⊕ q` written out, then one `n = 1` matmul.
    fn concat_dot_reference(
        h: &[f32],
        k: usize,
        (srcs, dsts): (&[u32], &[u32]),
        q: &[f32],
        w: &[f32],
    ) -> Vec<f32> {
        let width = 2 * k + q.len();
        let (hs, hd) = (gather(h, k, srcs), gather(h, k, dsts));
        let rows: Vec<f32> = hs
            .chunks_exact(k)
            .zip(hd.chunks_exact(k))
            .flat_map(|(s, d)| s.iter().chain(d).chain(q).copied())
            .collect();
        let mut out = vec![f32::NAN; srcs.len()];
        matmul(&rows, w, &mut out, srcs.len(), width, 1);
        out
    }

    /// The messages the way the layer used to compute them: gather the
    /// sources, one matmul, then scale each row and scatter it in order.
    fn scatter_reference(
        h: &[f32],
        (srcs, dsts): (&[u32], &[u32]),
        w: &[f32],
        scale: &[f32],
        agg: &mut [f32],
        (k, n): (usize, usize),
    ) {
        let sources = gather(h, k, srcs);
        let mut messages = vec![f32::NAN; srcs.len() * n];
        matmul(&sources, w, &mut messages, srcs.len(), k, n);
        for (e, &d) in dsts.iter().enumerate() {
            let dst_row = &mut agg[d as usize * n..(d as usize + 1) * n];
            for (x, &m) in dst_row.iter_mut().zip(&messages[e * n..(e + 1) * n]) {
                *x += m * scale[e];
            }
        }
    }

    /// The per-edge attention kernel the source prefix replaced: every
    /// edge's chain runs over all three parts of its virtual row.
    fn per_edge_concat_dot(
        h: &[f32],
        k: usize,
        (srcs, dsts): (&[u32], &[u32]),
        q: &[f32],
        w: &[f32],
        out: &mut [f32],
    ) {
        let (w_src, rest) = w.split_at(k);
        let (w_dst, w_q) = rest.split_at(k);
        let row = |i: u32| &h[i as usize * k..(i as usize + 1) * k];
        let mut out_groups = out.chunks_exact_mut(CHAINS);
        let mut src_groups = srcs.chunks_exact(CHAINS);
        let mut dst_groups = dsts.chunks_exact(CHAINS);
        for ((o8, s8), d8) in (&mut out_groups).zip(&mut src_groups).zip(&mut dst_groups) {
            let mut acc = [0.0f32; CHAINS];
            for (ids, w_part) in [(s8, w_src), (d8, w_dst)] {
                let rows: [&[f32]; CHAINS] = std::array::from_fn(|r| row(ids[r]));
                for (p, &y) in w_part.iter().enumerate() {
                    for (s, r) in acc.iter_mut().zip(&rows) {
                        let x = r[p];
                        *s += if x == 0.0 { 0.0 } else { x * y };
                    }
                }
            }
            for (&x, &y) in q.iter().zip(w_q) {
                let t = if x == 0.0 { 0.0 } else { x * y };
                for s in &mut acc {
                    *s += t;
                }
            }
            o8.copy_from_slice(&acc);
        }
        let tails = src_groups.remainder().iter().zip(dst_groups.remainder());
        for (o, (&s, &d)) in out_groups.into_remainder().iter_mut().zip(tails) {
            let mut acc = 0.0f32;
            for (part, w_part) in [(row(s), w_src), (row(d), w_dst), (q, w_q)] {
                for (&x, &y) in part.iter().zip(w_part) {
                    if x != 0.0 {
                        acc += x * y;
                    }
                }
            }
            *o = acc;
        }
    }

    /// The per-edge message kernel the source runs replaced: every edge
    /// builds its own message in the register row.
    fn per_edge_matmul_scale_scatter(
        h: &[f32],
        (srcs, dsts): (&[u32], &[u32]),
        w: &[f32],
        scale: &[f32],
        agg: &mut [f32],
        (k, n): (usize, usize),
    ) {
        let full = n - n % BLOCK;
        for ((&s, &d), &a) in srcs.iter().zip(dsts).zip(scale) {
            let h_row = &h[s as usize * k..(s as usize + 1) * k];
            let dst_row = &mut agg[d as usize * n..(d as usize + 1) * n];
            for (j, dst_blk) in dst_row[..full].chunks_exact_mut(BLOCK).enumerate() {
                let mut acc = [0.0f32; BLOCK];
                for (&x, w_row) in h_row.iter().zip(w.chunks_exact(n)) {
                    if x == 0.0 {
                        continue;
                    }
                    for (m, &y) in acc.iter_mut().zip(&w_row[j * BLOCK..(j + 1) * BLOCK]) {
                        *m += x * y;
                    }
                }
                for (o, &m) in dst_blk.iter_mut().zip(&acc) {
                    *o += m * a;
                }
            }
            if full < n {
                let mut acc = [0.0f32; BLOCK];
                let acc = &mut acc[..n - full];
                for (&x, w_row) in h_row.iter().zip(w.chunks_exact(n)) {
                    if x == 0.0 {
                        continue;
                    }
                    for (m, &y) in acc.iter_mut().zip(&w_row[full..]) {
                        *m += x * y;
                    }
                }
                for (o, &m) in dst_row[full..].iter_mut().zip(acc.iter()) {
                    *o += m * a;
                }
            }
        }
    }

    /// The per-node source prefixes the layer computes once per pack:
    /// `h · w[..k]` on [`matmul`]'s `n == 1` chains.
    fn source_prefix(h: &[f32], k: usize, w: &[f32]) -> Vec<f32> {
        let mut p_src = vec![f32::NAN; h.len() / k];
        matmul(h, &w[..k], &mut p_src, h.len() / k, k, 1);
        p_src
    }

    /// Layer inputs: one-hot-like rows at the layer-0 label width, ReLU-
    /// like rows (exact `±0.0` among them) at the hidden width.
    fn layer_input(rows: usize, k: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        if k == 32 {
            return relu_like(rows * k, rng);
        }
        let mut h = vec![0.0; rows * k];
        for (i, row) in h.chunks_exact_mut(k).enumerate() {
            row[rng.gen_range(0..k / 2)] = 1.0;
            row[k / 2 + rng.gen_range(0..k / 2)] = if i % 5 == 0 { 0.0 } else { 1.0 };
            if i % 7 == 0 {
                row[0] = -0.0;
            }
        }
        h
    }

    /// Both indexed kernels equal the gather → `matmul` → scale → scatter
    /// composition, and the per-edge kernels they replaced, bit for bit:
    /// random edge lists with counts on and off the 8-edge groups (the
    /// empty group included), and lists of source runs of length 1 to 41
    /// (each message built once) that straddle the logits' 8-edge chain
    /// groups or fill one; the layer-0 label width (6) and the hidden
    /// width (32) as `k`; message widths of 16 (`quick()`), 32, 33, 40
    /// (one full block plus a narrower one) and 64.
    #[test]
    fn indexed_kernels_match_the_gather_composition_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let rows = 40;
        let runs: [&[usize]; 6] = [
            &[1],
            &[2, 1, 3, 1, 1, 4, 2],
            &[5, 6, 7, 9, 3],
            &[8, 8, 1, 8],
            &[1, 17, 2, 10, 1, 1, 12],
            &[41],
        ];
        for k in [6, 32] {
            let mut lists: Vec<(String, EdgeList)> = [0, 1, 7, 8, 9, 17, 64, 203]
                .iter()
                .map(|&n_e| (format!("n_e {n_e}"), edges(n_e, rows, &mut rng)))
                .collect();
            for lens in runs {
                lists.push((format!("runs {lens:?}"), run_edges(lens, rows, &mut rng)));
            }
            for (what, (srcs, dsts)) in lists {
                let h = layer_input(rows, k, &mut rng);
                let mut q = signed(8, &mut rng);
                q[3] = 0.0;
                let w_att = signed(2 * k + q.len(), &mut rng);
                let n_e = srcs.len();
                let p_src = source_prefix(&h, k, &w_att);
                let want = concat_dot_reference(&h, k, (&srcs, &dsts), &q, &w_att);
                let mut per_edge = vec![f32::NAN; n_e];
                per_edge_concat_dot(&h, k, (&srcs, &dsts), &q, &w_att, &mut per_edge);
                let mut got = vec![f32::NAN; n_e];
                indexed_concat_dot(&p_src, &h, k, &srcs, &dsts, &q, &w_att, &mut got);
                assert_eq!(bits(&got), bits(&want), "logits {what} k {k}");
                assert_eq!(bits(&per_edge), bits(&want), "per-edge logits {what} k {k}");

                let scale: Vec<f32> = got.iter().map(|x| 1.0 / (1.0 + (-x).exp())).collect();
                for n in [16, 32, 33, 40, 64] {
                    let w = signed(k * n, &mut rng);
                    let agg0 = signed(rows * n, &mut rng);
                    let mut want = agg0.clone();
                    scatter_reference(&h, (&srcs, &dsts), &w, &scale, &mut want, (k, n));
                    let mut per_edge = agg0.clone();
                    let sd = (&srcs[..], &dsts[..]);
                    per_edge_matmul_scale_scatter(&h, sd, &w, &scale, &mut per_edge, (k, n));
                    let mut got = agg0;
                    indexed_matmul_scale_scatter(&h, &srcs, &dsts, &w, &scale, &mut got, k, n);
                    assert_eq!(bits(&got), bits(&want), "messages {what} k {k} n {n}");
                    assert_eq!(bits(&per_edge), bits(&want), "per-edge {what} k {k} n {n}");
                }
            }
        }
    }

    /// `±Inf` and `NaN` in the weights meet only zero left factors
    /// (`+0.0` and `−0.0` in `h`, a zero in `q`) and contribute nothing:
    /// every output stays finite and still equals the composition, with
    /// the sources in runs and apart, at widths 16, 32, 40 and 64.
    #[test]
    fn indexed_kernels_skip_zero_left_factors_against_non_finite_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (rows, k) = (24, 32);
        let mut h = relu_like(rows * k, &mut rng);
        for (i, row) in h.chunks_exact_mut(k).enumerate() {
            row[5] = if i % 2 == 0 { 0.0 } else { -0.0 };
            row[k - 1] = -0.0;
        }
        for (srcs, dsts) in [edges(19, rows, &mut rng), run_edges(&[3, 1, 9, 6], rows, &mut rng)] {
            let n_e = srcs.len();
            let mut q = signed(8, &mut rng);
            q[2] = -0.0;
            let mut w_att = signed(2 * k + q.len(), &mut rng);
            w_att[5] = f32::INFINITY;
            w_att[k + 5] = f32::NEG_INFINITY;
            w_att[2 * k - 1] = f32::NAN;
            w_att[2 * k + 2] = f32::NAN;
            let p_src = source_prefix(&h, k, &w_att);
            assert!(p_src.iter().all(|x| x.is_finite()), "source prefixes: {p_src:?}");
            let want = concat_dot_reference(&h, k, (&srcs, &dsts), &q, &w_att);
            let mut got = vec![f32::NAN; n_e];
            indexed_concat_dot(&p_src, &h, k, &srcs, &dsts, &q, &w_att, &mut got);
            assert!(got.iter().all(|x| x.is_finite()), "logits: {got:?}");
            assert_eq!(bits(&got), bits(&want), "logits");

            for n in [16, 32, 40, 64] {
                let mut w = signed(k * n, &mut rng);
                w[5 * n..6 * n].fill(f32::INFINITY);
                w[5 * n + 1] = f32::NEG_INFINITY;
                w[(k - 1) * n..].fill(f32::NAN);
                let scale = signed(n_e, &mut rng);
                let mut want = vec![0.0; rows * n];
                scatter_reference(&h, (&srcs, &dsts), &w, &scale, &mut want, (k, n));
                let mut got = vec![0.0; rows * n];
                indexed_matmul_scale_scatter(&h, &srcs, &dsts, &w, &scale, &mut got, k, n);
                assert!(got.iter().all(|x| x.is_finite()), "messages n {n}: {got:?}");
                assert_eq!(bits(&got), bits(&want), "messages n {n}");
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let mut t = vec![0.0; 12];
        let mut back = vec![0.0; 12];
        transpose(&a, &mut t, 3, 4);
        transpose(&t, &mut back, 4, 3);
        assert_eq!(a, back);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = [1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut out);
        assert_eq!(out, [7.0, 9.0]);
    }
}
