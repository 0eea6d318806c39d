//! Raw numeric kernels on `f32` slices.
//!
//! These are the shared inner loops used by both the forward pass of
//! [`crate::Tensor`] methods and the backward pass in [`crate::tape`].
//! Keeping them as free functions over slices lets the backward sweep
//! reuse them without constructing intermediate `Tensor`s.

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

/// Dense row-major matrix multiply: `c[m,n] = a[m,k] * b[k,n]`.
///
/// Loop order (m, k, n) keeps the inner loop streaming over contiguous
/// rows of `b` and `c`, which the compiler auto-vectorizes.
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
    c.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue; // component tables and one-hot features are sparse
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// `c[m,n] += a[m,k] * b[k,n]` — accumulating variant for gradients.
///
/// Shares [`matmul`]'s zero-skip contract on `a`.
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "matmul_acc: lhs is not [{m}, {k}]");
    debug_assert_eq!(b.len(), k * n, "matmul_acc: rhs is not [{k}, {n}]");
    debug_assert_eq!(c.len(), m * n, "matmul_acc: output is not [{m}, {n}]");
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
/// Used by matmul backward for the left operand without materializing a
/// transpose. Shares [`matmul`]'s zero-skip contract on `a`.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m, "matmul_at_b_acc: lhs is not [{k}, {m}]");
    debug_assert_eq!(b.len(), k * n, "matmul_at_b_acc: rhs is not [{k}, {n}]");
    debug_assert_eq!(c.len(), m * n, "matmul_at_b_acc: output is not [{m}, {n}]");
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
    /// poisons the result, in the lane body and in the tail.
    #[test]
    fn a_bt_lanes_propagate_non_finite() {
        for (k, at) in [(16, 3), (19, 17)] {
            let a = vec![0.0; k];
            let mut b = vec![1.0; k];
            b[at] = f32::INFINITY;
            let mut c = [0.0];
            matmul_a_bt_acc(&a, &b, &mut c, 1, k, 1);
            assert!(!c[0].is_finite(), "k {k}, Inf at {at}: got {}", c[0]);
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
