//! dekg-grad passes 2 and 3: finite-difference gradient checking and
//! the op-coverage audit.
//!
//! [`check_fn`] is the harness: it records a tape once, takes analytic
//! gradients via [`Graph::backward`], runs the
//! [`f64` reference interpreter](crate::interp) over the same tape (so
//! every gradcheck doubles as a differential test of the optimized
//! kernels), and then verifies each parameter coordinate against a
//! central finite difference `(f(x+ε) − f(x−ε)) / 2ε` with a
//! per-coordinate adaptive step `ε = eps_scale · (1 + |x|)`.
//!
//! [`registry`] holds one [`OpCheck`] per `Op` variant, each building a
//! randomized small tape in that op's valid domain (kinked ops like
//! `Relu`/`Abs` keep inputs away from the kink; `Ln`/`Sqrt` stay
//! strictly positive; `Div` denominators stay away from zero — central
//! differences are meaningless across a non-differentiable point).
//! [`coverage_gaps`] diffs the registry against
//! [`crate::check::ALL_OPS`], whose companion
//! `op_ordinal` match is exhaustive, so adding an `Op` variant without
//! registering a gradcheck fails the audit at compile-or-test time.
//!
//! Every case runs through [`Graph::diff_check`], whose structural
//! pre-check is tapecheck's shape pass, so this registry is also the
//! op-coverage audit of the shape rules in `infer_shape_with`. Ops
//! whose rule could confuse two dims (`Matmul`, `RelMatmul`, the axis
//! reductions, `BroadcastRow`, `ScatterAddRows`) check a pinned shape with distinct
//! dims besides the random draw, so a swapped axis cannot hide behind a
//! square sample.

use crate::check::{Diagnostic, ALL_OPS};
use crate::params::ParamStore;
use crate::tape::{Graph, Var, PAD};
use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Finite-difference settings for [`check_fn`].
#[derive(Debug, Clone, Copy)]
pub struct FdConfig {
    /// Relative step size: `ε = eps_scale · (1 + |x|)`. The default is
    /// near the `f32` sweet spot `∛ε₃₂ ≈ 5e-3` balancing truncation
    /// against cancellation error.
    pub eps_scale: f32,
    /// Relative tolerance on `|fd − analytic|`, scaled by the larger
    /// magnitude of the two.
    pub rel_tol: f64,
    /// Absolute tolerance floor.
    pub abs_tol: f64,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig { eps_scale: 5e-3, rel_tol: 2e-2, abs_tol: 2e-3 }
    }
}

/// One named input to [`check_fn`]: `(parameter name, shape, data)`.
pub type FdInput = (&'static str, Vec<usize>, Vec<f32>);

/// Gradient-checks a scalar-valued function of named parameters.
///
/// `build` must be deterministic: it is re-invoked for every
/// perturbed evaluation and has to record the same tape each time
/// (ops with internal randomness, like dropout, must reseed their own
/// RNG inside the closure). Returns a description of the first failure,
/// covering analytic-vs-FD disagreement, reference-interpreter
/// disagreement, and non-scalar or non-finite losses.
///
/// # Errors
/// Returns `Err` with a human-readable description on any mismatch.
pub fn check_fn(
    inputs: &[FdInput],
    build: &dyn Fn(&mut Graph, &ParamStore) -> Var,
    cfg: &FdConfig,
) -> Result<(), String> {
    let mut ps = ParamStore::new();
    let ids: Vec<_> = inputs
        .iter()
        .map(|(name, shape, data)| ps.insert(*name, Tensor::from_vec(shape.clone(), data.clone())))
        .collect();

    let eval = |ps: &ParamStore| -> Result<f64, String> {
        let mut g = Graph::new();
        let loss = build(&mut g, ps);
        if g.value(loss).numel() != 1 {
            return Err(format!("loss must be scalar, got shape {}", g.shape(loss)));
        }
        let l = f64::from(g.value(loss).data()[0]);
        if !l.is_finite() {
            return Err(format!("loss is not finite: {l}"));
        }
        Ok(l)
    };

    // Analytic gradients + the reference-interpreter differential test
    // over the exact tape being finite-differenced.
    let mut g = Graph::new();
    let loss = build(&mut g, &ps);
    if g.value(loss).numel() != 1 {
        return Err(format!("loss must be scalar, got shape {}", g.shape(loss)));
    }
    let diags = g.diff_check(loss, Some(&ps));
    if !diags.is_empty() {
        return Err(format!("reference interpreter disagrees: {}", diags[0]));
    }
    let grads = g.backward(loss);

    for (&id, (name, _, _)) in ids.iter().zip(inputs) {
        let n = ps.get(id).numel();
        for i in 0..n {
            let orig = ps.get(id).data()[i];
            let eps = cfg.eps_scale * (1.0 + orig.abs());
            ps.get_mut(id).data_mut()[i] = orig + eps;
            let hi = ps.get(id).data()[i];
            let lp = eval(&ps)?;
            ps.get_mut(id).data_mut()[i] = orig - eps;
            let lo = ps.get(id).data()[i];
            let lm = eval(&ps)?;
            ps.get_mut(id).data_mut()[i] = orig;

            // Use the step that was actually representable in f32.
            let denom = f64::from(hi) - f64::from(lo);
            let fd = (lp - lm) / denom;
            let an = grads.get(id).map_or(0.0, |t| f64::from(t.data()[i]));
            let tol = cfg.abs_tol + cfg.rel_tol * fd.abs().max(an.abs());
            if !(fd - an).abs().le(&tol) {
                return Err(format!(
                    "parameter {name} element {i}: analytic {an:e} vs central difference {fd:e} \
                     (|Δ| {:e} > tolerance {tol:e})",
                    (fd - an).abs()
                ));
            }
        }
    }
    Ok(())
}

/// A registered gradcheck for one `Op` variant.
pub struct OpCheck {
    /// The op mnemonic, matching an entry of [`ALL_OPS`].
    pub op: &'static str,
    /// Builds a randomized small tape exercising the op and runs
    /// [`check_fn`] on it.
    pub run: fn(&mut ChaCha8Rng) -> Result<(), String>,
}

fn uniform(rng: &mut ChaCha8Rng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Values with `min_mag ≤ |x|`, both signs: safe for kinked ops and
/// divisors under the default FD step.
fn away_from_zero(rng: &mut ChaCha8Rng, n: usize, min_mag: f32, max_mag: f32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let mag = rng.gen_range(min_mag..max_mag);
            if rng.gen::<bool>() {
                mag
            } else {
                -mag
            }
        })
        .collect()
}

/// Mounts the [`check_fn`] input named `name` as a parameter leaf.
fn mount(g: &mut Graph, ps: &ParamStore, name: &str) -> Var {
    let id = ps.id_of(name).expect("check_fn registers every named input");
    g.param(ps, id)
}

/// Reduces `y` to a scalar through a random positive weighting, so
/// every output position contributes a *distinct* gradient — a routing
/// bug in a movement op cannot cancel out.
fn weighted(g: &mut Graph, y: Var, rng: &mut ChaCha8Rng) -> Var {
    let n = g.value(y).numel();
    let w = Tensor::from_vec(g.shape(y).clone(), uniform(rng, n, 0.5, 1.5));
    let c = g.constant(w);
    let p = g.mul(y, c);
    g.sum_all(p)
}

/// One-input elementwise check: `loss = Σ wᵢ · op(x)ᵢ`.
fn unary_check(
    rng: &mut ChaCha8Rng,
    data: Vec<f32>,
    op: impl Fn(&mut Graph, Var) -> Var,
) -> Result<(), String> {
    let n = data.len();
    let wseed = rng.gen::<u64>();
    check_fn(
        &[("x", vec![n], data)],
        &|g, ps| {
            let x = mount(g, ps, "x");
            let y = op(&mut *g, x);
            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
            weighted(g, y, &mut wrng)
        },
        &FdConfig::default(),
    )
}

/// Two-input elementwise check over `[m, n]` operands.
fn binary_check(
    rng: &mut ChaCha8Rng,
    a: Vec<f32>,
    b: Vec<f32>,
    shape: Vec<usize>,
    op: impl Fn(&mut Graph, Var, Var) -> Var,
) -> Result<(), String> {
    let wseed = rng.gen::<u64>();
    check_fn(
        &[("a", shape.clone(), a), ("b", shape, b)],
        &|g, ps| {
            let a = mount(g, ps, "a");
            let b = mount(g, ps, "b");
            let y = op(&mut *g, a, b);
            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
            weighted(g, y, &mut wrng)
        },
        &FdConfig::default(),
    )
}

fn rand_matrix_shape(rng: &mut ChaCha8Rng) -> (usize, usize) {
    (rng.gen_range(1..4), rng.gen_range(1..4))
}

/// One-input check over matrices: a pinned non-square `[2, 3]` operand,
/// then a random one. A shape rule that swaps the two axes passes on a
/// square draw but not on the pinned shape.
fn matrix_check(rng: &mut ChaCha8Rng, op: impl Fn(&mut Graph, Var) -> Var) -> Result<(), String> {
    for (m, n) in [(2, 3), rand_matrix_shape(rng)] {
        let data = uniform(rng, m * n, -1.0, 1.0);
        let wseed = rng.gen::<u64>();
        check_fn(
            &[("x", vec![m, n], data)],
            &|g, ps| {
                let x = mount(g, ps, "x");
                let y = op(&mut *g, x);
                let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                weighted(g, y, &mut wrng)
            },
            &FdConfig::default(),
        )?;
    }
    Ok(())
}

#[allow(clippy::too_many_lines)] // one registration per op variant, by design
fn registry_impl() -> Vec<OpCheck> {
    vec![
        OpCheck {
            op: "Param",
            run: |rng| {
                let data = uniform(rng, 5, -1.0, 1.0);
                unary_check(rng, data, |_, x| x)
            },
        },
        OpCheck {
            op: "Constant",
            run: |rng| {
                let data = uniform(rng, 4, -1.0, 1.0);
                let cdata = uniform(rng, 4, 0.5, 1.5);
                let wseed = rng.gen::<u64>();
                check_fn(
                    &[("x", vec![4], data)],
                    &{
                        let cdata = cdata.clone();
                        move |g: &mut Graph, ps: &ParamStore| {
                            let x = mount(g, ps, "x");
                            let c = g.constant(Tensor::from_vec(vec![4], cdata.clone()));
                            let y = g.mul(x, c);
                            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                            weighted(g, y, &mut wrng)
                        }
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "Add",
            run: |rng| {
                let (m, n) = rand_matrix_shape(rng);
                let a = uniform(rng, m * n, -1.0, 1.0);
                let b = uniform(rng, m * n, -1.0, 1.0);
                binary_check(rng, a, b, vec![m, n], Graph::add)
            },
        },
        OpCheck {
            op: "Sub",
            run: |rng| {
                let (m, n) = rand_matrix_shape(rng);
                let a = uniform(rng, m * n, -1.0, 1.0);
                let b = uniform(rng, m * n, -1.0, 1.0);
                binary_check(rng, a, b, vec![m, n], Graph::sub)
            },
        },
        OpCheck {
            op: "Mul",
            run: |rng| {
                let (m, n) = rand_matrix_shape(rng);
                let a = uniform(rng, m * n, -1.0, 1.0);
                let b = uniform(rng, m * n, -1.0, 1.0);
                binary_check(rng, a, b, vec![m, n], Graph::mul)
            },
        },
        OpCheck {
            op: "Div",
            run: |rng| {
                let (m, n) = rand_matrix_shape(rng);
                let a = uniform(rng, m * n, -1.0, 1.0);
                let b = away_from_zero(rng, m * n, 0.5, 1.5);
                binary_check(rng, a, b, vec![m, n], Graph::div)
            },
        },
        OpCheck {
            op: "Neg",
            run: |rng| {
                let data = uniform(rng, 6, -1.0, 1.0);
                unary_check(rng, data, Graph::neg)
            },
        },
        OpCheck {
            op: "AddScalar",
            run: |rng| {
                let data = uniform(rng, 5, -1.0, 1.0);
                let s = rng.gen_range(-2.0..2.0);
                unary_check(rng, data, move |g, x| g.add_scalar(x, s))
            },
        },
        OpCheck {
            op: "MulScalar",
            run: |rng| {
                let data = uniform(rng, 5, -1.0, 1.0);
                let s = rng.gen_range(0.5..2.0);
                unary_check(rng, data, move |g, x| g.mul_scalar(x, s))
            },
        },
        OpCheck {
            op: "Matmul",
            run: |rng| {
                // `[2, 3]·[3, 4]` keeps all three dims distinct, so a
                // shape rule confusing any two of them fails.
                // `[2, 9]·[9, 11]` runs the eight-lane body and tail of
                // `dA = dC·Bᵀ`'s dot products (length `n`) and a long
                // `dB` reduction. Then a random draw.
                let (m, k) = rand_matrix_shape(rng);
                for (m, k, n) in [(2, 3, 4), (2, 9, 11), (m, k, rng.gen_range(1..4))] {
                    let mut a = uniform(rng, m * k, -1.0, 1.0);
                    // Exercise the kernel's 0.0-skip path.
                    a[0] = 0.0;
                    let b = uniform(rng, k * n, -1.0, 1.0);
                    let wseed = rng.gen::<u64>();
                    check_fn(
                        &[("a", vec![m, k], a), ("b", vec![k, n], b)],
                        &|g, ps| {
                            let a = mount(g, ps, "a");
                            let b = mount(g, ps, "b");
                            let y = g.matmul(a, b);
                            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                            weighted(g, y, &mut wrng)
                        },
                        &FdConfig::default(),
                    )?;
                }
                Ok(())
            },
        },
        OpCheck {
            op: "RelMatmul",
            run: |rng| {
                // Pinned `x [6, 9]` against four `[9, 10]` blocks: `k ≠ n`
                // and both past one lane width. The blocks are unsorted,
                // blocks 0 and 2 each appear in two separate runs, and
                // block 1 is never used, so its gradient must be zero.
                // Then a random draw of small shapes and blocks.
                let (k, n) = rand_matrix_shape(rng);
                let drawn: Vec<usize> = (0..4).map(|_| rng.gen_range(0..3)).collect();
                for (k, n, num_blocks, blocks) in
                    [(9, 10, 4, vec![2, 2, 0, 3, 2, 0]), (k, n, 3, drawn)]
                {
                    let mut x = uniform(rng, blocks.len() * k, -1.0, 1.0);
                    // Exercise the kernel's 0.0-skip path.
                    x[0] = 0.0;
                    let w = uniform(rng, num_blocks * k * n, -1.0, 1.0);
                    let wseed = rng.gen::<u64>();
                    check_fn(
                        &[("x", vec![blocks.len(), k], x), ("w", vec![num_blocks * k, n], w)],
                        &|g, ps| {
                            let x = mount(g, ps, "x");
                            let w = mount(g, ps, "w");
                            let y = g.rel_matmul(x, w, &blocks);
                            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                            weighted(g, y, &mut wrng)
                        },
                        &FdConfig::default(),
                    )?;
                }
                Ok(())
            },
        },
        OpCheck {
            op: "GatherRows",
            run: |rng| {
                let cols = rng.gen_range(1..4);
                let data = uniform(rng, 4 * cols, -1.0, 1.0);
                // Duplicate rows must accumulate gradient.
                let idx = vec![2, 0, 2, rng.gen_range(0..4)];
                let wseed = rng.gen::<u64>();
                check_fn(
                    &[("x", vec![4, cols], data)],
                    &move |g, ps| {
                        let x = mount(g, ps, "x");
                        let y = g.gather_rows(x, &idx);
                        let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                        weighted(g, y, &mut wrng)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "GatherFlat",
            run: |rng| {
                let data = uniform(rng, 6, -1.0, 1.0);
                // PAD offsets read 0.0 and must route no gradient;
                // offset 1 repeats, so its gradient accumulates. The
                // declared output shape differs from the input's.
                let idx = vec![PAD, 1, rng.gen_range(0..6), PAD, 1, 4];
                let wseed = rng.gen::<u64>();
                check_fn(
                    &[("x", vec![2, 3], data)],
                    &move |g, ps| {
                        let x = mount(g, ps, "x");
                        let y = g.gather_flat(x, &idx, [3, 2]);
                        let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                        weighted(g, y, &mut wrng)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "Reshape",
            run: |rng| {
                let data = uniform(rng, 6, -1.0, 1.0);
                let wseed = rng.gen::<u64>();
                check_fn(
                    &[("x", vec![2, 3], data)],
                    &|g, ps| {
                        let x = mount(g, ps, "x");
                        let y = g.reshape(x, [3, 2]);
                        let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                        weighted(g, y, &mut wrng)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "ConcatRows",
            run: |rng| {
                let cols = rng.gen_range(1..4);
                // Rank 2 stacks rows (`[1, c]` over `[2, c]`); rank 1
                // appends (`[2]` then `[3]`).
                for (sa, sb) in [(vec![1, cols], vec![2, cols]), (vec![2], vec![3])] {
                    let a = uniform(rng, sa.iter().product(), -1.0, 1.0);
                    let b = uniform(rng, sb.iter().product(), -1.0, 1.0);
                    let wseed = rng.gen::<u64>();
                    check_fn(
                        &[("a", sa, a), ("b", sb, b)],
                        &|g, ps| {
                            let a = mount(g, ps, "a");
                            let b = mount(g, ps, "b");
                            let y = g.concat_rows(&[a, b]);
                            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                            weighted(g, y, &mut wrng)
                        },
                        &FdConfig::default(),
                    )?;
                }
                Ok(())
            },
        },
        OpCheck {
            op: "ConcatCols",
            run: |rng| {
                let rows = rng.gen_range(1..4);
                let a = uniform(rng, rows, -1.0, 1.0);
                let b = uniform(rng, 2 * rows, -1.0, 1.0);
                let wseed = rng.gen::<u64>();
                check_fn(
                    &[("a", vec![rows, 1], a), ("b", vec![rows, 2], b)],
                    &|g, ps| {
                        let a = mount(g, ps, "a");
                        let b = mount(g, ps, "b");
                        let y = g.concat_cols(&[a, b]);
                        let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                        weighted(g, y, &mut wrng)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "SumAll",
            run: |rng| {
                let data = uniform(rng, 6, -1.0, 1.0);
                let cdata = uniform(rng, 6, 0.5, 1.5);
                check_fn(
                    &[("x", vec![2, 3], data)],
                    &move |g, ps| {
                        let x = mount(g, ps, "x");
                        let c = g.constant(Tensor::from_vec(vec![2, 3], cdata.clone()));
                        let y = g.mul(x, c);
                        g.sum_all(y)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "MeanAll",
            run: |rng| {
                let data = uniform(rng, 6, -1.0, 1.0);
                let cdata = uniform(rng, 6, 0.5, 1.5);
                check_fn(
                    &[("x", vec![2, 3], data)],
                    &move |g, ps| {
                        let x = mount(g, ps, "x");
                        let c = g.constant(Tensor::from_vec(vec![2, 3], cdata.clone()));
                        let y = g.mul(x, c);
                        g.mean_all(y)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck { op: "SumAxis0", run: |rng| matrix_check(rng, Graph::sum_axis0) },
        OpCheck { op: "SumAxis1", run: |rng| matrix_check(rng, Graph::sum_axis1) },
        OpCheck { op: "MeanAxis0", run: |rng| matrix_check(rng, Graph::mean_axis0) },
        OpCheck {
            op: "Relu",
            run: |rng| {
                let data = away_from_zero(rng, 6, 0.2, 1.5);
                unary_check(rng, data, Graph::relu)
            },
        },
        OpCheck {
            op: "Sigmoid",
            run: |rng| {
                let data = uniform(rng, 6, -2.0, 2.0);
                unary_check(rng, data, Graph::sigmoid)
            },
        },
        OpCheck {
            op: "Tanh",
            run: |rng| {
                let data = uniform(rng, 6, -2.0, 2.0);
                unary_check(rng, data, Graph::tanh)
            },
        },
        OpCheck {
            op: "Sqrt",
            run: |rng| {
                let data = uniform(rng, 6, 0.3, 2.0);
                unary_check(rng, data, Graph::sqrt)
            },
        },
        OpCheck {
            op: "Exp",
            run: |rng| {
                let data = uniform(rng, 6, -1.0, 1.0);
                unary_check(rng, data, Graph::exp)
            },
        },
        OpCheck {
            op: "Ln",
            run: |rng| {
                let data = uniform(rng, 6, 0.5, 2.0);
                unary_check(rng, data, Graph::ln)
            },
        },
        OpCheck {
            op: "Sin",
            run: |rng| {
                let data = uniform(rng, 6, -3.0, 3.0);
                unary_check(rng, data, Graph::sin)
            },
        },
        OpCheck {
            op: "Cos",
            run: |rng| {
                let data = uniform(rng, 6, -3.0, 3.0);
                unary_check(rng, data, Graph::cos)
            },
        },
        OpCheck {
            op: "Square",
            run: |rng| {
                let data = uniform(rng, 6, -1.5, 1.5);
                unary_check(rng, data, Graph::square)
            },
        },
        OpCheck {
            op: "Abs",
            run: |rng| {
                let data = away_from_zero(rng, 6, 0.2, 1.5);
                unary_check(rng, data, Graph::abs)
            },
        },
        OpCheck {
            op: "Dropout",
            run: |rng| {
                let data = uniform(rng, 12, -1.0, 1.0);
                let mask_seed = rng.gen::<u64>();
                let wseed = rng.gen::<u64>();
                check_fn(
                    &[("x", vec![3, 4], data)],
                    // The mask must be identical across perturbed
                    // evaluations, so the closure reseeds its own RNG.
                    &move |g, ps| {
                        let x = mount(g, ps, "x");
                        let mut mrng = ChaCha8Rng::seed_from_u64(mask_seed);
                        let y = g.dropout(x, 0.35, &mut mrng);
                        let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                        weighted(g, y, &mut wrng)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "StackScalars",
            run: |rng| {
                let a = uniform(rng, 2, -1.0, 1.0);
                let b = uniform(rng, 3, -1.0, 1.0);
                let wseed = rng.gen::<u64>();
                check_fn(
                    &[("a", vec![2], a), ("b", vec![3], b)],
                    &|g, ps| {
                        let a = mount(g, ps, "a");
                        let b = mount(g, ps, "b");
                        let s1 = g.sum_all(a);
                        let s2 = g.mean_all(b);
                        let y = g.stack_scalars(&[s1, s2]);
                        let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                        weighted(g, y, &mut wrng)
                    },
                    &FdConfig::default(),
                )
            },
        },
        OpCheck {
            op: "ScatterAddRows",
            run: |rng| {
                // Rows 0 and 2 both land on output row 1: the
                // duplicate-index accumulation path. Two columns keep
                // the `[3, cols]` output non-square; then a random width.
                for cols in [2, rng.gen_range(1..4)] {
                    let data = uniform(rng, 4 * cols, -1.0, 1.0);
                    let idx = vec![1, 0, 1, rng.gen_range(0..3)];
                    let wseed = rng.gen::<u64>();
                    check_fn(
                        &[("x", vec![4, cols], data)],
                        &move |g, ps| {
                            let x = mount(g, ps, "x");
                            let y = g.scatter_add_rows(x, &idx, 3);
                            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                            weighted(g, y, &mut wrng)
                        },
                        &FdConfig::default(),
                    )?;
                }
                Ok(())
            },
        },
        OpCheck {
            op: "BroadcastRow",
            run: |rng| {
                // `[2]` over 3 rows keeps the output non-square; then a
                // random draw.
                for (d, rows) in [(2, 3), (rng.gen_range(1..5), rng.gen_range(1..4))] {
                    let data = uniform(rng, d, -1.0, 1.0);
                    let wseed = rng.gen::<u64>();
                    check_fn(
                        &[("x", vec![d], data)],
                        &move |g, ps| {
                            let x = mount(g, ps, "x");
                            let y = g.broadcast_row(x, rows);
                            let mut wrng = ChaCha8Rng::seed_from_u64(wseed);
                            weighted(g, y, &mut wrng)
                        },
                        &FdConfig::default(),
                    )?;
                }
                Ok(())
            },
        },
    ]
}

/// The gradcheck registry: one [`OpCheck`] per `Op` variant.
pub fn registry() -> Vec<OpCheck> {
    registry_impl()
}

/// Diffs an op list against a registration list. Both directions are
/// gaps: an op without a check can land unverified, a check without an
/// op is a stale registration.
fn gaps_between(ops: &[&str], registered: &[&str]) -> Vec<String> {
    let have: BTreeSet<&str> = registered.iter().copied().collect();
    let known: BTreeSet<&str> = ops.iter().copied().collect();
    let mut gaps: Vec<String> =
        known.difference(&have).map(|s| format!("op {s} has no registered gradcheck")).collect();
    gaps.extend(
        have.difference(&known).map(|s| format!("gradcheck {s} matches no known op variant")),
    );
    gaps
}

/// The coverage audit: every variant of the `Op` enum (as enumerated by
/// the exhaustive [`ALL_OPS`] table) must have a registered gradcheck,
/// and every registration must name a real variant. Empty means fully
/// covered.
pub fn coverage_gaps() -> Vec<String> {
    let reg = registry();
    let names: Vec<&str> = reg.iter().map(|c| c.op).collect();
    gaps_between(ALL_OPS, &names)
}

/// Runs the coverage audit plus every registered gradcheck, reporting
/// failures as [`Diagnostic`] errors (`gradcheck-uncovered`,
/// `gradcheck-failed`). Each op draws from its own seeded RNG, so runs
/// are deterministic for a given `seed` and independent of registry
/// order.
pub fn run_all(seed: u64) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = coverage_gaps()
        .into_iter()
        .map(|m| Diagnostic::error("gradcheck-uncovered", None, "gradcheck", m))
        .collect();
    for c in registry() {
        // FNV-1a over the mnemonic decorrelates per-op streams.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in c.op.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ h);
        if let Err(e) = (c.run)(&mut rng) {
            out.push(Diagnostic::error("gradcheck-failed", None, c.op, e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit itself: every op variant is covered, right now.
    #[test]
    fn every_op_variant_has_a_gradcheck() {
        let gaps = coverage_gaps();
        assert!(gaps.is_empty(), "coverage gaps: {gaps:?}");
    }

    /// Adding a new op variant without a gradcheck must fail the audit
    /// (simulated by extending the op table with a dummy variant).
    #[test]
    fn unregistered_op_variant_fails_the_audit() {
        let mut ops: Vec<&str> = ALL_OPS.to_vec();
        ops.push("DummyNewOp");
        let reg = registry();
        let names: Vec<&str> = reg.iter().map(|c| c.op).collect();
        let gaps = gaps_between(&ops, &names);
        assert_eq!(gaps, vec!["op DummyNewOp has no registered gradcheck".to_string()]);
    }

    /// A registration that names no real op is also a gap.
    #[test]
    fn stale_registration_fails_the_audit() {
        let gaps = gaps_between(&["Add"], &["Add", "Ghost"]);
        assert_eq!(gaps, vec!["gradcheck Ghost matches no known op variant".to_string()]);
    }

    /// The full suite passes on several seeds (fast config: the same
    /// one `scripts/check.sh` and `dekg check --grads` use).
    #[test]
    fn full_registry_passes() {
        for seed in [0, 1, 42] {
            let diags = run_all(seed);
            assert!(diags.is_empty(), "seed {seed}: {diags:?}");
        }
    }

    /// The harness actually rejects wrong gradients. The loss
    /// `detach(Σx³) + Σx²` re-evaluates the detached term from the
    /// perturbed inputs (so the finite difference sees slope
    /// `3x² + 2x`) while the tape routes no gradient through the
    /// constant (analytic slope `2x`) — check_fn must flag it.
    #[test]
    fn harness_detects_wrong_gradients() {
        let r = check_fn(
            &[("x", vec![2], vec![0.4, -0.6])],
            &|g: &mut Graph, ps: &ParamStore| {
                let x = g.param(ps, ps.id_of("x").unwrap());
                let sq = g.square(x);
                let cube = g.mul(sq, x);
                let s_cube = g.sum_all(cube);
                let s_sq = g.sum_all(sq);
                let detached_value = g.value(s_cube).clone();
                let detached = g.constant(detached_value);
                g.add(detached, s_sq)
            },
            &FdConfig::default(),
        );
        let err = r.expect_err("detached-constant loss must fail the FD check");
        assert!(err.contains("central difference"), "unexpected error: {err}");
    }
}
