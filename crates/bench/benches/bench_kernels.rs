//! Microbenchmarks for the dense matmul kernels at the R-GCN layer's
//! shapes: messages `[E, 32]·[32, 32]`, attention logits
//! `[E, 72]·[72, 1]`, the basis composition `[1, 4]·[4, 1024]`, and the
//! two weight gradients `[E, 32]ᵀ·[E, 32]` and `[E, 72]ᵀ·[E, 1]`.
//!
//! Left factors are post-ReLU-like: about half exact zeros, in random
//! positions. A fixed zero pattern would let the branch predictor learn
//! the zero-skip branch and flatter any kernel that branches on it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dekg_tensor::kernels;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Edge counts: a typical subgraph's relation run, and a packed batch.
const EDGES: [usize; 2] = [89, 1000];

fn relu_like(len: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
    (0..len).map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen::<f32>() }).collect()
}

fn signed(len: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
    (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

/// `c = a·b` with `a [m, k]` ReLU-like and `b [k, n]` dense.
fn bench_forward(c: &mut Criterion, group: &str, shapes: &[(usize, usize, usize)]) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut g = c.benchmark_group(group);
    for &(m, k, n) in shapes {
        let a = relu_like(m * k, &mut rng);
        let b = signed(k * n, &mut rng);
        let mut out = vec![0.0; m * n];
        g.bench_with_input(BenchmarkId::new("matmul", format!("{m}x{k}x{n}")), &m, |bench, _| {
            bench.iter(|| {
                kernels::matmul(black_box(&a), black_box(&b), black_box(&mut out), m, k, n);
            });
        });
    }
    g.finish();
}

/// `dW += Xᵀ·dC` with `X [e, m]` ReLU-like and `dC [e, n]` dense.
fn bench_weight_grad(c: &mut Criterion, group: &str, shapes: &[(usize, usize, usize)]) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut g = c.benchmark_group(group);
    for &(e, m, n) in shapes {
        let x = relu_like(e * m, &mut rng);
        let dc = signed(e * n, &mut rng);
        let mut dw = vec![0.0; m * n];
        let id = BenchmarkId::new("matmul_at_b_acc", format!("{e}x{m}x{n}"));
        g.bench_with_input(id, &e, |bench, _| {
            bench.iter(|| {
                kernels::matmul_at_b_acc(
                    black_box(&x),
                    black_box(&dc),
                    black_box(&mut dw),
                    m,
                    e,
                    n,
                );
            });
        });
    }
    g.finish();
}

fn bench_message(c: &mut Criterion) {
    let shapes: Vec<_> = EDGES.iter().map(|&e| (e, 32, 32)).collect();
    bench_forward(c, "kernel_message", &shapes);
}

fn bench_attention(c: &mut Criterion) {
    let shapes: Vec<_> = EDGES.iter().map(|&e| (e, 72, 1)).collect();
    bench_forward(c, "kernel_attention", &shapes);
}

fn bench_composition(c: &mut Criterion) {
    bench_forward(c, "kernel_composition", &[(1, 4, 1024)]);
}

fn bench_message_dw(c: &mut Criterion) {
    let shapes: Vec<_> = EDGES.iter().map(|&e| (e, 32, 32)).collect();
    bench_weight_grad(c, "kernel_message_dw", &shapes);
}

fn bench_attention_dw(c: &mut Criterion) {
    let shapes: Vec<_> = EDGES.iter().map(|&e| (e, 72, 1)).collect();
    bench_weight_grad(c, "kernel_attention_dw", &shapes);
}

criterion_group!(
    benches,
    bench_message,
    bench_attention,
    bench_composition,
    bench_message_dw,
    bench_attention_dw
);
criterion_main!(benches);
