//! Offline stand-in for the subset of `criterion` this workspace's one
//! microbench (`bench_kernels`) uses: [`Criterion::default`], benchmark
//! groups with [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`],
//! [`Bencher::iter`], and the plain [`criterion_group!`]/
//! [`criterion_main!`] forms.
//!
//! Statistical analysis (outlier detection, regression fitting, HTML
//! reports) is intentionally absent. `iter` warms up once, then times
//! batches of calls against the measurement budget and prints the mean
//! wall-clock time per iteration — enough to compare kernels locally
//! while keeping the bench compiling and runnable offline.

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark configuration and entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { config: self.clone(), name: name.into(), _parent: self }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    config: Criterion,
    name: String,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs a benchmark parameterized by `input`.
    // By-value `id` matches the real criterion signature.
    #[allow(clippy::needless_pass_by_value)]
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        let mut bencher = Bencher {
            sample_size: self.config.sample_size,
            measurement_time: self.config.measurement_time,
            warm_up_time: self.config.warm_up_time,
            mean: None,
            iterations: 0,
        };
        f(&mut bencher, input);
        match bencher.mean {
            // lint: print-ok — bench reporter: stdout IS the deliverable of a criterion run
            Some(mean) => println!(
                "bench: {label:<40} {:>12.3} ns/iter ({} iterations)",
                mean.as_nanos() as f64,
                bencher.iterations
            ),
            // lint: print-ok — bench reporter: stdout IS the deliverable of a criterion run
            None => println!("bench: {label:<40} (no measurement)"),
        }
        self
    }

    /// Ends the group (reporting is per-benchmark, so this is a no-op).
    pub fn finish(self) {}
}

/// Identifies a benchmark by function name and parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function/parameter` id.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{function}/{parameter}") }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label)
    }
}

/// Passed to each benchmark closure; [`Bencher::iter`] does the timing.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    mean: Option<Duration>,
    iterations: u64,
}

impl Bencher {
    /// Times repeated calls of `f` and records the mean duration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: at least one call, until the warm-up budget is spent.
        let warm_start = Instant::now();
        loop {
            black_box(f());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }

        // Measurement: up to `sample_size` samples within the budget.
        let mut total = Duration::ZERO;
        let mut count: u64 = 0;
        let budget_start = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            total += t0.elapsed();
            count += 1;
            if budget_start.elapsed() >= self.measurement_time {
                break;
            }
        }

        if count > 0 {
            self.mean = Some(total / u32::try_from(count).unwrap_or(u32::MAX));
            self.iterations = count;
        }
    }
}

/// Bundles benchmark functions into a runner over a default
/// [`Criterion`] (criterion's plain-list form).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        // Generated runner: callers name it, rustdoc adds nothing.
        #[allow(missing_docs)]
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Criterion {
        Criterion {
            sample_size: 2,
            measurement_time: Duration::from_millis(10),
            warm_up_time: Duration::from_millis(1),
        }
    }

    #[test]
    fn group_labels_and_inputs() {
        let mut c = quick();
        let mut group = c.benchmark_group("g");
        let input = 21u64;
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::new("double", input), &input, |b, &i| {
            b.iter(|| seen = i * 2);
        });
        group.finish();
        assert_eq!(seen, 42);
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
    }

    criterion_group!(plain_form, noop_bench);

    fn noop_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("noop");
        group.bench_with_input(BenchmarkId::new("add", 1), &1, |b, &i| b.iter(|| i + 1));
        group.finish();
    }

    #[test]
    fn macro_forms_expand() {
        // The expansion must produce a callable function.
        let _: fn() = plain_form;
    }
}
