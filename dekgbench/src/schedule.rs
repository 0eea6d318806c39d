//! Seeded open-loop arrival schedules.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Due times, in seconds from the start of a step, of `n` Poisson
/// arrivals at `rate` per second. A pure function of its arguments.
///
/// # Panics
/// If `rate` is not positive.
pub fn poisson(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Exponential gap by inversion; 1 - u keeps ln away from 0.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(poisson(5, 100.0, 300), poisson(5, 100.0, 300));
        assert_ne!(poisson(5, 100.0, 300), poisson(6, 100.0, 300));
    }

    #[test]
    fn schedule_is_increasing_with_the_right_mean_rate() {
        let s = poisson(11, 200.0, 4000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        let rate = s.len() as f64 / s[s.len() - 1];
        assert!((rate - 200.0).abs() < 200.0 * 0.06, "observed rate {rate}");
    }
}
