//! Zipf-distributed rank sampler for the PREDICT request stream.

use rand::Rng;

/// Samples ranks `0..n` with `P(k) ∝ 1 / (k + 1)^s` by inverting the
/// cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics if `n` is 0 or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(
            n > 0 && s.is_finite(),
            "Zipf needs n >= 1 and a finite exponent"
        );
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(seed: u64, count: usize) -> Vec<usize> {
        let zipf = Zipf::new(2000, 1.1);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_ranks() {
        assert_eq!(draw(11, 5000), draw(11, 5000));
        assert_ne!(draw(11, 5000), draw(12, 5000));
    }

    #[test]
    fn ranks_are_skewed_toward_the_head() {
        let ranks = draw(3, 20_000);
        assert!(ranks.iter().all(|&r| r < 2000));
        let head = ranks.iter().filter(|&&r| r == 0).count();
        let tenth = ranks.iter().filter(|&&r| r == 9).count();
        // P(0) / P(9) = 10^1.1 ≈ 12.6.
        assert!(head > 8 * tenth, "head {head}, rank 9 {tenth}");
    }
}
