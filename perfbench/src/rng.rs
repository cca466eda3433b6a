//! Seeded randomness: a SplitMix64 generator and a Zipf sampler. Every
//! input the benchmark sends is a pure function of `--seed`.

/// SplitMix64: tiny, fast, and good enough for drawing workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BA4C_5EED_BA4C)
    }

    /// A generator for one named purpose, independent of the others
    /// drawn from the same seed (adding a stream never shifts another).
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank `k` has weight
/// `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "q").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, "q").next_u64(),
            Rng::stream(7, "w").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "q").next_u64(),
            Rng::stream(8, "q").next_u64()
        );
    }

    #[test]
    fn zipf_head_takes_its_share() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(3);
        let n = 20_000;
        let head = (0..n).filter(|_| z.sample(&mut rng) == 0).count();
        // H(100) ≈ 5.187, so rank 0 has probability ≈ 0.193.
        let share = head as f64 / n as f64;
        assert!((share - 0.193).abs() < 0.015, "{share}");
    }
}
