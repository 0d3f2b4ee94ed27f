//! A small seeded generator (SplitMix64): the benchmark's inputs are a
//! pure function of `--seed`, and the harness must not depend on the
//! workspace's `rand` shim staying bit-stable.

/// SplitMix64 — 64 bits of state, passes BigCrush, one multiply-xorshift
/// chain per draw.
#[derive(Clone, Debug)]
pub struct Rng(u64);

/// One SplitMix64 output step; also the hash that decides which timed
/// requests are kept for answer checking.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// An independent stream per `(seed, label)`, so adding a draw to one
    /// generator never shifts another's output.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut h = mix(seed ^ 0x9E37_79B9_7F4A_7C15);
        for b in label.bytes() {
            h = mix(h ^ u64::from(b));
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift reduction's bias is
    /// below 2⁻³² for the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) over ranks `0..n`, sampled by inverting a precomputed CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
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
    fn streams_repeat_per_seed_and_differ_across_seeds_and_labels() {
        let draw = |seed, label| {
            let mut r = Rng::derive(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, "a"), draw(42, "a"));
        assert_ne!(draw(42, "a"), draw(43, "a"));
        assert_ne!(draw(42, "a"), draw(42, "b"));
    }

    #[test]
    fn below_and_shuffle_stay_in_range() {
        let mut r = Rng::derive(1, "t");
        assert!((0..1000).all(|_| r.below(7) < 7));
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::derive(3, "z");
        let mut hits = [0u32; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[9] && hits[9] > hits[99]);
        // Rank 0 carries 1/H_100 ≈ 19 % of the mass.
        assert!((3400..4300).contains(&hits[0]), "{}", hits[0]);
    }
}
