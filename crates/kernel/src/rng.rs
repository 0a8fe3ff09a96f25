//! Deterministic pseudo random number generation.
//!
//! The accuracy experiment of the paper (Table 1) compares the RTL model and
//! the transaction-level model *on the same master traffic*. For the
//! comparison to be meaningful, both models must observe bit-identical
//! stimulus, which requires the workload generators to be fully
//! deterministic. [`SimRng`] is a small, self-contained xoshiro256**
//! generator seeded through SplitMix64 — the same construction used by many
//! simulators — so a `(seed, master id)` pair always reproduces the same
//! request stream, independent of platform or crate versions.

/// Deterministic pseudo random number generator (xoshiro256**).
///
/// # Example
///
/// ```
/// use simkern::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let die = a.range_u64(1, 7);
/// assert!((1..7).contains(&die));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created with the same seed produce identical streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Derives an independent child generator, e.g. one per master.
    ///
    /// The derivation mixes the `stream` identifier into the seed so that
    /// different streams are decorrelated but still reproducible.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Self {
        let mut sm = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns a value uniformly distributed in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range [{low}, {high})");
        let span = high - low;
        // Rejection-free multiply-shift mapping (Lemire). The tiny modulo bias
        // of the plain `%` approach is irrelevant for traffic generation, but
        // this is cheap and exact enough.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                l = m as u64;
            }
        }
        low + (m >> 64) as u64
    }

    /// Returns `true` with probability `permille / 1000`.
    ///
    /// Probabilities are expressed in per-mille so that workload
    /// configurations stay in integer space and remain exactly reproducible.
    pub fn chance_permille(&mut self, permille: u32) -> bool {
        if permille >= 1000 {
            return true;
        }
        self.range_u64(0, 1000) < u64::from(permille)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks an index according to integer weights.
    ///
    /// Returns `None` if `weights` is empty or all weights are zero.
    pub fn pick_weighted(&mut self, weights: &[u32]) -> Option<usize> {
        let total: u64 = weights.iter().map(|w| u64::from(*w)).sum();
        if total == 0 {
            return None;
        }
        let mut roll = self.range_u64(0, total);
        for (index, weight) in weights.iter().enumerate() {
            let weight = u64::from(*weight);
            if roll < weight {
                return Some(index);
            }
            roll -= weight;
        }
        None
    }

    /// Returns a geometrically distributed burst-gap length in
    /// `[1, cap]` with per-trial continuation probability `permille / 1000`.
    ///
    /// Used to synthesize bursty idle gaps between requests.
    pub fn geometric(&mut self, permille: u32, cap: u64) -> u64 {
        let cap = cap.max(1);
        let mut value = 1;
        while value < cap && self.chance_permille(permille) {
            value += 1;
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(0xDEAD_BEEF);
        let mut b = SimRng::new(0xDEAD_BEEF);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be decorrelated");
    }

    #[test]
    fn fork_is_deterministic_and_distinct() {
        let root = SimRng::new(7);
        let mut child_a = root.fork(3);
        let mut child_a2 = root.fork(3);
        let mut child_b = root.fork(4);
        assert_eq!(child_a.next_u64(), child_a2.next_u64());
        assert_ne!(child_a.next_u64(), child_b.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SimRng::new(99);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SimRng::new(1);
        let _ = rng.range_u64(5, 5);
    }

    #[test]
    fn chance_permille_extremes() {
        let mut rng = SimRng::new(5);
        assert!(rng.chance_permille(1000));
        assert!(rng.chance_permille(1500));
        let hits = (0..1000).filter(|_| rng.chance_permille(0)).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn chance_permille_is_roughly_calibrated() {
        let mut rng = SimRng::new(123);
        let hits = (0..10_000).filter(|_| rng.chance_permille(250)).count();
        // 25% +- 3% over 10k trials.
        assert!((2200..=2800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::new(321);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn pick_weighted_follows_weights() {
        let mut rng = SimRng::new(17);
        let weights = [0, 3, 1];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            let idx = rng.pick_weighted(&weights).expect("non-zero weights");
            counts[idx] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 2, "counts = {counts:?}");
    }

    #[test]
    fn pick_weighted_handles_degenerate_inputs() {
        let mut rng = SimRng::new(17);
        assert_eq!(rng.pick_weighted(&[]), None);
        assert_eq!(rng.pick_weighted(&[0, 0]), None);
        assert_eq!(rng.pick_weighted(&[0, 5, 0]), Some(1));
    }

    #[test]
    fn geometric_respects_cap() {
        let mut rng = SimRng::new(2);
        for _ in 0..200 {
            let v = rng.geometric(900, 8);
            assert!((1..=8).contains(&v));
        }
        // Probability zero never extends beyond one.
        assert_eq!(rng.geometric(0, 8), 1);
    }
}
