//! xoshiro256++: the one seeded random stream of the workspace.
//!
//! Every synthetic trace, kernel memory image and fault pattern is drawn
//! from a [`SmallRng`]. Results, golden digests, the trace cache and
//! trained artifacts all depend on its exact output, so the repository
//! owns the generator rather than borrowing one from a crate whose
//! streams may change between releases. The stream is the one `rand`
//! 0.8's `SmallRng` produces on 64-bit targets: xoshiro256++ seeded by
//! SplitMix64, with its `Standard` float and `u32` conversions and
//! Lemire's unbiased range reduction.
//!
//! ```
//! use bustrace::rng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! assert_eq!(rng.next_u64(), 0x5317_5d61_490b_23df);
//! assert!(rng.below(10) < 10);
//! ```

/// A small, fast, seedable generator (xoshiro256++). Not
/// cryptographically secure; the workspace needs only determinism.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed by SplitMix64 expansion.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 random bits: the high half of one [`next_u64`](Self::next_u64).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 significant bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)` with 24 significant bits.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniform draw from `0..n`, unbiased by Lemire's widening-multiply
    /// rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample below zero");
        let zone = n.wrapping_neg() % n; // number of biased low results
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if (m as u64) >= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        self.next_f64() < p
    }

    /// Shuffles `items` uniformly in place (Fisher–Yates).
    #[inline]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SmallRng;

    fn draws(seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..8).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
    }

    #[test]
    fn golden_vectors_pin_the_stream() {
        let mut rng = SmallRng::seed_from_u64(0);
        let xs: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            xs,
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc
            ]
        );
        let mut rng = SmallRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            xs,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c
            ]
        );
        let mut rng = SmallRng::seed_from_u64(7);
        let ys: Vec<i32> = (0..6).map(|_| -9 + rng.below(19) as i32).collect();
        assert_eq!(ys, [-8, -6, 4, -1, 9, -1]);
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(rng.below(10) < 10);
            assert!(rng.below(19) < 19);
            assert!(rng.below(3) < 3);
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn below_zero_panics() {
        SmallRng::seed_from_u64(1).below(0);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.next_f64()));
            assert!((0.0..1.0).contains(&rng.next_f32()));
        }
    }

    #[test]
    fn uniformity_is_plausible() {
        // Chi-square-ish sanity: 16 buckets over 64k draws.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut buckets = [0u32; 16];
        for _ in 0..65_536 {
            buckets[rng.below(16) as usize] += 1;
        }
        for &b in &buckets {
            assert!((3_600..=4_600).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
        rng.shuffle::<u32>(&mut []);
    }
}
