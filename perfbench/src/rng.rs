//! Seeded input generation.
//!
//! Every generated input (profiler noise seeds, straggler and drift
//! traces, structure choice, tenants, degrees) comes from a [`Stream`]
//! derived from the run's `--seed` and a stream name, so adding a draw to
//! one stream never shifts another.

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Stream {
    state: u64,
}

impl Stream {
    /// The stream named `name` under run seed `seed`.
    pub fn new(seed: u64, name: &str) -> Stream {
        // FNV-1a over the name, folded into the seed, then one mixing
        // step so nearby seeds start far apart.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut s = Stream {
            state: seed ^ h.rotate_left(17),
        };
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seed of setup `k` of a run seeded `seed`: every setup draws fresh
/// inputs, so a run's medians average over several draws instead of
/// resting on one.
pub fn setup_seed(seed: u64, k: usize) -> u64 {
    Stream::new(seed, &format!("setup-{k}")).next_u64()
}

#[cfg(test)]
mod tests {
    use super::{setup_seed, Stream};

    #[test]
    fn same_seed_and_name_repeat() {
        let a: Vec<u64> = (0..8)
            .scan(Stream::new(7, "x"), |s, _| Some(s.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Stream::new(7, "x"), |s, _| Some(s.next_u64()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_and_names_separate_streams() {
        let first = |seed, name| Stream::new(seed, name).next_u64();
        assert_ne!(first(7, "x"), first(8, "x"));
        assert_ne!(first(7, "x"), first(7, "y"));
    }

    #[test]
    fn setups_draw_distinct_seeds() {
        assert_ne!(setup_seed(7, 0), setup_seed(7, 1));
        assert_ne!(setup_seed(7, 0), setup_seed(8, 0));
        assert_eq!(setup_seed(7, 3), setup_seed(7, 3));
    }

    #[test]
    fn draws_stay_in_range() {
        let mut s = Stream::new(1, "r");
        for _ in 0..1000 {
            let u = s.unit();
            assert!((0.0..1.0).contains(&u));
            let r = s.range(1.1, 1.5);
            assert!((1.1..1.5).contains(&r));
            assert!(s.below(3) < 3);
        }
    }
}
