//! A seeded property-test harness on [`SplitMix64`]: [`check`] draws every
//! run's cases from one fixed seed sequence and names a failing case's input
//! and seed, which `test(gen(&mut Gen::new(seed)))` replays. There is no
//! shrinking: pin a found input as an explicit case instead.

use crate::rng::SplitMix64;
use std::fmt::Debug;
use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The random source one case draws its input from.
pub struct Gen(SplitMix64);

/// The unsigned integer types [`Gen::int`] draws, widened to `u64`.
pub trait Int: Copy {
    /// Narrows the value, truncating.
    fn from_u64(v: u64) -> Self;
    /// Widens the value.
    fn to_u64(self) -> u64;
}

macro_rules! int {
    ($($t:ty),*) => {$(impl Int for $t {
        fn from_u64(v: u64) -> Self { v as $t }
        fn to_u64(self) -> u64 { self as u64 }
    })*};
}
int!(u8, u16, u32, u64, usize);

impl Gen {
    /// The generator for the case with this seed.
    pub fn new(seed: u64) -> Gen {
        Gen(SplitMix64::new(seed))
    }

    /// A uniform integer in `range`; `..` spans the whole type.
    pub fn int<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let lo = match range.start_bound() {
            Bound::Included(x) => x.to_u64(),
            Bound::Excluded(x) => x.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(x) => x.to_u64(),
            Bound::Excluded(x) => x.to_u64().checked_sub(1).expect("empty range"),
            Bound::Unbounded => T::from_u64(u64::MAX).to_u64(),
        };
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u128 + 1;
        T::from_u64(lo + ((self.0.next_u64() as u128 * span) >> 64) as u64)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.0.bool()
    }

    /// A uniform `f64` in `[0, 1]`, both ends included.
    pub fn unit(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64
    }

    /// A vector whose length is drawn from `len` and whose items `item` draws.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A string whose length is drawn from `len`, over `alphabet`'s chars.
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = self.int(len);
        (0..n).map(|_| chars[self.int(..chars.len())]).collect()
    }
}

/// Runs `test` on `cases` inputs drawn by `gen`; panics on the first
/// failing case, naming its input and seed.
pub fn check<T: Debug>(cases: u32, gen: impl Fn(&mut Gen) -> T, test: impl Fn(T)) {
    let mut seeds = SplitMix64::new(0x5EED);
    for case in 0..cases {
        let seed = seeds.next_u64();
        if catch_unwind(AssertUnwindSafe(|| test(gen(&mut Gen::new(seed))))).is_err() {
            let input = gen(&mut Gen::new(seed));
            panic!("property failed on case {case}, input {input:?}, seed {seed}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_stay_in_range_and_reach_both_ends() {
        let mut g = Gen::new(1);
        let drawn: Vec<u8> = (0..500).map(|_| g.int(3..=7)).collect();
        assert!(drawn.iter().all(|x| (3..=7).contains(x)));
        assert!(drawn.contains(&3) && drawn.contains(&7));
        assert_eq!(g.int::<u64>(u64::MAX..), u64::MAX);
    }

    #[test]
    fn a_failure_names_a_seed_that_replays_its_input() {
        let gen = |g: &mut Gen| g.vec(1..4, |g| g.int::<u16>(..));
        let err = catch_unwind(|| check(64, gen, |v| assert!(v[0] % 4 != 3))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        let seed = msg.rsplit(' ').next().unwrap().parse().unwrap();
        let input = gen(&mut Gen::new(seed));
        assert_eq!(input[0] % 4, 3);
        assert!(msg.contains(&format!("input {input:?}")), "{msg}");
    }
}
