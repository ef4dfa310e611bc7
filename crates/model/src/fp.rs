//! 128-bit state fingerprints and the seen-set dedup policy.
//!
//! The production explorer ([`crate::parallel`]) deduplicates discovered
//! states by a 128-bit fingerprint: two independently-seeded 64-bit
//! hashes, each finalized through a [`SplitMix64`] round so related inputs
//! do not produce related keys. Fingerprints are deterministic across
//! threads and shard counts — the same state always fingerprints to the
//! same value — which is what lets the sharded checker route hash
//! ownership and keep its seen-sets as 16-byte keys instead of whole
//! states.
//!
//! A fingerprint collision (two distinct reachable states with the same
//! 128 bits) would merge two states silently. With two independent 64-bit
//! hashes the chance is cryptographically negligible at any state count
//! this repo can enumerate; the differential suites pin fingerprint runs
//! against the exact-dedup reference explorer
//! ([`crate::explore::reachable_states`]) regardless.

use crate::rng::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Seed separating the second hash stream from the first (the SplitMix64
/// golden gamma).
const SECOND_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// How the sharded explorer's seen-set identifies states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dedup {
    /// Deduplicate by 128-bit fingerprint: 16 bytes per seen state. The
    /// default.
    #[default]
    Fingerprint,
    /// Fingerprint dedup with a Bloom pre-filter in front of the precise
    /// seen-set. The Bloom filter answers "definitely new" without probing
    /// the precise set; a "maybe seen" falls through to the precise probe,
    /// so the filter never changes which states are admitted — only how
    /// many precise probes a sweep pays for. False positives are counted
    /// in [`crate::canon::ReductionStats`].
    Bloom(BloomParams),
}

impl Dedup {
    /// The Bloom pre-filter parameters, if this policy carries one.
    #[inline]
    pub fn bloom_params(&self) -> Option<BloomParams> {
        match self {
            Dedup::Bloom(p) => Some(*p),
            Dedup::Fingerprint => None,
        }
    }
}

/// Shape of a Bloom pre-filter: `2^bits_log2` bits probed by `hashes`
/// indices derived from the 128-bit state key and `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BloomParams {
    /// log2 of the bit-array size. 20 → 1 Mbit = 128 KiB.
    pub bits_log2: u8,
    /// Number of probe indices per key (k). 4 is a good default for the
    /// occupancies this repo reaches.
    pub hashes: u8,
    /// Seed mixed into the probe derivation so false-positive patterns are
    /// reproducible per seed and shiftable across runs.
    pub seed: u64,
}

impl Default for BloomParams {
    fn default() -> Self {
        BloomParams {
            bits_log2: 20,
            hashes: 4,
            seed: 0,
        }
    }
}

/// A plain Bloom filter over 128-bit keys.
///
/// Probe indices use double hashing: two 64-bit streams `g1`, `g2` are
/// derived from the key halves and the seed via [`SplitMix64`], and probe
/// `j` lands on bit `(g1 + j·g2) mod 2^bits_log2`. Insertion and query are
/// deterministic for a given `BloomParams`, which is what lets the
/// sharded explorer pin false-positive counts run to run.
#[derive(Debug, Clone)]
pub struct Bloom {
    bits: Vec<u64>,
    mask: u64,
    hashes: u8,
    seed: u64,
    entries: u64,
}

impl Bloom {
    /// An empty filter with the given shape.
    pub fn new(params: BloomParams) -> Self {
        let nbits = 1u64 << params.bits_log2.min(40);
        Bloom {
            bits: vec![0u64; (nbits / 64).max(1) as usize],
            mask: nbits - 1,
            hashes: params.hashes.max(1),
            seed: params.seed,
            entries: 0,
        }
    }

    #[inline]
    fn streams(&self, key: u128) -> (u64, u64) {
        let g1 = SplitMix64::new(self.seed ^ key as u64).next_u64();
        let g2 = SplitMix64::new(self.seed ^ (key >> 64) as u64).next_u64();
        // An even g2 would cycle through a subgroup of the (power-of-two)
        // index space; force it odd so probes cover all bits.
        (g1, g2 | 1)
    }

    /// Marks the key present.
    pub fn insert(&mut self, key: u128) {
        let (g1, g2) = self.streams(key);
        for j in 0..self.hashes as u64 {
            let bit = g1.wrapping_add(j.wrapping_mul(g2)) & self.mask;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.entries += 1;
    }

    /// `false` means the key was definitely never inserted; `true` means it
    /// may have been.
    pub fn may_contain(&self, key: u128) -> bool {
        let (g1, g2) = self.streams(key);
        (0..self.hashes as u64).all(|j| {
            let bit = g1.wrapping_add(j.wrapping_mul(g2)) & self.mask;
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Number of keys inserted so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Filter size in bytes.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// The 128-bit fingerprint of a hashable value.
#[inline]
pub fn fingerprint<T: Hash>(value: &T) -> u128 {
    let mut h1 = DefaultHasher::new();
    value.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    h2.write_u64(SECOND_STREAM);
    value.hash(&mut h2);
    let hi = SplitMix64::new(h1.finish()).next_u64();
    let lo = SplitMix64::new(h2.finish()).next_u64();
    ((hi as u128) << 64) | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_value_sensitive() {
        assert_eq!(fingerprint(&(1u32, "a")), fingerprint(&(1u32, "a")));
        assert_ne!(fingerprint(&(1u32, "a")), fingerprint(&(2u32, "a")));
        assert_ne!(fingerprint(&(1u32, "a")), fingerprint(&(1u32, "b")));
    }

    #[test]
    fn halves_are_independent_streams() {
        let fp = fingerprint(&42u64);
        assert_ne!((fp >> 64) as u64, fp as u64);
    }

    #[test]
    fn default_dedup_is_fingerprint() {
        assert_eq!(Dedup::default(), Dedup::Fingerprint);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bloom = Bloom::new(BloomParams {
            bits_log2: 12,
            hashes: 4,
            seed: 9,
        });
        let keys: Vec<u128> = (0..500u64).map(|i| fingerprint(&i)).collect();
        for &k in &keys {
            bloom.insert(k);
        }
        assert!(keys.iter().all(|&k| bloom.may_contain(k)));
        assert_eq!(bloom.entries(), 500);
    }

    #[test]
    fn bloom_rejects_most_absent_keys() {
        let mut bloom = Bloom::new(BloomParams::default());
        for i in 0..1000u64 {
            bloom.insert(fingerprint(&i));
        }
        let fps = (1000..2000u64)
            .filter(|i| bloom.may_contain(fingerprint(i)))
            .count();
        // 1 Mbit with 1000 entries: false positives should be essentially
        // absent; allow a generous margin so the test is not flaky by shape.
        assert!(fps < 10, "false positive rate too high: {fps}/1000");
    }

    #[test]
    fn bloom_is_deterministic_per_seed() {
        let params = BloomParams {
            bits_log2: 10,
            hashes: 3,
            seed: 7,
        };
        let mut a = Bloom::new(params);
        let mut b = Bloom::new(params);
        for i in 0..256u64 {
            a.insert(fingerprint(&i));
            b.insert(fingerprint(&i));
        }
        for i in 0..4096u64 {
            let k = fingerprint(&i);
            assert_eq!(a.may_contain(k), b.may_contain(k));
        }
    }
}
