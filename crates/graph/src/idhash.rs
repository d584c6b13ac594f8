//! Hash maps keyed by integer ids.
//!
//! The serving stack keys its maps by raw user / item ids and rebuilds them
//! per window and per exchange round; SipHash (std's default) was a quarter
//! of a fleet round there. [`IdHashBuilder`] is seeded multiply-shift: one
//! (widening) multiplication per integer written. The multiplier is a random odd
//! number drawn per map from std's [`RandomState`], so ids chosen by
//! whoever produces the transactions cannot be aimed at one bucket — which
//! a fixed multiplier (FxHash) would allow.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by integer ids, hashed by [`IdHashBuilder`]. Build
/// with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, IdHashBuilder>;

/// A `HashSet` of integer ids, hashed by [`IdHashBuilder`]. Build with
/// `IdSet::default()`.
pub type IdSet<K> = HashSet<K, IdHashBuilder>;

/// Seeded multiply-shift hashing for integer keys: each `default()` draws
/// its own random odd multiplier; a clone hashes like its original.
#[derive(Clone, Debug)]
pub struct IdHashBuilder {
    multiplier: u64,
}

impl Default for IdHashBuilder {
    fn default() -> Self {
        Self {
            multiplier: RandomState::new().hash_one(0u64) | 1,
        }
    }
}

impl BuildHasher for IdHashBuilder {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            multiplier: self.multiplier,
            state: 0,
        }
    }
}

/// The [`Hasher`] of [`IdHashBuilder`].
#[derive(Clone, Debug)]
pub struct IdHasher {
    multiplier: u64,
    state: u64,
}

impl Hasher for IdHasher {
    /// Non-integer keys work, eight bytes a multiplication.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    /// A product's well-mixed bits are its high ones, and hashbrown
    /// indexes buckets by a hash's low bits: the high half of the full
    /// 128-bit product is folded onto the low half, so every bit of the key
    /// reaches the index whatever its position.
    fn write_u64(&mut self, i: u64) {
        let product = u128::from(self.state ^ i) * u128::from(self.multiplier);
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IdMap<u32, u32> = IdMap::default();
        let mut s: IdSet<u64> = IdSet::default();
        for i in 0..10_000u32 {
            assert_eq!(m.insert(i.wrapping_mul(64), i), None);
            assert!(s.insert(u64::from(i) << 32 | 7));
        }
        assert_eq!((m.len(), s.len()), (10_000, 10_000));
        for i in 0..10_000u32 {
            assert_eq!(m.get(&i.wrapping_mul(64)), Some(&i));
            assert!(s.contains(&(u64::from(i) << 32 | 7)));
        }
        assert_eq!(m.get(&1), None);
        // A clone keeps the multiplier: equal maps stay equal.
        assert_eq!(m.clone(), m);
    }

    #[test]
    fn each_map_draws_its_own_odd_multiplier() {
        let draws: Vec<u64> = (0..8)
            .map(|_| IdHashBuilder::default().multiplier)
            .collect();
        assert!(draws.iter().all(|m| m % 2 == 1));
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "{draws:?}");
    }

    /// Strided ids (multiples of a power of two) differ only in bits a
    /// product leaves zero at the bottom: without the fold every one of
    /// them lands in hashbrown's bucket 0.
    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        for multiplier in [
            0x9E37_79B9_7F4A_7C15u64,
            0xD6E8_FEB8_6659_FD93,
            0xA076_1D64_78BD_642F,
        ] {
            let b = IdHashBuilder { multiplier };
            for shift in [12, 40] {
                let mut buckets = [0u32; 256];
                for i in 0..4096u64 {
                    buckets[(b.hash_one(i << shift) & 255) as usize] += 1;
                }
                // 16 per bucket expected.
                let worst = buckets.iter().max().unwrap();
                assert!(*worst <= 40, "worst bucket holds {worst} at shift {shift}");
            }
        }
    }
}
