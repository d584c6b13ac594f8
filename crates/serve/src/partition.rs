//! Community-aware keyspace partitioning for the sharded service.
//!
//! The router's placement problem: cross-shard edges are the expensive
//! part of sharded label propagation (every one needs the boundary
//! exchange of [`crate::exchange`]), so users who cluster together
//! should land on the same shard. A plain `hash(user) % shards` scatters
//! every community across every shard — correct but worst-case for the
//! exchange. The [`Partitioner`] instead hashes the user's *community*
//! when one is known (all members land together), falls back to hashing
//! the user id when not, or places a fixed community set round-robin
//! ([`Partitioner::balanced`]). Hashing is a fixed SplitMix64-style mix,
//! seeded, so placement is deterministic across runs and processes — a prerequisite for the fleet's byte-identity
//! guarantee and for per-shard checkpoint recovery (a restarted fleet
//! must route every user to the shard that holds its history).

use std::collections::HashMap;

/// Deterministic community-aware `user → shard` map.
#[derive(Clone, Debug)]
pub struct Partitioner {
    shards: usize,
    seed: u64,
    /// `user → community` for users with a known community.
    community_of: HashMap<u32, u32>,
    /// `community → shard` placements overriding the hash (set by
    /// [`Self::balanced`]).
    overrides: HashMap<u32, usize>,
}

impl Partitioner {
    /// A community-blind partitioner: every user is hashed individually.
    pub fn hashed(shards: usize, seed: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self {
            shards,
            seed,
            community_of: HashMap::new(),
            overrides: HashMap::new(),
        }
    }

    /// A community-aware partitioner: users in `communities` are placed
    /// by their community (co-locating each community on one shard),
    /// unknown users by their own id.
    pub fn with_communities(
        shards: usize,
        seed: u64,
        communities: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut p = Self::hashed(shards, seed);
        p.community_of = communities.into_iter().collect();
        p
    }

    /// A community-aware partitioner that places the *fixed* community
    /// set round-robin in deterministic hash order, so shard loads stay
    /// near-uniform even when there are only a handful of communities
    /// (where plain community hashing routinely lands 3-vs-1). The
    /// trade-off against [`Self::with_communities`]: growing the
    /// community set later reshuffles placement, so this is for fleets
    /// whose communities are known at start — the work-split test of
    /// `tests/determinism.rs` and any deployment partitioned by a fixed
    /// region map.
    pub fn balanced(
        shards: usize,
        seed: u64,
        communities: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut p = Self::with_communities(shards, seed, communities);
        let mut cs: Vec<u32> = p.community_of.values().copied().collect();
        cs.sort_unstable();
        cs.dedup();
        // Deterministic shuffle, then round-robin: communities with
        // adjacent ids do not pile onto adjacent shards.
        cs.sort_by_key(|&c| (mix(seed ^ COMMUNITY_TAG ^ u64::from(c)), c));
        for (i, &c) in cs.iter().enumerate() {
            p.overrides.insert(c, i % shards);
        }
        p
    }

    /// Number of shards this partitioner routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `user`.
    pub fn shard_of(&self, user: u32) -> usize {
        match self.community_of.get(&user) {
            Some(&c) => match self.overrides.get(&c) {
                Some(&s) => s,
                // Tag community hashes so a community id and a bare user
                // id never collide into correlated placement.
                None => {
                    (mix(self.seed ^ COMMUNITY_TAG ^ u64::from(c)) % self.shards as u64) as usize
                }
            },
            None => (mix(self.seed ^ u64::from(user)) % self.shards as u64) as usize,
        }
    }
}

/// Domain tag separating community-id hashes from user-id hashes.
const COMMUNITY_TAG: u64 = 0xC0AB_5EA7_ED00_0001;

/// SplitMix64 finalizer — a fixed, portable 64-bit mix.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let p = Partitioner::hashed(1, 7);
        assert!((0..1_000).all(|u| p.shard_of(u) == 0));
    }

    #[test]
    fn hashed_placement_is_deterministic_and_balanced() {
        let p = Partitioner::hashed(4, 42);
        let q = Partitioner::hashed(4, 42);
        let mut counts = [0usize; 4];
        for u in 0..10_000u32 {
            let s = p.shard_of(u);
            assert_eq!(s, q.shard_of(u), "placement must be deterministic");
            counts[s] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Fair hash: each shard within ±25% of the uniform share.
            assert!(
                (1_875..=3_125).contains(&c),
                "shard {i} got {c} of 10000 users"
            );
        }
    }

    #[test]
    fn communities_are_co_located() {
        // 100 communities of 50 users each.
        let map = (0..5_000u32).map(|u| (u, u / 50));
        let p = Partitioner::with_communities(4, 42, map);
        for c in 0..100u32 {
            let home = p.shard_of(c * 50);
            assert!(
                (0..50).all(|i| p.shard_of(c * 50 + i) == home),
                "community {c} split across shards"
            );
        }
    }

    #[test]
    fn balanced_placement_spreads_few_communities_evenly() {
        // 8 equal communities on 4 shards: exactly 2 each, co-located,
        // and deterministic across instances.
        let map = || (0..800u32).map(|u| (u, u / 100));
        let p = Partitioner::balanced(4, 7, map());
        let q = Partitioner::balanced(4, 7, map());
        let mut per_shard = [0usize; 4];
        for c in 0..8u32 {
            let home = p.shard_of(c * 100);
            assert_eq!(home, q.shard_of(c * 100), "placement must be stable");
            assert!(
                (0..100).all(|i| p.shard_of(c * 100 + i) == home),
                "community {c} split across shards"
            );
            per_shard[home] += 1;
        }
        assert_eq!(per_shard, [2, 2, 2, 2], "round-robin must balance");
    }
}
