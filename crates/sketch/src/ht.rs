//! Bounded open-addressing hash table — the shared-memory HT of Procedure
//! `SharedMemBigNodes` and, with a large capacity, the global-memory GHT.
//!
//! Semantics match the GPU structure: fixed capacity, linear probing with a
//! bounded probe budget, `atomicAdd`-style insert-or-accumulate. An insert
//! is *unsuccessful* (label overflows to the CMS) when the probe budget is
//! exhausted without finding the key or an empty slot.
//!
//! The table remembers which slots it filled (`touched`), so both the
//! per-vertex reset ([`BoundedHashTable::clear`]) and the final scan
//! ([`BoundedHashTable::iter`], [`BoundedHashTable::max_entry`]) cost
//! O(occupied), not O(capacity): on the GPU 32 lanes sweep the slots at
//! once, on the host a slot-by-slot sweep of a mostly empty table would
//! dominate the run.
//!
//! A caller that holds a *run* of weights for one key — the block kernel
//! walking a sorted neighbour list whose labels have converged — need not
//! repeat the probe per weight: [`BoundedHashTable::find_or_claim`] is the
//! probe sequence of `insert_add` on its own, and
//! [`BoundedHashTable::count_mut`] the count it would have added to.

/// Result of [`BoundedHashTable::insert_add`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InsertOutcome {
    /// Key present (inserted or already there); carries the updated count
    /// and the number of probes used (for bank-conflict/cost accounting).
    Added { count: f64, probes: u32 },
    /// Probe budget exhausted; key must overflow to the CMS.
    Full { probes: u32 },
}

/// A resident key's slot, from [`BoundedHashTable::find_or_claim`].
#[derive(Clone, Copy, Debug)]
pub struct Slot(usize);

/// Sentinel for an empty slot.
const EMPTY: u64 = u64::MAX;

/// Fixed-capacity open-addressing hash table with accumulate-on-insert.
///
/// ```
/// use glp_sketch::{BoundedHashTable, InsertOutcome};
/// let mut ht = BoundedHashTable::new(64, 8);
/// assert!(matches!(ht.insert_add(7, 2.0), InsertOutcome::Added { .. }));
/// ht.insert_add(7, 3.0);
/// assert_eq!(ht.get(7), Some(5.0));
/// assert_eq!(ht.max_entry(), Some((7, 5.0)));
/// ```
#[derive(Clone, Debug)]
pub struct BoundedHashTable {
    keys: Vec<u64>,
    counts: Vec<f64>,
    mask: usize,
    probe_limit: u32,
    occupied: usize,
    touched: Vec<usize>,
}

impl BoundedHashTable {
    /// A table with `capacity` slots (rounded up to a power of two) and a
    /// probe budget of `probe_limit` slots per operation.
    ///
    /// # Panics
    /// Panics if `capacity` or `probe_limit` is 0.
    pub fn new(capacity: usize, probe_limit: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(probe_limit > 0, "probe limit must be positive");
        let cap = capacity.next_power_of_two();
        Self {
            keys: vec![EMPTY; cap],
            counts: vec![0.0; cap],
            mask: cap - 1,
            probe_limit: probe_limit.min(cap as u32),
            occupied: 0,
            touched: Vec::new(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Occupied slot count.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Probe budget per operation.
    pub fn probe_limit(&self) -> u32 {
        self.probe_limit
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // Fibonacci multiply-shift; the low bits index the table.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) as usize & self.mask
    }

    /// Inserts `key` with `weight` or accumulates onto its existing count.
    #[inline]
    pub fn insert_add(&mut self, key: u64, weight: f64) -> InsertOutcome {
        debug_assert_ne!(key, EMPTY, "sentinel key");
        let mut slot = self.home(key);
        for probe in 1..=self.probe_limit {
            if self.keys[slot] == key {
                self.counts[slot] += weight;
                return InsertOutcome::Added {
                    count: self.counts[slot],
                    probes: probe,
                };
            }
            if self.keys[slot] == EMPTY {
                self.keys[slot] = key;
                self.counts[slot] = weight;
                self.occupied += 1;
                self.touched.push(slot);
                return InsertOutcome::Added {
                    count: weight,
                    probes: probe,
                };
            }
            slot = (slot + 1) & self.mask;
        }
        InsertOutcome::Full {
            probes: self.probe_limit,
        }
    }

    /// Where `key` lives — the slot already holding it or the empty one it
    /// now claims — and the probes that took, or `Err(probes)` when the
    /// budget is exhausted: the probe sequence and outcome of
    /// [`insert_add`](Self::insert_add) without the add. A caller holding a
    /// *run* of weights for one key probes once and accumulates through
    /// [`count_mut`](Self::count_mut); every `insert_add` of that run would
    /// have walked the same slots to the same end, because a resident key
    /// never moves and a rejected one stays rejected until
    /// [`clear`](Self::clear).
    ///
    /// A claimed slot counts `-0.0`, the identity of `f64` addition
    /// (`-0.0 + w` has the bits of `w` for every `w`; `0.0 + -0.0` has
    /// not), so the first weight added is stored as `insert_add` stores it.
    #[inline]
    pub fn find_or_claim(&mut self, key: u64) -> Result<(Slot, u32), u32> {
        debug_assert_ne!(key, EMPTY, "sentinel key");
        let mut slot = self.home(key);
        for probe in 1..=self.probe_limit {
            let resident = self.keys[slot];
            if resident == key {
                return Ok((Slot(slot), probe));
            }
            if resident == EMPTY {
                self.keys[slot] = key;
                self.counts[slot] = -0.0;
                self.occupied += 1;
                self.touched.push(slot);
                return Ok((Slot(slot), probe));
            }
            slot = (slot + 1) & self.mask;
        }
        Err(self.probe_limit)
    }

    /// The count in a slot [`find_or_claim`](Self::find_or_claim) returned
    /// since the last [`clear`](Self::clear).
    #[inline]
    pub fn count_mut(&mut self, slot: Slot) -> &mut f64 {
        &mut self.counts[slot.0]
    }

    /// Current count for `key`, if present within the probe budget.
    #[inline]
    pub fn get(&self, key: u64) -> Option<f64> {
        let mut slot = self.home(key);
        for _ in 0..self.probe_limit {
            if self.keys[slot] == key {
                return Some(self.counts[slot]);
            }
            if self.keys[slot] == EMPTY {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
        None
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Iterates the occupied `(key, count)` entries in O(occupied), in the
    /// order their keys were first inserted (the `touched` list
    /// [`clear`](Self::clear) already keeps), *not* in slot order: a
    /// mid-degree vertex with 40 neighbours occupies a sixth of its 256
    /// slots, and the 2×max-degree scratch tables of the host engines are
    /// emptier still. Callers must fold the entries order-independently —
    /// every one in the workspace goes through `BestLabel::offer` or
    /// [`max_entry`](Self::max_entry), which are.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.touched
            .iter()
            .map(|&slot| (self.keys[slot], self.counts[slot]))
    }

    /// The full slot scan [`iter`](Self::iter) replaced — O(capacity), slot
    /// order — kept as the oracle the tests compare it against.
    #[cfg(test)]
    fn iter_slots(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &c)| (k, c))
    }

    /// The entry with the maximum count; ties break toward the smaller key
    /// (the workspace-wide deterministic tie rule). `None` when empty.
    pub fn max_entry(&self) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for (k, c) in self.iter() {
            best = match best {
                None => Some((k, c)),
                Some((bk, bc)) if c > bc || (c == bc && k < bk) => Some((k, c)),
                keep => keep,
            };
        }
        best
    }

    /// Empties the table in O(occupied) — the per-vertex reset the engines
    /// use when recycling one scratch table across millions of vertices.
    #[inline]
    pub fn clear(&mut self) {
        for &slot in &self.touched {
            self.keys[slot] = EMPTY;
            self.counts[slot] = 0.0;
        }
        self.touched.clear();
        self.occupied = 0;
    }

    /// Shared-memory footprint: the GPU layout packs a 32-bit label and a
    /// 32-bit count per slot.
    pub fn size_bytes(&self) -> usize {
        self.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `max_entry` fold over an arbitrary entry sequence.
    fn max_of(entries: impl Iterator<Item = (u64, f64)>) -> Option<(u64, f64)> {
        entries.fold(None, |best, (k, c)| match best {
            Some((bk, bc)) if !(c > bc || (c == bc && k < bk)) => Some((bk, bc)),
            _ => Some((k, c)),
        })
    }

    fn sorted(entries: impl Iterator<Item = (u64, f64)>) -> Vec<(u64, f64)> {
        let mut v: Vec<_> = entries.collect();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("counts are finite"));
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After any interleaving of inserts, accumulations, rejected
        /// (`Full`) inserts, clears and reuse, `iter` yields exactly the
        /// occupied slots — the same multiset a full slot scan finds — and
        /// `max_entry` is what the scan's fold gives. Every op is a run of
        /// weights for one key, added through one `find_or_claim` here and
        /// by one `insert_add` per weight on a second table: same outcome
        /// and probes for every lane, and the same table to the bit.
        #[test]
        fn iter_is_the_occupied_set(
            ops in prop::collection::vec((0u8..16, 0u64..48, 0u32..5), 0..300),
            cap in 1usize..40,
            probe in 1u32..6,
        ) {
            let mut ht = BoundedHashTable::new(cap, probe);
            let mut lanewise = ht.clone();
            let bits = |entries: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
                entries.into_iter().map(|(k, c)| (k, c.to_bits())).collect()
            };
            // 48 keys into at most 64 slots under a probe budget of at most
            // 5: rejected (`Full`) inserts are part of the interleaving.
            for (op, key, w) in ops {
                if op == 0 {
                    ht.clear();
                    lanewise.clear();
                } else {
                    // Inexact weights, so the order of the adds shows in the
                    // bits; `-0.0` first, the one weight `0.0 + w` would not
                    // store as itself.
                    let weights = (0..op).map(|lane| match (w, lane) {
                        (0, 0) => -0.0,
                        _ => f64::from(w) + 0.1 * f64::from(lane),
                    });
                    let run = ht.find_or_claim(key);
                    if let Ok((slot, _)) = run {
                        let count = ht.count_mut(slot);
                        let mut sum = *count;
                        for weight in weights.clone() {
                            sum += weight;
                        }
                        *count = sum;
                    }
                    for weight in weights {
                        let lane = match lanewise.insert_add(key, weight) {
                            InsertOutcome::Added { probes, .. } => Ok(probes),
                            InsertOutcome::Full { probes } => Err(probes),
                        };
                        prop_assert_eq!(lane, run.map(|(_, probes)| probes));
                    }
                }
                prop_assert_eq!(sorted(ht.iter()), sorted(ht.iter_slots()));
                prop_assert_eq!(ht.iter().count(), ht.occupied());
                prop_assert_eq!(ht.max_entry(), max_of(ht.iter_slots()));
                // Same entries in the same first-insertion order.
                prop_assert_eq!(bits(ht.iter().collect()), bits(lanewise.iter().collect()));
                prop_assert_eq!(ht.occupied(), lanewise.occupied());
                prop_assert_eq!(bits(ht.max_entry().into_iter().collect()), bits(lanewise.max_entry().into_iter().collect()));
                for key in 0..48 {
                    prop_assert_eq!(ht.get(key).map(f64::to_bits), lanewise.get(key).map(f64::to_bits));
                }
            }
        }
    }

    #[test]
    fn iter_follows_first_insertion_not_slot_order() {
        let mut ht = BoundedHashTable::new(64, 64);
        for k in [40u64, 3, 17, 3, 40, 9] {
            ht.insert_add(k, 1.0);
        }
        let keys: Vec<u64> = ht.iter().map(|e| e.0).collect();
        assert_eq!(keys, [40, 3, 17, 9]);
        assert_eq!(ht.get(3), Some(2.0));
        // Reuse after a clear starts a fresh order.
        ht.clear();
        ht.insert_add(9, 1.0);
        ht.insert_add(40, 1.0);
        assert_eq!(ht.iter().map(|e| e.0).collect::<Vec<_>>(), [9, 40]);
    }

    #[test]
    fn insert_then_accumulate() {
        let mut ht = BoundedHashTable::new(8, 8);
        match ht.insert_add(5, 1.0) {
            InsertOutcome::Added { count, .. } => assert_eq!(count, 1.0),
            full => panic!("{full:?}"),
        }
        match ht.insert_add(5, 2.0) {
            InsertOutcome::Added { count, .. } => assert_eq!(count, 3.0),
            full => panic!("{full:?}"),
        }
        assert_eq!(ht.occupied(), 1);
        assert_eq!(ht.get(5), Some(3.0));
    }

    #[test]
    fn fills_up_then_rejects() {
        let mut ht = BoundedHashTable::new(4, 4);
        let mut accepted = 0;
        let mut rejected = 0;
        for k in 0..64u64 {
            match ht.insert_add(k, 1.0) {
                InsertOutcome::Added { .. } => accepted += 1,
                InsertOutcome::Full { .. } => rejected += 1,
            }
        }
        assert_eq!(accepted, 4, "table has 4 slots");
        assert_eq!(rejected, 60);
        assert_eq!(ht.occupied(), 4);
        // Accumulating onto a resident key still works when full.
        let resident = ht.iter().next().unwrap().0;
        assert!(matches!(
            ht.insert_add(resident, 1.0),
            InsertOutcome::Added { .. }
        ));
    }

    #[test]
    fn probe_limit_can_reject_before_full() {
        let mut ht = BoundedHashTable::new(64, 1);
        // With a probe budget of 1, a key whose home slot is taken by
        // another key is rejected even though the table has room.
        let mut home_taken = None;
        for k in 0..1000u64 {
            match ht.insert_add(k, 1.0) {
                InsertOutcome::Full { probes } => {
                    assert_eq!(probes, 1);
                    home_taken = Some(k);
                    break;
                }
                InsertOutcome::Added { .. } => {}
            }
        }
        assert!(
            home_taken.is_some(),
            "some collision must occur in 1000 keys"
        );
        assert!(ht.occupied() < 64);
    }

    #[test]
    fn max_entry_breaks_ties_to_smaller_key() {
        let mut ht = BoundedHashTable::new(16, 16);
        ht.insert_add(9, 5.0);
        ht.insert_add(3, 5.0);
        ht.insert_add(7, 1.0);
        assert_eq!(ht.max_entry(), Some((3, 5.0)));
    }

    #[test]
    fn max_entry_none_when_empty() {
        assert!(BoundedHashTable::new(4, 4).max_entry().is_none());
    }

    #[test]
    fn get_absent_key() {
        let mut ht = BoundedHashTable::new(8, 8);
        ht.insert_add(1, 1.0);
        assert_eq!(ht.get(2), None);
        assert!(!ht.contains(2));
    }

    #[test]
    fn clear_empties() {
        let mut ht = BoundedHashTable::new(8, 8);
        ht.insert_add(1, 1.0);
        ht.clear();
        assert_eq!(ht.occupied(), 0);
        assert_eq!(ht.get(1), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(BoundedHashTable::new(100, 8).capacity(), 128);
        assert_eq!(BoundedHashTable::new(100, 8).size_bytes(), 1024);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut ht = BoundedHashTable::new(32, 32);
        for k in 10..20u64 {
            ht.insert_add(k, k as f64);
        }
        let mut entries: Vec<_> = ht.iter().collect();
        entries.sort_unstable_by_key(|e| e.0);
        assert_eq!(entries.len(), 10);
        assert_eq!(entries[0], (10, 10.0));
        assert_eq!(entries[9], (19, 19.0));
    }
}
