//! Warp-level primitives.
//!
//! A warp is 32 lanes executing in lock-step. Kernels in this workspace are
//! written warp-centrically: per-lane state lives in `[T; WARP_SIZE]` arrays
//! and the intrinsics below operate on whole lane arrays at once, exactly
//! mirroring their CUDA counterparts (`__ballot_sync`, `__match_any_sync`,
//! `__popc` — paper §4.2, Figure 3).
//!
//! These functions are *pure*; the caller accounts their cost through
//! [`crate::kernel::KernelCtx::intrinsic`]. What they cost on the *host* is
//! a separate matter and never reaches a counter: the hardware resolves a
//! `__match_any_sync` in a handful of cycles, so the host emulation is
//! written to be linear in the lane count — one pass of run detection when
//! the lane values arrive non-decreasing (vertex keys of a packed warp,
//! sorted neighbour runs), one pass through a 64-slot stack table
//! (`LaneTable`) otherwise.

/// Lanes per warp.
pub const WARP_SIZE: usize = 32;

/// A full-warp participation mask.
pub const FULL_MASK: u32 = u32::MAX;

/// Builds a lane array initialized to `val` (the idiom for declaring
/// per-lane registers).
#[inline]
pub fn lanes_init<T: Copy>(val: T) -> [T; WARP_SIZE] {
    [val; WARP_SIZE]
}

/// `__ballot_sync`: returns the bit mask of lanes in `active` whose
/// predicate is true. Bit `i` corresponds to lane `i`.
#[inline]
pub fn ballot_sync(active: u32, preds: &[bool; WARP_SIZE]) -> u32 {
    let mut mask = 0u32;
    for (lane, &p) in preds.iter().enumerate() {
        mask |= u32::from(p) << lane;
    }
    mask & active
}

/// Slots of a [`LaneTable`]: twice the lane count, so a warp's worth of
/// distinct keys fills it to one half and linear probing stays short.
const LANE_TABLE_SLOTS: usize = 2 * WARP_SIZE;

/// A 64-slot open-addressing table on the stack, sized for the at most 32
/// keys one warp-wide operation can present. It is what makes the
/// unsorted paths of [`match_any_sync`] and of the coalescer in
/// [`crate::kernel`] linear in the lane count.
///
/// Each slot carries a caller-owned `mark`; a slot is free while its mark
/// is zero, so whoever is handed a slot by [`find`](Self::find) must leave
/// a non-zero mark in it (the lane mask of the group; a seen flag).
pub(crate) struct LaneTable {
    keys: [u64; LANE_TABLE_SLOTS],
    pub(crate) marks: [u32; LANE_TABLE_SLOTS],
}

impl LaneTable {
    #[inline]
    pub(crate) fn new() -> Self {
        Self {
            keys: [0; LANE_TABLE_SLOTS],
            marks: [0; LANE_TABLE_SLOTS],
        }
    }

    /// The slot of `key`: the one already holding it (mark non-zero) or
    /// the free one it now claims (mark still zero).
    ///
    /// At most [`WARP_SIZE`] distinct keys may be presented (the table
    /// would otherwise fill up and the probe would not terminate).
    #[inline]
    pub(crate) fn find(&mut self, key: u64) -> usize {
        // Fibonacci multiply-shift: the top six bits index the table.
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize;
        // `&`, not `&&`: whether a slot is free or already holds the key is
        // a coin flip the branch predictor loses; a true collision is rare.
        while (self.marks[slot] != 0) & (self.keys[slot] != key) {
            slot = (slot + 1) % LANE_TABLE_SLOTS;
        }
        self.keys[slot] = key;
        slot
    }
}

/// `__match_any_sync`: for each active lane, the bit mask of active lanes
/// holding the same value. Inactive lanes receive 0.
///
/// Linear in the lane count: when the active lanes' values are
/// non-decreasing in lane order, equal values are adjacent and one pass
/// of run detection finds every group; otherwise the lanes are grouped
/// through a `LaneTable`.
#[inline]
pub fn match_any_sync(active: u32, vals: &[u64; WARP_SIZE]) -> [u32; WARP_SIZE] {
    let mut out = [0u32; WARP_SIZE];
    // Lanes above the highest active one keep their 0.
    let lanes = (u32::BITS - active.leading_zeros()) as usize;
    let is_active = |lane: usize| (active >> lane) & 1 == 1;

    // Pass 1: are the active values non-decreasing, and where do their
    // runs start? An inactive lane inherits its predecessor's value, so it
    // breaks neither the order nor a run.
    let mut sorted = true;
    let mut starts = 1u32; // lane 0 opens the first run whatever it holds
    let mut prev = 0u64;
    for (lane, &val) in vals[..lanes].iter().enumerate() {
        let v = if is_active(lane) { val } else { prev };
        sorted &= v >= prev;
        starts |= u32::from(v != prev) << lane;
        prev = v;
    }
    if sorted {
        while starts != 0 {
            let begin = starts.trailing_zeros() as usize;
            starts &= starts - 1;
            let end = if starts == 0 {
                lanes
            } else {
                starts.trailing_zeros() as usize
            };
            let mask = ((1u64 << end) - (1u64 << begin)) as u32 & active;
            for (lane, o) in out[begin..end].iter_mut().enumerate() {
                *o = if is_active(begin + lane) { mask } else { 0 };
            }
        }
        return out;
    }

    let mut table = LaneTable::new();
    let mut lane_slot = [0u8; WARP_SIZE];
    for lane in (0..lanes).filter(|&l| is_active(l)) {
        let slot = table.find(vals[lane]);
        table.marks[slot] |= 1 << lane;
        lane_slot[lane] = slot as u8;
    }
    for lane in (0..lanes).filter(|&l| is_active(l)) {
        out[lane] = table.marks[lane_slot[lane] as usize];
    }
    out
}

/// `__popc`: population count.
#[inline]
pub fn popc(x: u32) -> u32 {
    x.count_ones()
}

/// `__shfl_down`-style warp max-reduction over the active lanes; returns the
/// maximum of `(key, lane)` pairs so callers can also learn *which* lane won
/// (ties broken toward the lower lane). Returns `None` if no lane is active.
#[inline]
pub fn warp_reduce_max(active: u32, keys: &[f64; WARP_SIZE]) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for (lane, &key) in keys.iter().enumerate() {
        if (active >> lane) & 1 == 1 {
            let better = match best {
                None => true,
                Some((bk, _)) => key > bk,
            };
            if better {
                best = Some((key, lane));
            }
        }
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The quadratic emulation (`O(groups × 32)`) the linear
    /// [`match_any_sync`] replaced, kept as the oracle it is tested against.
    fn match_any_reference(active: u32, vals: &[u64; WARP_SIZE]) -> [u32; WARP_SIZE] {
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (active >> lane) & 1 == 0 {
                continue;
            }
            if out[lane] != 0 {
                continue; // already filled by an earlier matching lane
            }
            let mut mask = 0u32;
            for peer in lane..WARP_SIZE {
                if (active >> peer) & 1 == 1 && vals[peer] == vals[lane] {
                    mask |= 1 << peer;
                }
            }
            // All lanes in the group receive the same mask.
            let mut rest = mask;
            while rest != 0 {
                let l = rest.trailing_zeros() as usize;
                out[l] = mask;
                rest &= rest - 1;
            }
        }
        out
    }

    /// Number of [`shaped`] shapes.
    pub(crate) const SHAPES: u8 = 7;

    /// Rearranges one warp-wide operation's raw lane values into the
    /// shapes the linear-time host paths (here and in the coalescer) key on.
    pub(crate) fn shaped(shape: u8, mut v: Vec<u64>) -> Vec<u64> {
        match shape % SHAPES {
            // Already sorted: vertex keys of a packed warp, a CSR run.
            0 => v.sort_unstable(),
            // Piecewise sorted: concatenated sorted neighbour runs.
            1 => v.chunks_mut(5).for_each(<[u64]>::sort_unstable),
            2 => v = vec![v.first().copied().unwrap_or(0); v.len()],
            // All distinct, unsorted.
            3 => v
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = (*x << 5) | i as u64),
            // Few groups (converged labels).
            4 => v.iter_mut().for_each(|x| *x %= 3),
            // Descending: sorted the wrong way round.
            5 => {
                v.sort_unstable();
                v.reverse();
            }
            _ => {}
        }
        v
    }

    /// Participation masks: full, a prefix (fewer than 32 lanes in use),
    /// and arbitrary non-prefix masks.
    fn masked(kind: u8, bits: u32) -> u32 {
        match kind % 3 {
            0 => FULL_MASK,
            1 => (1u64 << (bits % 33)).wrapping_sub(1) as u32,
            _ => bits,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn match_any_equals_the_quadratic_reference(
            shape in 0..SHAPES,
            raw in prop::collection::vec(0u64..40, 32),
            kind in 0u8..3,
            bits in any::<u32>(),
        ) {
            let mut vals = [0u64; WARP_SIZE];
            vals.copy_from_slice(&shaped(shape, raw));
            let active = masked(kind, bits);
            prop_assert_eq!(
                match_any_sync(active, &vals),
                match_any_reference(active, &vals),
                "shape {} active {:#x} vals {:?}", shape, active, vals
            );
        }

        #[test]
        fn match_any_handles_wide_keys(raw in prop::collection::vec(any::<u64>(), 32), bits in any::<u32>()) {
            // Packed (vertex << 32 | label) keys: the table must not depend
            // on the keys being small.
            let mut vals = [0u64; WARP_SIZE];
            vals.copy_from_slice(&raw);
            for i in (0..WARP_SIZE).step_by(3) {
                vals[i] = vals[(i + 7) % WARP_SIZE];
            }
            prop_assert_eq!(match_any_sync(bits, &vals), match_any_reference(bits, &vals));
        }
    }

    #[test]
    fn lane_table_hands_out_one_slot_per_key() {
        // A full warp of distinct keys fits, each in a slot of its own,
        // and presenting a key again finds the slot it marked.
        let mut t = LaneTable::new();
        let key = |k: usize| k as u64 * 0x1_0000_0001;
        let slots: Vec<usize> = (0..WARP_SIZE)
            .map(|k| {
                let s = t.find(key(k));
                assert_eq!(t.marks[s], 0, "key {k} was handed a used slot");
                t.marks[s] = 1 << k;
                s
            })
            .collect();
        for (k, &s) in slots.iter().enumerate() {
            assert_eq!(t.find(key(k)), s);
            assert_eq!(t.marks[s], 1 << k);
        }
    }

    #[test]
    fn ballot_respects_active_mask() {
        let mut preds = [true; WARP_SIZE];
        preds[3] = false;
        // Only lanes 0..=4 active; lane 3's predicate is false.
        let m = ballot_sync(0b1_1111, &preds);
        assert_eq!(m, 0b1_0111);
    }

    #[test]
    fn match_any_groups_equal_values() {
        // Figure 3's example shape: lanes 0,1 hold vertex 1; lanes 2,3,4
        // hold vertex 2; lane 5 idle.
        let mut vals = [0u64; WARP_SIZE];
        vals[0] = 1;
        vals[1] = 1;
        vals[2] = 2;
        vals[3] = 2;
        vals[4] = 2;
        let active = 0b1_1111;
        let masks = match_any_sync(active, &vals);
        assert_eq!(masks[0], 0b0_0011);
        assert_eq!(masks[1], 0b0_0011);
        assert_eq!(masks[2], 0b1_1100);
        assert_eq!(masks[4], 0b1_1100);
        assert_eq!(masks[5], 0); // inactive lane
    }

    #[test]
    fn match_any_frequency_via_popc() {
        // Paper Figure 3 step 4: label frequency = popcount of lmask.
        let mut vals = [99u64; WARP_SIZE];
        vals[2] = 7;
        vals[4] = 7;
        let masks = match_any_sync(FULL_MASK, &vals);
        assert_eq!(popc(masks[2]), 2);
        assert_eq!(popc(masks[0]), 30);
    }

    #[test]
    fn reduce_max_picks_lowest_lane_on_tie() {
        let mut keys = [f64::MIN; WARP_SIZE];
        keys[5] = 3.0;
        keys[9] = 3.0;
        keys[1] = 1.0;
        let (k, lane) = warp_reduce_max(FULL_MASK, &keys).unwrap();
        assert_eq!(k, 3.0);
        assert_eq!(lane, 5);
    }

    #[test]
    fn reduce_max_none_when_inactive() {
        let keys = [0.0; WARP_SIZE];
        assert!(warp_reduce_max(0, &keys).is_none());
    }
}
