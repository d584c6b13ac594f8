//! Warp-level primitives.
//!
//! A warp is 32 lanes executing in lock-step. Kernels in this workspace are
//! written warp-centrically: per-lane state lives in `[T; WARP_SIZE]` arrays
//! and the intrinsics below operate on whole lane arrays at once, exactly
//! mirroring their CUDA counterparts (`__ballot_sync`, `__match_any_sync`,
//! `__popc` — paper §4.2, Figure 3).
//!
//! These functions are *pure*; the caller accounts their cost through
//! [`crate::kernel::KernelCtx::intrinsic`]. They are written as their
//! definitions: the propagation kernels' host paths no longer call them (the
//! packed warp walks the runs its packer recorded), so what is left to serve
//! is the Figure 3 oracle those host paths are tested against.

/// Lanes per warp.
pub const WARP_SIZE: usize = 32;

/// A full-warp participation mask.
pub const FULL_MASK: u32 = u32::MAX;

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

/// `__match_any_sync`: for each active lane, the bit mask of active lanes
/// holding the same value. Inactive lanes receive 0.
pub fn match_any_sync(active: u32, vals: &[u64; WARP_SIZE]) -> [u32; WARP_SIZE] {
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

/// `__popc`: population count.
#[inline]
pub fn popc(x: u32) -> u32 {
    x.count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
