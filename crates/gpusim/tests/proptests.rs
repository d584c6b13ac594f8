//! Property-based invariants of the GPU model: coalescing bounds, warp
//! intrinsic algebra, cost-model monotonicity.

use glp_gpusim::warp::{ballot_sync, match_any_sync, popc, WARP_SIZE};
use glp_gpusim::{CostModel, DeviceConfig, KernelCounters, KernelCtx};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Rearranges raw draws into the shapes the linear-time host paths key
/// on: sorted, piecewise sorted (concatenated neighbour runs), all equal,
/// all distinct, few groups, and as drawn.
fn shaped(shape: u8, mut v: Vec<u64>) -> Vec<u64> {
    match shape % 6 {
        0 => v.sort_unstable(),
        1 => v.chunks_mut(5).for_each(<[u64]>::sort_unstable),
        2 => v = vec![v.first().copied().unwrap_or(0); v.len()],
        3 => v
            .iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = (*x << 5) | i as u64),
        4 => v.iter_mut().for_each(|x| *x %= 3),
        _ => {}
    }
    v
}

proptest! {
    /// A warp access of n addresses coalesces to between 1 and n sectors.
    #[test]
    fn coalescing_bounds(addrs in prop::collection::vec(0u64..1_000_000, 1..32)) {
        let cfg = DeviceConfig::titan_v();
        let mut ctx = KernelCtx::new(&cfg);
        ctx.global_read(&addrs);
        let sectors = ctx.counters.global_read_sectors;
        prop_assert!(sectors >= 1);
        prop_assert!(sectors <= addrs.len() as u64);
    }

    /// Sequential reads touch exactly the covered sector range.
    #[test]
    fn seq_read_sector_count(base in 0u64..10_000, count in 1u64..10_000) {
        let cfg = DeviceConfig::titan_v();
        let mut ctx = KernelCtx::new(&cfg);
        ctx.global_read_seq(base, count, 4);
        let first = base / 32;
        let last = (base + count * 4 - 1) / 32;
        prop_assert_eq!(ctx.counters.global_read_sectors, last - first + 1);
    }

    /// match_any partitions the active lanes: every active lane is in
    /// exactly its own mask, masks of equal values are identical, masks of
    /// different values are disjoint.
    #[test]
    fn match_any_partitions(vals in prop::collection::vec(0u64..5, 32), active_bits in any::<u32>()) {
        let mut arr = [0u64; WARP_SIZE];
        arr.copy_from_slice(&vals);
        let masks = match_any_sync(active_bits, &arr);
        let mut union = 0u32;
        for lane in 0..WARP_SIZE {
            if (active_bits >> lane) & 1 == 0 {
                prop_assert_eq!(masks[lane], 0);
                continue;
            }
            prop_assert!(masks[lane] & (1 << lane) != 0, "lane not in own mask");
            union |= masks[lane];
            for peer in 0..WARP_SIZE {
                if (active_bits >> peer) & 1 == 1 {
                    let same = arr[peer] == arr[lane];
                    prop_assert_eq!(
                        (masks[lane] >> peer) & 1 == 1,
                        same,
                        "lane {} peer {}",
                        lane,
                        peer
                    );
                }
            }
        }
        prop_assert_eq!(union, active_bits);
    }

    /// match_any against its definition — lane `i`'s mask is exactly the
    /// active lanes holding lane `i`'s value — on every input shape and
    /// under full, prefix (fewer than 32 lanes) and non-prefix masks.
    #[test]
    fn match_any_is_the_pairwise_definition(
        shape in 0u8..6,
        raw in prop::collection::vec(0u64..40, 32),
        mask_kind in 0u8..3,
        bits in any::<u32>(),
    ) {
        let mut arr = [0u64; WARP_SIZE];
        arr.copy_from_slice(&shaped(shape, raw));
        let active = match mask_kind {
            0 => u32::MAX,
            1 => ((1u64 << (bits % 33)) - 1) as u32,
            _ => bits,
        };
        let masks = match_any_sync(active, &arr);
        for lane in 0..WARP_SIZE {
            let expect = if (active >> lane) & 1 == 0 {
                0
            } else {
                (0..WARP_SIZE)
                    .filter(|&p| (active >> p) & 1 == 1 && arr[p] == arr[lane])
                    .fold(0u32, |m, p| m | 1 << p)
            };
            prop_assert_eq!(masks[lane], expect, "shape {} active {:#x} lane {}", shape, active, lane);
        }
    }

    /// The coalescer against its definition: a warp access costs the
    /// number of distinct 32-byte sectors among its lane addresses, an
    /// atomic one conflict step per lane beyond the first on an address —
    /// for monotone, windowed (narrow sector range) and scattered lanes,
    /// and any lane count up to 32.
    #[test]
    fn coalescing_is_a_distinct_count(
        shape in 0u8..6,
        raw in prop::collection::vec(any::<u64>(), 0..=32),
        span in 0usize..5,
        base in 0u64..1_000_000,
    ) {
        // Sector ranges below, at and above the host path's bitmap window.
        let span = [1u64, 255, 256, 257, 1 << 28][span] * 32;
        let addrs: Vec<u64> = shaped(shape, raw.iter().map(|x| x % span).collect())
            .iter()
            .map(|a| base + a)
            .collect();
        let cfg = DeviceConfig::titan_v();
        let mut ctx = KernelCtx::new(&cfg);
        ctx.global_read(&addrs);
        ctx.global_write(&addrs);
        ctx.global_atomic(&addrs);
        let sectors = addrs.iter().map(|a| a / 32).collect::<BTreeSet<_>>().len() as u64;
        let distinct = addrs.iter().collect::<BTreeSet<_>>().len() as u64;
        prop_assert_eq!(ctx.counters.global_read_sectors, sectors, "addrs {:?}", addrs);
        prop_assert_eq!(ctx.counters.global_write_sectors, sectors);
        prop_assert_eq!(ctx.counters.global_atomics, addrs.len() as u64);
        prop_assert_eq!(ctx.counters.global_atomic_conflicts, addrs.len() as u64 - distinct);
    }

    /// Ballot's popcount equals the number of active-and-true lanes.
    #[test]
    fn ballot_popc_counts(preds in prop::collection::vec(any::<bool>(), 32), active in any::<u32>()) {
        let mut arr = [false; WARP_SIZE];
        arr.copy_from_slice(&preds);
        let mask = ballot_sync(active, &arr);
        let expect = (0..32)
            .filter(|&i| arr[i] && (active >> i) & 1 == 1)
            .count() as u32;
        prop_assert_eq!(popc(mask), expect);
        prop_assert_eq!(mask & !active, 0, "ballot leaked inactive lanes");
    }

    /// More counted events never make a kernel cheaper (cost monotonicity).
    #[test]
    fn cost_model_monotone(
        a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000,
        da in 0u64..10_000, db in 0u64..10_000, dc in 0u64..10_000,
    ) {
        let cfg = DeviceConfig::titan_v();
        let m = CostModel::default();
        let base = KernelCounters {
            global_read_sectors: a,
            alu_instructions: b,
            shared_atomics: c,
            ..Default::default()
        };
        let more = KernelCounters {
            global_read_sectors: a + da,
            alu_instructions: b + db,
            shared_atomics: c + dc,
            ..Default::default()
        };
        prop_assert!(m.kernel_seconds(&cfg, &more) >= m.kernel_seconds(&cfg, &base));
    }
}
