//! Property-based invariants of the GPU model: coalescing bounds, warp
//! intrinsic algebra, cost-model monotonicity.

use glp_gpusim::warp::{ballot_sync, match_any_sync, popc, WARP_SIZE};
use glp_gpusim::{CostModel, DeviceConfig, KernelCounters, KernelCtx};
use proptest::prelude::*;

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
