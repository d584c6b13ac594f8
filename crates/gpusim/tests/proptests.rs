//! Property-based invariants of the GPU model: coalescing bounds, warp
//! intrinsic algebra, cost-model monotonicity.

use glp_gpusim::warp::{ballot_sync, match_any_sync, popc, WARP_SIZE};
use glp_gpusim::{cost, Device, DeviceConfig, KernelCounters, KernelCtx};
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

    /// More counted events never make a kernel cheaper (cost monotonicity),
    /// whichever of the counters grows.
    #[test]
    fn cost_model_monotone(
        base in prop::collection::vec(0u64..1_000_000, 13),
        delta in prop::collection::vec(0u64..10_000, 13),
    ) {
        let cfg = DeviceConfig::titan_v();
        let before = cost::kernel_seconds(&cfg, &counters(&base));
        for field in 0..base.len() {
            let mut more = base.clone();
            more[field] += delta[field];
            let after = cost::kernel_seconds(&cfg, &counters(&more));
            prop_assert!(after >= before, "counter {} lowered the cost", field);
        }
    }

    /// Reads charged as one sequential range never cost more than the same
    /// lanes' addresses charged warp by warp, in any lane order.
    #[test]
    fn sequential_reads_never_cost_more_than_scattered(
        first in 0u64..10_000, count in 1u64..2_000, wide in any::<bool>(), stride in 1u64..64,
    ) {
        let cfg = DeviceConfig::titan_v();
        // Aligned elements of 4 or 8 bytes, each within one sector.
        let elem = if wide { 8 } else { 4 };
        let mut seq = KernelCtx::new(&cfg);
        seq.global_read_seq(first * elem, count, elem);
        // The same elements dealt to lanes in strided order (1: in order).
        let mut order: Vec<u64> = (0..count).collect();
        order.sort_by_key(|&i| (i % stride, i / stride));
        let addrs: Vec<u64> = order.iter().map(|i| (first + i) * elem).collect();
        let mut scattered = KernelCtx::new(&cfg);
        for warp in addrs.chunks(32) {
            scattered.global_read(warp);
        }
        prop_assert!(seq.counters.global_read_sectors <= scattered.counters.global_read_sectors);
        prop_assert!(
            cost::kernel_seconds(&cfg, &seq.counters)
                <= cost::kernel_seconds(&cfg, &scattered.counters)
        );
    }

    /// A fused fragment charges the same events as a launch of the same body
    /// and never more time: it only drops the launch overhead.
    #[test]
    fn fused_launch_never_charges_more(
        events in prop::collection::vec(0u64..1_000_000, 5),
    ) {
        let body = |ctx: &mut KernelCtx| {
            ctx.alu(events[0]);
            ctx.global_read_seq(0, events[1], 4);
            ctx.shared_atomic(events[2], events[3] / 4);
            ctx.intrinsic(events[4]);
            ctx.block_reduce();
        };
        let (mut launched, mut fused) = (Device::titan_v(), Device::titan_v());
        launched.launch("k", body).unwrap();
        fused.launch_fused("k", body).unwrap();
        prop_assert!(fused.elapsed_seconds() <= launched.elapsed_seconds());
        let (l, f) = (launched.totals(), fused.totals());
        prop_assert_eq!((l.kernel_launches, f.kernel_launches), (1, 0));
        prop_assert_eq!(KernelCounters { kernel_launches: 1, ..f }, l);
    }
}

/// Counters with every field set, in declaration order.
fn counters(v: &[u64]) -> KernelCounters {
    KernelCounters {
        global_read_sectors: v[0],
        global_write_sectors: v[1],
        global_atomics: v[2],
        global_atomic_conflicts: v[3],
        shared_accesses: v[4],
        shared_bank_conflicts: v[5],
        shared_atomics: v[6],
        alu_instructions: v[7],
        warp_intrinsics: v[8],
        block_reductions: v[9],
        warps_launched: v[10],
        lanes_active: v[11],
        kernel_launches: v[12],
    }
}
