//! Kernel execution context: the accounting surface kernels program against.
//!
//! A kernel is an ordinary Rust function receiving a `&mut KernelCtx`. It
//! computes its results directly on host slices (the simulator does not
//! shadow-copy data) and *declares* every architecturally significant event:
//! warp-wide global loads with the lane addresses (so coalescing can be
//! computed), shared accesses with their bank indices, atomics with their
//! target addresses (so conflicts can be computed), plain instructions, and
//! intrinsics.
//!
//! Declaring an event is on the hot path of every simulated warp, so what
//! it costs the *host* is kept linear in the lane count: coalescing and
//! atomic conflicts both reduce to one distinct count over at most 32 lane
//! values (`count_distinct`) that never sorts. The counts it produces are
//! exactly those of the sort-based definition, which the tests keep as the
//! oracle.

use crate::config::DeviceConfig;
use crate::counters::KernelCounters;
use crate::warp::{LaneTable, WARP_SIZE};

/// Bytes per global-memory sector (Volta coalesces at 32-byte granularity).
pub const SECTOR_BYTES: u64 = 32;

/// Number of shared-memory banks.
pub const NUM_BANKS: u32 = 32;

/// Mutable per-kernel accounting state.
#[derive(Debug)]
pub struct KernelCtx<'a> {
    /// Device being modeled.
    pub cfg: &'a DeviceConfig,
    /// Accumulated event counts.
    pub counters: KernelCounters,
}

/// Widest value range (max − min) [`count_distinct`] resolves with its
/// bitmap: 256 sectors are an 8 KiB window, which holds the label gathers
/// of a packed warp on a lattice a few hundred vertices wide.
const BITMAP_RANGE: u64 = 256;

/// Number of distinct values among up to one warp's lane values — the
/// coalescer (distinct sectors) and the atomic-conflict count (lanes minus
/// distinct addresses) both reduce to it.
///
/// The hardware does this in the load/store unit for free; the host must
/// not pay a sort for it on every warp-wide access. One branch-free pass
/// finds the range and whether the values are already non-decreasing — CSR
/// target runs, sorted neighbour lists and decision writes all are — in
/// which case the distinct values are the runs. Otherwise a narrow range
/// is counted in a bitmap and anything else in a [`LaneTable`].
fn count_distinct(vals: &[u64]) -> u64 {
    debug_assert!(vals.len() <= WARP_SIZE);
    let Some(&first) = vals.first() else {
        return 0;
    };
    let (mut lo, mut hi, mut prev) = (first, first, first);
    let mut runs = 1u64;
    let mut monotone = true;
    for &v in &vals[1..] {
        runs += u64::from(v != prev);
        monotone &= v >= prev;
        lo = lo.min(v);
        hi = hi.max(v);
        prev = v;
    }
    if monotone {
        return runs;
    }
    if hi - lo < BITMAP_RANGE {
        let mut bits = [0u64; (BITMAP_RANGE / 64) as usize];
        for &v in vals {
            let off = v - lo;
            bits[(off / 64) as usize] |= 1 << (off % 64);
        }
        return bits.iter().map(|w| u64::from(w.count_ones())).sum();
    }
    let mut table = LaneTable::new();
    let mut distinct = 0u64;
    for &v in vals {
        let slot = table.find(v);
        distinct += u64::from(table.marks[slot] == 0);
        table.marks[slot] = 1;
    }
    distinct
}

/// Counts distinct 32-byte sectors among up to one warp's byte addresses.
#[inline]
fn distinct_sectors(addrs: &[u64]) -> u64 {
    debug_assert!(addrs.len() <= WARP_SIZE);
    let mut sectors = [0u64; WARP_SIZE];
    for (s, &a) in sectors.iter_mut().zip(addrs) {
        *s = a / SECTOR_BYTES;
    }
    count_distinct(&sectors[..addrs.len()])
}

/// Sum over addresses of (multiplicity - 1): the extra serialization steps
/// atomics pay for same-address conflicts within one warp access.
#[inline]
fn conflict_steps(addrs: &[u64]) -> u64 {
    addrs.len() as u64 - count_distinct(addrs)
}

impl<'a> KernelCtx<'a> {
    /// A fresh context for one kernel launch on `cfg`.
    pub fn new(cfg: &'a DeviceConfig) -> Self {
        #[cfg(feature = "fault-injection")]
        crate::faults::on_kernel_launch();
        Self {
            cfg,
            counters: KernelCounters {
                kernel_launches: 1,
                ..Default::default()
            },
        }
    }

    /// A context for a shard of a kernel (no extra launch overhead); used
    /// when the harness splits one kernel across OS threads.
    pub fn shard(cfg: &'a DeviceConfig) -> Self {
        Self {
            cfg,
            counters: KernelCounters::default(),
        }
    }

    /// Records `n` warps entering execution.
    #[inline]
    pub fn warps_launched(&mut self, n: u64) {
        self.counters.warps_launched += n;
    }

    /// Records `n` lane-units of useful work (utilization numerator; pair
    /// with [`Self::warps_launched`]).
    #[inline]
    pub fn lanes_active(&mut self, n: u64) {
        self.counters.lanes_active += n;
    }

    /// One warp-wide global read with explicit lane byte-addresses
    /// (≤ 32 of them). Charges the coalesced sector count.
    #[inline]
    pub fn global_read(&mut self, addrs: &[u64]) {
        self.counters.global_read_sectors += distinct_sectors(addrs);
    }

    /// One warp-wide global write with explicit lane byte-addresses.
    #[inline]
    pub fn global_write(&mut self, addrs: &[u64]) {
        self.counters.global_write_sectors += distinct_sectors(addrs);
    }

    /// Bulk *sequential* global read of `count` elements of `elem_bytes`
    /// starting at byte address `base` — the fully coalesced fast path for
    /// scanning CSR runs, charged exactly the sectors the range covers.
    #[inline]
    pub fn global_read_seq(&mut self, base: u64, count: u64, elem_bytes: u64) {
        if count == 0 {
            return;
        }
        let end = base + count * elem_bytes;
        self.counters.global_read_sectors += end.div_ceil(SECTOR_BYTES) - base / SECTOR_BYTES;
    }

    /// Bulk sequential global write (see [`Self::global_read_seq`]).
    #[inline]
    pub fn global_write_seq(&mut self, base: u64, count: u64, elem_bytes: u64) {
        if count == 0 {
            return;
        }
        let end = base + count * elem_bytes;
        self.counters.global_write_sectors += end.div_ceil(SECTOR_BYTES) - base / SECTOR_BYTES;
    }

    /// One warp-wide *random* global read where each active lane touches its
    /// own sector (the pessimal pattern of per-vertex global hash tables).
    /// Cheaper to call than [`Self::global_read`] when the caller already
    /// knows the addresses do not coalesce.
    #[inline]
    pub fn global_read_scattered(&mut self, lanes: u64) {
        self.counters.global_read_sectors += lanes;
    }

    /// Scattered warp-wide global write (see [`Self::global_read_scattered`]).
    #[inline]
    pub fn global_write_scattered(&mut self, lanes: u64) {
        self.counters.global_write_sectors += lanes;
    }

    /// One warp-wide global atomic with explicit lane target addresses:
    /// charges one sector per op plus serialization for same-address lanes.
    #[inline]
    pub fn global_atomic(&mut self, addrs: &[u64]) {
        self.counters.global_atomics += addrs.len() as u64;
        self.counters.global_atomic_conflicts += conflict_steps(addrs);
    }

    /// One warp-wide shared-memory access with the lanes' bank indices:
    /// charges 1 access plus (max bank multiplicity − 1) conflict steps.
    #[inline]
    pub fn shared_access(&mut self, banks: &[u32]) {
        debug_assert!(banks.len() <= WARP_SIZE);
        self.counters.shared_accesses += 1;
        let mut mult = [0u8; NUM_BANKS as usize];
        let mut max = 0u8;
        for &b in banks {
            let m = &mut mult[(b % NUM_BANKS) as usize];
            *m += 1;
            max = max.max(*m);
        }
        self.counters.shared_bank_conflicts += u64::from(max.saturating_sub(1));
    }

    /// `n` uniform (conflict-free) shared accesses — the fast path when the
    /// caller knows the pattern (e.g. sequential per-lane slots).
    #[inline]
    pub fn shared_access_uniform(&mut self, n: u64) {
        self.counters.shared_accesses += n;
    }

    /// One warp-wide shared-memory atomic batch of `ops` operations with
    /// `conflicts` same-slot serialization steps (callers usually obtain
    /// these from the hash-table insert results).
    #[inline]
    pub fn shared_atomic(&mut self, ops: u64, conflicts: u64) {
        self.counters.shared_atomics += ops;
        self.counters.shared_bank_conflicts += conflicts;
    }

    /// `n` plain warp instructions.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.counters.alu_instructions += n;
    }

    /// `n` warp intrinsics (`ballot`, `match_any`, `popc`, shuffles).
    #[inline]
    pub fn intrinsic(&mut self, n: u64) {
        self.counters.warp_intrinsics += n;
    }

    /// One block-wide reduction (costs log2(block threads) intrinsic steps
    /// in the cost model).
    #[inline]
    pub fn block_reduce(&mut self) {
        self.counters.block_reductions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::tests::{shaped, SHAPES};
    use proptest::prelude::*;

    fn ctx(cfg: &DeviceConfig) -> KernelCtx<'_> {
        KernelCtx::new(cfg)
    }

    /// The sort-based coalescer [`distinct_sectors`] replaced, kept as the
    /// oracle it is tested against.
    fn distinct_sectors_reference(addrs: &[u64]) -> u64 {
        let mut sectors = [0u64; WARP_SIZE];
        for (i, &a) in addrs.iter().enumerate() {
            sectors[i] = a / SECTOR_BYTES;
        }
        let s = &mut sectors[..addrs.len()];
        s.sort_unstable();
        let mut n = 0u64;
        let mut prev = u64::MAX;
        for &x in s.iter() {
            if x != prev {
                n += 1;
                prev = x;
            }
        }
        n
    }

    /// The sort-based conflict count [`conflict_steps`] replaced.
    fn conflict_steps_reference(addrs: &[u64]) -> u64 {
        let mut sorted = [0u64; WARP_SIZE];
        sorted[..addrs.len()].copy_from_slice(addrs);
        let s = &mut sorted[..addrs.len()];
        s.sort_unstable();
        let mut extra = 0u64;
        for i in 1..s.len() {
            if s[i] == s[i - 1] {
                extra += 1;
            }
        }
        extra
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn coalescer_equals_the_sort_based_reference(
            shape in 0..SHAPES,
            raw in prop::collection::vec(any::<u64>(), 0..=32),
            span in 0usize..6,
            base in 0u64..1_000_000,
        ) {
            // Sector ranges around the bitmap limit, far below and far above.
            let span = [1, 7, BITMAP_RANGE - 1, BITMAP_RANGE, BITMAP_RANGE + 1, 1 << 30][span];
            let window = span * SECTOR_BYTES;
            let addrs: Vec<u64> = shaped(shape, raw.iter().map(|x| x % window).collect())
                .iter()
                .map(|a| base + a)
                .collect();
            prop_assert_eq!(
                distinct_sectors(&addrs),
                distinct_sectors_reference(&addrs),
                "shape {} span {} addrs {:?}", shape, span, addrs
            );
            prop_assert_eq!(
                conflict_steps(&addrs),
                conflict_steps_reference(&addrs),
                "shape {} span {} addrs {:?}", shape, span, addrs
            );
        }
    }

    #[test]
    fn bitmap_limit_is_exact_on_both_sides() {
        // Unsorted, so the run count cannot answer; the extremes sit exactly
        // BITMAP_RANGE - 1 and BITMAP_RANGE sectors apart.
        for range in [BITMAP_RANGE - 1, BITMAP_RANGE] {
            let addrs = [range * SECTOR_BYTES, 0, 40, range * SECTOR_BYTES + 8, 64];
            assert_eq!(distinct_sectors(&addrs), 4, "range {range}");
            assert_eq!(distinct_sectors_reference(&addrs), 4);
        }
    }

    #[test]
    fn coalesced_warp_read_is_four_sectors() {
        let cfg = DeviceConfig::titan_v();
        let mut k = ctx(&cfg);
        // 32 consecutive u32 loads = 128 contiguous bytes = 4 sectors.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        k.global_read(&addrs);
        assert_eq!(k.counters.global_read_sectors, 4);
    }

    #[test]
    fn scattered_warp_read_is_thirtytwo_sectors() {
        let cfg = DeviceConfig::titan_v();
        let mut k = ctx(&cfg);
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        k.global_read(&addrs);
        assert_eq!(k.counters.global_read_sectors, 32);
    }

    #[test]
    fn seq_read_matches_explicit_addresses() {
        let cfg = DeviceConfig::titan_v();
        let mut a = ctx(&cfg);
        let mut b = ctx(&cfg);
        // 100 u32 elements starting at byte 36: bytes [36, 436) span
        // sectors 1..=13 -> 13 sectors.
        a.global_read_seq(36, 100, 4);
        assert_eq!(a.counters.global_read_sectors, 13);
        // Issuing the same range as 4 separate warp accesses re-touches the
        // sector straddling each warp boundary, costing up to one extra
        // sector per extra warp (real hardware re-issues those too).
        for chunk in (0..100u64).collect::<Vec<_>>().chunks(32) {
            let addrs: Vec<u64> = chunk.iter().map(|i| 36 + i * 4).collect();
            b.global_read(&addrs);
        }
        let explicit = b.counters.global_read_sectors;
        assert!((13..=13 + 3).contains(&explicit), "{explicit}");
    }

    #[test]
    fn atomic_conflicts_counted() {
        let cfg = DeviceConfig::titan_v();
        let mut k = ctx(&cfg);
        k.global_atomic(&[64, 64, 64, 128]);
        assert_eq!(k.counters.global_atomics, 4);
        assert_eq!(k.counters.global_atomic_conflicts, 2);
    }

    #[test]
    fn bank_conflicts_use_max_multiplicity() {
        let cfg = DeviceConfig::titan_v();
        let mut k = ctx(&cfg);
        // banks 0,0,0,1 -> max multiplicity 3 -> 2 extra steps
        k.shared_access(&[0, 32, 64, 1]);
        assert_eq!(k.counters.shared_accesses, 1);
        assert_eq!(k.counters.shared_bank_conflicts, 2);
    }

    #[test]
    fn zero_count_seq_access_is_free() {
        let cfg = DeviceConfig::titan_v();
        let mut k = ctx(&cfg);
        k.global_read_seq(1234, 0, 4);
        k.global_write_seq(1234, 0, 4);
        assert_eq!(k.counters.global_sectors(), 0);
    }
}
