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
//! values (`count_distinct`) that never sorts, and a gather from a 4-byte
//! array is counted from the lanes' *element indices*
//! ([`KernelCtx::global_gather`]) without forming an address at all. The counts are exactly those of the
//! sort-based definition, which the tests keep as the oracle.

use crate::config::DeviceConfig;
use crate::counters::KernelCounters;
use crate::warp::WARP_SIZE;

/// Bytes per global-memory sector (Volta coalesces at 32-byte granularity).
pub const SECTOR_BYTES: u64 = 32;

/// Mutable per-kernel accounting state.
#[derive(Debug)]
pub struct KernelCtx<'a> {
    /// Device being modeled.
    pub cfg: &'a DeviceConfig,
    /// Accumulated event counts.
    pub counters: KernelCounters,
    gather: GatherStamps,
}

/// Widest value range (max − min) [`count_distinct`] resolves with its
/// bitmap: 256 sectors are an 8 KiB window, which holds the label gathers
/// of a packed warp on a lattice a few hundred vertices wide.
const BITMAP_RANGE: u64 = 256;

/// Slots of a [`LaneTable`]: twice the lane count, so a warp's worth of
/// distinct keys fills it to one half and linear probing stays short.
const LANE_TABLE_SLOTS: usize = 2 * WARP_SIZE;

/// A 64-slot open-addressing table on the stack, sized for the at most 32
/// keys one warp-wide access can present. It is what keeps the scattered
/// path of [`count_distinct`] linear in the lane count.
///
/// Each slot carries a caller-owned `mark`; a slot is free while its mark
/// is zero, so whoever is handed a slot by [`find`](Self::find) must leave
/// a non-zero mark in it (a seen flag).
struct LaneTable {
    keys: [u64; LANE_TABLE_SLOTS],
    marks: [u32; LANE_TABLE_SLOTS],
}

impl LaneTable {
    #[inline]
    fn new() -> Self {
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
    fn find(&mut self, key: u64) -> usize {
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

/// `log2` of the 4-byte elements one sector holds.
const GATHER_SHIFT: u32 = (SECTOR_BYTES / 4).trailing_zeros();

/// Host scratch of [`KernelCtx::global_gather`]: one stamp per sector of a
/// 4-byte-element array, grown on demand to cover the highest sector an
/// unsorted gather has touched (under `elements` bytes). A sector was already counted in
/// the current warp access iff its stamp equals the current epoch, so a new
/// access starts by bumping the epoch and the array is never re-zeroed in
/// between. Every [`KernelCtx`] — one per kernel shard — owns its own, so
/// harness threads share nothing.
#[derive(Debug, Default)]
struct GatherStamps {
    stamps: Vec<u32>,
    epoch: u32,
}

/// `stamps` extended (zero-filled) to hold `sector`, and that entry. At
/// least doubles, so a shard whose gathers climb through the array a sector
/// at a time (a lattice) still leaves the hot path O(log sectors) times.
#[cold]
#[inline(never)]
fn grown_to(stamps: &mut Vec<u32>, sector: usize) -> &mut u32 {
    stamps.resize((sector + 1).max(2 * stamps.len()), 0);
    &mut stamps[sector]
}

impl GatherStamps {
    /// Distinct sectors among up to one warp's element indices into a
    /// sector-aligned 4-byte array (element `i` lives in sector `i / 8`):
    /// the run count when the lanes arrive non-decreasing (a sorted
    /// neighbour run), one pass over the stamps otherwise.
    fn distinct_sectors(&mut self, indices: &[u32]) -> u64 {
        debug_assert!(indices.len() <= WARP_SIZE);
        let Some(&first) = indices.first() else {
            return 0;
        };
        let mut prev = first >> GATHER_SHIFT;
        let mut runs = 1u64;
        let mut monotone = true;
        for &i in &indices[1..] {
            let s = i >> GATHER_SHIFT;
            runs += u64::from(s != prev);
            monotone &= s >= prev;
            prev = s;
        }
        if monotone {
            return runs;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps written 2^32 accesses ago would read as current.
            self.stamps.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let mut distinct = 0u64;
        for &i in indices {
            let sector = (i >> GATHER_SHIFT) as usize;
            let stamp = match self.stamps.get_mut(sector) {
                Some(stamp) => stamp,
                None => grown_to(&mut self.stamps, sector),
            };
            distinct += u64::from(*stamp != epoch);
            *stamp = epoch;
        }
        distinct
    }

    /// [`distinct_sectors`](Self::distinct_sectors) summed over the warp
    /// accesses that read a list of any length 32 consecutive elements at a
    /// time. One pass over the adjacent pairs of the whole list — no window
    /// bookkeeping, so it vectorises — settles a sorted list: every window
    /// is non-decreasing, its sectors are its runs, and the runs of all
    /// windows are the list's sector steps, less those that fall between two
    /// windows, plus one per window. Any descent sends the list through the
    /// windows one by one.
    fn distinct_sectors_list(&mut self, indices: &[u32]) -> u64 {
        // Neighbour lists: a vertex's degree is a `u32`.
        debug_assert!(u32::try_from(indices.len()).is_ok());
        let mut steps = 0u32;
        let mut descents = 0u32;
        for pair in indices.windows(2) {
            let (a, b) = (pair[0] >> GATHER_SHIFT, pair[1] >> GATHER_SHIFT);
            steps += u32::from(a != b);
            descents += u32::from(a > b);
        }
        if descents != 0 {
            return indices
                .chunks(WARP_SIZE)
                .map(|window| self.distinct_sectors(window))
                .sum();
        }
        let between = (WARP_SIZE..indices.len())
            .step_by(WARP_SIZE)
            .filter(|&i| indices[i - 1] >> GATHER_SHIFT != indices[i] >> GATHER_SHIFT)
            .count();
        u64::from(steps) - between as u64 + indices.len().div_ceil(WARP_SIZE) as u64
    }
}

impl<'a> KernelCtx<'a> {
    /// A fresh context for one kernel launch on `cfg`.
    pub fn new(cfg: &'a DeviceConfig) -> Self {
        let mut ctx = Self::shard(cfg);
        ctx.counters.kernel_launches = 1;
        ctx
    }

    /// A context for a shard of a kernel (no extra launch overhead); used
    /// when the harness splits one kernel across OS threads.
    pub fn shard(cfg: &'a DeviceConfig) -> Self {
        Self {
            cfg,
            counters: KernelCounters::default(),
            gather: GatherStamps::default(),
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

    /// One warp-wide gather from a sector-aligned array of 4-byte elements
    /// with the lanes' element indices (≤ 32 of them). Charges what
    /// [`Self::global_read`] charges for the same lanes' byte addresses.
    #[inline]
    pub fn global_gather(&mut self, indices: &[u32]) {
        self.counters.global_read_sectors += self.gather.distinct_sectors(indices);
    }

    /// The gathers that read `indices` — a list of any length — from a
    /// sector-aligned array of 4-byte elements, 32 consecutive list entries
    /// per warp access: charges what one [`Self::global_gather`] per
    /// `indices.chunks(32)` charges.
    #[inline]
    pub fn global_gather_list(&mut self, indices: &[u32]) {
        self.counters.global_read_sectors += self.gather.distinct_sectors_list(indices);
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

    /// One warp-wide *random* global write where each active lane touches
    /// its own sector (the pessimal pattern of per-vertex global hash
    /// tables). Cheaper to call than [`Self::global_write`] when the caller
    /// already knows the addresses do not coalesce.
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
    use crate::warp::match_any_sync;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ctx(cfg: &DeviceConfig) -> KernelCtx<'_> {
        KernelCtx::new(cfg)
    }

    /// Number of [`shaped`] shapes.
    const SHAPES: u8 = 7;

    /// Rearranges one warp-wide access's raw lane values into the shapes
    /// the linear-time host paths of the coalescers and `match_any_sync`
    /// key on.
    fn shaped(shape: u8, mut v: Vec<u64>) -> Vec<u64> {
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

    /// What [`KernelCtx::global_read`] charges for the byte addresses of
    /// `indices` into a sector-aligned 4-byte array, by the sort-based oracle.
    fn gather_reference(indices: &[u32]) -> u64 {
        let addrs: Vec<u64> = indices
            .iter()
            .map(|&i| 0x1_0000_0000 + u64::from(i) * 4)
            .collect();
        distinct_sectors_reference(&addrs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn gather_coalescer_equals_the_sort_based_reference(
            shape in 0..SHAPES,
            raw in prop::collection::vec(any::<u64>(), 0..=32),
            window in 0usize..5,
            start_epoch in 0usize..3,
        ) {
            // Index ranges inside one sector, across two, and wide.
            let window = [1u64, 8, 9, 300, 100_000][window];
            let start_epoch = [0u32, 7, u32::MAX - 2][start_epoch];
            let indices: Vec<u32> = shaped(shape, raw.iter().map(|x| x % window).collect())
                .iter()
                .map(|&i| i as u32)
                .collect();
            let elements = indices.iter().max().map_or(1, |&m| m + 1);
            let other: Vec<u32> = indices
                .iter()
                .rev()
                .map(|&i| (i * 31 + 5) % elements)
                .collect();
            // One context per harness shard, used turn by turn: neither may
            // see the other's stamps, nor its own from an earlier access —
            // also when the epoch wraps in between.
            let cfg = DeviceConfig::titan_v();
            let (mut shard_a, mut shard_b) = (KernelCtx::shard(&cfg), KernelCtx::shard(&cfg));
            shard_a.gather.epoch = start_epoch;
            for round in 0..4 {
                prop_assert_eq!(
                    shard_a.gather.distinct_sectors(&indices),
                    gather_reference(&indices),
                    "round {} shape {} indices {:?}", round, shape, indices
                );
                prop_assert_eq!(
                    shard_b.gather.distinct_sectors(&other),
                    gather_reference(&other),
                    "round {} other {:?}", round, other
                );
            }
        }

        #[test]
        fn list_gather_equals_one_gather_per_warp(
            shape in 0..SHAPES,
            len in 0usize..7,
            raw in prop::collection::vec(any::<u64>(), 1_000),
            window in 0usize..5,
            sorted_but_one in any::<bool>(),
        ) {
            // No warp, one lane, a warp less / exactly / plus one lane, two
            // full windows, many windows and a short tail.
            let len = [0, 1, 31, 32, 33, 64, 1_000][len];
            let window = [1u64, 8, 9, 300, 100_000][window];
            let mut indices: Vec<u32> = shaped(shape, raw[..len].iter().map(|x| x % window).collect())
                .iter()
                .map(|&i| i as u32)
                .collect();
            if sorted_but_one {
                // A sorted neighbour list with one window out of order in
                // the middle: only that window may need the stamps.
                indices.sort_unstable();
                let mid = len / 2 / WARP_SIZE * WARP_SIZE;
                indices[mid..(mid + WARP_SIZE).min(len)].reverse();
            }
            let cfg = DeviceConfig::titan_v();
            let (mut by_list, mut by_warp) = (KernelCtx::shard(&cfg), KernelCtx::shard(&cfg));
            // Twice: the second list-long gather meets the first one's stamps.
            for round in 0..2 {
                by_list.global_gather_list(&indices);
                for warp in indices.chunks(WARP_SIZE) {
                    by_warp.global_gather(warp);
                }
                prop_assert_eq!(
                    by_list.counters, by_warp.counters,
                    "round {} shape {} indices {:?}", round, shape, indices
                );
            }
        }

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

    proptest! {
        /// match_any against its definition — lane `i`'s mask is exactly the
        /// active lanes holding lane `i`'s value — on every input shape and
        /// under full, prefix (fewer than 32 lanes) and non-prefix masks.
        #[test]
        fn match_any_is_the_pairwise_definition(
            shape in 0..SHAPES,
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
            shape in 0..SHAPES,
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
    fn gather_epoch_wrap_does_not_alias_stale_stamps() {
        let mut gather = GatherStamps::default();
        // Sectors 5 and 2, unsorted so the stamps are written: epoch 1.
        assert_eq!(gather.distinct_sectors(&[40, 16]), 2);
        assert_eq!(gather.epoch, 1);
        gather.epoch = u32::MAX - 1;
        assert_eq!(gather.distinct_sectors(&[9, 1]), 2);
        assert_eq!(gather.epoch, u32::MAX);
        // The wrap lands on epoch 1 again, where sectors 5 and 2 still
        // carry their stamps from the first access.
        assert_eq!(gather.distinct_sectors(&[41, 17, 42]), 2);
        assert_eq!(gather.epoch, 1);
    }

    #[test]
    fn gather_stamps_grow_with_the_unsorted_gathers_only() {
        let mut gather = GatherStamps::default();
        // Sorted neighbour runs never touch the stamps, however long.
        assert_eq!(gather.distinct_sectors(&[3, 9, 900, 901]), 3);
        // Sectors 0..=17, two of them read by the warps on either side of
        // a window boundary.
        let list: Vec<u32> = (0..70).map(|i| 3 + 2 * i).collect();
        assert_eq!(gather.distinct_sectors_list(&list), 18 + 2);
        assert!(gather.stamps.is_empty());
        // An unsorted one extends them over its highest sector, zero-filled,
        // at least doubling.
        assert_eq!(gather.distinct_sectors(&[900, 3, 901]), 2);
        assert_eq!(gather.stamps.len(), 901 / 8 + 1);
        assert_eq!(gather.distinct_sectors(&[912, 900, 3]), 3);
        assert_eq!(gather.stamps.len(), 2 * (901 / 8 + 1));
        assert_eq!(gather.distinct_sectors(&[4001, 900, 3, 4000]), 3);
        assert_eq!(gather.stamps.len(), 4001 / 8 + 1);
    }

    #[test]
    fn gather_charges_what_the_byte_addresses_would() {
        let cfg = DeviceConfig::titan_v();
        let (mut by_index, mut by_addr) = (ctx(&cfg), ctx(&cfg));
        // A lattice-like window, a scattered warp and a sorted run.
        let warps: [Vec<u32>; 3] = [
            (0..32).map(|i| (i * 37) % 29 + (i % 4) * 300).collect(),
            (0..32u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % 4096)
                .collect(),
            (0..32).map(|i| 100 + 3 * i).collect(),
        ];
        for indices in &warps {
            let addrs: Vec<u64> = indices
                .iter()
                .map(|&i| 0x1_0000_0000 + u64::from(i) * 4)
                .collect();
            by_index.global_gather(indices);
            by_addr.global_read(&addrs);
            assert_eq!(
                by_index.counters.global_read_sectors,
                by_addr.counters.global_read_sectors
            );
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
    fn zero_count_seq_access_is_free() {
        let cfg = DeviceConfig::titan_v();
        let mut k = ctx(&cfg);
        k.global_read_seq(1234, 0, 4);
        k.global_write_seq(1234, 0, 4);
        assert_eq!(k.counters.global_sectors(), 0);
    }
}
