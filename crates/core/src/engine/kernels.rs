//! The LabelPropagation kernels (paper §4).
//!
//! Four kernels cover the degree spectrum:
//!
//! | kernel | vertices | mechanism |
//! |--------|----------|-----------|
//! | [`warp_packed_kernel`]     | degree < 32 (SmemWarp) | one warp, many vertices, intrinsics (§4.2, Figure 3) |
//! | [`warp_per_vertex_kernel`] | mid degrees            | one warp per vertex, shared hash table |
//! | [`block_cms_ht_kernel`]    | degree > 128           | one block per vertex, shared CMS+HT with bounded-probability global fallback (§4.1, Procedure SharedMemBigNodes) |
//! | [`global_hash_kernel`]     | all (Global strategy)  | per-vertex global-memory hash tables (the `global` ablation baseline / G-Hash) |
//!
//! Every kernel computes *exact* winners (the CMS+HT combination is a
//! pruning strategy, not an approximation — §4.1 "Special Note") under the
//! workspace-wide tie rule: highest score wins, ties break toward the
//! smaller label. Scores must be non-decreasing in `freq` for the CMS
//! pruning to be lossless; all shipped variants satisfy this.
//!
//! ## Host execution
//!
//! A kernel does two things per warp: it *computes* the decisions on host
//! slices and it *charges* the events a GPU would see to its
//! [`KernelCtx`]. Only the charges reach the modeled clock, so the compute
//! half is free to be as fast as the host allows as long as no counter
//! moves (`tests/host_path_identity.rs` pins every one):
//!
//! * the charges are kept in two ledgers. The **schedule ledger** holds what
//!   the CSR, the device and the launch's vertex list alone fix: warps and
//!   lanes, the neighbour-id loads, the label gather (it reads the
//!   neighbours' *ids*, whatever their labels hold), the decision writes and
//!   the constant per-vertex and per-chunk instructions. [`schedule_charges`]
//!   counts them, and its `schedule_*` helpers are the only code that counts
//!   a label gather. The **data ledger** holds what the labels decide: hash
//!   table atomics and their conflicts, the CMS, the fallback recount,
//!   `alu(2 · occupied)` and a packed warp's popc or shuffle sum. The kernel
//!   functions below charge it as they decide. A run prices each schedule
//!   once: it keeps the last one per device, kernel and harness part
//!   ([`PartLedger`]), and a launch whose part lists the same vertices —
//!   compared element by element — is charged the kept counts;
//! * kernels are generic over the **concrete** program type. An engine
//!   holds a `&dyn LpProgram`; it wraps one shard's inputs in a
//!   [`KernelShard`] and makes a single virtual call,
//!   [`LpProgram::propagate_shard`], whose default body is monomorphised
//!   per program and hands `self` back to [`KernelShard::run`] — so
//!   `load_neighbor` and `label_score` inline into the edge loops;
//! * decisions are written in place into the shard's own sub-slice of the
//!   decision array ([`DecisionsOut`]) — no per-launch result vector;
//! * the packed-warp kernel decides vertex by vertex: a vertex's lanes are
//!   its run, so the same-vertex groups Figure 3 finds with
//!   `__match_any_sync` need no search. A run of at most four lanes — every
//!   run of a road graph — is decided in a fixed window, 4 lanes wide (2
//!   for runs of one or two): integer label counts when its lanes weigh 1,
//!   every lane scored and the winner picked without a data-dependent
//!   branch. A longer run finds its same-label groups by a first-occurrence
//!   scan and scores each *distinct* label once. The kernel sorts its
//!   vertices into these classes 64 at a time, as bitmasks, so a bucket that
//!   mixes them (a serve window's) takes no per-vertex class branch. The
//!   charges are Figure 3's; the intrinsic formulation itself is the
//!   `#[cfg(test)]` oracle the kernel is tested against;
//! * label gathers are coalesced from the neighbors' vertex ids
//!   ([`KernelCtx::global_gather`]): a run count when they ascend, one pass
//!   over per-shard sector stamps otherwise — no address array, no table;
//!   the table kernels count a neighbor list a chunk at a time
//!   ([`KernelCtx::global_gather_list`]), and the table scans underneath
//!   them are linear in what is occupied, not in capacity;
//! * the CMS+HT block kernel consumes its chunk as *runs of equal labels*
//!   when the input has them (sorted neighbor lists, converged labels): one
//!   hash probe and one store per run, the lanes' charges multiplied out.
//!   The lane-by-lane kernel it replaced is its `#[cfg(test)]` oracle.

use super::{BestLabel, Decision};
use crate::api::{LpProgram, NeighborContribution};
use glp_gpusim::{KernelCounters, KernelCtx, SharedMem, WARP_SIZE};
use glp_graph::{Csr, Label, VertexId, INVALID_VERTEX};
use glp_sketch::{BoundedHashTable, CountMinSketch, InsertOutcome};

/// Simulated global-memory address bases (for coalescing accounting only;
/// data actually lives in host slices).
pub(crate) mod layout {
    /// Current spoken-label array `L` (4 bytes per vertex).
    pub const LABELS: u64 = 0x1_0000_0000;
    /// CSR target (neighbor id) array (4 bytes per edge).
    pub const TARGETS: u64 = 0x2_0000_0000;
    /// Decision output array (8 bytes per vertex).
    pub const DECISIONS: u64 = 0x4_0000_0000;
    /// Global fallback hash-table region (8 bytes per slot).
    pub const GHT: u64 = 0x5_0000_0000;

    /// Neighbor ids per sector of the target array.
    pub const TARGETS_PER_SECTOR: u64 = glp_gpusim::SECTOR_BYTES / 4;
    /// Decision slots per sector of the decision array.
    pub const DECISIONS_PER_SECTOR: u64 = glp_gpusim::SECTOR_BYTES / 8;

    // The kernels count the sectors of a label gather, of a packed warp's
    // neighbor-id load and of its decision write from element indices
    // (`index / elements per sector`): exact only from an aligned base.
    const _: () = assert!(
        LABELS.is_multiple_of(glp_gpusim::SECTOR_BYTES)
            && TARGETS.is_multiple_of(glp_gpusim::SECTOR_BYTES)
            && DECISIONS.is_multiple_of(glp_gpusim::SECTOR_BYTES)
    );
}

/// Per-shard instrumentation returned by the kernels (and, summed over a
/// dispatch, by [`Backend::propagate`](super::Backend::propagate)).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// High-degree vertices that needed the global-memory fallback.
    pub fallbacks: u64,
    /// High-degree vertices processed by the CMS+HT kernel.
    pub smem_vertices: u64,
    /// Propagation launches that priced a schedule ledger rather than
    /// reusing one (counted per launch by the backend, not per shard).
    pub priced_launches: u64,
}

impl ShardStats {
    pub(crate) fn merge(&mut self, o: &ShardStats) {
        self.fallbacks += o.fallbacks;
        self.smem_vertices += o.smem_vertices;
        self.priced_launches += o.priced_launches;
    }
}

/// The slice of the decision array one kernel shard owns: the entries of
/// vertices `base .. base + slots.len()`. Shards of one launch hold
/// disjoint slices, so they write their results in place.
#[derive(Debug)]
pub(crate) struct DecisionsOut<'a> {
    base: VertexId,
    slots: &'a mut [Decision],
}

impl<'a> DecisionsOut<'a> {
    /// Cuts `decisions` (entry `i` belongs to vertex `i`) into one
    /// sub-slice per part. Parts must be non-empty, ascending and in
    /// ascending order of each other — what
    /// [`split_by_degree`](super::dispatch::split_by_degree) returns for a
    /// bucket — so each covers the id range `first ..= last` of its part
    /// and `split_at_mut` at the part boundaries is enough.
    pub(crate) fn split(mut decisions: &'a mut [Decision], parts: &[&[VertexId]]) -> Vec<Self> {
        let mut covered = 0usize;
        parts
            .iter()
            .map(|part| {
                let first = part[0] as usize;
                let last = part[part.len() - 1] as usize;
                let (_, rest) = std::mem::take(&mut decisions).split_at_mut(first - covered);
                let (slots, rest) = rest.split_at_mut(last - first + 1);
                decisions = rest;
                covered = last + 1;
                DecisionsOut {
                    base: part[0],
                    slots,
                }
            })
            .collect()
    }

    #[inline]
    fn set(&mut self, v: VertexId, d: Decision) {
        self.slots[(v - self.base) as usize] = d;
    }
}

/// Which propagation kernel a [`KernelShard`] runs, with its launch
/// parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KernelKind {
    /// [`warp_packed_kernel`].
    WarpPacked,
    /// [`warp_per_vertex_kernel`] with this many shared HT slots.
    WarpPerVertex { ht_slots: usize },
    /// [`block_cms_ht_kernel`] with this shared-memory geometry.
    BlockCmsHt(SmemGeometry),
    /// [`global_hash_kernel`].
    GlobalHash,
}

impl KernelKind {
    /// Kernel name in the device log, profiles and traces.
    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelKind::WarpPacked => "lp_warp_packed",
            KernelKind::WarpPerVertex { .. } => "lp_warp_per_vertex",
            KernelKind::BlockCmsHt(_) => "lp_block_cms_ht",
            KernelKind::GlobalHash => "lp_global_hash",
        }
    }

    /// The kernel's slot in a [`ScheduleLedger`].
    fn slot(self) -> usize {
        match self {
            KernelKind::WarpPacked => 0,
            KernelKind::WarpPerVertex { .. } => 1,
            KernelKind::BlockCmsHt(_) => 2,
            KernelKind::GlobalHash => 3,
        }
    }
}

/// The schedule one harness part of one kernel priced last: its vertex list
/// and what [`schedule_charges`] charged for it.
#[derive(Debug, Default)]
pub(crate) struct PartLedger {
    vertices: Vec<VertexId>,
    charges: KernelCounters,
}

impl PartLedger {
    /// Charges the schedule of `kind` over `vertices` to `ctx`: the kept
    /// counts when this part priced exactly `vertices` last time and
    /// `reuse` allows it, else a fresh pricing, which is kept. Returns
    /// whether it priced.
    ///
    /// The counts are a function of the CSR, the device, the kernel's
    /// launch parameters and the list. The ledger's owner, one run's
    /// backend, fixes the first three; the list is compared element by
    /// element.
    pub(crate) fn charge(
        &mut self,
        ctx: &mut KernelCtx,
        csr: &Csr,
        kind: KernelKind,
        vertices: &[VertexId],
        reuse: bool,
    ) -> bool {
        let priced = !reuse || self.vertices != vertices;
        if priced {
            let data = std::mem::take(&mut ctx.counters);
            schedule_charges(ctx, csr, kind, vertices);
            self.charges = std::mem::replace(&mut ctx.counters, data);
            self.vertices.clear();
            self.vertices.extend_from_slice(vertices);
        }
        ctx.counters.merge(&self.charges);
        priced
    }
}

/// One device's schedule ledgers for one run: per kernel, one
/// [`PartLedger`] per harness part.
#[derive(Debug, Default)]
pub(crate) struct ScheduleLedger {
    kernels: [Vec<PartLedger>; 4],
}

impl ScheduleLedger {
    /// The ledgers of `kind`'s first `parts` harness parts, in part order.
    pub(crate) fn parts(&mut self, kind: KernelKind, parts: usize) -> &mut [PartLedger] {
        let ledgers = &mut self.kernels[kind.slot()];
        ledgers.resize_with(parts, PartLedger::default);
        ledgers
    }
}

/// One shard of one propagation-kernel launch: everything a kernel's
/// decision pass needs except the program. Engines build it and pass it
/// through [`LpProgram::propagate_shard`], the one virtual call per shard
/// that brings the concrete program type to the generic kernels.
///
/// Not part of the user-facing API: programs never construct or inspect
/// one.
#[doc(hidden)]
#[derive(Debug)]
pub struct KernelShard<'a, 'c> {
    pub(crate) ctx: &'a mut KernelCtx<'c>,
    pub(crate) csr: &'a Csr,
    pub(crate) spoken: &'a [Label],
    pub(crate) kind: KernelKind,
    pub(crate) vertices: &'a [VertexId],
    pub(crate) out: DecisionsOut<'a>,
    pub(crate) stats: ShardStats,
}

impl KernelShard<'_, '_> {
    /// Runs the shard's decision pass with `prog`'s callbacks statically
    /// dispatched, charging the data ledger. The schedule ledger is the
    /// caller's ([`PartLedger::charge`]).
    pub(crate) fn run<P: LpProgram + ?Sized>(&mut self, prog: &P) {
        let (ctx, csr, spoken, vertices) = (&mut *self.ctx, self.csr, self.spoken, self.vertices);
        let out = &mut self.out;
        match self.kind {
            KernelKind::WarpPacked => {
                let weight_sums = warp_packed_kernel(csr, spoken, prog, vertices, out);
                ctx.intrinsic(weight_sums);
            }
            KernelKind::WarpPerVertex { ht_slots } => {
                warp_per_vertex_kernel(ctx, csr, spoken, prog, vertices, ht_slots, out)
            }
            KernelKind::BlockCmsHt(geom) => {
                let stats = &mut self.stats;
                block_cms_ht_kernel(ctx, csr, spoken, prog, vertices, geom, None, stats, out)
            }
            KernelKind::GlobalHash => global_hash_kernel(ctx, csr, spoken, prog, vertices, out),
        }
    }
}

// ---------------------------------------------------------------------------
// The schedule ledger: what a launch charges whatever the labels hold.
// ---------------------------------------------------------------------------

/// Charges every event of `kind` over `vertices` that no label can change:
/// the schedule half of a launch, whose decision half is the kernel
/// function [`KernelShard::run`] calls.
pub(crate) fn schedule_charges(
    ctx: &mut KernelCtx,
    csr: &Csr,
    kind: KernelKind,
    vertices: &[VertexId],
) {
    match kind {
        KernelKind::WarpPacked => schedule_packed(ctx, csr, vertices),
        KernelKind::WarpPerVertex { ht_slots } => {
            let scan = table_scan(&BoundedHashTable::new(ht_slots, ht_slots as u32));
            for &v in vertices {
                schedule_warp_per_vertex(ctx, csr, v);
                ctx.shared_access_uniform(scan);
                ctx.intrinsic(5); // warp max-reduction
                ctx.global_write_scattered(1);
            }
        }
        KernelKind::BlockCmsHt(geom) => schedule_block(ctx, csr, vertices, geom),
        KernelKind::GlobalHash => {
            for &v in vertices {
                let (region, region_slots) = global_region(csr, v);
                // The per-vertex table region must be zeroed every
                // iteration — a cost the shared-memory kernels never pay —
                // and is scanned (coalesced) for the best final score.
                ctx.global_write_seq(region, region_slots, 8);
                schedule_warp_per_vertex(ctx, csr, v);
                ctx.global_read_seq(region, region_slots, 8);
                ctx.intrinsic(5);
                ctx.global_write_scattered(1);
            }
        }
    }
}

/// Warp-wide shared accesses of a final scan over `table`'s slots.
fn table_scan(table: &BoundedHashTable) -> u64 {
    (table.capacity() / WARP_SIZE) as u64
}

/// A one-warp-per-vertex kernel's warp over `v` and its reads of `v`'s list.
fn schedule_warp_per_vertex(ctx: &mut KernelCtx, csr: &Csr, v: VertexId) {
    ctx.warps_launched(1);
    ctx.lanes_active(u64::from(csr.degree(v)).min(32));
    schedule_list(ctx, csr, v, WARP_SIZE);
}

/// The reads of `v`'s neighbor list by `lanes` lanes at a time: per chunk,
/// the contiguous neighbor-id load, the label gather (32 entries per warp
/// access) and the chunk's `alu(2)`.
fn schedule_list(ctx: &mut KernelCtx, csr: &Csr, v: VertexId, lanes: usize) {
    let off = csr.offset(v);
    for (c, chunk) in csr.neighbors(v).chunks(lanes).enumerate() {
        let first_edge = off + (c * lanes) as u64;
        ctx.global_read_seq(layout::TARGETS + first_edge * 4, chunk.len() as u64, 4);
        ctx.global_gather_list(chunk);
        ctx.alu(2);
    }
}

/// Distinct sectors of one warp-wide access whose lanes the caller presents
/// in ascending order, a contiguous range at a time: the ranges' sectors,
/// the one two adjacent ranges share counted once.
struct AscendingSectors {
    count: u64,
    last: u64,
}

impl AscendingSectors {
    fn new() -> Self {
        Self {
            count: 0,
            last: u64::MAX,
        }
    }

    /// Adds the sectors `first ..= last` (`first` not below any seen).
    #[inline]
    fn touch(&mut self, first: u64, last: u64) {
        self.count += last - first + u64::from(first != self.last);
        self.last = last;
    }
}

/// One packed warp as [`schedule_packed`] fills it.
struct WarpSchedule {
    /// Lanes in use.
    used: usize,
    /// Vertices packed.
    packed: u64,
    /// The lanes' neighbor ids: the label gather's indices.
    nbr: [VertexId; WARP_SIZE],
    /// Vertices, hence edge ids and decision slots, ascend across the warp,
    /// so neither access needs its lane addresses spelled out.
    target_sectors: AscendingSectors,
    decision_sectors: AscendingSectors,
}

impl WarpSchedule {
    fn new() -> Self {
        Self {
            used: 0,
            packed: 0,
            nbr: [INVALID_VERTEX; WARP_SIZE],
            target_sectors: AscendingSectors::new(),
            decision_sectors: AscendingSectors::new(),
        }
    }
}

/// Packs the low-degree bucket `vertices` into warps greedily — a vertex
/// opens a new warp when its lanes would overflow the current one — and
/// charges each warp's label-free events.
///
/// `vertices` must ascend and each have degree in `1..=WARP_SIZE`, so a
/// full neighbor list always fits in one warp.
fn schedule_packed(ctx: &mut KernelCtx, csr: &Csr, vertices: &[VertexId]) {
    let targets = csr.targets();
    let mut warp = WarpSchedule::new();
    let mut prev: Option<VertexId> = None;
    for &v in vertices {
        let deg = csr.degree(v) as usize;
        assert!(
            (1..=WARP_SIZE).contains(&deg),
            "warp-packed bucket requires degree 1..=32, got {deg}"
        );
        // `AscendingSectors` counts the warp's edge ids and decision slots
        // as ascending ranges.
        assert!(
            prev < Some(v),
            "warp-packed bucket must ascend, got {v} after {prev:?}"
        );
        prev = Some(v);
        if warp.used + deg > WARP_SIZE {
            schedule_warp(ctx, &warp);
            warp = WarpSchedule::new();
        }
        let edge = csr.offset(v);
        warp.nbr[warp.used..warp.used + deg].copy_from_slice(&targets[edge as usize..][..deg]);
        warp.target_sectors.touch(
            edge / layout::TARGETS_PER_SECTOR,
            (edge + deg as u64 - 1) / layout::TARGETS_PER_SECTOR,
        );
        let sector = u64::from(v) / layout::DECISIONS_PER_SECTOR;
        warp.decision_sectors.touch(sector, sector);
        warp.used += deg;
        warp.packed += 1;
    }
    schedule_warp(ctx, &warp);
}

/// Figure 3's charges for one packed warp, step by step, but for the popc
/// or shuffle sum between steps 4 and 5, which the labels choose
/// ([`warp_packed_kernel`]).
fn schedule_warp(ctx: &mut KernelCtx, warp: &WarpSchedule) {
    if warp.used == 0 {
        return;
    }
    ctx.warps_launched(1);
    ctx.lanes_active(warp.used as u64);
    // 1. Load neighbor ids (edge-indexed; contiguous per vertex but not
    //    across bucket gaps).
    ctx.counters.global_read_sectors += warp.target_sectors.count;
    // 2. Gather spoken labels of those neighbors; 3. take each lane's
    //    contribution.
    ctx.global_gather(&warp.nbr[..warp.used]);
    ctx.alu(2);
    // 4. ballot + 2x match_any.
    ctx.intrinsic(3);
    ctx.alu(2);
    // 5. Per-group max + index shuffle.
    ctx.intrinsic(2 * warp.packed);
    // 6. Every run's leader writes its decision.
    ctx.counters.global_write_sectors += warp.decision_sectors.count;
}

/// The CMS+HT kernel's blocks over `vertices`: each block's warps and lanes,
/// its reads of the neighbor list a block-wide chunk at a time, the exact HT
/// scan, the two block reductions (`s(HT)`, `s(CMS)`) and the decision
/// write.
fn schedule_block(ctx: &mut KernelCtx, csr: &Csr, vertices: &[VertexId], geom: SmemGeometry) {
    geom.validate(ctx.cfg.shared_mem_per_block);
    let block_threads = ctx.cfg.threads_per_block as usize;
    let warps_per_block = u64::from(ctx.cfg.warps_per_block());
    let scan = table_scan(&BoundedHashTable::new(geom.ht_slots, geom.ht_probe_limit));
    for &v in vertices {
        ctx.warps_launched(warps_per_block);
        ctx.lanes_active(u64::from(csr.degree(v)).min(32 * warps_per_block));
        schedule_list(ctx, csr, v, block_threads);
        ctx.shared_access_uniform(scan);
        ctx.block_reduce();
        ctx.block_reduce();
        ctx.global_write_scattered(1);
    }
}

// ---------------------------------------------------------------------------
// Low-degree: one warp, multiple vertices (§4.2).
// ---------------------------------------------------------------------------

/// Runs of at most this many lanes are decided in a fixed window
/// ([`decide_window`]); longer ones by a first-occurrence scan
/// ([`decide_scan`]).
const WINDOW: usize = 4;

/// Runs of at most this many lanes take a window this wide instead: a
/// 4-lane window costs a one- or two-lane run more than the scan it
/// replaces.
const NARROW_WINDOW: usize = 2;

/// Vertices [`warp_packed_kernel`] sorts into classes at a time: one bit of
/// a `u64` each.
const CLASS_BLOCK: usize = 64;

/// The positions of `mask`'s set bits, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Decides the low-degree bucket `vertices` the way Figure 3's packed warps
/// would, and returns the one charge of theirs the labels decide: per warp —
/// packed by [`schedule_packed`]'s rule — `intrinsic(1)` (the popc) when
/// every lane weighs 1, else `intrinsic(5)` (a short shuffle reduction).
///
/// The grouping Figure 3's intrinsics perform on the device is not
/// recomputed: a lane's same-vertex mask *is* its vertex's run of lanes, and
/// the same-(vertex, label) groups are found inside the run. A run of at
/// most [`WINDOW`] lanes is decided in a fixed-width window
/// ([`decide_window`]; [`NARROW_WINDOW`] lanes wide for the shortest runs),
/// a longer one by a first-occurrence scan ([`decide_scan`]). The class is
/// the run's length in the CSR. The kernel sorts each block of
/// [`CLASS_BLOCK`] vertices into class bitmasks and decides one class after
/// the other, so a bucket that mixes them (a serve window's) takes no
/// per-vertex class branch. The same pass over the degrees packs the warps;
/// their weight flags are gathered from the runs' afterwards.
pub(crate) fn warp_packed_kernel<P: LpProgram + ?Sized>(
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    vertices: &[VertexId],
    out: &mut DecisionsOut<'_>,
) -> u64 {
    let mut lanes = ScanLanes::new();
    // `used` starts full, so the first run opens a warp.
    let (mut used, mut warps, mut weighted_warps) = (WARP_SIZE, 0u64, 0u64);
    // Whether the open warp has a lane weighing other than 1.
    let mut open_weighted = false;
    for block in vertices.chunks(CLASS_BLOCK) {
        // Bit `i` of each mask stands for `block[i]`: its class, and
        // whether it opens a warp.
        let (mut narrow, mut wide, mut opens) = (0u64, 0u64, 0u64);
        for (i, &v) in block.iter().enumerate() {
            let deg = csr.degree(v) as usize;
            narrow |= u64::from((1..=NARROW_WINDOW).contains(&deg)) << i;
            wide |= u64::from((NARROW_WINDOW + 1..=WINDOW).contains(&deg)) << i;
            let open = used + deg > WARP_SIZE;
            used = if open { deg } else { used + deg };
            opens |= u64::from(open) << i;
        }
        let scanned = (u64::MAX >> (CLASS_BLOCK - block.len())) & !(narrow | wide);
        // Bit `i`: some lane of `block[i]` weighs other than 1.
        let mut weighted = 0u64;
        let mut record = |i: usize, (decision, uniform): (Decision, bool)| {
            out.set(block[i], decision);
            weighted |= u64::from(!uniform) << i;
        };
        for i in set_bits(narrow) {
            record(
                i,
                decide_window::<NARROW_WINDOW, P>(csr, spoken, prog, block[i]),
            );
        }
        for i in set_bits(wide) {
            record(i, decide_window::<WINDOW, P>(csr, spoken, prog, block[i]));
        }
        for i in set_bits(scanned) {
            record(i, decide_scan(csr, spoken, prog, block[i], &mut lanes));
        }
        // A warp is weighted from its first weighted run on; positions
        // that neither open a warp nor weigh change nothing.
        warps += u64::from(opens.count_ones());
        for i in set_bits(opens | weighted) {
            let (open, w) = ((opens >> i) & 1 == 1, (weighted >> i) & 1 == 1);
            open_weighted &= !open;
            weighted_warps += u64::from(w & !open_weighted);
            open_weighted |= w;
        }
    }
    // `intrinsic(1)` per warp, `intrinsic(5)` per weighted one.
    warps + 4 * weighted_warps
}

/// Decides `v`, whose run has `1..=W` lanes, in a fixed window of `W`
/// lanes, and returns the decision and whether every lane of the run weighs
/// 1.
///
/// Figure 3's steps 2 and 3 gather every lane unconditionally: lanes past
/// the run repeat its last lane and weigh 0. In steps 4 and 5 each lane's
/// frequency is an integer count of its label when the run's lanes all
/// weigh 1 (the popcount), else the lane weights of its label summed in
/// ascending lane order, the padding's `+0.0` included — which leaves every
/// sum's bits as a first-occurrence scan's. Every lane is scored and the window reduced
/// by [`BestLabel`]'s tie rule from lane 0 up; a repeated label scores the
/// same and never displaces itself, so the duplicates and the padding
/// change nothing.
#[inline(always)]
fn decide_window<const W: usize, P: LpProgram + ?Sized>(
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    v: VertexId,
) -> (Decision, bool) {
    let (off, last) = (csr.offset(v), csr.degree(v) as usize - 1);
    let targets = csr.targets();
    let mut label = [0 as Label; W];
    let mut weight = [0.0; W];
    let mut uniform = true;
    for k in 0..W {
        let e = off + k.min(last) as u64;
        let u = targets[e as usize];
        let c = prog.load_neighbor(v, u, e, spoken[u as usize]);
        label[k] = c.label;
        weight[k] = if k <= last { c.weight } else { 0.0 };
        uniform &= (k > last) | (c.weight == 1.0);
    }
    let freq: [f64; W] = if uniform {
        std::array::from_fn(|i| {
            let same = (0..W).map(|j| u32::from((label[j] == label[i]) & (j <= last)));
            f64::from(same.sum::<u32>())
        })
    } else {
        std::array::from_fn(|i| {
            (0..W).fold(0.0, |f, j| {
                f + if label[j] == label[i] { weight[j] } else { 0.0 }
            })
        })
    };
    let current = spoken[v as usize];
    let score: [f64; W] = std::array::from_fn(|k| prog.label_score(v, label[k], freq[k]));
    // The winner is picked by lane index: a select between two `f64`s
    // compiles to a branch, which the tie rule makes mispredict.
    let mut best = 0;
    for k in 1..W {
        let held = BestLabel {
            label: label[best],
            score: score[best],
        };
        best = if held.loses_to(label[k], score[k], current) {
            k
        } else {
            best
        };
    }
    // 6. The run's leader writes its decision.
    (Some((label[best], score[best])), uniform)
}

/// The lane registers [`decide_scan`] fills, kept across the vertices of a
/// launch.
struct ScanLanes {
    label: [Label; WARP_SIZE],
    weight: [f64; WARP_SIZE],
}

impl ScanLanes {
    fn new() -> Self {
        Self {
            label: [0; WARP_SIZE],
            weight: [0.0; WARP_SIZE],
        }
    }
}

/// Decides `v`, whose run has at most [`WARP_SIZE`] lanes, by a
/// first-occurrence scan, and returns the decision and whether every lane
/// of the run weighs 1.
///
/// Each distinct label is scored and offered once — every lane of a group
/// would score the same `(vertex, label, frequency)`, and
/// [`BestLabel::offer`] is idempotent and order-independent.
#[inline]
fn decide_scan<P: LpProgram + ?Sized>(
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    v: VertexId,
    lanes: &mut ScanLanes,
) -> (Decision, bool) {
    let ScanLanes { label, weight } = lanes;
    let nbrs = csr.neighbors(v);
    let deg = nbrs.len();
    let mut uniform = true;
    // 2. + 3. Each lane's contribution via the user API.
    for (lane, (&u, e)) in nbrs.iter().zip(csr.offset(v)..).enumerate() {
        let c = prog.load_neighbor(v, u, e, spoken[u as usize]);
        label[lane] = c.label;
        weight[lane] = c.weight;
        uniform &= c.weight == 1.0;
    }
    // 4. + 5. Frequency of each distinct label of the run — lane weights
    //    summed in ascending lane order, which for uniform weights is the
    //    popcount — scored and reduced to the vertex's best.
    let current = spoken[v as usize];
    let mut best: Option<BestLabel> = None;
    let mut done = 0u32;
    for lane in 0..deg {
        if (done >> lane) & 1 == 1 {
            continue;
        }
        let l = label[lane];
        let mut freq = 0.0;
        for peer in lane..deg {
            if label[peer] == l {
                freq += weight[peer];
                done |= 1 << peer;
            }
        }
        BestLabel::offer(&mut best, l, prog.label_score(v, l, freq), current);
    }
    // 6. The run's leader writes its decision.
    (BestLabel::into_decision(best), uniform)
}

// ---------------------------------------------------------------------------
// Mid-degree: one warp per vertex with a shared-memory hash table.
// ---------------------------------------------------------------------------

/// Scans `table` for `v`'s best final score — the exact-frequency pass
/// every table-based kernel ends with.
#[inline]
fn best_in_table<P: LpProgram + ?Sized>(
    table: &BoundedHashTable,
    prog: &P,
    v: VertexId,
    current: Label,
    best: &mut Option<BestLabel>,
) {
    for (l, freq) in table.iter() {
        let label = l as Label;
        BestLabel::offer(best, label, prog.label_score(v, label, freq), current);
    }
}

/// One warp scans one vertex's neighbor list 32 labels at a time,
/// accumulating counts in a per-warp shared-memory hash table sized to hold
/// every possible distinct label of a mid-degree vertex (so it never
/// overflows), then scans the table for the best final score.
pub(crate) fn warp_per_vertex_kernel<P: LpProgram + ?Sized>(
    ctx: &mut KernelCtx,
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    vertices: &[VertexId],
    ht_slots: usize,
    out: &mut DecisionsOut<'_>,
) {
    let mut ht = BoundedHashTable::new(ht_slots, ht_slots as u32);
    for &v in vertices {
        ht.clear();
        let off = csr.offset(v);
        let nbrs = csr.neighbors(v);
        debug_assert!(
            nbrs.len() <= ht.capacity(),
            "mid bucket degree {} exceeds shared HT capacity {}",
            nbrs.len(),
            ht.capacity()
        );
        for (c, chunk) in nbrs.chunks(WARP_SIZE).enumerate() {
            let mut conflicts = 0u64;
            for (i, &u) in chunk.iter().enumerate() {
                let edge = off + (c * WARP_SIZE + i) as u64;
                let contrib = prog.load_neighbor(v, u, edge, spoken[u as usize]);
                match ht.insert_add(u64::from(contrib.label), contrib.weight) {
                    InsertOutcome::Added { probes, .. } => {
                        conflicts += u64::from(probes - 1);
                    }
                    InsertOutcome::Full { .. } => {
                        unreachable!("mid HT sized to never overflow")
                    }
                }
            }
            ctx.shared_atomic(chunk.len() as u64, conflicts);
        }
        // Final scan with exact frequencies.
        let mut best: Option<BestLabel> = None;
        best_in_table(&ht, prog, v, spoken[v as usize], &mut best);
        ctx.alu(2 * ht.occupied() as u64);
        out.set(v, BestLabel::into_decision(best));
    }
}

// ---------------------------------------------------------------------------
// High-degree: one block per vertex, shared CMS+HT (§4.1).
// ---------------------------------------------------------------------------

/// Shared-memory geometry of the CMS+HT kernel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SmemGeometry {
    /// HT slots (`h` in the analysis).
    pub ht_slots: usize,
    /// HT probe budget before a label overflows to the CMS.
    pub ht_probe_limit: u32,
    /// CMS rows (`d`).
    pub cms_depth: usize,
    /// CMS buckets per row (`w`).
    pub cms_width: usize,
}

impl SmemGeometry {
    /// Panics if a dimension is one the sketches cannot be built with, or
    /// if HT+CMS exceed one block's shared memory — the same failure a real
    /// kernel launch would report. Engines call it before the first launch
    /// ([`RunOptions::validate_for_device`](super::RunOptions)): inside a
    /// kernel shard the same panic is a device fault the driver retries.
    pub(crate) fn validate(&self, shared_mem_per_block: usize) {
        assert!(
            self.ht_slots > 0,
            "ht_slots ({}) must be positive",
            self.ht_slots
        );
        assert!(
            self.ht_probe_limit > 0,
            "ht_probe_limit ({}) must be positive",
            self.ht_probe_limit
        );
        assert!(
            (1..=8).contains(&self.cms_depth),
            "cms_depth ({}) must be in 1..=8",
            self.cms_depth
        );
        assert!(
            self.cms_width > 0,
            "cms_width ({}) must be positive",
            self.cms_width
        );
        let mut arena = SharedMem::new(shared_mem_per_block);
        arena.alloc(self.ht_slots.next_power_of_two() * 8);
        arena.alloc(self.cms_depth * self.cms_width * 4);
    }
}

/// A global-memory scratch table big enough for the exact recount of any
/// of `vertices` (twice the largest degree, so inserts never fail).
fn global_scratch_table(csr: &Csr, vertices: &[VertexId]) -> BoundedHashTable {
    let max_deg = vertices
        .iter()
        .map(|&v| csr.degree(v) as usize)
        .max()
        .unwrap_or(0);
    BoundedHashTable::new((2 * max_deg).max(16), u32::MAX)
}

/// Global fallback of [`block_cms_ht_kernel`] (lines 16–24): exactly
/// recounts every label of `v`'s neighbors that is not resident in `ht`, in
/// the global hash table `ght`, and offers them to `best`.
#[allow(clippy::too_many_arguments)]
fn global_recount<P: LpProgram + ?Sized>(
    ctx: &mut KernelCtx,
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    v: VertexId,
    ht: &BoundedHashTable,
    ght: &mut BoundedHashTable,
    best: &mut Option<BestLabel>,
) {
    ght.clear();
    let off = csr.offset(v);
    let mut addrs = [0u64; WARP_SIZE];
    let mut pending = 0usize;
    for (j, &u) in csr.neighbors(v).iter().enumerate() {
        let contrib = prog.load_neighbor(v, u, off + j as u64, spoken[u as usize]);
        if ht.contains(u64::from(contrib.label)) {
            continue; // gt_score := ht_score (already scanned)
        }
        match ght.insert_add(u64::from(contrib.label), contrib.weight) {
            InsertOutcome::Added { .. } => {}
            InsertOutcome::Full { .. } => unreachable!("GHT sized to 2x degree"),
        }
        addrs[pending] = layout::GHT + (u64::from(contrib.label) % ght.capacity() as u64) * 8;
        pending += 1;
        if pending == WARP_SIZE {
            ctx.global_atomic(&addrs);
            pending = 0;
        }
    }
    if pending > 0 {
        ctx.global_atomic(&addrs[..pending]);
    }
    best_in_table(ght, prog, v, spoken[v as usize], best);
    ctx.alu(2 * ght.occupied() as u64);
    ctx.block_reduce();
}

/// Leading lanes of a chunk that must speak one label for the chunk to be
/// inserted [run by run](BlockSketch::insert_runs): the kernel's guess, from
/// the chunk itself, at whether its labels come in long runs.
///
/// The census behind it, classic LP over the benchmark's inputs (block-kernel
/// lanes and label runs per LP run, share of lanes in runs of 16 or more):
/// `lp_highdeg` 49.7 M lanes in 372 k runs (mean 133, 98 %) — one probe and
/// one store per run instead of a hash and a dependent add per lane;
/// `lp_outofcore` 7.5 M lanes in 4.1 M runs (mean 1.8, 3.5 M of them single
/// lanes, 17 %) — a run boundary every other lane is a mispredicted branch
/// every other lane, and the lane-by-lane loop wins. Four equal lanes in a
/// row are what a run-walk needs to break even (a lost branch costs about
/// what four lanes' hashing does), nearly certain where runs are long and a
/// one-in-ten event where they average two.
const RUN_WALK_PROBE_LANES: usize = 4;

/// The shared-memory sketches of one block and what the block's scan has
/// learnt from them so far.
struct BlockSketch {
    ht: BoundedHashTable,
    cms: CountMinSketch,
    /// `s(CMS)`: the best score an overflowed label reached by its running
    /// CMS estimate — a ceiling on what any label outside the HT can score.
    s_cms: f64,
    overflowed: bool,
}

/// What one chunk's inserts are charged.
#[derive(Default)]
struct ChunkTally {
    ht_ops: u64,
    ht_conflicts: u64,
    cms_ops: u64,
}

impl BlockSketch {
    fn new(geom: SmemGeometry) -> Self {
        Self {
            ht: BoundedHashTable::new(geom.ht_slots, geom.ht_probe_limit),
            cms: CountMinSketch::new(geom.cms_depth, geom.cms_width),
            s_cms: f64::MIN,
            overflowed: false,
        }
    }

    /// Empties the sketches for the next vertex.
    fn reset(&mut self) {
        self.ht.clear();
        self.cms.clear();
        self.s_cms = f64::MIN;
        self.overflowed = false;
    }

    /// Overflow path: a lane the HT rejected goes to the CMS; the running
    /// estimate scores a candidate ceiling.
    #[inline]
    fn overflow<P: LpProgram + ?Sized>(
        &mut self,
        prog: &P,
        v: VertexId,
        lane: NeighborContribution,
    ) {
        self.overflowed = true;
        let est = self.cms.add(u64::from(lane.label), lane.weight);
        self.s_cms = self.s_cms.max(prog.label_score(v, lane.label, est));
    }

    /// Inserts a chunk's contributions lane by lane.
    #[inline]
    fn insert_lanes<P: LpProgram + ?Sized>(
        &mut self,
        prog: &P,
        v: VertexId,
        lanes: impl Iterator<Item = NeighborContribution>,
    ) -> ChunkTally {
        let mut tally = ChunkTally::default();
        for lane in lanes {
            match self.ht.insert_add(u64::from(lane.label), lane.weight) {
                InsertOutcome::Added { probes, .. } => {
                    tally.ht_ops += 1;
                    tally.ht_conflicts += u64::from(probes - 1);
                }
                InsertOutcome::Full { probes } => {
                    tally.ht_conflicts += u64::from(probes - 1);
                    tally.cms_ops += 1;
                    self.overflow(prog, v, lane);
                }
            }
        }
        tally
    }

    /// Inserts a chunk's contributions a run of equal labels at a time: every
    /// lane of a run would hash to the same slot with the same outcome, so
    /// the run probes once, its weights are added to the count in lane order
    /// and the lanes' charges are multiplied out. Lanes of a rejected run
    /// still enter the CMS one by one — `s(CMS)` reads the running estimate.
    fn insert_runs<P: LpProgram + ?Sized>(
        &mut self,
        prog: &P,
        v: VertexId,
        mut lanes: impl Iterator<Item = NeighborContribution>,
    ) -> ChunkTally {
        let mut tally = ChunkTally::default();
        let mut next = lanes.next();
        while let Some(first) = next {
            let label = first.label;
            let mut run_lanes = 1u64;
            let probes = match self.ht.find_or_claim(u64::from(label)) {
                Ok((slot, probes)) => {
                    let count = self.ht.count_mut(slot);
                    let mut sum = *count + first.weight;
                    next = loop {
                        match lanes.next() {
                            Some(lane) if lane.label == label => {
                                sum += lane.weight;
                                run_lanes += 1;
                            }
                            other => break other,
                        }
                    };
                    *count = sum;
                    tally.ht_ops += run_lanes;
                    probes
                }
                Err(probes) => {
                    let mut lane = first;
                    next = loop {
                        self.overflow(prog, v, lane);
                        match lanes.next() {
                            Some(same) if same.label == label => {
                                lane = same;
                                run_lanes += 1;
                            }
                            other => break other,
                        }
                    };
                    tally.cms_ops += run_lanes;
                    probes
                }
            };
            tally.ht_conflicts += u64::from(probes - 1) * run_lanes;
        }
        tally
    }
}

/// Procedure `SharedMemBigNodes`: single scan inserting every neighbor
/// label into the shared HT, overflowing to the shared CMS; two block
/// reductions compare `s(HT)` against `s(CMS)`; only when the CMS *might*
/// hold a better label does the block fall back to a global-memory hash
/// table (exactly recounting the overflow labels). Returns exact winners.
///
/// Neighbor lists are sorted and labels converge, so the contributions of a
/// chunk arrive in runs of equal labels: a chunk whose first
/// [`RUN_WALK_PROBE_LANES`] lanes agree is inserted
/// [run by run](BlockSketch::insert_runs), any other
/// [lane by lane](BlockSketch::insert_lanes). The choice is the kernel's own,
/// from the labels it is about to consume, and changes neither a decision
/// nor a charge; `force_walk` pins it either way for the tests that prove
/// that, and is `None` everywhere else.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_cms_ht_kernel<P: LpProgram + ?Sized>(
    ctx: &mut KernelCtx,
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    vertices: &[VertexId],
    geom: SmemGeometry,
    force_walk: Option<bool>,
    stats: &mut ShardStats,
    out: &mut DecisionsOut<'_>,
) {
    let block_threads = ctx.cfg.threads_per_block as usize;
    let mut sketch = BlockSketch::new(geom);
    // Theorem 1 makes the fallback rare, and its table is sized by the
    // largest degree in the shard: built by the first vertex that needs it.
    let mut ght: Option<BoundedHashTable> = None;

    for &v in vertices {
        sketch.reset();
        stats.smem_vertices += 1;
        let off = csr.offset(v);
        let nbrs = csr.neighbors(v);
        for (c, chunk) in nbrs.chunks(block_threads).enumerate() {
            let first_edge = off + (c * block_threads) as u64;
            let load =
                |(&u, edge): (&VertexId, u64)| prog.load_neighbor(v, u, edge, spoken[u as usize]);
            let lanes = || chunk.iter().zip(first_edge..).map(load);
            let walk_runs = force_walk.unwrap_or_else(|| {
                let mut probe = lanes().take(RUN_WALK_PROBE_LANES).map(|lane| lane.label);
                let first = probe.next();
                chunk.len() >= RUN_WALK_PROBE_LANES && probe.all(|label| Some(label) == first)
            });
            let tally = if walk_runs {
                sketch.insert_runs(prog, v, lanes())
            } else {
                sketch.insert_lanes(prog, v, lanes())
            };
            ctx.shared_atomic(tally.ht_ops, tally.ht_conflicts);
            ctx.shared_atomic(tally.cms_ops * geom.cms_depth as u64, 0);
        }
        // Exact HT scan, then `s(HT)` against `s(CMS)`.
        let ht = &sketch.ht;
        let mut best: Option<BestLabel> = None;
        best_in_table(ht, prog, v, spoken[v as usize], &mut best);
        ctx.alu(2 * ht.occupied() as u64);

        let s_ht = best.map_or(f64::MIN, |b| b.score);
        if sketch.overflowed && s_ht < sketch.s_cms {
            stats.fallbacks += 1;
            let ght = ght.get_or_insert_with(|| global_scratch_table(csr, vertices));
            global_recount(ctx, csr, spoken, prog, v, ht, ght, &mut best);
        }
        out.set(v, BestLabel::into_decision(best));
    }
}

// ---------------------------------------------------------------------------
// Global-memory hash tables (the `global` ablation baseline / G-Hash).
// ---------------------------------------------------------------------------

/// Vertex `v`'s hash-table region in global memory: its base address and
/// slots (twice its degree, at least 16, rounded up to a power of two).
fn global_region(csr: &Csr, v: VertexId) -> (u64, u64) {
    let slots = (2 * csr.degree(v) as usize).max(16).next_power_of_two();
    (layout::GHT + csr.offset(v) * 16, slots as u64)
}

/// One warp per vertex; every label insert is an atomic into a per-vertex
/// hash-table region in *global* memory (scattered sectors), then the
/// region is scanned for the winner. This is the strategy §4.1 criticizes:
/// it cannot avoid random global accesses once neighbor lists exceed the
/// cache.
pub(crate) fn global_hash_kernel<P: LpProgram + ?Sized>(
    ctx: &mut KernelCtx,
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    vertices: &[VertexId],
    out: &mut DecisionsOut<'_>,
) {
    let mut ght = global_scratch_table(csr, vertices);
    for &v in vertices {
        ght.clear();
        let off = csr.offset(v);
        let (region, region_slots) = global_region(csr, v);
        for (c, chunk) in csr.neighbors(v).chunks(WARP_SIZE).enumerate() {
            let mut addrs = [0u64; WARP_SIZE];
            for (i, &u) in chunk.iter().enumerate() {
                let edge = off + (c * WARP_SIZE + i) as u64;
                let contrib = prog.load_neighbor(v, u, edge, spoken[u as usize]);
                match ght.insert_add(u64::from(contrib.label), contrib.weight) {
                    InsertOutcome::Added { .. } => {}
                    InsertOutcome::Full { .. } => unreachable!("GHT sized to 2x degree"),
                }
                addrs[i] = region + (u64::from(contrib.label) % region_slots) * 8;
            }
            ctx.global_atomic(&addrs[..chunk.len()]);
        }
        let mut best: Option<BestLabel> = None;
        best_in_table(&ght, prog, v, spoken[v as usize], &mut best);
        ctx.alu(2 * ght.occupied() as u64);
        out.set(v, BestLabel::into_decision(best));
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::variants::{ClassicLp, SeededLp, WeightedLp};
    use glp_gpusim::warp::{ballot_sync, match_any_sync, popc};
    use glp_gpusim::DeviceConfig;
    use glp_graph::gen::{star, two_cliques_bridge};
    use glp_graph::{EdgeId, INVALID_LABEL};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Byte address of vertex `u`'s entry in `L`.
    fn label_addr(u: u32) -> u64 {
        layout::LABELS + u64::from(u) * 4
    }

    /// The lane registers of one packed warp in Figure 3's formulation, the
    /// oracle of the packed-warp kernel's two passes ([`schedule_packed`],
    /// [`warp_packed_kernel`]) fused: every lane carries its vertex, the
    /// groups are recovered with `__ballot_sync` / `__match_any_sync`, every
    /// lane scores its own label, and the three warp-wide accesses are
    /// coalesced from byte addresses.
    struct Figure3Warp {
        used: usize,
        vertex: [VertexId; WARP_SIZE],
        edge: [u64; WARP_SIZE],
        label: [Label; WARP_SIZE],
        weight: [f64; WARP_SIZE],
        score: [f64; WARP_SIZE],
        addrs: [u64; WARP_SIZE],
        vkeys: [u64; WARP_SIZE],
        lkeys: [u64; WARP_SIZE],
    }

    impl Figure3Warp {
        fn new() -> Self {
            Self {
                used: 0,
                vertex: [INVALID_VERTEX; WARP_SIZE],
                edge: [0; WARP_SIZE],
                label: [0; WARP_SIZE],
                weight: [0.0; WARP_SIZE],
                score: [f64::MIN; WARP_SIZE],
                addrs: [0; WARP_SIZE],
                vkeys: [0; WARP_SIZE],
                lkeys: [0; WARP_SIZE],
            }
        }

        fn flush<P: LpProgram + ?Sized>(
            &mut self,
            ctx: &mut KernelCtx,
            csr: &Csr,
            spoken: &[Label],
            prog: &P,
            out: &mut DecisionsOut<'_>,
        ) {
            let used = std::mem::take(&mut self.used);
            if used == 0 {
                return;
            }
            ctx.warps_launched(1);
            ctx.lanes_active(used as u64);
            // 1. Load neighbor ids.
            for i in 0..used {
                self.addrs[i] = layout::TARGETS + self.edge[i] * 4;
            }
            ctx.global_read(&self.addrs[..used]);
            // 2. Gather spoken labels of those neighbors, and
            // 3. take each lane's contribution via the user API.
            let targets = csr.targets();
            let mut uniform_weights = true;
            for i in 0..used {
                let v = self.vertex[i];
                let u = targets[self.edge[i] as usize];
                self.addrs[i] = label_addr(u);
                let c = prog.load_neighbor(v, u, self.edge[i], spoken[u as usize]);
                self.label[i] = c.label;
                self.weight[i] = c.weight;
                uniform_weights &= c.weight == 1.0;
                self.vkeys[i] = u64::from(v);
                self.lkeys[i] = (u64::from(v) << 32) | u64::from(c.label);
            }
            ctx.global_read(&self.addrs[..used]);
            ctx.alu(2);
            // 4. Intrinsic grouping: active lanes → same-vertex mask → same
            //    (vertex,label) mask → frequency by popcount.
            let mut preds = [false; WARP_SIZE];
            preds[..used].fill(true);
            let active = ballot_sync(u32::MAX, &preds);
            let vmasks = match_any_sync(active, &self.vkeys);
            let lmasks = match_any_sync(active, &self.lkeys);
            ctx.intrinsic(3); // ballot + 2x match_any

            // 5. Score (frequency from the lmask group) and per-vertex
            //    reduction (leader = lowest lane of vmask).
            if uniform_weights {
                for (i, &lmask) in lmasks[..used].iter().enumerate() {
                    let freq = f64::from(popc(lmask));
                    self.score[i] = prog.label_score(self.vertex[i], self.label[i], freq);
                }
                ctx.intrinsic(1); // popc
            } else {
                // Weighted: sum lane weights across the lmask group (a
                // short shuffle reduction instead of a single popc).
                for (i, &lmask) in lmasks[..used].iter().enumerate() {
                    let mut sum = 0.0;
                    let mut rest = lmask;
                    while rest != 0 {
                        sum += self.weight[rest.trailing_zeros() as usize];
                        rest &= rest - 1;
                    }
                    self.score[i] = prog.label_score(self.vertex[i], self.label[i], sum);
                }
                ctx.intrinsic(5);
            }
            ctx.alu(2);
            let mut results = 0usize;
            for (i, &vm) in vmasks[..used].iter().enumerate() {
                if vm.trailing_zeros() as usize != i {
                    continue; // not the group leader
                }
                let v = self.vertex[i];
                let mut best: Option<BestLabel> = None;
                let current = spoken[v as usize];
                let mut rest = vm;
                while rest != 0 {
                    let l = rest.trailing_zeros() as usize;
                    BestLabel::offer(&mut best, self.label[l], self.score[l], current);
                    rest &= rest - 1;
                }
                ctx.intrinsic(2); // per-group max + index shuffle
                self.addrs[results] = layout::DECISIONS + u64::from(v) * 8;
                results += 1;
                out.set(v, BestLabel::into_decision(best));
            }
            // 6. Group leaders write their decisions.
            ctx.global_write(&self.addrs[..results]);
        }
    }

    /// The packed-warp kernel over [`Figure3Warp`].
    fn figure3_kernel<P: LpProgram + ?Sized>(
        ctx: &mut KernelCtx,
        csr: &Csr,
        spoken: &[Label],
        prog: &P,
        vertices: &[VertexId],
        out: &mut DecisionsOut<'_>,
    ) {
        let mut warp = Figure3Warp::new();
        for &v in vertices {
            let deg = csr.degree(v) as usize;
            if warp.used + deg > WARP_SIZE {
                warp.flush(ctx, csr, spoken, prog, out);
            }
            let off = csr.offset(v);
            for k in 0..deg {
                warp.vertex[warp.used + k] = v;
                warp.edge[warp.used + k] = off + k as u64;
            }
            warp.used += deg;
        }
        warp.flush(ctx, csr, spoken, prog, out);
    }

    /// A program written against the Table 1 callbacks only, with
    /// non-uniform weights and a score that favours the current label —
    /// the shape of `glp_test_support::MixLp`, which depends on this crate
    /// and so cannot be named from its unit tests.
    pub(crate) struct Mix {
        pub(crate) labels: Vec<Label>,
    }

    impl LpProgram for Mix {
        fn num_vertices(&self) -> usize {
            self.labels.len()
        }
        fn pick_label(&self, v: VertexId) -> Label {
            self.labels[v as usize]
        }
        fn load_neighbor(
            &self,
            v: VertexId,
            u: VertexId,
            _edge: EdgeId,
            label: Label,
        ) -> NeighborContribution {
            NeighborContribution {
                label,
                weight: 1.0 + f64::from((v ^ u) & 3) * 0.1,
            }
        }
        fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64 {
            if l == self.labels[v as usize] {
                freq + 0.5
            } else {
                freq
            }
        }
        fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
            match winner {
                Some((l, _)) if l != self.labels[v as usize] => {
                    self.labels[v as usize] = l;
                    true
                }
                _ => false,
            }
        }
        fn finished(&self, iteration: u32, changed: u64) -> bool {
            changed == 0 || iteration + 1 >= 8
        }
        fn labels(&self) -> &[Label] {
            &self.labels
        }
    }

    /// Runs the packed bucket `vertices` through the packed-warp launch and
    /// through the Figure 3 oracle: equal decisions (score bits included)
    /// and equal counters, field by field.
    fn assert_packed_matches_figure3<P: LpProgram>(
        csr: &Csr,
        spoken: &[Label],
        prog: &P,
        vertices: &[VertexId],
        what: &str,
    ) {
        let cfg = DeviceConfig::titan_v();
        let mut fast = KernelCtx::new(&cfg);
        let (got, _) = launch(
            &mut fast,
            csr,
            spoken,
            prog,
            KernelKind::WarpPacked,
            vertices,
        );
        let mut oracle = KernelCtx::new(&cfg);
        let want = collect(csr, vertices, |out| {
            figure3_kernel(&mut oracle, csr, spoken, prog, vertices, out)
        });
        assert_eq!(score_bits(got), score_bits(want), "{what}: decisions");
        assert_eq!(fast.counters, oracle.counters, "{what}: charges");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random packed buckets: degrees 1..=32 with gaps between the
        /// packed vertices' edge runs, unsorted neighbor lists with
        /// repeats, few labels (duplicates inside a run, ties with the
        /// current label), through uniform, edge-weighted and
        /// callback-weighted programs, and a seeded one whose lanes weigh 0
        /// or 1 by their labels.
        #[test]
        fn packed_kernel_equals_figure3(
            shape in 0u8..5,
            raw_degrees in prop::collection::vec(1usize..=32, 1..48),
            gaps in prop::collection::vec(0usize..3, 48),
            num_labels in 1u32..6,
            seed in any::<u64>(),
        ) {
            let mixed = shape == 4;
            let degrees: Vec<usize> = match shape {
                // Lone degree-32 vertices: one run fills the warp.
                0 => vec![32; raw_degrees.len().min(3)],
                // A single-lane tail warp behind one exactly full warp.
                1 => vec![16, 15, 1, 1],
                // Road-like: many short runs per warp.
                2 => raw_degrees.iter().map(|d| 1 + d % 4).collect(),
                // Both classes of run, alternating, over more than one of
                // the kernel's class blocks, and a last run shorter than
                // the window: the bucket's last vertex owns the CSR's final
                // edge, so its padded lanes must not read past it.
                4 => {
                    let count = 3 * CLASS_BLOCK / 2 + raw_degrees.len();
                    let mut ds: Vec<usize> = (0..count)
                        .map(|i| {
                            let d = raw_degrees[i % raw_degrees.len()];
                            if i % 2 == 0 {
                                1 + d % WINDOW
                            } else {
                                WINDOW + 1 + d % (WARP_SIZE - WINDOW)
                            }
                        })
                        .collect();
                    ds.push(1 + raw_degrees[0] % (WINDOW - 1));
                    ds
                }
                _ => raw_degrees,
            };
            // Vertex ids: each packed vertex follows 0..=2 vertices the
            // bucket skips (degree 0, or too wide for a warp — their edges
            // open a gap in the edge ids).
            let mut rng = seed;
            let mut next = move |bound: u64| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) % bound
            };
            let mut all_degrees = Vec::new();
            let mut vertices = Vec::new();
            for (&d, &gap) in degrees.iter().zip(gaps.iter().cycle()) {
                for skipped in 0..gap {
                    all_degrees.push(if skipped == 0 { 0 } else { 40 });
                }
                vertices.push(all_degrees.len() as VertexId);
                all_degrees.push(d);
            }
            let n = all_degrees.len();
            let mut offsets = vec![0u64];
            for d in &all_degrees {
                offsets.push(offsets.last().unwrap() + *d as u64);
            }
            let m = *offsets.last().unwrap() as usize;
            let mut targets: Vec<VertexId> =
                (0..m).map(|_| next(n as u64) as VertexId).collect();
            if mixed {
                // Each run's first lane is its own vertex, which speaks the
                // current label: ties with it in most runs of two or more.
                for &v in &vertices {
                    targets[offsets[v as usize] as usize] = v;
                }
            }
            let csr = Csr::from_parts(offsets, targets, None);
            let spoken: Vec<Label> = (0..n).map(|_| next(u64::from(num_labels)) as Label).collect();

            let classic = ClassicLp::new(n);
            assert_packed_matches_figure3(&csr, &spoken, &classic, &vertices, "classic");
            // Mixed buckets weigh most edges 1 and a few 0 or 2.5, so a
            // warp's weight flag flips partway through it.
            let edge_weight = |e: usize| match (mixed, e % 23) {
                (true, 7) => 0.0,
                (true, 19) => 2.5,
                (true, _) => 1.0,
                (false, _) => 0.5 + (e % 7) as f32,
            };
            let edge_weights: Arc<Vec<f32>> = Arc::new((0..m).map(edge_weight).collect());
            let weighted = WeightedLp::new(n, edge_weights, 8).with_retention(6.0);
            assert_packed_matches_figure3(&csr, &spoken, &weighted, &vertices, "weighted");
            let mix = Mix { labels: spoken.clone() };
            assert_packed_matches_figure3(&csr, &spoken, &mix, &vertices, "mix");
            let unlabeled: Vec<Label> = spoken
                .iter()
                .map(|&l| if l == 0 { INVALID_LABEL } else { l })
                .collect();
            let seeded = SeededLp::new(n, &[]);
            assert_packed_matches_figure3(&csr, &unlabeled, &seeded, &vertices, "seeded");
        }
    }

    /// [`block_cms_ht_kernel`] as it ran before it walked label runs, the
    /// oracle it is tested against: every lane hashes its own label into
    /// the HT and is charged on its own, and the label gather is counted a
    /// warp at a time.
    #[allow(clippy::too_many_arguments)]
    fn lanewise_block_kernel<P: LpProgram + ?Sized>(
        ctx: &mut KernelCtx,
        csr: &Csr,
        spoken: &[Label],
        prog: &P,
        vertices: &[VertexId],
        geom: SmemGeometry,
        stats: &mut ShardStats,
        out: &mut DecisionsOut<'_>,
    ) {
        geom.validate(ctx.cfg.shared_mem_per_block);
        let block_threads = ctx.cfg.threads_per_block as usize;
        let warps_per_block = u64::from(ctx.cfg.warps_per_block());
        let mut ht = BoundedHashTable::new(geom.ht_slots, geom.ht_probe_limit);
        let mut cms = CountMinSketch::new(geom.cms_depth, geom.cms_width);
        let mut ght = global_scratch_table(csr, vertices);

        for &v in vertices {
            ctx.warps_launched(warps_per_block);
            ctx.lanes_active(u64::from(csr.degree(v)).min(32 * warps_per_block));
            ht.clear();
            cms.clear();
            stats.smem_vertices += 1;
            let off = csr.offset(v);
            let nbrs = csr.neighbors(v);
            let mut s_cms = f64::MIN;
            let mut overflowed = false;
            for (c, chunk) in nbrs.chunks(block_threads).enumerate() {
                ctx.global_read_seq(
                    layout::TARGETS + (off + (c * block_threads) as u64) * 4,
                    chunk.len() as u64,
                    4,
                );
                for warp in chunk.chunks(WARP_SIZE) {
                    ctx.global_gather(warp);
                }
                let mut ht_ops = 0u64;
                let mut ht_conflicts = 0u64;
                let mut cms_ops = 0u64;
                for (i, &u) in chunk.iter().enumerate() {
                    let edge = off + (c * block_threads + i) as u64;
                    let contrib = prog.load_neighbor(v, u, edge, spoken[u as usize]);
                    match ht.insert_add(u64::from(contrib.label), contrib.weight) {
                        InsertOutcome::Added { probes, .. } => {
                            ht_ops += 1;
                            ht_conflicts += u64::from(probes - 1);
                        }
                        InsertOutcome::Full { probes } => {
                            overflowed = true;
                            ht_conflicts += u64::from(probes - 1);
                            let est = cms.add(u64::from(contrib.label), contrib.weight);
                            s_cms = s_cms.max(prog.label_score(v, contrib.label, est));
                            cms_ops += 1;
                        }
                    }
                }
                ctx.alu(2);
                ctx.shared_atomic(ht_ops, ht_conflicts);
                ctx.shared_atomic(cms_ops * geom.cms_depth as u64, 0);
            }
            ctx.shared_access_uniform((ht.capacity() / WARP_SIZE) as u64);
            let mut best: Option<BestLabel> = None;
            best_in_table(&ht, prog, v, spoken[v as usize], &mut best);
            ctx.alu(2 * ht.occupied() as u64);
            ctx.block_reduce();
            ctx.block_reduce();

            let s_ht = best.map_or(f64::MIN, |b| b.score);
            if overflowed && s_ht < s_cms {
                stats.fallbacks += 1;
                global_recount(ctx, csr, spoken, prog, v, &ht, &mut ght, &mut best);
            }
            ctx.global_write_scattered(1);
            out.set(v, BestLabel::into_decision(best));
        }
    }

    /// Decisions with their scores as bits: `-0.0 == 0.0` must not pass.
    fn score_bits(ds: Vec<(VertexId, Decision)>) -> Vec<(VertexId, Option<(Label, u64)>)> {
        ds.into_iter()
            .map(|(v, d)| (v, d.map(|(l, s)| (l, s.to_bits()))))
            .collect()
    }

    /// Runs the high-degree bucket `hubs` through the block kernel's schedule
    /// and [`block_cms_ht_kernel`] — run walk forced on, forced off and left
    /// to the kernel — and through the lane-by-lane oracle: equal decisions
    /// (score bits included), equal counters field by field, equal shard
    /// stats.
    fn assert_run_walk_matches_lanewise<P: LpProgram>(
        csr: &Csr,
        spoken: &[Label],
        prog: &P,
        hubs: &[VertexId],
        geom: SmemGeometry,
        what: &str,
    ) {
        let cfg = DeviceConfig::titan_v();
        let mut oracle = KernelCtx::new(&cfg);
        let mut want_stats = ShardStats::default();
        let want = score_bits(collect(csr, hubs, |out| {
            lanewise_block_kernel(
                &mut oracle,
                csr,
                spoken,
                prog,
                hubs,
                geom,
                &mut want_stats,
                out,
            )
        }));
        for force_walk in [Some(true), Some(false), None] {
            let mut ctx = KernelCtx::new(&cfg);
            schedule_charges(&mut ctx, csr, KernelKind::BlockCmsHt(geom), hubs);
            let mut stats = ShardStats::default();
            let got = score_bits(collect(csr, hubs, |out| {
                block_cms_ht_kernel(
                    &mut ctx, csr, spoken, prog, hubs, geom, force_walk, &mut stats, out,
                )
            }));
            assert_eq!(got, want, "{what}, walk {force_walk:?}: decisions");
            assert_eq!(
                ctx.counters, oracle.counters,
                "{what}, walk {force_walk:?}: charges"
            );
            assert_eq!(
                (stats.fallbacks, stats.smem_vertices),
                (want_stats.fallbacks, want_stats.smem_vertices),
                "{what}, walk {force_walk:?}: shard stats"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random high-degree buckets whose label streams have the shapes
        /// the run walk keys on, through a HT small enough that runs begin
        /// `Added` and later labels are rejected into the CMS and on to the
        /// global fallback.
        #[test]
        fn run_walk_equals_lane_by_lane(
            shape in 0u8..5,
            degrees in prop::collection::vec(129usize..2_000, 1..5),
            num_labels in 1u32..40,
            sorted in any::<bool>(),
            ht_slots in 4usize..=16,
            ht_probe_limit in 1u32..=2,
            cms_depth in 1usize..=4,
            cms_width in 8usize..64,
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let mut next = move |bound: u64| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) % bound
            };
            // Vertices `0..pool` are the neighbours; the hubs follow them.
            // Hub `h` reads `degree` consecutive vertices from a start of
            // its own, so its label stream is a window of `spoken`.
            let pool = 2_100usize;
            let hubs: Vec<VertexId> = (0..degrees.len()).map(|h| (pool + h) as VertexId).collect();
            let mut offsets = vec![0u64; pool + 1];
            let mut targets: Vec<VertexId> = Vec::new();
            for &d in &degrees {
                let start = next((pool - d) as u64 + 1) as VertexId;
                let mut nbrs: Vec<VertexId> = (start..start + d as VertexId).collect();
                if !sorted {
                    // One window of the list out of order: the gather's
                    // stamp path, and the same labels in another order.
                    let at = next((d - 40) as u64) as usize;
                    nbrs[at..at + 40].reverse();
                }
                targets.extend(nbrs);
                offsets.push(targets.len() as u64);
            }
            let n = pool + hubs.len();
            let m = targets.len();
            let csr = Csr::from_parts(offsets, targets, None);
            let block = DeviceConfig::titan_v().threads_per_block as usize;
            let mean = [2, 8, 64][next(3) as usize];
            let mut spoken: Vec<Label> = Vec::with_capacity(n);
            while spoken.len() < n {
                let at = spoken.len();
                let label = next(u64::from(num_labels)) as Label;
                let len = match shape {
                    // All equal.
                    0 => n,
                    // Strictly alternating.
                    1 => {
                        spoken.push(at as Label % 2);
                        continue;
                    }
                    // Geometric run lengths, mean 2, 8 or 64.
                    2 => {
                        let mut len = 1;
                        while next(mean) != 0 {
                            len += 1;
                        }
                        len
                    }
                    // Runs a little shorter than a chunk: wherever a hub
                    // starts, one of them straddles a chunk boundary.
                    3 => block - 1 - next(40) as usize,
                    // ... and than a warp's window.
                    _ => WARP_SIZE - 1 - next(8) as usize,
                };
                spoken.extend(std::iter::repeat_n(label, len.min(n - at)));
            }

            let geom = SmemGeometry { ht_slots, ht_probe_limit, cms_depth, cms_width };
            let classic = ClassicLp::new(n);
            assert_run_walk_matches_lanewise(&csr, &spoken, &classic, &hubs, geom, "classic");
            let edge_weights: Arc<Vec<f32>> =
                Arc::new((0..m).map(|e| 0.5 + (e % 7) as f32).collect());
            let weighted = WeightedLp::new(n, edge_weights, 8).with_retention(6.0);
            assert_run_walk_matches_lanewise(&csr, &spoken, &weighted, &hubs, geom, "weighted");
            let mix = Mix { labels: spoken.clone() };
            assert_run_walk_matches_lanewise(&csr, &spoken, &mix, &hubs, geom, "mix");
        }
    }

    /// Runs one kernel over `vertices` into a dense decision array and
    /// lists `(vertex, decision)` for the vertices it was given.
    fn collect(
        csr: &Csr,
        vertices: &[VertexId],
        kernel: impl FnOnce(&mut DecisionsOut<'_>),
    ) -> Vec<(VertexId, Decision)> {
        let mut decisions: Vec<Decision> = vec![None; csr.num_vertices()];
        let mut outs = DecisionsOut::split(&mut decisions, &[vertices]);
        kernel(&mut outs[0]);
        vertices
            .iter()
            .map(|&v| (v, decisions[v as usize]))
            .collect()
    }

    /// One launch of `kind` over `vertices` as an engine runs it: the
    /// schedule priced, then the decision pass. Returns the decisions and
    /// the shard stats.
    fn launch<P: LpProgram>(
        ctx: &mut KernelCtx,
        csr: &Csr,
        spoken: &[Label],
        prog: &P,
        kind: KernelKind,
        vertices: &[VertexId],
    ) -> (Vec<(VertexId, Decision)>, ShardStats) {
        schedule_charges(ctx, csr, kind, vertices);
        let mut stats = ShardStats::default();
        let got = collect(csr, vertices, |out| {
            let mut shard = KernelShard {
                ctx,
                csr,
                spoken,
                kind,
                vertices,
                out: DecisionsOut {
                    base: out.base,
                    slots: &mut *out.slots,
                },
                stats: ShardStats::default(),
            };
            shard.run(prog);
            stats = shard.stats;
        });
        (got, stats)
    }

    fn exact_reference(csr: &Csr, spoken: &[Label], prog: &ClassicLp, v: VertexId) -> Decision {
        let mut counts = std::collections::HashMap::<Label, f64>::new();
        let off = csr.offset(v);
        for (j, &u) in csr.neighbors(v).iter().enumerate() {
            let c = prog.load_neighbor(v, u, off + j as u64, spoken[u as usize]);
            *counts.entry(c.label).or_default() += c.weight;
        }
        let mut best: Option<BestLabel> = None;
        for (&l, &f) in &counts {
            BestLabel::offer(&mut best, l, prog.label_score(v, l, f), spoken[v as usize]);
        }
        BestLabel::into_decision(best)
    }

    fn run_all_kernels(gname: &str, g: &glp_graph::Graph) {
        let cfg = DeviceConfig::titan_v();
        let prog = ClassicLp::new(g.num_vertices());
        let spoken: Vec<Label> = (0..g.num_vertices() as Label).collect();
        let csr = g.incoming();
        let all: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| g.degree(v) > 0)
            .collect();
        let low: Vec<VertexId> = all.iter().copied().filter(|&v| g.degree(v) <= 32).collect();

        let mut expected: Vec<(VertexId, Decision)> = Vec::new();
        for &v in &all {
            expected.push((v, exact_reference(csr, &spoken, &prog, v)));
        }
        let sort = |v: &mut Vec<(VertexId, Decision)>| v.sort_by_key(|e| e.0);
        let run = |kind: KernelKind, vertices: &[VertexId]| {
            let mut ctx = KernelCtx::new(&cfg);
            let (mut got, stats) = launch(&mut ctx, csr, &spoken, &prog, kind, vertices);
            sort(&mut got);
            (got, stats)
        };

        // Global kernel handles everything.
        let (got, _) = run(KernelKind::GlobalHash, &all);
        assert_eq!(got, expected, "{gname}: global kernel");

        // Mid kernel handles everything whose degree fits its HT.
        let ht_slots = 4096;
        let fit: Vec<VertexId> = all
            .iter()
            .copied()
            .filter(|&v| (g.degree(v) as usize) <= ht_slots)
            .collect();
        let (got, _) = run(KernelKind::WarpPerVertex { ht_slots }, &fit);
        let expected_fit: Vec<_> = expected
            .iter()
            .copied()
            .filter(|e| fit.contains(&e.0))
            .collect();
        assert_eq!(got, expected_fit, "{gname}: mid kernel");

        // Warp-packed kernel on the low bucket.
        let (got, _) = run(KernelKind::WarpPacked, &low);
        let expected_low: Vec<_> = expected
            .iter()
            .copied()
            .filter(|e| low.contains(&e.0))
            .collect();
        assert_eq!(got, expected_low, "{gname}: warp kernel");

        // Block CMS+HT kernel on everything (tiny HT forces CMS exercise).
        let geom = SmemGeometry {
            ht_slots: 8,
            ht_probe_limit: 4,
            cms_depth: 4,
            cms_width: 64,
        };
        let (got, stats) = run(KernelKind::BlockCmsHt(geom), &all);
        assert_eq!(got, expected, "{gname}: block kernel");
        assert_eq!(stats.smem_vertices, all.len() as u64);
    }

    #[test]
    fn decision_slices_follow_part_boundaries() {
        // Parts of a filtered bucket: gaps before, between and after.
        let parts: [&[VertexId]; 3] = [&[2, 3, 5], &[6], &[9, 11]];
        let mut decisions: Vec<Decision> = vec![None; 14];
        let mut outs = DecisionsOut::split(&mut decisions, &parts);
        assert_eq!(
            outs.iter()
                .map(|o| (o.base, o.slots.len()))
                .collect::<Vec<_>>(),
            [(2, 4), (6, 1), (9, 3)]
        );
        for (out, part) in outs.iter_mut().zip(parts) {
            for &v in part {
                out.set(v, Some((v, 1.0)));
            }
        }
        for (v, d) in decisions.iter().enumerate() {
            let written = parts.iter().any(|p| p.contains(&(v as VertexId)));
            assert_eq!(*d, written.then_some((v as Label, 1.0)), "vertex {v}");
        }
    }

    #[test]
    fn kernels_agree_on_two_cliques() {
        run_all_kernels("two_cliques", &two_cliques_bridge(6));
    }

    #[test]
    fn kernels_agree_on_star() {
        run_all_kernels("star", &star(300));
    }

    #[test]
    fn block_kernel_fallback_still_exact() {
        // Star hub with 299 distinct neighbor labels and an 8-slot HT: the
        // MFL is likely outside the HT, forcing fallbacks, but the result
        // must still match the reference (computed above in run_all_kernels
        // for the same graph). Here we just confirm fallbacks occur.
        let g = star(300);
        let cfg = DeviceConfig::titan_v();
        let prog = ClassicLp::new(g.num_vertices());
        let spoken: Vec<Label> = (0..g.num_vertices() as Label).collect();
        let geom = SmemGeometry {
            ht_slots: 8,
            ht_probe_limit: 4,
            cms_depth: 4,
            cms_width: 64,
        };
        let mut ctx = KernelCtx::new(&cfg);
        let kind = KernelKind::BlockCmsHt(geom);
        let (got, stats) = launch(&mut ctx, g.incoming(), &spoken, &prog, kind, &[0]);
        // 299 distinct singleton labels, 8-slot HT: CMS estimate ties or
        // beats the HT's best (all frequencies 1) only when collisions
        // inflate an estimate; either way the winner is the smallest label.
        assert_eq!(got[0].1.map(|d| d.0), Some(1));
        assert_eq!(stats.smem_vertices, 1);
    }

    #[test]
    fn warp_packing_fills_lanes() {
        // 16 vertices of degree 2 pack exactly one warp.
        let g = glp_graph::gen::cycle(16);
        let cfg = DeviceConfig::titan_v();
        let prog = ClassicLp::new(16);
        let spoken: Vec<Label> = (0..16).collect();
        let all: Vec<VertexId> = (0..16).collect();
        let mut ctx = KernelCtx::new(&cfg);
        let kind = KernelKind::WarpPacked;
        let (got, _) = launch(&mut ctx, g.incoming(), &spoken, &prog, kind, &all);
        assert_eq!(ctx.counters.warps_launched, 1);
        assert_eq!(got.len(), 16);
    }

    #[test]
    #[should_panic(expected = "must ascend, got 3 after Some(4)")]
    fn warp_packed_bucket_must_ascend() {
        let g = glp_graph::gen::cycle(8);
        let cfg = DeviceConfig::titan_v();
        let mut ctx = KernelCtx::new(&cfg);
        schedule_charges(&mut ctx, g.incoming(), KernelKind::WarpPacked, &[2, 4, 3]);
    }

    #[test]
    fn warp_packing_multiplies_utilization() {
        // Degree-2 vertices: one-warp-one-vertex keeps 2/32 lanes busy;
        // packing fills the warp (the whole point of §4.2).
        let g = glp_graph::gen::cycle(96);
        let cfg = DeviceConfig::titan_v();
        let prog = ClassicLp::new(96);
        let spoken: Vec<Label> = (0..96).collect();
        let all: Vec<VertexId> = (0..96).collect();

        let csr = g.incoming();
        let mut packed = KernelCtx::new(&cfg);
        launch(
            &mut packed,
            csr,
            &spoken,
            &prog,
            KernelKind::WarpPacked,
            &all,
        );
        let mut per_vertex = KernelCtx::new(&cfg);
        launch(
            &mut per_vertex,
            csr,
            &spoken,
            &prog,
            KernelKind::GlobalHash,
            &all,
        );

        let u_packed = packed.counters.warp_utilization();
        let u_single = per_vertex.counters.warp_utilization();
        assert!(u_packed > 0.9, "packed utilization {u_packed}");
        assert!(u_single < 0.1, "one-warp-one-vertex utilization {u_single}");
    }

    #[test]
    fn global_kernel_costs_more_sectors_than_mid() {
        // Same work, global vs shared counting: global must move more
        // global-memory sectors (its atomics hit scattered table slots).
        let g = two_cliques_bridge(20);
        let cfg = DeviceConfig::titan_v();
        let prog = ClassicLp::new(g.num_vertices());
        let spoken: Vec<Label> = (0..g.num_vertices() as Label).collect();
        let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();

        let csr = g.incoming();
        let mut ctx_g = KernelCtx::new(&cfg);
        launch(
            &mut ctx_g,
            csr,
            &spoken,
            &prog,
            KernelKind::GlobalHash,
            &all,
        );
        let mut ctx_m = KernelCtx::new(&cfg);
        let mid = KernelKind::WarpPerVertex { ht_slots: 256 };
        launch(&mut ctx_m, csr, &spoken, &prog, mid, &all);

        assert!(
            ctx_g.counters.global_sectors() > 2 * ctx_m.counters.global_sectors(),
            "global {} vs mid {}",
            ctx_g.counters.global_sectors(),
            ctx_m.counters.global_sectors()
        );
    }
}
