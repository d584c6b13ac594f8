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
//! * kernels are generic over the **concrete** program type. An engine
//!   holds a `&dyn LpProgram`; it wraps one shard's inputs in a
//!   [`KernelShard`] and makes a single virtual call,
//!   [`LpProgram::propagate_shard`], whose default body is monomorphised
//!   per program and hands `self` back to [`KernelShard::run`] — so
//!   `load_neighbor` and `label_score` inline into the edge loops;
//! * decisions are written in place into the shard's own sub-slice of the
//!   decision array ([`DecisionsOut`]) — no per-launch result vector;
//! * per-warp lane registers live in one [`PackedWarp`] reused across the
//!   warps of a shard, and the table scans, warp intrinsics and coalescing
//!   counts underneath are linear in what is occupied, not in capacity.

use super::{BestLabel, Decision};
use crate::api::LpProgram;
use glp_gpusim::warp::{ballot_sync, match_any_sync, popc};
use glp_gpusim::{KernelCtx, SharedMem, WARP_SIZE};
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

    /// Byte address of vertex `u`'s entry in `L`.
    #[inline]
    pub fn label_addr(u: u32) -> u64 {
        LABELS + u64::from(u) * 4
    }
}

/// Per-shard instrumentation returned by the kernels (and, summed over a
/// dispatch, by [`Backend::propagate`](super::Backend::propagate)).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// High-degree vertices that needed the global-memory fallback.
    pub fallbacks: u64,
    /// High-degree vertices processed by the CMS+HT kernel.
    pub smem_vertices: u64,
}

impl ShardStats {
    pub(crate) fn merge(&mut self, o: &ShardStats) {
        self.fallbacks += o.fallbacks;
        self.smem_vertices += o.smem_vertices;
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
}

/// One shard of one propagation-kernel launch: everything a kernel needs
/// except the program. Engines build it and pass it through
/// [`LpProgram::propagate_shard`], the one virtual call per shard that
/// brings the concrete program type to the generic kernels.
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
    /// Runs the shard's kernel with `prog`'s callbacks statically
    /// dispatched.
    pub(crate) fn run<P: LpProgram + ?Sized>(&mut self, prog: &P) {
        let (ctx, csr, spoken, vertices) = (&mut *self.ctx, self.csr, self.spoken, self.vertices);
        let out = &mut self.out;
        match self.kind {
            KernelKind::WarpPacked => warp_packed_kernel(ctx, csr, spoken, prog, vertices, out),
            KernelKind::WarpPerVertex { ht_slots } => {
                warp_per_vertex_kernel(ctx, csr, spoken, prog, vertices, ht_slots, out)
            }
            KernelKind::BlockCmsHt(geom) => {
                let stats = &mut self.stats;
                block_cms_ht_kernel(ctx, csr, spoken, prog, vertices, geom, stats, out)
            }
            KernelKind::GlobalHash => global_hash_kernel(ctx, csr, spoken, prog, vertices, out),
        }
    }
}

/// Charges a warp-wide gather of the spoken labels of `nbrs` (coalescing
/// computed from the actual vertex ids — neighbors in the same community
/// sit near each other only as much as the graph says they do).
#[inline]
fn charge_label_gather(ctx: &mut KernelCtx, nbrs: &[VertexId]) {
    let mut addrs = [0u64; WARP_SIZE];
    for chunk in nbrs.chunks(WARP_SIZE) {
        for (a, &u) in addrs.iter_mut().zip(chunk) {
            *a = layout::label_addr(u);
        }
        ctx.global_read(&addrs[..chunk.len()]);
    }
}

// ---------------------------------------------------------------------------
// Low-degree: one warp, multiple vertices (§4.2).
// ---------------------------------------------------------------------------

/// The lane registers of one packed warp. One instance serves every warp
/// of a kernel shard: `used` is reset per warp, and only lanes below it
/// are ever read, so nothing needs re-initialising in between.
struct PackedWarp {
    used: usize,
    vertex: [VertexId; WARP_SIZE],
    edge: [u64; WARP_SIZE],
    label: [Label; WARP_SIZE],
    weight: [f64; WARP_SIZE],
    score: [f64; WARP_SIZE],
    /// Scratch for the lane addresses of one warp-wide access.
    addrs: [u64; WARP_SIZE],
    vkeys: [u64; WARP_SIZE],
    lkeys: [u64; WARP_SIZE],
}

impl PackedWarp {
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

    /// Executes the packed lanes as one warp (Figure 3) and empties it.
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
        // 1. Load neighbor ids (edge-indexed; spans of packed vertices are
        //    contiguous per vertex but not across bucket gaps).
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
            self.addrs[i] = layout::label_addr(u);
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
            // Weighted: sum lane weights across the lmask group (a short
            // shuffle reduction instead of a single popc).
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

/// Processes low-degree vertices by packing the edges of several vertices
/// into one warp and counting label frequencies with `__ballot_sync` /
/// `__match_any_sync` / `__popc`, exactly as Figure 3 sketches.
///
/// Vertices must each have degree in `1..=WARP_SIZE` so a full neighbor
/// list always fits in one warp.
pub(crate) fn warp_packed_kernel<P: LpProgram + ?Sized>(
    ctx: &mut KernelCtx,
    csr: &Csr,
    spoken: &[Label],
    prog: &P,
    vertices: &[VertexId],
    out: &mut DecisionsOut<'_>,
) {
    let mut warp = PackedWarp::new();
    for &v in vertices {
        let deg = csr.degree(v) as usize;
        debug_assert!(
            (1..=WARP_SIZE).contains(&deg),
            "warp-packed bucket requires degree 1..=32, got {deg}"
        );
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
        ctx.warps_launched(1);
        ctx.lanes_active(u64::from(csr.degree(v)).min(32));
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
            // Contiguous neighbor-id load.
            ctx.global_read_seq(
                layout::TARGETS + (off + (c * WARP_SIZE) as u64) * 4,
                chunk.len() as u64,
                4,
            );
            charge_label_gather(ctx, chunk);
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
            ctx.alu(2);
            ctx.shared_atomic(chunk.len() as u64, conflicts);
        }
        // Final scan with exact frequencies.
        ctx.shared_access_uniform((ht.capacity() / WARP_SIZE) as u64);
        let mut best: Option<BestLabel> = None;
        best_in_table(&ht, prog, v, spoken[v as usize], &mut best);
        ctx.alu(2 * ht.occupied() as u64);
        ctx.intrinsic(5); // warp max-reduction
        ctx.global_write_scattered(1);
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
    /// Panics if HT+CMS exceed one block's shared memory — the same failure
    /// a real kernel launch would report.
    pub(crate) fn validate(&self, shared_mem_per_block: usize) {
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

/// Procedure `SharedMemBigNodes`: single scan inserting every neighbor
/// label into the shared HT, overflowing to the shared CMS; two block
/// reductions compare `s(HT)` against `s(CMS)`; only when the CMS *might*
/// hold a better label does the block fall back to a global-memory hash
/// table (exactly recounting the overflow labels). Returns exact winners.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_cms_ht_kernel<P: LpProgram + ?Sized>(
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
    // Theorem 1 makes the fallback rare, and its table is sized by the
    // largest degree in the shard: built by the first vertex that needs it.
    let mut ght: Option<BoundedHashTable> = None;

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
            charge_label_gather(ctx, chunk);
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
                        // Overflow path: label goes to the CMS; the running
                        // estimate scores a candidate ceiling.
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
        // Exact HT scan + two block reductions (s(HT), s(CMS)).
        ctx.shared_access_uniform((ht.capacity() / WARP_SIZE) as u64);
        let mut best: Option<BestLabel> = None;
        let current = spoken[v as usize];
        best_in_table(&ht, prog, v, current, &mut best);
        ctx.alu(2 * ht.occupied() as u64);
        ctx.block_reduce();
        ctx.block_reduce();

        let s_ht = best.map_or(f64::MIN, |b| b.score);
        if overflowed && s_ht < s_cms {
            // Global fallback (lines 16–24): exactly recount every label
            // that is not resident in the HT, in a global hash table.
            stats.fallbacks += 1;
            let ght = ght.get_or_insert_with(|| global_scratch_table(csr, vertices));
            ght.clear();
            let mut addrs = [0u64; WARP_SIZE];
            let mut pending = 0usize;
            for (j, &u) in nbrs.iter().enumerate() {
                let contrib = prog.load_neighbor(v, u, off + j as u64, spoken[u as usize]);
                if ht.contains(u64::from(contrib.label)) {
                    continue; // gt_score := ht_score (already scanned)
                }
                match ght.insert_add(u64::from(contrib.label), contrib.weight) {
                    InsertOutcome::Added { .. } => {}
                    InsertOutcome::Full { .. } => unreachable!("GHT sized to 2x degree"),
                }
                addrs[pending] =
                    layout::GHT + (u64::from(contrib.label) % ght.capacity() as u64) * 8;
                pending += 1;
                if pending == WARP_SIZE {
                    ctx.global_atomic(&addrs);
                    pending = 0;
                }
            }
            if pending > 0 {
                ctx.global_atomic(&addrs[..pending]);
            }
            best_in_table(ght, prog, v, current, &mut best);
            ctx.alu(2 * ght.occupied() as u64);
            ctx.block_reduce();
        }
        ctx.global_write_scattered(1);
        out.set(v, BestLabel::into_decision(best));
    }
}

// ---------------------------------------------------------------------------
// Global-memory hash tables (the `global` ablation baseline / G-Hash).
// ---------------------------------------------------------------------------

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
        ctx.warps_launched(1);
        ctx.lanes_active(u64::from(csr.degree(v)).min(32));
        ght.clear();
        let off = csr.offset(v);
        let nbrs = csr.neighbors(v);
        let region_slots = ((2 * nbrs.len()).max(16)).next_power_of_two() as u64;
        let region = layout::GHT + csr.offset(v) * 16;
        // The per-vertex table region must be zeroed every iteration — a
        // cost the shared-memory kernels never pay.
        ctx.global_write_seq(region, region_slots, 8);
        for (c, chunk) in nbrs.chunks(WARP_SIZE).enumerate() {
            ctx.global_read_seq(
                layout::TARGETS + (off + (c * WARP_SIZE) as u64) * 4,
                chunk.len() as u64,
                4,
            );
            charge_label_gather(ctx, chunk);
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
            ctx.alu(2);
            ctx.global_atomic(&addrs[..chunk.len()]);
        }
        // Scan the region (coalesced) for the best final score.
        ctx.global_read_seq(region, region_slots, 8);
        let mut best: Option<BestLabel> = None;
        best_in_table(&ght, prog, v, spoken[v as usize], &mut best);
        ctx.alu(2 * ght.occupied() as u64);
        ctx.intrinsic(5);
        ctx.global_write_scattered(1);
        out.set(v, BestLabel::into_decision(best));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::ClassicLp;
    use glp_gpusim::DeviceConfig;
    use glp_graph::gen::{star, two_cliques_bridge};

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

        // Global kernel handles everything.
        let mut ctx = KernelCtx::new(&cfg);
        let mut got = collect(csr, &all, |out| {
            global_hash_kernel(&mut ctx, csr, &spoken, &prog, &all, out)
        });
        sort(&mut got);
        assert_eq!(got, expected, "{gname}: global kernel");

        // Mid kernel handles everything whose degree fits its HT.
        let ht_slots = 4096;
        let fit: Vec<VertexId> = all
            .iter()
            .copied()
            .filter(|&v| (g.degree(v) as usize) <= ht_slots)
            .collect();
        let mut ctx = KernelCtx::new(&cfg);
        let mut got = collect(csr, &fit, |out| {
            warp_per_vertex_kernel(&mut ctx, csr, &spoken, &prog, &fit, ht_slots, out)
        });
        sort(&mut got);
        let expected_fit: Vec<_> = expected
            .iter()
            .copied()
            .filter(|e| fit.contains(&e.0))
            .collect();
        assert_eq!(got, expected_fit, "{gname}: mid kernel");

        // Warp-packed kernel on the low bucket.
        let mut ctx = KernelCtx::new(&cfg);
        let mut got = collect(csr, &low, |out| {
            warp_packed_kernel(&mut ctx, csr, &spoken, &prog, &low, out)
        });
        sort(&mut got);
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
        let mut ctx = KernelCtx::new(&cfg);
        let mut stats = ShardStats::default();
        let mut got = collect(csr, &all, |out| {
            block_cms_ht_kernel(&mut ctx, csr, &spoken, &prog, &all, geom, &mut stats, out)
        });
        sort(&mut got);
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
        let mut stats = ShardStats::default();
        let csr = g.incoming();
        let got = collect(csr, &[0], |out| {
            block_cms_ht_kernel(&mut ctx, csr, &spoken, &prog, &[0], geom, &mut stats, out)
        });
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
        let csr = g.incoming();
        let got = collect(csr, &all, |out| {
            warp_packed_kernel(&mut ctx, csr, &spoken, &prog, &all, out)
        });
        assert_eq!(ctx.counters.warps_launched, 1);
        assert_eq!(got.len(), 16);
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
        collect(csr, &all, |out| {
            warp_packed_kernel(&mut packed, csr, &spoken, &prog, &all, out)
        });
        let mut per_vertex = KernelCtx::new(&cfg);
        collect(csr, &all, |out| {
            global_hash_kernel(&mut per_vertex, csr, &spoken, &prog, &all, out)
        });

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
        collect(csr, &all, |out| {
            global_hash_kernel(&mut ctx_g, csr, &spoken, &prog, &all, out)
        });

        let mut ctx_m = KernelCtx::new(&cfg);
        collect(csr, &all, |out| {
            warp_per_vertex_kernel(&mut ctx_m, csr, &spoken, &prog, &all, 256, out)
        });

        assert!(
            ctx_g.counters.global_sectors() > 2 * ctx_m.counters.global_sectors(),
            "global {} vs mid {}",
            ctx_g.counters.global_sectors(),
            ctx_m.counters.global_sectors()
        );
    }
}
