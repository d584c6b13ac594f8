//! The single-GPU GLP engine: the paper's BSP workflow (Figure 2) with
//! degree-bucketed MFL kernels (§4) and active-frontier scheduling.

use super::dispatch::{split_by_degree, Buckets};
use super::kernels::{self, DecisionsOut, KernelKind, KernelShard, ShardStats};
use super::options::BarrierEvent;
use super::{Decision, Direction, Engine, EngineError, FrontierMode, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::{CostModel, Device, DeviceError, KernelRecord};
use glp_graph::{Graph, Label, VertexId};
use glp_trace::{Category, Clock, KernelProfile, Tracer};
use std::borrow::Cow;
use std::time::Instant;

/// Simulated address bases for the engine-owned arrays (distinct from the
/// kernel-internal ones in [`kernels::layout`]).
const SPOKEN_OUT: u64 = 0x6_0000_0000;
const LABEL_STATE: u64 = 0x7_0000_0000;
/// Frontier bitmap (1 bit per vertex) and the compacted active-vertex
/// lists the next iteration's dispatch consumes.
const FRONTIER_BITMAP: u64 = 0x9_0000_0000;
const FRONTIER_LISTS: u64 = 0x9_8000_0000;
/// The two adjacency views the frontier kernels walk: the push rebuild
/// scatters along out-edges, the pull rebuild gathers along in-edges (the
/// reverse view; for undirected graphs both resolve to the same CSR).
const OUT_CSR: u64 = 0xA_0000_0000;
const IN_CSR: u64 = 0xA_8000_0000;

/// The single-GPU engine. Owns the device so modeled time accumulates
/// across phases and can be inspected afterwards via [`GpuEngine::device`];
/// all per-run configuration comes from [`RunOptions`].
#[derive(Debug)]
pub struct GpuEngine {
    device: Device,
}

impl GpuEngine {
    /// Engine on the given device.
    pub fn new(device: Device) -> Self {
        Self { device }
    }

    /// Engine on a modeled Titan V (the paper's primary card).
    pub fn titan_v() -> Self {
        Self::new(Device::titan_v())
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Engine for GpuEngine {
    fn name(&self) -> &'static str {
        "GLP"
    }

    /// Runs `prog` on `g` to termination. The graph must fit in device
    /// memory (use [`HybridEngine`](super::HybridEngine) otherwise).
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        assert_eq!(
            prog.num_vertices(),
            g.num_vertices(),
            "program sized for a different graph"
        );
        opts.validate_for_device(self.device.config().shared_mem_per_block);
        let wall_start = Instant::now();
        let n = g.num_vertices();
        let shards = opts.resolve_shards();
        let buckets = Buckets::build(g, opts.strategy, opts.thresholds);
        self.device.set_tracer(opts.tracer.clone());
        let log_mark = self.device.kernel_log().len();

        // Upload: CSR + label state + spoken array + decision array.
        let footprint = g.size_bytes() + (n as u64) * (4 + 4 + 12);
        let t0 = self.device.elapsed_seconds();
        let trace_mark = trace_run_begin(&opts.tracer, self.name(), t0);
        if let Err(e) = self.device.upload(footprint) {
            trace_fail(&opts.tracer, trace_mark, self.device.elapsed_seconds());
            return Err(e.into());
        }
        let mut transfer_s = self.device.elapsed_seconds() - t0;

        let mut spoken: Vec<Label> = vec![0; n];
        let mut decisions: Vec<Decision> = vec![None; n];
        let sparse = opts.frontier.sparse(prog.sparse_activation());
        let mut active = initial_active(n, sparse, opts);
        let mut changed_flags = vec![false; if sparse { n } else { 0 }];
        let mut report = LpRunReport::default();
        let start_elapsed = t0;
        let device = &mut self.device;

        // The iteration loop runs in an immediately-invoked closure so the
        // device footprint is released on the fault path too — a retrying
        // caller reuses this engine, and leaked residency would turn a
        // transient fault into a spurious OutOfMemory.
        let outcome = (|| -> Result<(), EngineError> {
            let mut last_direction: Option<Direction> = None;
            for iteration in opts.start_iteration..opts.max_iterations {
                let iter_start = device.elapsed_seconds();
                if let Some(t) = &opts.tracer {
                    t.begin_arg(
                        Category::Iteration,
                        "iteration",
                        Clock::Modeled,
                        iter_start,
                        u64::from(iteration),
                    );
                }
                prog.begin_iteration(iteration);
                pick_labels(device, &mut spoken, 0, prog, shards)?;
                decisions.fill(None);
                // Rebuild the degree-bucketed dispatch over this iteration's
                // frontier; the full-vertex bucketing is reused whenever the
                // frontier is (still) saturated.
                let all_active = !sparse || active.iter().all(|&a| a);
                let filtered: Cow<'_, Buckets> = if all_active {
                    Cow::Borrowed(&buckets)
                } else {
                    Cow::Owned(buckets.filtered(&active))
                };
                let scheduled = filtered.scheduled() as u64;
                report.active_per_iteration.push(scheduled);
                if let Some(t) = &opts.tracer {
                    t.begin_arg(
                        Category::Dispatch,
                        dispatch_name(last_direction),
                        Clock::Modeled,
                        device.elapsed_seconds(),
                        scheduled,
                    );
                }
                let stats = propagate(
                    device,
                    g,
                    &spoken,
                    prog,
                    &filtered,
                    opts,
                    shards,
                    &mut decisions,
                )?;
                if let Some(t) = &opts.tracer {
                    t.end(device.elapsed_seconds());
                }
                report.smem_fallbacks += stats.fallbacks;
                report.smem_vertices += stats.smem_vertices;
                let changed = apply_updates(device, &decisions, prog)?;
                let direction = if sparse {
                    mark_changed(&spoken, &decisions, &mut changed_flags);
                    refresh_active(device, g, &changed_flags, &mut active, opts.frontier)?
                } else {
                    Direction::Dense
                };
                last_direction = Some(direction);
                prog.end_iteration(iteration);
                if let Some(hook) = &opts.barrier_hook {
                    let t = device.elapsed_seconds();
                    charge_snapshot(device, n as u64)?;
                    report.snapshot_seconds += device.elapsed_seconds() - t;
                    report.snapshots_taken += 1;
                    if let Some(tr) = &opts.tracer {
                        tr.instant(
                            Category::Resilience,
                            "snapshot",
                            Clock::Modeled,
                            device.elapsed_seconds(),
                        );
                    }
                    hook.fire(&BarrierEvent {
                        iteration,
                        changed,
                        scheduled,
                        active: if sparse { Some(&active) } else { None },
                        direction,
                        program: &*prog,
                    });
                }
                report.changed_per_iteration.push(changed);
                report.direction_per_iteration.push(direction);
                report
                    .iteration_seconds
                    .push(device.elapsed_seconds() - iter_start);
                report.iterations = iteration + 1;
                if let Some(t) = &opts.tracer {
                    t.end(device.elapsed_seconds());
                }
                if prog.finished(iteration, changed) {
                    break;
                }
            }
            Ok(())
        })();

        if outcome.is_ok() {
            // Download the final labels.
            let t1 = self.device.elapsed_seconds();
            self.device.download(n as u64 * 4);
            transfer_s += self.device.elapsed_seconds() - t1;
            if let Some(t) = &opts.tracer {
                t.end(self.device.elapsed_seconds());
            }
        }
        self.device.free(footprint);

        if let Err(e) = outcome {
            trace_fail(&opts.tracer, trace_mark, self.device.elapsed_seconds());
            return Err(e);
        }
        report.kernel_profile =
            profile_from_log(self.name(), &self.device.kernel_log()[log_mark..]);
        report.modeled_seconds = self.device.elapsed_seconds() - start_elapsed;
        report.transfer_seconds = transfer_s;
        report.wall_seconds = wall_start.elapsed().as_secs_f64();
        report.gpu_counters = *self.device.totals();
        Ok(report)
    }
}

/// Opens the run-level span (when tracing) and returns the unwind mark the
/// error path hands back to [`trace_fail`].
pub(crate) fn trace_run_begin(
    tracer: &Option<Tracer>,
    tier: &'static str,
    start_s: f64,
) -> Option<usize> {
    tracer.as_ref().map(|t| {
        let mark = t.open_depth();
        t.begin(Category::Run, tier, Clock::Modeled, start_s);
        mark
    })
}

/// Error-path unwind: closes every span the run opened, innermost-first,
/// flagged as errors, so a recovery layer above can parent its
/// retry/degrade events to the failed iteration span.
pub(crate) fn trace_fail(tracer: &Option<Tracer>, mark: Option<usize>, at_s: f64) {
    if let (Some(t), Some(m)) = (tracer, mark) {
        t.fail_open_to(m, at_s);
    }
}

/// Aggregates one run's slice of the device kernel log into a
/// [`KernelProfile`] row set for `tier`.
pub(crate) fn profile_from_log(tier: &'static str, log: &[KernelRecord]) -> KernelProfile {
    let mut profile = KernelProfile::new();
    for rec in log {
        profile.record(tier, rec.name, rec.seconds);
    }
    profile
}

/// The frontier a run starts from: saturated for a fresh run, the caller's
/// captured bitmap when one is supplied to a sparse run — either an
/// iteration-granular resume (`start_iteration > 0`) or a warm start from
/// iteration 0, where the caller warrants the bitmap covers every vertex
/// whose decision could differ from its current state.
pub(crate) fn initial_active(n: usize, sparse: bool, opts: &RunOptions) -> Vec<bool> {
    match &opts.initial_frontier {
        Some(f) if sparse => {
            assert_eq!(f.len(), n, "resume frontier sized for a different graph");
            f.clone()
        }
        _ => vec![true; n],
    }
}

/// Charges the `barrier_snapshot` kernel: the coalesced label-state
/// readback that feeds a [`BarrierHook`](super::BarrierHook) checkpoint.
/// Only launched when a hook is installed, so hook-free runs are
/// cost-model-identical to builds without fault tolerance.
pub(crate) fn charge_snapshot(device: &mut Device, n: u64) -> Result<(), DeviceError> {
    device.launch("barrier_snapshot", |ctx| {
        ctx.global_read_seq(LABEL_STATE, n, 4);
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(n.div_ceil(32));
    })
}

/// Flags the vertices whose decision differs from the label they spoke
/// this round — the change set every frontier rebuild starts from. Derived
/// once per iteration into a buffer the run owns; `Auto`'s pricing
/// ([`touched_edges`]) and the rebuild it then picks both read it.
pub(crate) fn mark_changed(spoken: &[Label], decisions: &[Decision], changed: &mut [bool]) {
    for ((c, &s), &d) in changed.iter_mut().zip(spoken).zip(decisions) {
        *c = matches!(d, Some((l, _)) if l != s);
    }
}

/// Recomputes the active set in **push** direction — out-neighbors of
/// every vertex in the `changed` set ([`mark_changed`]) — returning the
/// number of scatter marks written, Σ out-degree over the changed vertices
/// (host side; every engine shares this so the frontier semantics cannot
/// diverge).
pub(crate) fn recompute_active(g: &Graph, changed: &[bool], active: &mut [bool]) -> u64 {
    active.fill(false);
    let out = g.outgoing();
    let mut touched = 0u64;
    for (v, _) in changed.iter().enumerate().filter(|&(_, &c)| c) {
        for &u in out.neighbors(v as VertexId) {
            active[u as usize] = true;
        }
        touched += u64::from(out.degree(v as VertexId));
    }
    touched
}

/// Recomputes the active set in **pull** direction: every vertex scans its
/// in-neighbors and activates itself at the first one in the `changed`
/// set. Because `v ∈ out(u) ⟺ u ∈ in(v)` (undirected graphs share one
/// CSR; directed graphs derive the outgoing view by transposition), this
/// marks *exactly* the vertices [`recompute_active`] marks — the
/// bit-identity contract `direction_equivalence.rs` pins. Returns the
/// number of in-adjacency entries actually scanned (the early exit is why
/// a dense frontier makes this cheap).
pub(crate) fn recompute_active_pull(g: &Graph, changed: &[bool], active: &mut [bool]) -> u64 {
    let inc = g.incoming();
    let mut scanned = 0u64;
    for (v, a) in active.iter_mut().enumerate() {
        *a = false;
        for &u in inc.neighbors(v as VertexId) {
            scanned += 1;
            if changed[u as usize] {
                *a = true;
                break;
            }
        }
    }
    scanned
}

/// Σ out-degree over the `changed` vertices — the scatter volume a push
/// rebuild *would* write, computed without building the frontier so
/// [`choose_direction`] can price both directions first.
pub(crate) fn touched_edges(g: &Graph, changed: &[bool]) -> u64 {
    let out = g.outgoing();
    changed
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c)
        .map(|(v, _)| u64::from(out.degree(v as VertexId)))
        .sum()
}

/// Resolves a [`FrontierMode`] to this iteration's rebuild [`Direction`].
/// `Auto` prices push's scattered sectors for the actual change volume
/// against a worst-case coalesced pull scan via
/// [`CostModel::prefer_pull`]; host tiers pass `CostModel::default()`,
/// which every modeled device also carries, so all engines make identical
/// choices on identical inputs.
pub(crate) fn choose_direction(
    mode: FrontierMode,
    g: &Graph,
    changed: &[bool],
    cost: &CostModel,
) -> Direction {
    match mode {
        FrontierMode::Dense => Direction::Dense,
        FrontierMode::Push => Direction::Push,
        FrontierMode::Pull => Direction::Pull,
        FrontierMode::Auto => {
            let touched = touched_edges(g, changed);
            if cost.prefer_pull(g.num_vertices() as u64, touched, g.num_edges()) {
                Direction::Pull
            } else {
                Direction::Push
            }
        }
    }
}

/// Dispatch-span name tagged with the direction that built the frontier
/// this iteration consumes (the *previous* iteration's rebuild choice).
/// Iteration 0, resumes with no prior rebuild, and dense scheduling all
/// keep the plain name.
pub(crate) fn dispatch_name(prev: Option<Direction>) -> &'static str {
    match prev {
        Some(Direction::Push) => "dispatch:push",
        Some(Direction::Pull) => "dispatch:pull",
        Some(Direction::Dense) | None => "dispatch",
    }
}

/// Charges the stream compaction that turns the frontier bitmap into the
/// dense per-bucket vertex lists the next dispatch consumes — shared by
/// both rebuild directions.
fn charge_compact(device: &mut Device, n: u64, next_active: u64) -> Result<(), DeviceError> {
    device.launch("frontier_compact", |ctx| {
        // Bitmap scan + prefix-sum compaction into dense vertex lists.
        ctx.global_read_seq(FRONTIER_BITMAP, n.div_ceil(8), 1);
        ctx.global_write_seq(FRONTIER_LISTS, next_active, 4);
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(3 * n.div_ceil(32) + next_active / 32);
    })
}

/// Charges the **push** frontier-maintenance kernel for `n` vertices with
/// `touched` scatter marks and `next_active` survivors: a coalesced pass
/// over the change flags, a coalesced walk of the changed vertices'
/// out-adjacency, and one scattered sector per mark — marks land wherever
/// the neighbor ids point, so the coalescer almost never merges them.
/// This traffic is exactly [`CostModel::push_frontier_bytes`], which is
/// what makes the `Auto` crossover measurable rather than asserted.
pub(crate) fn charge_frontier(
    device: &mut Device,
    n: u64,
    touched: u64,
    next_active: u64,
) -> Result<(), DeviceError> {
    device.launch("frontier_update", |ctx| {
        ctx.global_read_seq(LABEL_STATE, n, 4);
        ctx.global_read_seq(OUT_CSR, touched, 4);
        ctx.global_write_scattered(touched);
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(2 * n.div_ceil(32) + touched / 32);
    })?;
    charge_compact(device, n, next_active)
}

/// Charges the **pull** gather kernel for `n` vertices that scanned
/// `scanned` in-adjacency entries before early-exiting: coalesced flag
/// reads, coalesced CSR target reads, one sequential bitmap write — no
/// scatter at all ([`CostModel::pull_frontier_bytes`] with the actual
/// scanned count).
pub(crate) fn charge_pull_gather(
    device: &mut Device,
    n: u64,
    scanned: u64,
    next_active: u64,
) -> Result<(), DeviceError> {
    device.launch("pull_gather", |ctx| {
        ctx.global_read_seq(LABEL_STATE, n, 4);
        ctx.global_read_seq(IN_CSR, scanned, 4);
        ctx.global_write_seq(FRONTIER_BITMAP, n.div_ceil(8), 1);
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(2 * n.div_ceil(32) + scanned / 32);
    })?;
    charge_compact(device, n, next_active)
}

/// Charges the frontier-density measurement `Auto` runs before choosing
/// a direction: coalesced reads of the change flags and the out-degree
/// array, reduced block-wise to the scatter-volume estimate the
/// crossover consumes. The measurement is *fused* — it rides in the
/// update pass that produced the change flags, so it pays memory and
/// reduction cost but no dedicated launch (the standard
/// direction-optimization trick; a 4 µs launch per iteration would eat
/// the crossover's winnings on small frontiers). Forced `Push`/`Pull`
/// runs skip it — the measurement only exists to pay for the decision.
pub(crate) fn charge_frontier_density(device: &mut Device, n: u64) -> Result<(), DeviceError> {
    device.launch_fused("frontier_density", |ctx| {
        ctx.global_read_seq(LABEL_STATE, n, 4);
        ctx.global_read_seq(OUT_CSR, n, 4);
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(2 * n.div_ceil(32));
        for _ in 0..n.div_ceil(256) {
            ctx.block_reduce();
        }
    })
}

/// GPU-side frontier refresh: resolves the rebuild direction, runs the
/// matching shared recompute over the `changed` set, and charges the
/// matching kernels. Returns the direction taken so the run loop can
/// record and tag it.
pub(crate) fn refresh_active(
    device: &mut Device,
    g: &Graph,
    changed: &[bool],
    active: &mut [bool],
    mode: FrontierMode,
) -> Result<Direction, DeviceError> {
    let n = changed.len() as u64;
    if mode == FrontierMode::Auto {
        charge_frontier_density(device, n)?;
    }
    let dir = choose_direction(mode, g, changed, device.cost_model());
    match dir {
        Direction::Pull => {
            let scanned = recompute_active_pull(g, changed, active);
            let next_active = active.iter().filter(|&&a| a).count() as u64;
            charge_pull_gather(device, n, scanned, next_active)?;
        }
        Direction::Push | Direction::Dense => {
            let touched = recompute_active(g, changed, active);
            let next_active = active.iter().filter(|&&a| a).count() as u64;
            charge_frontier(device, n, touched, next_active)?;
        }
    }
    Ok(dir)
}

/// PickLabel (Figure 2): a trivially parallel kernel writing the
/// spoken-label array, coalesced. `spoken` covers vertices
/// `base .. base + spoken.len()` (multi-GPU engines pass per-device
/// sub-slices); each harness shard fills its own chunk of it in place.
pub(crate) fn pick_labels(
    device: &mut Device,
    spoken: &mut [Label],
    base: VertexId,
    prog: &dyn LpProgram,
    shards: usize,
) -> Result<(), DeviceError> {
    let per = spoken.len().div_ceil(shards).max(1);
    let chunks: Vec<(usize, &mut [Label])> = spoken
        .chunks_mut(per)
        .enumerate()
        .map(|(i, chunk)| (i * per, chunk))
        .collect();
    device.launch_sharded("pick_label", chunks, |(start, chunk), ctx| {
        let first = base as usize + start;
        let m = chunk.len() as u64;
        ctx.global_read_seq(LABEL_STATE + first as u64 * 4, m, 4);
        ctx.global_write_seq(SPOKEN_OUT + first as u64 * 4, m, 4);
        ctx.warps_launched(m.div_ceil(32));
        ctx.lanes_active(m);
        ctx.alu(2 * m.div_ceil(32));
        prog.pick_labels_into(first as VertexId, chunk);
    })?;
    Ok(())
}

/// LabelPropagation (Figure 2): degree-bucketed kernels over the vertices
/// named in `buckets`. `decisions[v]` belongs to vertex `v`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate(
    device: &mut Device,
    g: &Graph,
    spoken: &[Label],
    prog: &dyn LpProgram,
    buckets: &Buckets,
    opts: &RunOptions,
    shards: usize,
    decisions: &mut [Decision],
) -> Result<ShardStats, DeviceError> {
    let csr = g.incoming();
    let launches = [
        (KernelKind::WarpPacked, &buckets.warp_packed),
        (
            KernelKind::WarpPerVertex {
                ht_slots: opts.mid_ht_slots,
            },
            &buckets.warp_per_vertex,
        ),
        (
            KernelKind::BlockCmsHt(opts.smem_geometry()),
            &buckets.block_per_vertex,
        ),
        (KernelKind::GlobalHash, &buckets.global_hash),
    ];
    let mut stats = ShardStats::default();
    for (kind, vertices) in launches {
        if vertices.is_empty() {
            continue;
        }
        // Bucket parts are contiguous ascending id ranges, so each shard
        // gets the matching sub-slice of `decisions` to write in place.
        let parts = split_by_degree(g, vertices, shards);
        let outs = DecisionsOut::split(decisions, &parts);
        let work: Vec<_> = parts.into_iter().zip(outs).collect();
        let per_shard = device.launch_sharded(kind.name(), work, |(vertices, out), ctx| {
            let mut shard = KernelShard {
                ctx,
                csr,
                spoken,
                kind,
                vertices,
                out,
                stats: ShardStats::default(),
            };
            // The one virtual call of the shard: behind it the kernel runs
            // monomorphised for the concrete program.
            prog.propagate_shard(&mut shard);
            shard.stats
        })?;
        for st in &per_shard {
            stats.merge(st);
        }
    }
    Ok(stats)
}

/// UpdateVertex (Figure 2): host-driven state updates plus the modeled
/// coalesced read/write kernel. Every vertex is visited in ascending
/// order; under frontier scheduling skipped vertices carry a `None`
/// decision, which sparse-activation programs treat as "keep state".
pub(crate) fn apply_updates(
    device: &mut Device,
    decisions: &[Decision],
    prog: &mut dyn LpProgram,
) -> Result<u64, DeviceError> {
    let n = decisions.len() as u64;
    device.launch("update_vertex", |ctx| {
        ctx.global_read_seq(kernels::layout::DECISIONS, n, 12);
        ctx.global_write_seq(LABEL_STATE, n, 4);
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(2 * n.div_ceil(32));
    })?;
    Ok(prog.apply_decisions(decisions))
}

#[cfg(test)]
mod tests {
    use super::super::{FrontierMode, MflStrategy};
    use super::*;
    use crate::variants::ClassicLp;
    use glp_graph::gen::{caveman, two_cliques_bridge};

    fn labels_after(strategy: MflStrategy, g: &Graph) -> (Vec<Label>, LpRunReport) {
        let mut engine = GpuEngine::titan_v();
        let mut prog = ClassicLp::new(g.num_vertices());
        let report = engine
            .run(g, &mut prog, &RunOptions::default().with_strategy(strategy))
            .unwrap();
        (prog.labels().to_vec(), report)
    }

    #[test]
    fn two_cliques_find_two_communities() {
        let g = two_cliques_bridge(8);
        let (labels, report) = labels_after(MflStrategy::SmemWarp, &g);
        // Every clique converges to one label.
        assert!(labels[..8].iter().all(|&l| l == labels[0]));
        assert!(labels[8..].iter().all(|&l| l == labels[8]));
        assert!(report.iterations >= 2);
        assert!(report.modeled_seconds > 0.0);
    }

    #[test]
    fn strategies_agree_bitwise() {
        let g = caveman(6, 9);
        let (a, _) = labels_after(MflStrategy::Global, &g);
        let (b, _) = labels_after(MflStrategy::Smem, &g);
        let (c, _) = labels_after(MflStrategy::SmemWarp, &g);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn optimized_strategy_is_modeled_faster() {
        let g = caveman(40, 12);
        let (_, global) = labels_after(MflStrategy::Global, &g);
        let (_, smem_warp) = labels_after(MflStrategy::SmemWarp, &g);
        assert!(
            smem_warp.modeled_seconds < global.modeled_seconds,
            "smem+warp {} !< global {}",
            smem_warp.modeled_seconds,
            global.modeled_seconds
        );
    }

    #[test]
    fn convergence_trace_recorded() {
        let g = two_cliques_bridge(5);
        let (_, report) = labels_after(MflStrategy::SmemWarp, &g);
        assert_eq!(
            report.changed_per_iteration.len(),
            report.iterations as usize
        );
        assert_eq!(
            report.active_per_iteration.len(),
            report.iterations as usize
        );
        assert_eq!(*report.changed_per_iteration.last().unwrap(), 0);
    }

    #[test]
    fn frontier_shrinks_active_set_and_matches_dense() {
        let g = caveman(12, 8);
        let run = |mode: FrontierMode| {
            let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 30);
            let report = GpuEngine::titan_v()
                .run(&g, &mut prog, &RunOptions::default().with_frontier(mode))
                .unwrap();
            (prog.labels().to_vec(), report)
        };
        let (dense_labels, dense) = run(FrontierMode::Dense);
        let (frontier_labels, frontier) = run(FrontierMode::Auto);
        assert_eq!(dense_labels, frontier_labels);
        assert_eq!(dense.changed_per_iteration, frontier.changed_per_iteration);
        // Dense recomputes every vertex every iteration; the frontier run
        // must do strictly less total work on a converging graph.
        assert!(dense
            .active_per_iteration
            .iter()
            .all(|&a| a == g.num_vertices() as u64));
        assert!(
            frontier.active_per_iteration.iter().sum::<u64>()
                < dense.active_per_iteration.iter().sum::<u64>(),
            "frontier {:?}",
            frontier.active_per_iteration
        );
    }

    #[test]
    fn every_direction_matches_dense_and_is_recorded() {
        let g = caveman(12, 8);
        let run = |mode: FrontierMode| {
            let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 30);
            let report = GpuEngine::titan_v()
                .run(&g, &mut prog, &RunOptions::default().with_frontier(mode))
                .unwrap();
            (prog.labels().to_vec(), report)
        };
        let (dense_labels, dense) = run(FrontierMode::Dense);
        assert!(dense
            .direction_per_iteration
            .iter()
            .all(|&d| d == Direction::Dense));
        for mode in [FrontierMode::Push, FrontierMode::Pull, FrontierMode::Auto] {
            let (labels, report) = run(mode);
            assert_eq!(dense_labels, labels, "{mode:?} labels diverged");
            assert_eq!(
                dense.changed_per_iteration, report.changed_per_iteration,
                "{mode:?} changed trace diverged"
            );
            assert_eq!(
                report.direction_per_iteration.len(),
                report.iterations as usize
            );
            match mode {
                FrontierMode::Push => assert_eq!(report.direction_count(Direction::Pull), 0),
                FrontierMode::Pull => assert_eq!(report.direction_count(Direction::Push), 0),
                _ => {}
            }
        }
    }

    #[test]
    fn pull_and_push_rebuild_identical_frontiers() {
        let g = caveman(6, 9);
        let n = g.num_vertices();
        let spoken: Vec<Label> = (0..n as Label).collect();
        // Vertex 3 changes; everything else keeps its label.
        let mut decisions: Vec<Decision> = spoken.iter().map(|&l| Some((l, 1.0))).collect();
        decisions[3] = Some((999, 1.0));
        let mut changed = vec![false; n];
        mark_changed(&spoken, &decisions, &mut changed);
        let mut push = vec![false; n];
        let mut pull = vec![false; n];
        let touched = recompute_active(&g, &changed, &mut push);
        let scanned = recompute_active_pull(&g, &changed, &mut pull);
        assert_eq!(push, pull);
        assert_eq!(touched, u64::from(g.outgoing().degree(3)));
        // The pull scan early-exits but still walks at least one entry per
        // non-isolated vertex.
        assert!(scanned >= push.iter().filter(|&&a| a).count() as u64);
    }

    #[test]
    fn dispatch_names_follow_the_previous_rebuild() {
        assert_eq!(dispatch_name(None), "dispatch");
        assert_eq!(dispatch_name(Some(Direction::Dense)), "dispatch");
        assert_eq!(dispatch_name(Some(Direction::Push)), "dispatch:push");
        assert_eq!(dispatch_name(Some(Direction::Pull)), "dispatch:pull");
    }

    #[test]
    #[should_panic(expected = "sized for a different graph")]
    fn mismatched_program_rejected() {
        let g = two_cliques_bridge(4);
        let mut engine = GpuEngine::titan_v();
        let mut prog = ClassicLp::new(3);
        let _ = engine.run(&g, &mut prog, &RunOptions::default());
    }
}
