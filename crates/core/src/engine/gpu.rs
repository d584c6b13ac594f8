//! The single-GPU GLP backend: the degree-bucketed MFL kernels (§4) and the
//! modeled update / frontier / snapshot charges, run by the one BSP driver
//! ([`super::bsp`]).

use super::bsp::{drive, Backend, Phase};
use super::dispatch::split_by_degree;
use super::kernels::{self, DecisionsOut, KernelKind, KernelShard, ScheduleLedger, ShardStats};
use super::{BspEngine, Decision, Direction, Engine, EngineError, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::{Device, DeviceError};
use glp_graph::{Graph, Label, VertexId};
use std::ops::Range;

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
        drive(&mut *self.backend(g, opts), g, prog, opts)
    }
}

impl BspEngine for GpuEngine {
    fn backend<'a>(&'a mut self, g: &Graph, opts: &RunOptions) -> Box<dyn Backend + 'a> {
        Box::new(GpuBackend::new(
            &mut self.device,
            g,
            Adjacency::Resident,
            opts,
        ))
    }
}

/// Label state + spoken array + decision array: what stays on the device
/// whether or not the adjacency does.
pub(crate) fn resident_bytes(g: &Graph) -> u64 {
    g.num_vertices() as u64 * (4 + 4 + 12)
}

/// Bytes one adjacency entry occupies on the device or the PCIe link: the
/// neighbor id, plus its weight on a weighted graph.
pub(crate) fn bytes_per_edge(g: &Graph) -> u64 {
    4 + 4 * u64::from(g.incoming().is_weighted())
}

/// Where a single-device run keeps the adjacency, and with it who
/// maintains the frontier.
pub(crate) enum Adjacency {
    /// On the device, whose kernels also rebuild the frontier (in-core GLP).
    Resident,
    /// Host-coordinated (§3.1, the hybrid engine): the CPUs maintain the
    /// frontier, so no device kernel is charged for it, and when `streamed`
    /// ship the scheduled vertices' adjacency over PCIe under the kernels
    /// instead of keeping it resident.
    Host { streamed: bool },
}

/// One run on one device: label state resident for the whole run, labels
/// downloaded at the end.
pub(crate) struct GpuBackend<'a> {
    device: &'a mut Device,
    /// The schedules this run priced on `device`; dropped with the run.
    ledger: ScheduleLedger,
    adjacency: Adjacency,
    footprint: u64,
    label_bytes: u64,
    shards: usize,
    transfer_s: f64,
}

impl<'a> GpuBackend<'a> {
    pub(crate) fn new(
        device: &'a mut Device,
        g: &Graph,
        adjacency: Adjacency,
        opts: &RunOptions,
    ) -> Self {
        opts.validate_for_device(device.config().shared_mem_per_block);
        let streamed = matches!(adjacency, Adjacency::Host { streamed: true });
        Self {
            device,
            ledger: ScheduleLedger::default(),
            adjacency,
            footprint: resident_bytes(g) + if streamed { 0 } else { g.size_bytes() },
            label_bytes: g.num_vertices() as u64 * 4,
            shards: opts.resolve_shards(),
            transfer_s: 0.0,
        }
    }
}

impl Backend for GpuBackend<'_> {
    fn name(&self) -> &'static str {
        match self.adjacency {
            Adjacency::Resident => "GLP",
            Adjacency::Host { .. } => "GLP-hybrid",
        }
    }

    fn modeled_now(&self) -> Option<f64> {
        Some(self.device.elapsed_seconds())
    }

    fn each_device(&mut self, f: &mut dyn FnMut(&mut Device)) {
        f(self.device);
    }

    fn stage(&mut self, _g: &Graph) -> Result<(), DeviceError> {
        let t0 = self.device.elapsed_seconds();
        self.device.upload(self.footprint)?;
        self.transfer_s += self.device.elapsed_seconds() - t0;
        Ok(())
    }

    fn pick(&mut self, p: &Phase<'_>, spoken: &mut [Label]) -> Result<(), DeviceError> {
        pick_labels(self.device, spoken, 0, p.prog, self.shards)
    }

    fn propagate(
        &mut self,
        p: &Phase<'_>,
        spoken: &[Label],
        decisions: &mut [Decision],
    ) -> Result<ShardStats, DeviceError> {
        let all = 0..spoken.len() as VertexId;
        let (device, ledger) = (&mut *self.device, &mut self.ledger);
        propagate(device, ledger, p, all, self.shards, spoken, decisions)
    }

    fn stream(&mut self, p: &Phase<'_>, compute_s: f64) {
        if let Adjacency::Host { streamed: true } = self.adjacency {
            self.transfer_s += super::hybrid::settle_stream(self.device, p, compute_s);
        }
    }

    fn charge_update(&mut self, n: u64) -> Result<(), DeviceError> {
        charge_update(self.device, 0, n)
    }

    fn charge_frontier(
        &mut self,
        priced: bool,
        dir: Direction,
        _changed: u64,
        volume: u64,
        next_active: &[bool],
    ) -> Result<(), DeviceError> {
        if let Adjacency::Host { .. } = self.adjacency {
            return Ok(());
        }
        let survivors = next_active.iter().filter(|&&a| a).count() as u64;
        let n = next_active.len() as u64;
        charge_frontier(self.device, priced, dir, n, volume, survivors)
    }

    fn teardown(&mut self, completed: bool) -> f64 {
        if completed {
            let t0 = self.device.elapsed_seconds();
            self.device.download(self.label_bytes);
            self.transfer_s += self.device.elapsed_seconds() - t0;
        }
        self.device.free(self.footprint);
        self.transfer_s
    }
}

/// Charges the `barrier_snapshot` kernel: the coalesced readback of `n`
/// labels that feeds a [`BarrierHook`](super::BarrierHook) checkpoint.
pub(crate) fn charge_snapshot(device: &mut Device, n: u64) -> Result<(), DeviceError> {
    device.launch("barrier_snapshot", |ctx| {
        ctx.global_read_seq(LABEL_STATE, n, 4);
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(n.div_ceil(32));
    })
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

/// Charges the frontier-density measurement `Auto` runs before choosing
/// a direction: coalesced reads of the change flags and the out-degree
/// array, reduced block-wise to the scatter-volume estimate the
/// crossover consumes. The measurement is *fused* — it rides in the
/// update pass that produced the change flags, so it pays memory and
/// reduction cost but no dedicated launch (the standard
/// direction-optimization trick; a 4 µs launch per iteration would eat
/// the crossover's winnings on small frontiers). Forced `Push`/`Pull`
/// runs skip it — the measurement only exists to pay for the decision.
fn charge_frontier_density(device: &mut Device, n: u64) -> Result<(), DeviceError> {
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

/// Charges one device's share of a frontier rebuild over its `n` vertices
/// with `next_active` survivors: the density measurement if `priced`, the
/// kernel of the direction taken, the compaction.
///
/// **Push** (`frontier_update`): a coalesced pass over the change flags, a
/// coalesced walk of the changed vertices' out-adjacency, and one scattered
/// sector per mark (`volume` of them) — marks land wherever the neighbor
/// ids point, so the coalescer almost never merges them. **Pull**
/// (`pull_gather`): the same flag reads, coalesced reads of the `volume`
/// in-adjacency entries scanned, one sequential bitmap write — no scatter.
/// Exactly [`CostModel::push_frontier_bytes`] / [`CostModel::pull_frontier_bytes`],
/// which makes the `Auto` crossover measurable rather than asserted.
///
/// [`CostModel::push_frontier_bytes`]: glp_gpusim::CostModel::push_frontier_bytes
/// [`CostModel::pull_frontier_bytes`]: glp_gpusim::CostModel::pull_frontier_bytes
pub(crate) fn charge_frontier(
    device: &mut Device,
    priced: bool,
    dir: Direction,
    n: u64,
    volume: u64,
    next_active: u64,
) -> Result<(), DeviceError> {
    if priced {
        charge_frontier_density(device, n)?;
    }
    let pull = dir == Direction::Pull;
    let (name, csr) = if pull {
        ("pull_gather", IN_CSR)
    } else {
        ("frontier_update", OUT_CSR)
    };
    device.launch(name, |ctx| {
        ctx.global_read_seq(LABEL_STATE, n, 4);
        ctx.global_read_seq(csr, volume, 4);
        if pull {
            ctx.global_write_seq(FRONTIER_BITMAP, n.div_ceil(8), 1);
        } else {
            ctx.global_write_scattered(volume);
        }
        ctx.warps_launched(n.div_ceil(32));
        ctx.lanes_active(n);
        ctx.alu(2 * n.div_ceil(32) + volume / 32);
    })?;
    charge_compact(device, n, next_active)
}

/// PickLabel (Figure 2): a trivially parallel kernel writing the
/// spoken-label array, coalesced. `spoken` covers vertices
/// `base .. base + spoken.len()` (the multi-GPU backend passes per-device
/// sub-slices); each harness shard fills its own chunk of it in place. The
/// launch is one coalesced pass over all of `spoken`, charged once, by the
/// shard that starts it.
pub(crate) fn pick_labels(
    device: &mut Device,
    spoken: &mut [Label],
    base: VertexId,
    prog: &dyn LpProgram,
    shards: usize,
) -> Result<(), DeviceError> {
    let (n, per) = (spoken.len() as u64, spoken.len().div_ceil(shards).max(1));
    let off = u64::from(base) * 4;
    let chunks: Vec<(usize, &mut [Label])> = spoken
        .chunks_mut(per)
        .enumerate()
        .map(|(i, chunk)| (i * per, chunk))
        .collect();
    device.launch_sharded("pick_label", chunks, |(start, chunk), ctx| {
        if start == 0 {
            ctx.global_read_seq(LABEL_STATE + off, n, 4);
            ctx.global_write_seq(SPOKEN_OUT + off, n, 4);
            ctx.warps_launched(n.div_ceil(32));
            ctx.lanes_active(n);
            ctx.alu(2 * n.div_ceil(32));
        }
        prog.pick_labels_into(base + start as VertexId, chunk);
    })?;
    Ok(())
}

/// LabelPropagation (Figure 2): degree-bucketed kernels over the vertices
/// of `p.work` that fall in `range` (one device's share; buckets are
/// ascending, so the share is a sub-slice). `decisions[v]` belongs to
/// vertex `v`. A launch is charged its schedule from `ledger`, the device's
/// schedule ledger for this run, once, by its first harness part, and each
/// part its decision pass.
pub(crate) fn propagate(
    device: &mut Device,
    ledger: &mut ScheduleLedger,
    p: &Phase<'_>,
    range: Range<VertexId>,
    shards: usize,
    spoken: &[Label],
    decisions: &mut [Decision],
) -> Result<ShardStats, DeviceError> {
    let (g, prog, opts) = (p.g, p.prog, p.opts);
    let csr = g.incoming();
    let share = |vs: &'_ [VertexId]| {
        let lo = vs.partition_point(|&v| v < range.start);
        lo..vs.partition_point(|&v| v < range.end)
    };
    let launches = [
        (KernelKind::WarpPacked, &p.work.warp_packed),
        (
            KernelKind::WarpPerVertex {
                ht_slots: opts.mid_ht_slots,
            },
            &p.work.warp_per_vertex,
        ),
        (
            KernelKind::BlockCmsHt(opts.smem_geometry()),
            &p.work.block_per_vertex,
        ),
        (KernelKind::GlobalHash, &p.work.global_hash),
    ];
    let reuse = true;
    #[cfg(test)]
    let reuse = reuse && !tests::ALWAYS_PRICE.get();
    let mut stats = ShardStats::default();
    for (kind, bucket) in launches {
        let vertices = &bucket[share(bucket)];
        if vertices.is_empty() {
            continue;
        }
        let (schedule, priced) = ledger.charges(device.config(), csr, kind, vertices, reuse);
        stats.priced_launches += u64::from(priced);
        // Bucket parts are contiguous ascending id ranges, so each shard
        // gets the matching sub-slice of `decisions` to write in place.
        let packed = matches!(kind, KernelKind::WarpPacked);
        let (launch, parts) = (vertices, split_by_degree(g, vertices, shards, packed));
        let outs = DecisionsOut::split(decisions, &parts);
        let work: Vec<_> = parts.into_iter().zip(outs).enumerate().collect();
        let per_shard = device.launch_sharded(kind.name(), work, |(i, (vertices, out)), ctx| {
            if i == 0 {
                ctx.counters.merge(&schedule);
            }
            let mut shard = KernelShard {
                ctx,
                csr,
                spoken,
                kind,
                vertices,
                launch,
                out,
                stats: ShardStats::default(),
            };
            // The one virtual call of the shard: behind it the kernel runs
            // monomorphised for the concrete program.
            prog.propagate_shard(&mut shard);
            shard.stats
        })?;
        per_shard.iter().for_each(|st| stats.merge(st));
    }
    Ok(stats)
}

/// UpdateVertex (Figure 2), the modeled half: the coalesced decision read
/// and label write-back of the `m` vertices starting at `base` (the host
/// applies the program's `update_vertex` at the commit).
pub(crate) fn charge_update(
    device: &mut Device,
    base: VertexId,
    m: u64,
) -> Result<(), DeviceError> {
    let base = u64::from(base);
    device.launch("update_vertex", |ctx| {
        ctx.global_read_seq(kernels::layout::DECISIONS + base * 12, m, 12);
        ctx.global_write_seq(LABEL_STATE + base * 4, m, 4);
        ctx.warps_launched(m.div_ceil(32));
        ctx.lanes_active(m);
        ctx.alu(2 * m.div_ceil(32));
    })
}

#[cfg(test)]
mod tests {
    use super::super::bsp::tests::Rig;
    use super::super::bsp::{dispatch_name, mark_changed, rebuild_frontier};
    use super::super::kernels::tests::Mix;
    use super::super::{Buckets, FrontierMode, MflStrategy};
    use super::*;
    use crate::variants::{ClassicLp, RiskWeightedLp, SeededLp, WeightedLp};
    use glp_gpusim::KernelCounters;
    use glp_graph::gen::{
        bipartite_interaction, caveman, community_powerlaw, road_network, two_cliques_bridge,
        BipartiteConfig, CommunityPowerLawConfig, RoadConfig,
    };
    use std::sync::Arc;

    thread_local! {
        /// The pin that proves reuse ≡ pricing: while set, the calling
        /// thread's launches price every schedule afresh. Absent from
        /// non-test builds.
        pub(super) static ALWAYS_PRICE: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

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
    fn pull_and_push_rebuild_identical_frontiers() {
        let g = caveman(6, 9);
        let n = g.num_vertices();
        let spoken: Vec<Label> = (0..n as Label).collect();
        // Vertex 3 changes; everything else keeps its label.
        let mut decisions: Vec<Decision> = spoken.iter().map(|&l| Some((l, 1.0))).collect();
        decisions[3] = Some((999, 1.0));
        let mut changed = vec![false; n];
        let (count, marked) = mark_changed(&spoken, &decisions, g.outgoing(), &mut changed);
        let mut push = vec![false; n];
        let mut pull = vec![false; n];
        let touched = rebuild_frontier(&g, Direction::Push, &changed, &mut push);
        let scanned = rebuild_frontier(&g, Direction::Pull, &changed, &mut pull);
        assert_eq!(push, pull);
        assert_eq!(touched, u64::from(g.outgoing().degree(3)));
        assert_eq!((count, marked), (1, touched));
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

    /// Two frontiers of one length and different vertices, one after the
    /// other through one ledger: the second is priced again, the first once
    /// more when it returns, and every launch is charged exactly what a
    /// fresh ledger charges.
    #[test]
    fn a_same_length_frontier_is_priced_again() {
        let g = caveman(6, 5);
        let n = g.num_vertices();
        let opts = RunOptions::default().with_shards(1);
        let buckets = Buckets::build(&g, opts.strategy, opts.thresholds);
        let frontier = |vs: &[VertexId]| {
            let mut active = vec![false; n];
            vs.iter().for_each(|&v| active[v as usize] = true);
            buckets.filtered(&active)
        };
        let (a, b): (Vec<VertexId>, Vec<VertexId>) =
            ((0..12).collect(), (0..24).step_by(2).collect());
        let (a, b) = (frontier(&a), frontier(&b));
        assert_eq!(a.warp_packed.len(), b.warp_packed.len());
        assert_eq!(a.scheduled(), a.warp_packed.len(), "one packed launch each");
        let prog = ClassicLp::new(n);
        let spoken: Vec<Label> = (0..n as Label).collect();
        let launch = |device: &mut Device, ledger: &mut ScheduleLedger, work: &Buckets| {
            let saturated = false;
            let p = Phase {
                g: &g,
                prog: &prog,
                opts: &opts,
                work,
                saturated,
            };
            let mut decisions = vec![None; n];
            let all = 0..n as VertexId;
            let stats = propagate(device, ledger, &p, all, 1, &spoken, &mut decisions).unwrap();
            let log = device.kernel_log();
            (stats.priced_launches, log[log.len() - 1].counters)
        };
        let fresh =
            |work: &Buckets| launch(&mut Device::titan_v(), &mut ScheduleLedger::default(), work).1;
        assert_ne!(fresh(&a), fresh(&b));
        let (mut device, mut ledger) = (Device::titan_v(), ScheduleLedger::default());
        for (work, priced) in [(&a, 1), (&a, 0), (&b, 1), (&b, 0), (&a, 1)] {
            assert_eq!(
                launch(&mut device, &mut ledger, work),
                (priced, fresh(work))
            );
        }
    }

    const LEDGER_ITERS: u32 = 8;

    /// A road lattice with isolated vertices (every other vertex packed), a
    /// bipartite window whose items are CMS+HT hubs, and a power law that
    /// fills all three buckets.
    fn ledger_graphs() -> [Graph; 3] {
        [
            road_network(&RoadConfig {
                width: 16,
                height: 16,
                keep: 0.6,
                seed: 5,
            }),
            bipartite_interaction(&BipartiteConfig {
                num_users: 60,
                num_items: 25,
                num_interactions: 3000,
                skew: 0.8,
                seed: 7,
            }),
            community_powerlaw(&CommunityPowerLawConfig {
                num_vertices: 600,
                avg_degree: 10.0,
                num_communities: 6,
                seed: 9,
                ..Default::default()
            }),
        ]
    }

    /// Classic, weighted, seeded, risk-weighted and `Mix`. The seeded two
    /// weigh an unlabeled neighbour 0, so a packed warp's uniform-weight
    /// flag moves with the labels while its schedule repeats.
    fn ledger_programs(g: &Graph) -> [Box<dyn LpProgram>; 5] {
        let n = g.num_vertices();
        let edges = g.incoming().num_edges();
        let weights = Arc::new((0..edges).map(|e| 1.0 + (e % 3) as f32).collect::<Vec<_>>());
        let seeds: Vec<VertexId> = (0..n as VertexId).step_by(9).collect();
        let risks: Vec<(VertexId, f32)> =
            seeds.iter().map(|&s| (s, 1.0 + (s % 4) as f32)).collect();
        [
            Box::new(ClassicLp::with_max_iterations(n, LEDGER_ITERS)),
            Box::new(WeightedLp::new(n, weights, LEDGER_ITERS)),
            Box::new(SeededLp::with_max_iterations(n, &seeds, LEDGER_ITERS)),
            Box::new(RiskWeightedLp::new(n, &risks, LEDGER_ITERS)),
            Box::new(Mix {
                labels: (0..n as Label).collect(),
            }),
        ]
    }

    /// What a run leaves that a schedule ledger could move: per device,
    /// every launch's name, modeled seconds and counters, in order; the
    /// labels; the modeled clock.
    #[derive(Debug, PartialEq)]
    struct Charged {
        launches: Vec<Vec<(&'static str, u64, KernelCounters)>>,
        labels: Vec<Label>,
        modeled: u64,
    }

    /// Runs `prog` on `rig`'s engine, pricing every launch if `always`;
    /// returns what the run charged and its priced-launch count.
    fn charged_run(
        rig: &mut Rig,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
        always: bool,
    ) -> (Charged, u64) {
        let marks: Vec<usize> = rig.logs().iter().map(Vec::len).collect();
        ALWAYS_PRICE.set(always);
        let report = rig.engine().run(g, prog, opts).unwrap();
        ALWAYS_PRICE.set(false);
        let logs = rig.logs().into_iter().zip(marks);
        let charged = Charged {
            launches: logs.map(|(log, mark)| log[mark..].to_vec()).collect(),
            labels: prog.labels().to_vec(),
            modeled: report.modeled_seconds.to_bits(),
        };
        (charged, report.priced_launches)
    }

    /// Reusing priced schedules ≡ pricing every launch, at any harness
    /// thread count. On the three device tiers (one GPU, a streamed hybrid,
    /// two GPUs), both frontier modes, five programs and three graphs, the
    /// kernel log, the labels and the modeled clock equal those of the same
    /// runs under [`ALWAYS_PRICE`], and a 3-shard run equals a 1-shard one,
    /// priced-launch counts included. One engine serves a graph's five runs
    /// in turn, and the runs alternate the CMS+HT geometry: a ledger that
    /// outlived its run would charge the next one the other geometry's
    /// table scans.
    #[test]
    fn reusing_schedules_equals_pricing_every_launch() {
        let small_ht = RunOptions {
            ht_slots: 16,
            ht_probe_limit: 4,
            cms_width: 64,
            ..RunOptions::default()
        };
        for (gi, g) in ledger_graphs().iter().enumerate() {
            for tier in 0..3 {
                for mode in [FrontierMode::Dense, FrontierMode::Auto] {
                    let legs = [1, 3].map(|shards| {
                        [true, false].map(|always| {
                            let mut rig = Rig::new(tier, g);
                            let programs = ledger_programs(g).into_iter().enumerate();
                            let runs = programs.map(|(pi, mut prog)| {
                                let base = if pi % 2 == 0 {
                                    &small_ht
                                } else {
                                    &RunOptions::default()
                                };
                                let opts = base.clone().with_frontier(mode).with_shards(shards);
                                charged_run(&mut rig, g, prog.as_mut(), &opts, always)
                            });
                            runs.collect::<Vec<_>>()
                        })
                    });
                    let case = format!("graph {gi}, tier {tier}, {mode:?}");
                    assert_eq!(legs[1], legs[0], "{case}: 3 shards against 1");
                    let [priced, reused] = &legs[0];
                    for (pi, ((want, all), (got, some))) in priced.iter().zip(reused).enumerate() {
                        let case = format!("{case}, program {pi}");
                        assert_eq!(got, want, "{case}");
                        if mode == FrontierMode::Dense {
                            assert!(some < all, "{case}: nothing reused ({some} of {all})");
                        }
                    }
                }
            }
        }
    }
}
