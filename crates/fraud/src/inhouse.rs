//! The simulated in-house distributed LP solution (§5.4's comparison
//! target).
//!
//! Production graph systems at this scale run BSP label propagation over
//! hash-partitioned vertices: each superstep every machine aggregates its
//! own vertices' neighborhoods, then ships fresh labels of boundary
//! vertices to the machines that need them. With 32 machines and modulo
//! partitioning, ~31/32 of edges cross machines — the network exchange and
//! per-superstep coordination are what a single GPU with HBM never pays,
//! and why GLP wins 8.2x despite a fraction of the cores.
//!
//! The simulation is a [`Backend`] of the workspace's BSP driver: the loop,
//! the report and the exact host MFL ([`exact_mfl`], same tie rule as every
//! other engine) are the driver's, so the labels are real, and what this
//! file adds is where a vertex lives and what a superstep costs on the
//! cluster cost model.

use glp_core::engine::{
    drive, exact_mfl, mfl_scratch, Backend, BspEngine, Decision, Engine, EngineError, Phase,
    RunOptions, ShardStats,
};
use glp_core::{LpProgram, LpRunReport};
use glp_gpusim::host::{ClusterConfig, CpuCounters};
use glp_gpusim::DeviceError;
use glp_graph::{Graph, Label};
use glp_sketch::BoundedHashTable;

/// The distributed baseline. Always dense: the production system has no
/// frontier (every superstep rescans all vertices), so the
/// [`RunOptions::frontier`] knob is ignored.
#[derive(Clone, Debug)]
pub struct InHouseLp {
    cluster: ClusterConfig,
}

impl InHouseLp {
    /// On the given cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        Self { cluster }
    }

    /// The paper's deployment: 32 machines × 4 Xeon Platinum 8168.
    pub fn taobao() -> Self {
        Self::new(ClusterConfig::taobao_inhouse())
    }

    /// The paper's deployment with its *fixed* per-superstep latency
    /// scaled down by `workload_ratio` — the factor by which the benchmark
    /// workload is smaller than production. Proportional costs (compute,
    /// network, shuffle) scale with the graph automatically; the fixed
    /// barrier latency must be scaled explicitly or it would dominate any
    /// laptop-sized run and make speedups meaningless.
    pub fn taobao_scaled(workload_ratio: f64) -> Self {
        assert!(workload_ratio >= 1.0, "ratio is production/bench >= 1");
        let mut cluster = ClusterConfig::taobao_inhouse();
        cluster.superstep_latency_s /= workload_ratio;
        Self::new(cluster)
    }

    /// The cluster configuration.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }
}

impl Engine for InHouseLp {
    fn name(&self) -> &'static str {
        "InHouse"
    }

    /// Runs `prog` on `g`, modeling a BSP superstep per LP iteration.
    /// The simulated cluster itself never faults (machine failures are out
    /// of this model's scope), so the only `Err` source is the shared
    /// [`Engine`] contract.
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        drive(&mut *self.backend(g, opts), g, prog, opts)
    }
}

impl BspEngine for InHouseLp {
    fn backend<'a>(&'a mut self, g: &Graph, _opts: &RunOptions) -> Box<dyn Backend + 'a> {
        Box::new(ClusterBackend {
            cluster: &self.cluster,
            ht: mfl_scratch(g),
            modeled_s: 0.0,
        })
    }
}

/// One run on the modeled cluster; its clock is the supersteps so far.
struct ClusterBackend<'a> {
    cluster: &'a ClusterConfig,
    ht: BoundedHashTable,
    modeled_s: f64,
}

impl Backend for ClusterBackend<'_> {
    fn name(&self) -> &'static str {
        "InHouse"
    }

    fn modeled_now(&self) -> Option<f64> {
        Some(self.modeled_s)
    }

    fn frontier_capable(&self) -> bool {
        false
    }

    /// One superstep: every vertex is aggregated on the machine that owns
    /// it (`v mod machines`), then the slowest machine's compute plus the
    /// label exchange (a message per crossing edge, spread over the
    /// machines) is what the cluster waits for.
    fn propagate(
        &mut self,
        p: &Phase<'_>,
        spoken: &[Label],
        decisions: &mut [Decision],
    ) -> Result<ShardStats, DeviceError> {
        let (csr, cluster) = (p.g.incoming(), self.cluster);
        let machines = cluster.machines as usize;
        let mut machine_work = vec![CpuCounters::default(); machines];
        let mut crossing_edges = 0u64;
        for v in p.work.scheduled_vertices() {
            let owner = v as usize % machines;
            decisions[v as usize] = exact_mfl(p.prog, csr, &mut self.ht, v, |u| spoken[u as usize]);
            let nbrs = csr.neighbors(v);
            let remote = nbrs.iter().filter(|&&u| u as usize % machines != owner);
            crossing_edges += remote.count() as u64;
            let (deg, w) = (nbrs.len() as u64, &mut machine_work[owner]);
            w.random_accesses += deg;
            w.instructions += 8 * deg + 20 + 3 * self.ht.occupied() as u64;
            w.seq_bytes += 4 * deg;
        }
        // A vertex without neighbors still costs its owner the visit.
        for &v in &p.work.isolated {
            machine_work[v as usize % machines].instructions += 20;
        }
        let seconds = |w: &CpuCounters| cluster.machine_cpu.seconds(w, u32::MAX);
        let slowest = machine_work
            .iter()
            .max_by(|a, b| seconds(a).total_cmp(&seconds(b)))
            .copied()
            .unwrap_or_default();
        let bytes_per_machine = crossing_edges * cluster.message_bytes / machines as u64;
        let messages_per_machine = crossing_edges / machines as u64;
        self.modeled_s +=
            cluster.superstep_seconds(&slowest, bytes_per_machine, messages_per_machine);
        Ok(ShardStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glp_core::engine::GpuEngine;
    use glp_core::ClassicLp;

    fn opts() -> RunOptions {
        RunOptions::default()
    }
    use glp_graph::gen::{caveman, community_powerlaw, CommunityPowerLawConfig};

    #[test]
    fn inhouse_matches_glp_labels() {
        let g = caveman(7, 6);
        let mut reference = ClassicLp::new(g.num_vertices());
        GpuEngine::titan_v()
            .run(&g, &mut reference, &opts())
            .unwrap();
        let mut p = ClassicLp::new(g.num_vertices());
        InHouseLp::taobao().run(&g, &mut p, &opts()).unwrap();
        assert_eq!(p.labels(), reference.labels());
    }

    #[test]
    fn superstep_latency_dominates_small_graphs() {
        let g = caveman(7, 6);
        let mut p = ClassicLp::new(g.num_vertices());
        let r = InHouseLp::taobao().run(&g, &mut p, &opts()).unwrap();
        let floor = f64::from(r.iterations) * ClusterConfig::taobao_inhouse().superstep_latency_s;
        assert!(r.modeled_seconds >= floor);
        assert!(
            r.modeled_seconds < floor * 1.5,
            "tiny graph should be latency-bound"
        );
    }

    #[test]
    fn glp_beats_inhouse_modeled_time() {
        let g = community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 10_000,
            avg_degree: 12.0,
            ..Default::default()
        });
        let mut p1 = ClassicLp::new(g.num_vertices());
        let glp = GpuEngine::titan_v().run(&g, &mut p1, &opts()).unwrap();
        let mut p2 = ClassicLp::new(g.num_vertices());
        let inhouse = InHouseLp::taobao().run(&g, &mut p2, &opts()).unwrap();
        assert_eq!(p1.labels(), p2.labels());
        let speedup = inhouse.modeled_seconds / glp.modeled_seconds;
        assert!(speedup > 2.0, "speedup {speedup}");
    }

    /// The graphs of the identity pin: a 10-day transaction window (bipartite,
    /// so synchronous LP 2-cycles on it), a caveman graph that converges, a
    /// power-law graph with skewed machines, and a graph whose upper vertex
    /// ids are isolated.
    fn pinned_graphs() -> Vec<(&'static str, std::sync::Arc<Graph>)> {
        use crate::{TxConfig, TxStream, WindowWorkload};
        let stream = TxStream::generate(&TxConfig {
            num_users: 600,
            num_items: 250,
            days: 12,
            tx_per_day: 300,
            num_rings: 3,
            ring_size: 8,
            ring_tx_per_day: 12,
            ..Default::default()
        });
        let mut islands = glp_graph::GraphBuilder::new(40);
        for v in 0..25u32 {
            islands.add_edge(v, (v * 7 + 3) % 25);
            islands.add_edge(v, (v + 1) % 25);
        }
        islands.symmetrize(true).dedup(true);
        vec![
            ("window10", WindowWorkload::build(&stream, 10).graph),
            ("caveman", caveman(7, 6).into()),
            (
                "powerlaw",
                community_powerlaw(&CommunityPowerLawConfig {
                    num_vertices: 1_200,
                    avg_degree: 9.0,
                    seed: 5,
                    ..Default::default()
                })
                .into(),
            ),
            ("islands", islands.build().into()),
        ]
    }

    /// `(case, fnv(labels), changed_per_iteration, active_per_iteration,
    /// modeled_seconds bits)`.
    type Row<'a> = (&'a str, u64, &'a [u64], &'a [u64], u64);

    fn render((case, labels, changed, active, modeled): &Row<'_>) -> String {
        format!("(\"{case}\", {labels:#x}, &{changed:?}, &{active:?}, {modeled:#x}),")
    }

    /// Every number `InHouseLp` reports, against rows captured at the commit
    /// before it became a backend of `bsp::drive` (when it still owned its
    /// iteration loop and an inlined exact MFL): {a 10-day window, caveman,
    /// power-law, isolated vertices} x {`taobao`, `taobao_scaled`} x the four
    /// frontier modes, all of which it runs dense.
    #[test]
    fn every_reported_number_matches_the_parent_commit() {
        use glp_core::FrontierMode::{Auto, Dense, Pull, Push};
        let mut got = Vec::new();
        for (gname, g) in pinned_graphs() {
            for (cname, cluster) in [
                ("taobao", InHouseLp::taobao()),
                ("scaled", InHouseLp::taobao_scaled(1_000.0)),
            ] {
                for mode in [Dense, Auto, Push, Pull] {
                    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 12);
                    let report = cluster
                        .clone()
                        .run(&g, &mut prog, &opts().with_frontier(mode))
                        .unwrap();
                    let labels = prog.labels().iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| {
                        (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                    got.push(render(&(
                        &format!("{gname}/{cname}/{mode:?}"),
                        labels,
                        &report.changed_per_iteration,
                        &report.active_per_iteration,
                        report.modeled_seconds.to_bits(),
                    )));
                }
            }
        }
        let want: Vec<String> = EXPECTED.iter().map(render).collect();
        let moved: Vec<&str> = got
            .iter()
            .enumerate()
            .filter(|&(i, g)| want.get(i) != Some(g))
            .map(|(_, g)| g.as_str())
            .collect();
        assert!(
            moved.is_empty() && got.len() == want.len(),
            "{} of {} cases moved ({} pinned); observed rows:\n{}",
            moved.len(),
            got.len(),
            want.len(),
            moved.join("\n")
        );
    }

    #[rustfmt::skip]
    const EXPECTED: &[Row<'static>] = &[
        ("window10/taobao/Dense", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x4008005b087e17a1),
        ("window10/taobao/Auto", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x4008005b087e17a1),
        ("window10/taobao/Push", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x4008005b087e17a1),
        ("window10/taobao/Pull", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x4008005b087e17a1),
        ("window10/scaled/Dense", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x3f69ff96b4c9062b),
        ("window10/scaled/Auto", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x3f69ff96b4c9062b),
        ("window10/scaled/Push", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x3f69ff96b4c9062b),
        ("window10/scaled/Pull", 0x8462965e973e3447, &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], &[817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817, 817], 0x3f69ff96b4c9062b),
        ("caveman/taobao/Dense", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3fe8000385f1711c),
        ("caveman/taobao/Auto", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3fe8000385f1711c),
        ("caveman/taobao/Push", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3fe8000385f1711c),
        ("caveman/taobao/Pull", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3fe8000385f1711c),
        ("caveman/scaled/Dense", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3f48a18c822eeed6),
        ("caveman/scaled/Auto", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3f48a18c822eeed6),
        ("caveman/scaled/Push", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3f48a18c822eeed6),
        ("caveman/scaled/Pull", 0xc9805786d8e203d5, &[42, 14, 0], &[42, 42, 42], 0x3f48a18c822eeed6),
        ("powerlaw/taobao/Dense", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x400800ac8971947c),
        ("powerlaw/taobao/Auto", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x400800ac8971947c),
        ("powerlaw/taobao/Push", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x400800ac8971947c),
        ("powerlaw/taobao/Pull", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x400800ac8971947c),
        ("powerlaw/scaled/Dense", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x3f6b459a82bc772f),
        ("powerlaw/scaled/Auto", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x3f6b459a82bc772f),
        ("powerlaw/scaled/Push", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x3f6b459a82bc772f),
        ("powerlaw/scaled/Pull", 0xcef06b609e5a49ef, &[1193, 946, 568, 266, 109, 58, 29, 20, 17, 13, 11, 11], &[1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193, 1193], 0x3f6b459a82bc772f),
        ("islands/taobao/Dense", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x4008000193ba17cd),
        ("islands/taobao/Auto", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x4008000193ba17cd),
        ("islands/taobao/Push", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x4008000193ba17cd),
        ("islands/taobao/Pull", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x4008000193ba17cd),
        ("islands/scaled/Dense", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x3f6899c3a4c9bd3f),
        ("islands/scaled/Auto", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x3f6899c3a4c9bd3f),
        ("islands/scaled/Push", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x3f6899c3a4c9bd3f),
        ("islands/scaled/Pull", 0xe588de981bc5f359, &[25, 22, 19, 16, 15, 13, 12, 12, 12, 12, 12, 12], &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25], 0x3f6899c3a4c9bd3f),
    ];
}
