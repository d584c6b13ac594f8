//! # glp-test-support — shared builders for the workspace test suites
//!
//! The integration suites (`tests/frontier_equivalence.rs`,
//! `tests/engine_faults.rs`, `tests/golden_trace.rs`, the serve
//! determinism tests) all need the same fixtures: a small pool of graphs
//! with known structure, fresh program instances of every LP variant,
//! one engine of every tier, a fault-free reference run, and a
//! deterministic transaction stream for the fraud pipeline. This crate
//! is the single home for those builders so the suites stay in lockstep
//! — a new program variant or engine tier added here is exercised by
//! every suite at once.
//!
//! Everything here is deterministic: fixed seeds, fixed sizes, no
//! clocks. Builders hand out *fresh* instances per call (programs and
//! engines are stateful), so each run owns its state.

use glp_core::engine::{
    BarrierHook, Engine, GpuEngine, HybridEngine, MultiGpuEngine, SequentialEngine,
};
use glp_core::{
    CapacityLp, ClassicLp, Llp, LpProgram, NeighborContribution, RiskWeightedLp, RunOptions,
    SeededLp, Slp, WeightedLp,
};
use glp_fraud::{
    AdversarialStream, AdversaryConfig, RegionalStream, RegionalTxConfig, TxConfig, TxStream,
};
use glp_gpusim::{Device, DeviceConfig};
use glp_graph::gen::{caveman, community_powerlaw, two_cliques_bridge, CommunityPowerLawConfig};
use glp_graph::{EdgeId, Graph, GraphBuilder, Label, VertexId};
use std::sync::Arc;

/// Iteration budget shared by the equivalence suites: long enough for
/// the test graphs to settle, short enough to keep the full
/// graphs × engines × variants × modes sweep cheap.
pub const ITERS: u32 = 12;

/// The standard small-graph pool: one planted-community graph where LP
/// converges crisply, one power-law graph that exercises every
/// degree-bucket path (isolated through global-hash).
pub fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("caveman", caveman(12, 8)),
        (
            "powerlaw",
            community_powerlaw(&CommunityPowerLawConfig {
                num_vertices: 1_500,
                avg_degree: 8.0,
                ..Default::default()
            }),
        ),
    ]
}

/// A tiny two-community graph for tests that pin exact structure (the
/// golden-trace suite): converges in a handful of iterations.
pub fn tiny_graph() -> Graph {
    two_cliques_bridge(9)
}

/// The convergence-shaped workload of the modeled-clock claims: `cliques`
/// disjoint `k`-cliques (settle in ~3 BSP rounds) plus one `path_len`-vertex
/// path (labels keep sliding, so a thin frontier survives every round).
pub fn convergence_workload(cliques: usize, k: usize, path_len: usize) -> Graph {
    let mut b = GraphBuilder::new(cliques * k + path_len);
    for c in 0..cliques {
        let base = c * k;
        for a in 0..k {
            for z in (a + 1)..k {
                b.add_edge((base + a) as VertexId, (base + z) as VertexId);
            }
        }
    }
    for i in 1..path_len {
        let v = (cliques * k + i) as VertexId;
        b.add_edge(v - 1, v);
    }
    b.symmetrize(true);
    b.build()
}

/// Fresh program instances of every LP variant, sized for `g`.
/// Sparse-activation programs (classic, seeded, weighted, risk) exercise
/// the real frontier machinery; globally-coupled ones (LLP, SLP,
/// capacity) pin the dense fallback. Programs are stateful; each run
/// needs its own instance.
pub fn variants(g: &Graph) -> Vec<(&'static str, Box<dyn LpProgram>)> {
    let n = g.num_vertices();
    let seeds: Vec<u32> = (0..n as u32).step_by(53).collect();
    let risk_seeds: Vec<(u32, f32)> = seeds.iter().map(|&v| (v, 1.0 + (v % 5) as f32)).collect();
    // The generators emit unweighted graphs; give WeightedLp a synthetic
    // deterministic weight per incoming edge so it exercises real weights.
    let edge_weights: Arc<Vec<f32>> =
        Arc::new((0..g.num_edges()).map(|e| 0.5 + (e % 7) as f32).collect());
    vec![
        (
            "classic",
            Box::new(ClassicLp::with_max_iterations(n, ITERS)),
        ),
        ("llp", Box::new(Llp::with_max_iterations(n, 2.0, ITERS))),
        ("slp", Box::new(Slp::with_params(n, 5, 0.2, ITERS, 0x5EED))),
        (
            "seeded",
            Box::new(SeededLp::with_max_iterations(n, &seeds, ITERS)),
        ),
        (
            "weighted",
            Box::new(WeightedLp::new(n, edge_weights, ITERS).with_retention(0.3)),
        ),
        ("risk", Box::new(RiskWeightedLp::new(n, &risk_seeds, ITERS))),
        (
            "capacity",
            Box::new(CapacityLp::with_max_iterations(n, 64, ITERS)),
        ),
    ]
}

/// A program written against the public trait only: per-edge weights
/// derived from the endpoint ids (non-uniform, so packed warps take the
/// weighted reduction) and a retention bonus in the score. Defined here,
/// outside `glp-core`, against the documented Table 1 callbacks only —
/// what every out-of-crate program looks like to the engines.
/// `tests/host_path_identity.rs` pins its decisions and charges.
pub struct MixLp {
    /// Current labels; start it from `(0..n).collect()`.
    pub labels: Vec<Label>,
}

/// `MixLp`'s iteration cap (part of what `host_path_identity.rs` pins).
const MIX_ITERS: u32 = 8;

impl LpProgram for MixLp {
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
            weight: 1.0 + f64::from((v ^ u) & 3),
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
        changed == 0 || iteration + 1 >= MIX_ITERS
    }
    fn sparse_activation(&self) -> bool {
        true
    }
    fn labels(&self) -> &[Label] {
        &self.labels
    }
}

/// One fresh engine of every tier, sized for `g`: host sweep, in-core
/// GPU, out-of-core hybrid (on a device too small for the graph, so
/// streaming engages), and a two-device multi-GPU.
pub fn engines(g: &Graph) -> Vec<(&'static str, Box<dyn Engine>)> {
    let tiny = (g.num_vertices() as u64) * 20 + g.size_bytes() / 3;
    vec![
        ("sequential", Box::new(SequentialEngine::new())),
        ("gpu", Box::new(GpuEngine::titan_v())),
        (
            "hybrid",
            Box::new(HybridEngine::new(Device::new(DeviceConfig::tiny(tiny)))),
        ),
        ("multi", Box::new(MultiGpuEngine::titan_v(2))),
    ]
}

/// A fault-free `ClassicLp` reference run on the plain GPU engine:
/// `(labels, changed_per_iteration, active_per_iteration)`.
pub fn reference(g: &Graph, opts: &RunOptions) -> (Vec<u32>, Vec<u64>, Vec<u64>) {
    let mut prog = ClassicLp::new(g.num_vertices());
    let report = GpuEngine::titan_v()
        .run(g, &mut prog, opts)
        .expect("fault-free reference");
    (
        prog.labels().to_vec(),
        report.changed_per_iteration,
        report.active_per_iteration,
    )
}

/// Kernel launches one checkpointed iteration costs on the GPU engine
/// for this graph (pick + bucket kernels + update + barrier snapshot),
/// measured rather than assumed so fault-index arithmetic stays correct
/// if the kernel schedule grows.
pub fn launches_per_iteration(g: &Graph, opts: &RunOptions) -> u32 {
    let mut probe = GpuEngine::titan_v();
    let mut prog = ClassicLp::new(g.num_vertices());
    let hooked = opts.clone().with_barrier_hook(BarrierHook::new(|_| {}));
    let report = probe.run(g, &mut prog, &hooked).expect("healthy probe");
    assert!(report.iterations >= 3, "test graph converges too fast");
    (probe.device().kernel_log().len() as u64 / u64::from(report.iterations)) as u32
}

/// The standard deterministic fraud workload: three planted rings in a
/// background of organic traffic, sized so LP flags the rings within a
/// couple of reclusters. Shared by the serve and pipeline suites.
pub fn tx_stream() -> TxStream {
    TxStream::generate(&TxConfig {
        num_users: 1_000,
        num_items: 400,
        days: 20,
        tx_per_day: 600,
        num_rings: 3,
        ring_size: 10,
        ring_tx_per_day: 30,
        blacklist_fraction: 0.25,
        ..Default::default()
    })
}

/// The standard deterministic *regional* fraud workload for the sharded
/// fleet suites: organic traffic strictly region-local (communities the
/// partitioner can co-locate), with fraud rings straddling adjacent
/// region pairs so the cross-shard label exchange always has real
/// boundary components to reconcile. Shared by the fleet determinism,
/// shard-loss, and recovery suites.
pub fn regional_stream() -> RegionalStream {
    RegionalStream::generate(&RegionalTxConfig {
        regions: 8,
        users_per_region: 200,
        items_per_region: 80,
        days: 12,
        tx_per_day: 800,
        cross_rings: 8,
        ring_size: 10,
        ring_tx_per_day: 30,
        blacklist_fraction: 0.3,
        ..Default::default()
    })
}

/// The standard deterministic *adversarial* workload for the robustness
/// suites: evolving rings that rotate members daily behind camouflage
/// purchases, a mid-stream burst flood, and planted blacklist label
/// noise — each attack with per-day ground truth. Shared by the
/// overload/label-noise suites and the `adversarial_serve` bench.
pub fn adversarial_stream() -> AdversarialStream {
    AdversarialStream::generate(&AdversaryConfig {
        base: RegionalTxConfig {
            regions: 4,
            users_per_region: 200,
            items_per_region: 80,
            days: 12,
            tx_per_day: 800,
            cross_rings: 4,
            // Pools much larger than the active subset, so rotation
            // genuinely walks the ring *away* from old snapshots
            // (rotate 2/day never wraps within the 12-day stream).
            ring_size: 30,
            ring_tx_per_day: 30,
            blacklist_fraction: 0.3,
            ..Default::default()
        },
        active_members: 6,
        rotate_per_day: 2,
        camouflage_per_day: 10,
        burst_day: Some(6),
        burst_tx: 4_000,
        label_noise: 6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic_and_sized_consistently() {
        let pool = graphs();
        assert_eq!(pool.len(), 2);
        for (name, g) in &pool {
            assert!(g.num_vertices() > 0, "{name} empty");
            assert_eq!(variants(g).len(), 7);
            assert_eq!(engines(g).len(), 4);
        }
        let a = tx_stream();
        let b = tx_stream();
        assert_eq!(a.blacklist, b.blacklist, "stream builder must be seeded");
        let r = regional_stream();
        let r2 = regional_stream();
        assert_eq!(r.blacklist, r2.blacklist, "regional builder must be seeded");
        assert!(!r.blacklist.is_empty(), "rings must seed a blacklist");
        let adv = adversarial_stream();
        let adv2 = adversarial_stream();
        assert_eq!(
            adv.transactions, adv2.transactions,
            "adversarial builder must be seeded"
        );
        assert!(!adv.noise.is_empty(), "preset must plant label noise");
        assert!(
            adv.truth_by_day.windows(2).any(|w| w[0] != w[1]),
            "preset rings must actually rotate"
        );
        let burst_day = adv.config.burst_day.expect("preset must flood") as usize;
        let per_day = |s: &AdversarialStream, d: u32| s.window(d, d + 1).count();
        assert!(
            per_day(&adv, burst_day as u32) > 2 * per_day(&adv, burst_day as u32 - 1),
            "burst day must dwarf a calm day"
        );
    }

    #[test]
    fn reference_run_is_reproducible() {
        let g = tiny_graph();
        let opts = RunOptions::default();
        let (labels_a, changed_a, active_a) = reference(&g, &opts);
        let (labels_b, changed_b, active_b) = reference(&g, &opts);
        assert_eq!(labels_a, labels_b);
        assert_eq!(changed_a, changed_b);
        assert_eq!(active_a, active_b);
        assert!(launches_per_iteration(&g, &opts) > 0);
    }
}
