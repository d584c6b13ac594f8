//! CPU–GPU hybrid execution for graphs exceeding device memory (§3.1).
//!
//! Label state stays resident on the device; adjacency streams over PCIe.
//! The host CPUs coordinate the movement (§3.1: "the CPUs can coordinate
//! the CPU-GPU graph data movement as well as handle PickLabel and
//! UpdateVertex"): under frontier scheduling, only *active* vertices —
//! those with a changed in-neighbor — have their adjacency shipped and
//! recomputed each iteration. As LP converges the active set collapses,
//! which is what keeps the paper's transfer overhead small (§5.4).
//! Streaming overlaps kernel execution (double buffering), so an iteration
//! pays `max(compute, transfer)`.

use super::bsp::{drive, Backend, Phase};
use super::gpu::{bytes_per_edge, resident_bytes, Adjacency, GpuBackend};
use super::{BspEngine, Engine, EngineError, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::{cost, Device};
use glp_graph::partition::partition_by_edges;
use glp_graph::Graph;
use glp_trace::{Category, Clock};

/// Adjacency streams in a delta-compressed layout (neighbor-id gaps,
/// varint-coded — the standard technique for GPU out-of-core graphs, cf.
/// Sha et al. [29] cited by the paper), shrinking PCIe traffic to roughly
/// this fraction of the raw CSR bytes.
const STREAM_COMPRESSION: f64 = 0.4;

/// The out-of-core engine.
#[derive(Debug)]
pub struct HybridEngine {
    device: Device,
}

impl HybridEngine {
    /// Engine on the given device.
    pub fn new(device: Device) -> Self {
        Self { device }
    }

    /// Engine on a modeled Titan V.
    pub fn titan_v() -> Self {
        Self::new(Device::titan_v())
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Number of chunks a dense full-graph stream would need (diagnostic:
    /// 1 = the graph fits in core).
    pub fn plan_chunks(&self, g: &Graph) -> usize {
        let mem = self.device.config().global_mem_bytes;
        let resident = resident_bytes(g);
        if resident >= mem {
            return 0;
        }
        if resident + g.size_bytes() <= mem {
            return 1;
        }
        let budget_edges = (((mem - resident) / 2) / (bytes_per_edge(g) + 1)).max(1);
        partition_by_edges(g, budget_edges).len()
    }
}

impl Engine for HybridEngine {
    fn name(&self) -> &'static str {
        "GLP-hybrid"
    }

    /// Runs `prog` on `g`, streaming adjacency when the graph does not fit
    /// next to the resident label state.
    ///
    /// # Panics
    /// Panics if even the label state alone exceeds device memory.
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        drive(&mut *self.backend(g, opts), g, prog, opts)
    }
}

impl BspEngine for HybridEngine {
    fn backend<'a>(&'a mut self, g: &Graph, opts: &RunOptions) -> Box<dyn Backend + 'a> {
        let mem = self.device.config().global_mem_bytes;
        let resident = resident_bytes(g);
        assert!(
            resident < mem,
            "label state ({resident} B) alone exceeds device memory ({mem} B)"
        );
        let adjacency = Adjacency::Host {
            streamed: resident + g.size_bytes() > mem,
        };
        Box::new(GpuBackend::new(&mut self.device, g, adjacency, opts))
    }
}

/// Ships the scheduled vertices' adjacency in the compressed layout and
/// returns the stream's seconds. Streaming overlapped the `compute_s`
/// seconds of kernels; only the non-hidden remainder extends the modeled
/// clock.
pub(super) fn settle_stream(device: &mut Device, p: &Phase<'_>, compute_s: f64) -> f64 {
    let g = p.g;
    let (edges, vertices) = if p.saturated {
        (g.num_edges(), g.num_vertices() as u64)
    } else {
        let active_edges = p.work.scheduled_vertices().map(|v| u64::from(g.degree(v)));
        (active_edges.sum(), p.work.scheduled() as u64)
    };
    let bytes = edges * bytes_per_edge(g) + vertices * 8;
    let stream =
        cost::transfer_seconds(device.config(), (bytes as f64 * STREAM_COMPRESSION) as u64);
    if stream > compute_s {
        // The span covers only the remainder — that is what actually
        // extends the modeled clock.
        if let Some(t) = &p.opts.tracer {
            let at = device.elapsed_seconds();
            t.complete(
                Category::Transfer,
                "stream",
                Clock::Modeled,
                at,
                stream - compute_s,
            );
        }
        device.advance_clock(stream - compute_s);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GpuEngine;
    use crate::variants::ClassicLp;
    use glp_gpusim::DeviceConfig;
    use glp_graph::gen::{caveman, road_network, RoadConfig};
    use glp_graph::VertexId;

    #[test]
    fn hybrid_matches_in_memory_labels() {
        let g = caveman(10, 8);
        let opts = RunOptions::default();
        let mut reference = ClassicLp::new(g.num_vertices());
        GpuEngine::titan_v().run(&g, &mut reference, &opts).unwrap();

        // A device so small the CSR must stream.
        let resident = (g.num_vertices() as u64) * 20;
        let tiny = DeviceConfig::tiny(resident + 1024);
        let mut hybrid = HybridEngine::new(Device::new(tiny));
        assert!(hybrid.plan_chunks(&g) > 1, "graph should need streaming");
        let mut prog = ClassicLp::new(g.num_vertices());
        let report = hybrid.run(&g, &mut prog, &opts).unwrap();
        assert_eq!(prog.labels(), reference.labels());
        assert!(report.transfer_seconds > 0.0);
    }

    #[test]
    fn active_set_shrinks_transfer_on_converging_graph() {
        // Caveman converges in a few iterations; with a 20-iteration cap
        // most iterations stream almost nothing, so total transfer must be
        // far below 20 full-graph streams.
        let g = caveman(12, 8);
        let resident = (g.num_vertices() as u64) * 20;
        let tiny = DeviceConfig::tiny(resident + 2048);
        let mut hybrid = HybridEngine::new(Device::new(tiny.clone()));
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 20);
        let report = hybrid.run(&g, &mut prog, &RunOptions::default()).unwrap();
        let full_stream =
            cost::transfer_seconds(&tiny, g.num_edges() * 4 + g.num_vertices() as u64 * 8);
        assert!(
            report.transfer_seconds < 6.0 * full_stream,
            "transfer {} vs full stream {}",
            report.transfer_seconds,
            full_stream
        );
    }

    #[test]
    fn fits_entirely_one_chunk() {
        let g = caveman(4, 5);
        let hybrid = HybridEngine::titan_v();
        assert_eq!(hybrid.plan_chunks(&g), 1);
    }

    #[test]
    #[should_panic(expected = "label state")]
    fn label_state_overflow_rejected() {
        let g = caveman(4, 5);
        let mut hybrid = HybridEngine::new(Device::new(DeviceConfig::tiny(64)));
        let mut prog = ClassicLp::new(g.num_vertices());
        let _ = hybrid.run(&g, &mut prog, &RunOptions::default());
    }

    /// A streamed run ships the adjacency of the vertices it schedules: all
    /// of V while every vertex is active, only the scheduled ones once a
    /// vertex is not — also when those are isolated and the kernels run the
    /// full bucketing. The bits were captured while such an iteration still
    /// filtered the bucketing.
    #[test]
    fn a_frontier_short_of_isolated_vertices_streams_the_scheduled_only() {
        let g = road_network(&RoadConfig {
            width: 16,
            height: 16,
            keep: 0.6,
            seed: 5,
        });
        let n = g.num_vertices() as VertexId;
        let isolated = (0..n).filter(|&v| g.degree(v) == 0).count() as u64;
        assert!(isolated > 0);
        let mem = resident_bytes(&g) + g.size_bytes() / 2;
        let mut hybrid = HybridEngine::new(Device::new(DeviceConfig::tiny(mem)));
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 8);
        let report = hybrid.run(&g, &mut prog, &RunOptions::default()).unwrap();
        // Iteration 0 is all-active; from then on only the isolated
        // vertices, which no change reaches, are left out.
        let scheduled = u64::from(n) - isolated;
        assert_eq!(report.active_per_iteration, [scheduled; 8]);
        assert_eq!(report.transfer_seconds.to_bits(), 0x3ebb_b133_914f_1a62);
    }
}
