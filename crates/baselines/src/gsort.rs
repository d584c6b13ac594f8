//! G-Sort (Kozawa et al., CIKM'17): the segmented-sort GPU baseline.
//!
//! Per iteration (§2.2):
//! 1. a **gather kernel** loads each edge's neighbor label into a global
//!    `NL` array of size |E| — the "additional global memory equivalent to
//!    the graph size" §5.2 notes;
//! 2. a **segmented sort** orders each vertex's slice of `NL`. Small
//!    segments sort inside a thread block in one read+write pass (why
//!    G-Sort does well on small-neighborhood graphs); large segments
//!    degenerate to multi-pass radix sort over global memory (§4.1:
//!    "segmented sort degenerates to plain parallel sort for high degree
//!    vertices");
//! 3. a **count kernel** scans the sorted runs and extracts the best label.
//!
//! The kernels really execute (the run-scan produces exact winners under
//! the workspace tie rule); the cost model charges the extra traffic that
//! makes this approach lose to GLP.

use glp_core::engine::{
    drive, Backend, BestLabel, BspEngine, Decision, Engine, EngineError, Phase, RunOptions,
    ShardStats,
};
use glp_core::{LpProgram, LpRunReport};
use glp_gpusim::{Device, DeviceError, KernelCtx, WARP_SIZE};
use glp_graph::{Graph, Label, VertexId};

/// Segments at most this long sort in one block-local pass; longer ones
/// pay the multi-pass radix path. CUB's block-radix path handles a few
/// hundred keys before spilling to the global multi-pass sort — the
/// degeneration §4.1 describes ("segmented sort degenerates to plain
/// parallel sort for high degree vertices").
const BLOCK_SORT_MAX: usize = 256;

/// Radix passes for large segments (32-bit labels, 8-bit digits).
const RADIX_PASSES: u64 = 4;

const NL_BASE: u64 = 0x8_0000_0000;
const LABELS: u64 = 0x1_0000_0000;
const TARGETS: u64 = 0x2_0000_0000;
const DECISIONS: u64 = 0x4_0000_0000;
const LABEL_STATE: u64 = 0x7_0000_0000;

/// The G-Sort engine. Always dense: the original has no frontier, so the
/// [`RunOptions::frontier`] knob is ignored — `Push`, `Pull`, and `Auto`
/// all run the dense schedule, and every report iteration records
/// [`Direction::Dense`](glp_core::Direction) (every vertex re-sorts every
/// iteration — part of what GLP beats).
#[derive(Debug)]
pub struct GSortLp {
    device: Device,
}

impl GSortLp {
    /// G-Sort on the given device.
    pub fn new(device: Device) -> Self {
        Self { device }
    }

    /// G-Sort on a modeled Titan V.
    pub fn titan_v() -> Self {
        Self::new(Device::titan_v())
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Engine for GSortLp {
    fn name(&self) -> &'static str {
        "G-Sort"
    }

    /// Runs `prog` on `g`. Faults on the modeled device (only possible
    /// with a fault plan attached) surface as [`EngineError`]; device
    /// memory is released either way.
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        drive(&mut *self.backend(g, opts), g, prog, opts)
    }
}

impl BspEngine for GSortLp {
    fn backend<'a>(&'a mut self, g: &Graph, opts: &RunOptions) -> Box<dyn Backend + 'a> {
        let n = g.num_vertices();
        let shards = opts.resolve_shards();
        let per = n.div_ceil(shards).max(1);
        Box::new(GSortBackend {
            device: &mut self.device,
            // G-Sort needs graph + labels + the |E|-sized NL and weight arrays.
            footprint: g.size_bytes() + (n as u64) * 20 + g.incoming().num_edges() * 12,
            vertex_ranges: (0..shards)
                .map(|i| ((i * per).min(n), ((i + 1) * per).min(n)))
                .collect(),
            label_bytes: n as u64 * 4,
            transfer_s: 0.0,
        })
    }
}

struct GSortBackend<'a> {
    device: &'a mut Device,
    footprint: u64,
    /// The contiguous vertex range each harness shard of a kernel owns.
    vertex_ranges: Vec<(usize, usize)>,
    label_bytes: u64,
    transfer_s: f64,
}

impl Backend for GSortBackend<'_> {
    fn name(&self) -> &'static str {
        "G-Sort"
    }

    fn modeled_now(&self) -> Option<f64> {
        Some(self.device.elapsed_seconds())
    }

    fn each_device(&mut self, f: &mut dyn FnMut(&mut Device)) {
        f(self.device);
    }

    fn frontier_capable(&self) -> bool {
        false
    }

    fn stage(&mut self, _g: &Graph) -> Result<(), DeviceError> {
        let t0 = self.device.elapsed_seconds();
        self.device.upload(self.footprint)?;
        self.transfer_s += self.device.elapsed_seconds() - t0;
        Ok(())
    }

    fn pick(&mut self, p: &Phase<'_>, spoken: &mut [Label]) -> Result<(), DeviceError> {
        p.prog.pick_labels_into(0, spoken);
        let n = spoken.len() as u64;
        self.device.launch("pick_label", |ctx| {
            ctx.global_read_seq(LABEL_STATE, n, 4);
            ctx.global_write_seq(LABELS, n, 4);
            ctx.warps_launched(n.div_ceil(32));
            ctx.alu(2 * n.div_ceil(32));
        })
    }

    fn propagate(
        &mut self,
        p: &Phase<'_>,
        spoken: &[Label],
        decisions: &mut [Decision],
    ) -> Result<ShardStats, DeviceError> {
        let (csr, prog) = (p.g.incoming(), p.prog);
        let vertex_ranges = &self.vertex_ranges;
        let shards = vertex_ranges.len();

        // 1. Gather kernel: NL[e] = L[target[e]] for every edge.
        self.device
            .launch_parallel("gsort_gather", shards, |i, ctx: &mut KernelCtx| {
                let (lo, hi) = vertex_ranges[i];
                let mut addrs = [0u64; WARP_SIZE];
                for v in lo..hi {
                    let nbrs = csr.neighbors(v as VertexId);
                    let off = csr.offset(v as VertexId);
                    for (c, chunk) in nbrs.chunks(WARP_SIZE).enumerate() {
                        ctx.global_read_seq(
                            TARGETS + (off + (c * WARP_SIZE) as u64) * 4,
                            chunk.len() as u64,
                            4,
                        );
                        for (k, &u) in chunk.iter().enumerate() {
                            addrs[k] = LABELS + u64::from(u) * 4;
                        }
                        ctx.global_read(&addrs[..chunk.len()]);
                        ctx.global_write_seq(
                            NL_BASE + (off + (c * WARP_SIZE) as u64) * 4,
                            chunk.len() as u64,
                            4,
                        );
                    }
                }
                ctx.warps_launched(
                    (csr.offset(hi as VertexId) - csr.offset(lo as VertexId)).div_ceil(32),
                );
            })?;

        // 2+3. Segmented sort + run-scan count, per vertex.
        let outs =
            self.device
                .launch_parallel("gsort_sort_count", shards, |i, ctx: &mut KernelCtx| {
                    let (lo, hi) = vertex_ranges[i];
                    let mut out: Vec<(VertexId, Decision)> = Vec::with_capacity(hi - lo);
                    let mut scratch: Vec<(Label, f64)> = Vec::new();
                    for v in lo..hi {
                        let v = v as VertexId;
                        let nbrs = csr.neighbors(v);
                        if nbrs.is_empty() {
                            continue;
                        }
                        let off = csr.offset(v);
                        let deg = nbrs.len();
                        // Materialize this segment of NL with the user's
                        // per-edge contributions, then sort by label.
                        scratch.clear();
                        scratch.reserve(deg);
                        for (j, &u) in nbrs.iter().enumerate() {
                            let contrib =
                                prog.load_neighbor(v, u, off + j as u64, spoken[u as usize]);
                            scratch.push((contrib.label, contrib.weight));
                        }
                        scratch.sort_unstable_by_key(|&(l, _)| l);
                        // Sort cost: one block-local pass for small
                        // segments, RADIX_PASSES read+write sweeps of the
                        // segment for large ones.
                        if deg <= BLOCK_SORT_MAX {
                            // Block-local radix sort: one global read+write
                            // plus per-key rank/scatter work in shared
                            // memory (4 digit passes x ~3 ops).
                            ctx.global_read_seq(NL_BASE + off * 4, deg as u64, 4);
                            ctx.global_write_seq(NL_BASE + off * 4, deg as u64, 4);
                            ctx.shared_access_uniform((deg as u64) * RADIX_PASSES / 4);
                            ctx.alu((deg as u64) * 3 * RADIX_PASSES);
                        } else {
                            // Degenerated multi-pass global radix sort:
                            // every pass streams the segment through global
                            // memory both ways.
                            for _ in 0..RADIX_PASSES {
                                ctx.global_read_seq(NL_BASE + off * 4, deg as u64, 4);
                                ctx.global_write_seq(NL_BASE + off * 4, deg as u64, 4);
                            }
                            ctx.alu((deg as u64) * 4 * RADIX_PASSES);
                        }
                        // Count kernel: scan sorted runs.
                        ctx.global_read_seq(NL_BASE + off * 4, deg as u64, 4);
                        ctx.alu(deg as u64);
                        let mut best: Option<BestLabel> = None;
                        let current = spoken[v as usize];
                        let mut r = 0usize;
                        while r < scratch.len() {
                            let label = scratch[r].0;
                            let mut freq = 0.0;
                            while r < scratch.len() && scratch[r].0 == label {
                                freq += scratch[r].1;
                                r += 1;
                            }
                            let score = prog.label_score(v, label, freq);
                            BestLabel::offer(&mut best, label, score, current);
                        }
                        ctx.global_write_scattered(1);
                        out.push((v, BestLabel::into_decision(best)));
                    }
                    ctx.warps_launched((hi - lo) as u64);
                    out
                })?;
        for (v, d) in outs.into_iter().flatten() {
            decisions[v as usize] = d;
        }
        Ok(ShardStats::default())
    }

    fn charge_update(&mut self, n: u64) -> Result<(), DeviceError> {
        self.device.launch("update_vertex", |ctx| {
            ctx.global_read_seq(DECISIONS, n, 12);
            ctx.global_write_seq(LABEL_STATE, n, 4);
            ctx.warps_launched(n.div_ceil(32));
            ctx.alu(2 * n.div_ceil(32));
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use glp_core::engine::GpuEngine;
    use glp_core::{ClassicLp, Llp};
    use glp_graph::gen::{community_powerlaw, star, CommunityPowerLawConfig};

    #[test]
    fn gsort_llp_matches_glp() {
        let g = community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 800,
            avg_degree: 6.0,
            ..Default::default()
        });
        let opts = RunOptions::default();
        let mut reference = Llp::new(g.num_vertices(), 4.0);
        GpuEngine::titan_v().run(&g, &mut reference, &opts).unwrap();
        let mut p = Llp::new(g.num_vertices(), 4.0);
        GSortLp::titan_v().run(&g, &mut p, &opts).unwrap();
        assert_eq!(p.labels(), reference.labels());
    }

    #[test]
    fn gsort_pays_radix_passes_on_hubs() {
        // The star hub (degree >> BLOCK_SORT_MAX) must move many more
        // sectors per edge than a low-degree graph of the same size.
        let hub = star(5_000);
        let mut p = ClassicLp::with_max_iterations(hub.num_vertices(), 1);
        let mut eng = GSortLp::titan_v();
        eng.run(&hub, &mut p, &RunOptions::default()).unwrap();
        let sectors = eng.device().totals().global_sectors();
        // gather(2 dirs) + 4x2 radix + scan over ~10k directed edges.
        assert!(
            sectors > 10 * (hub.num_edges() / 8),
            "sectors {sectors} for {} edges",
            hub.num_edges()
        );
    }
}
