//! CPU–GPU hybrid execution for graphs exceeding device memory (§3.1).
//!
//! Label state stays resident on the device; adjacency streams over PCIe.
//! The host CPUs coordinate the movement (§3.1: "the CPUs can coordinate
//! the CPU-GPU graph data movement as well as handle PickLabel and
//! UpdateVertex"): under [`FrontierMode::Auto`](super::FrontierMode), only
//! *active* vertices — those with a changed in-neighbor — have their
//! adjacency shipped and recomputed each iteration. As LP converges the
//! active set collapses, which is what keeps the paper's transfer overhead
//! small (§5.4). Streaming overlaps kernel execution (double buffering),
//! so an iteration pays `max(compute, transfer)`.

use super::dispatch::Buckets;
use super::gpu::{
    apply_updates, charge_snapshot, choose_direction, dispatch_name, initial_active, mark_changed,
    pick_labels, profile_from_log, propagate, recompute_active, recompute_active_pull, trace_fail,
    trace_run_begin,
};
use super::options::BarrierEvent;
use super::{Decision, Direction, Engine, EngineError, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::Device;
use glp_graph::partition::partition_by_edges;
use glp_graph::{Graph, Label};
use glp_trace::{Category, Clock};
use std::time::Instant;

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
        let n = g.num_vertices() as u64;
        let mem = self.device.config().global_mem_bytes;
        let resident = n * (4 + 4 + 12);
        if resident >= mem {
            return 0;
        }
        if resident + g.size_bytes() <= mem {
            return 1;
        }
        let bytes_per_edge = if g.incoming().is_weighted() { 8 } else { 4 };
        let budget_edges = (((mem - resident) / 2) / (bytes_per_edge + 1)).max(1);
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
        assert_eq!(
            prog.num_vertices(),
            g.num_vertices(),
            "program sized for a different graph"
        );
        opts.validate_for_device(self.device.config().shared_mem_per_block);
        let wall_start = Instant::now();
        let n = g.num_vertices();
        let shards = opts.resolve_shards();
        let mem = self.device.config().global_mem_bytes;

        // Resident: label state + spoken + decisions.
        let resident = (n as u64) * (4 + 4 + 12);
        assert!(
            resident < mem,
            "label state ({resident} B) alone exceeds device memory ({mem} B)"
        );
        let in_core = resident + g.size_bytes() <= mem;
        let bytes_per_edge: u64 = if g.incoming().is_weighted() { 8 } else { 4 };

        let full = Buckets::build(g, opts.strategy, opts.thresholds);
        let sparse = opts.frontier.sparse(prog.sparse_activation());

        let footprint = if in_core {
            resident + g.size_bytes()
        } else {
            resident
        };
        self.device.set_tracer(opts.tracer.clone());
        let log_mark = self.device.kernel_log().len();
        let t0 = self.device.elapsed_seconds();
        let trace_mark = trace_run_begin(&opts.tracer, self.name(), t0);
        if let Err(e) = self.device.upload(footprint) {
            trace_fail(&opts.tracer, trace_mark, self.device.elapsed_seconds());
            return Err(e.into());
        }
        let mut transfer_s = self.device.elapsed_seconds() - t0;
        let start_elapsed = t0;

        let mut spoken: Vec<Label> = vec![0; n];
        let mut decisions: Vec<Decision> = vec![None; n];
        let mut active = initial_active(n, sparse, opts);
        let mut changed_flags = vec![false; if sparse { n } else { 0 }];
        let mut report = LpRunReport::default();
        let device = &mut self.device;

        // As in the GPU engine, the loop body runs in an immediately
        // invoked closure so the footprint is freed on the fault path.
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

                // Restrict work (and streaming) to the active set.
                let all_active = !sparse
                    || (iteration == 0 && opts.start_iteration == 0)
                    || active.iter().all(|&a| a);
                let (buckets, stream_bytes): (std::borrow::Cow<'_, Buckets>, u64) = if all_active {
                    let bytes = g.num_edges() * bytes_per_edge + (n as u64) * 8;
                    (std::borrow::Cow::Borrowed(&full), bytes)
                } else {
                    let b = full.filtered(&active);
                    let active_edges: u64 = [
                        &b.warp_packed,
                        &b.warp_per_vertex,
                        &b.block_per_vertex,
                        &b.global_hash,
                    ]
                    .into_iter()
                    .flat_map(|vs| vs.iter())
                    .map(|&v| u64::from(g.degree(v)))
                    .sum();
                    let bytes = active_edges * bytes_per_edge + (b.scheduled() as u64) * 8;
                    (std::borrow::Cow::Owned(b), bytes)
                };
                let scheduled = buckets.scheduled() as u64;
                report.active_per_iteration.push(scheduled);

                let before = device.elapsed_seconds();
                if let Some(t) = &opts.tracer {
                    t.begin_arg(
                        Category::Dispatch,
                        dispatch_name(last_direction),
                        Clock::Modeled,
                        before,
                        scheduled,
                    );
                }
                let stats = propagate(
                    device,
                    g,
                    &spoken,
                    prog,
                    &buckets,
                    opts,
                    shards,
                    &mut decisions,
                )?;
                if let Some(t) = &opts.tracer {
                    t.end(device.elapsed_seconds());
                }
                report.smem_fallbacks += stats.fallbacks;
                report.smem_vertices += stats.smem_vertices;
                let compute = device.elapsed_seconds() - before;
                if !in_core {
                    // Streaming overlaps the kernels; only the non-hidden
                    // remainder extends the modeled clock. Adjacency moves in
                    // the compressed layout.
                    let stream = device.cost_model().transfer_seconds(
                        device.config(),
                        (stream_bytes as f64 * STREAM_COMPRESSION) as u64,
                    );
                    transfer_s += stream;
                    if stream > compute {
                        // The span covers only the non-hidden remainder —
                        // that is what actually extends the modeled clock.
                        if let Some(t) = &opts.tracer {
                            t.complete(
                                Category::Transfer,
                                "stream",
                                Clock::Modeled,
                                device.elapsed_seconds(),
                                stream - compute,
                            );
                        }
                        device.advance_clock(stream - compute);
                    }
                }

                let changed = apply_updates(device, &decisions, prog)?;
                let direction = if sparse {
                    // Host-side frontier maintenance (§3.1: the CPUs handle
                    // UpdateVertex and coordinate data movement in hybrid
                    // mode), so no device kernel is charged here — the shared
                    // recomputes keep the semantics identical to the GPU
                    // engines'. The direction choice still runs (priced on
                    // this device's cost model, so `Auto` agrees with the
                    // in-core tiers) and is recorded/tagged like everywhere
                    // else — only the charge is absent.
                    mark_changed(&spoken, &decisions, &mut changed_flags);
                    let dir =
                        choose_direction(opts.frontier, g, &changed_flags, device.cost_model());
                    if dir == Direction::Pull {
                        recompute_active_pull(g, &changed_flags, &mut active);
                    } else {
                        recompute_active(g, &changed_flags, &mut active);
                    }
                    dir
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GpuEngine;
    use crate::variants::ClassicLp;
    use glp_gpusim::DeviceConfig;
    use glp_graph::gen::caveman;

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
        let full_stream = hybrid
            .device()
            .cost_model()
            .transfer_seconds(&tiny, g.num_edges() * 4 + g.num_vertices() as u64 * 8);
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
}
