//! Multi-GPU execution (§5.4: "with two GPUs, GLP further achieves 1.8x
//! speedup on average").
//!
//! Vertices are split into per-device contiguous ranges balanced by edge
//! count. Every device keeps a full replica of the spoken-label array (the
//! paper's two-GPU Titan V setup has ample memory for labels); after each
//! iteration the devices exchange their ranges' fresh labels over PCIe and
//! synchronize, which is what keeps the two-GPU speedup below 2x.
//!
//! # Fault handling
//!
//! Losing a device mid-run does not fail the job while any device
//! survives: the engine **repartitions** the graph across the survivors
//! (re-uploading their new shares, charged as transfer time) and re-drives
//! the interrupted iteration. The iteration is structured so that every
//! fallible device operation happens *before* the host applies
//! `update_vertex` — re-driving the device phase after a loss therefore
//! never double-applies an update, and the labels stay byte-identical to a
//! fault-free run. Only when the last device dies does `run` return
//! [`EngineError::DeviceLost`].

use super::dispatch::Buckets;
use super::gpu::{
    charge_frontier, charge_frontier_density, charge_pull_gather, charge_snapshot,
    choose_direction, dispatch_name, initial_active, mark_changed, pick_labels, profile_from_log,
    propagate, recompute_active, recompute_active_pull, trace_fail, trace_run_begin,
};
use super::kernels::ShardStats;
use super::options::BarrierEvent;
use super::{Decision, Direction, Engine, EngineError, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::{DeviceConfig, DeviceError, MultiGpu};
use glp_graph::partition::{partition_even, VertexRange};
use glp_graph::{Graph, Label, VertexId};
use glp_trace::{Category, Clock};
use std::time::Instant;

/// The multi-GPU engine.
#[derive(Debug)]
pub struct MultiGpuEngine {
    gpus: MultiGpu,
}

impl MultiGpuEngine {
    /// `n` identical devices.
    pub fn new(num_devices: usize, device_cfg: DeviceConfig) -> Self {
        Self {
            gpus: MultiGpu::new(num_devices, device_cfg),
        }
    }

    /// `n` modeled Titan Vs.
    pub fn titan_v(num_devices: usize) -> Self {
        Self::new(num_devices, DeviceConfig::titan_v())
    }

    /// The device set.
    pub fn gpus(&self) -> &MultiGpu {
        &self.gpus
    }
}

/// One partitioning of the graph over the currently-alive devices:
/// partition `i` lives on device `assign[i]`.
struct Layout {
    assign: Vec<usize>,
    ranges: Vec<VertexRange>,
    dev_buckets: Vec<Buckets>,
    /// Upload bytes per partition (freed before a repartition).
    footprints: Vec<u64>,
}

impl Layout {
    fn build(g: &Graph, full: &Buckets, survivors: Vec<usize>, n: usize) -> Self {
        let ranges = partition_even(g, survivors.len());
        let keep = |vs: &[VertexId], lo: VertexId, hi: VertexId| {
            vs.iter()
                .copied()
                .filter(|&v| v >= lo && v < hi)
                .collect::<Vec<_>>()
        };
        let dev_buckets: Vec<Buckets> = ranges
            .iter()
            .map(|r| Buckets {
                isolated: keep(&full.isolated, r.start, r.end),
                warp_packed: keep(&full.warp_packed, r.start, r.end),
                warp_per_vertex: keep(&full.warp_per_vertex, r.start, r.end),
                block_per_vertex: keep(&full.block_per_vertex, r.start, r.end),
                global_hash: keep(&full.global_hash, r.start, r.end),
            })
            .collect();
        let bytes_per_edge: u64 = if g.incoming().is_weighted() { 8 } else { 4 };
        let footprints = ranges
            .iter()
            .map(|r| {
                r.num_edges() * bytes_per_edge + (r.num_vertices() as u64) * 8 + (n as u64) * 8
            })
            .collect();
        Self {
            assign: survivors,
            ranges,
            dev_buckets,
            footprints,
        }
    }

    /// Uploads every partition's share to its device, charging transfer
    /// time. Fails if a device is lost or out of memory.
    fn upload(&self, gpus: &mut MultiGpu, transfer_s: &mut f64) -> Result<(), DeviceError> {
        for (i, &d) in self.assign.iter().enumerate() {
            let dev = gpus.device_mut(d);
            let before = dev.elapsed_seconds();
            dev.upload(self.footprints[i])?;
            *transfer_s += dev.elapsed_seconds() - before;
        }
        gpus.sync();
        Ok(())
    }

    /// Releases every surviving partition's footprint.
    fn free(&self, gpus: &mut MultiGpu) {
        for (i, &d) in self.assign.iter().enumerate() {
            if !gpus.device(d).is_lost() {
                gpus.device_mut(d).free(self.footprints[i]);
            }
        }
    }
}

/// What the fallible device phase of one iteration produced; committed to
/// the program/report only after the whole phase succeeded, so a
/// repartition retry never double-counts.
struct PhaseOut {
    scheduled: u64,
    stats: ShardStats,
    snapshot_s: f64,
    snapshots: u64,
    /// The frontier-rebuild direction this phase took — chosen once on the
    /// host before the per-device charges, so every device (and every
    /// repartition re-drive) agrees.
    direction: Direction,
}

impl Engine for MultiGpuEngine {
    fn name(&self) -> &'static str {
        "GLP-multi"
    }

    /// Runs `prog` on `g` split across the devices, repartitioning across
    /// survivors when a device is lost mid-run.
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
        opts.validate_for_device(self.gpus.device(0).config().shared_mem_per_block);
        let wall_start = Instant::now();
        let n = g.num_vertices();
        let ndev = self.gpus.len();
        let shards = opts.resolve_shards().div_ceil(ndev).max(1);

        let full = Buckets::build(g, opts.strategy, opts.thresholds);
        let start_elapsed = self.gpus.elapsed_seconds();
        let mut transfer_s = 0.0;

        for i in 0..ndev {
            self.gpus.device_mut(i).set_tracer(opts.tracer.clone());
        }
        let log_marks: Vec<usize> = (0..ndev)
            .map(|i| self.gpus.device(i).kernel_log().len())
            .collect();
        let trace_mark = trace_run_begin(&opts.tracer, self.name(), start_elapsed);

        let mut layout = Layout::build(g, &full, self.gpus.survivors(), n);
        if layout.assign.is_empty() {
            trace_fail(&opts.tracer, trace_mark, self.gpus.elapsed_seconds());
            return Err(EngineError::DeviceLost { device: 0 });
        }
        if let Err(e) = layout.upload(&mut self.gpus, &mut transfer_s) {
            trace_fail(&opts.tracer, trace_mark, self.gpus.elapsed_seconds());
            return Err(e.into());
        }

        let mut spoken: Vec<Label> = vec![0; n];
        let mut decisions: Vec<Decision> = vec![None; n];
        let sparse = opts.frontier.sparse(prog.sparse_activation());
        let mut active = initial_active(n, sparse, opts);
        let mut next_active = vec![false; n];
        let mut changed_flags = vec![false; if sparse { n } else { 0 }];
        let mut report = LpRunReport::default();

        let outcome = (|| -> Result<(), EngineError> {
            let mut last_direction: Option<Direction> = None;
            for iteration in opts.start_iteration..opts.max_iterations {
                let iter_start = self.gpus.elapsed_seconds();
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
                // Device phase: everything fallible, nothing host-visible
                // committed. Re-driven in full after a repartition (but
                // begin_iteration is NOT re-called — the program already
                // advanced into this iteration).
                let out = loop {
                    match device_phase(
                        &mut self.gpus,
                        &layout,
                        g,
                        prog,
                        opts,
                        shards,
                        &mut spoken,
                        &mut decisions,
                        &active,
                        &mut next_active,
                        &mut changed_flags,
                        sparse,
                        last_direction,
                        &mut transfer_s,
                    ) {
                        Ok(out) => break out,
                        Err(DeviceError::Lost { .. }) if self.gpus.alive() > 0 => {
                            // Repartition over the survivors and redo the
                            // iteration's device work from pick_labels. The
                            // instant lands inside the still-open iteration
                            // span, marking which iteration was re-driven.
                            if let Some(t) = &opts.tracer {
                                t.instant(
                                    Category::Resilience,
                                    "repartition",
                                    Clock::Modeled,
                                    self.gpus.elapsed_seconds(),
                                );
                            }
                            layout.free(&mut self.gpus);
                            layout = Layout::build(g, &full, self.gpus.survivors(), n);
                            layout.upload(&mut self.gpus, &mut transfer_s)?;
                        }
                        Err(e) => return Err(e.into()),
                    }
                };
                // Commit phase: host-side program updates, in ascending
                // vertex order, exactly once per iteration.
                let changed = prog.apply_decisions(&decisions);
                if sparse {
                    active.copy_from_slice(&next_active);
                }
                last_direction = Some(out.direction);
                prog.end_iteration(iteration);
                report.smem_fallbacks += out.stats.fallbacks;
                report.smem_vertices += out.stats.smem_vertices;
                report.snapshot_seconds += out.snapshot_s;
                report.snapshots_taken += out.snapshots;
                if let Some(hook) = &opts.barrier_hook {
                    hook.fire(&BarrierEvent {
                        iteration,
                        changed,
                        scheduled: out.scheduled,
                        active: if sparse { Some(&active) } else { None },
                        direction: out.direction,
                        program: &*prog,
                    });
                }
                report.active_per_iteration.push(out.scheduled);
                report.changed_per_iteration.push(changed);
                report.direction_per_iteration.push(out.direction);
                report
                    .iteration_seconds
                    .push(self.gpus.elapsed_seconds() - iter_start);
                report.iterations = iteration + 1;
                if let Some(t) = &opts.tracer {
                    t.end(self.gpus.elapsed_seconds());
                }
                if prog.finished(iteration, changed) {
                    break;
                }
            }
            Ok(())
        })();

        layout.free(&mut self.gpus);
        if let Err(e) = outcome {
            trace_fail(&opts.tracer, trace_mark, self.gpus.elapsed_seconds());
            return Err(e);
        }
        if let Some(t) = &opts.tracer {
            t.end(self.gpus.elapsed_seconds());
        }

        report.modeled_seconds = self.gpus.elapsed_seconds() - start_elapsed;
        report.transfer_seconds = transfer_s;
        report.wall_seconds = wall_start.elapsed().as_secs_f64();
        for d in self.gpus.iter() {
            report.gpu_counters.merge(d.totals());
        }
        for (i, &mark) in log_marks.iter().enumerate() {
            report.kernel_profile.merge(&profile_from_log(
                self.name(),
                &self.gpus.device(i).kernel_log()[mark..],
            ));
        }
        Ok(report)
    }
}

/// The fallible device half of one iteration: pick, propagate, the
/// modeled update/frontier/snapshot kernels, the peer label exchange, and
/// the barrier. Reads the program immutably and writes only the scratch
/// buffers (`spoken`, `decisions`, `next_active`, `changed`), so it is
/// safe to re-drive after a repartition.
#[allow(clippy::too_many_arguments)]
fn device_phase(
    gpus: &mut MultiGpu,
    layout: &Layout,
    g: &Graph,
    prog: &dyn LpProgram,
    opts: &RunOptions,
    shards: usize,
    spoken: &mut [Label],
    decisions: &mut [Decision],
    active: &[bool],
    next_active: &mut [bool],
    changed: &mut [bool],
    sparse: bool,
    prev_dir: Option<Direction>,
    transfer_s: &mut f64,
) -> Result<PhaseOut, DeviceError> {
    let ndev = layout.assign.len() as u64;
    // PickLabel runs on each device's clock for its own range.
    for (i, &d) in layout.assign.iter().enumerate() {
        let r = &layout.ranges[i];
        let lo = r.start as usize;
        let hi = r.end as usize;
        if lo < hi {
            pick_labels(
                gpus.device_mut(d),
                &mut spoken[lo..hi],
                r.start,
                prog,
                shards,
            )?;
        }
    }
    decisions.fill(None);
    let all_active = !sparse || active.iter().all(|&a| a);
    let mut scheduled = 0u64;
    let mut stats = ShardStats::default();
    if let Some(t) = &opts.tracer {
        t.begin(
            Category::Dispatch,
            dispatch_name(prev_dir),
            Clock::Modeled,
            gpus.elapsed_seconds(),
        );
    }
    // Errors are collected, not `?`-propagated, so the dispatch span is
    // closed before the repartition retry in `run` re-drives this phase.
    let propagate_result = (|| -> Result<(), DeviceError> {
        for (i, &d) in layout.assign.iter().enumerate() {
            let buckets = &layout.dev_buckets[i];
            // Per-iteration dispatch rebuild over the frontier, like the
            // single-GPU engine (dense fallback for programs without sparse
            // activation).
            let filtered: std::borrow::Cow<'_, Buckets> = if all_active {
                std::borrow::Cow::Borrowed(buckets)
            } else {
                std::borrow::Cow::Owned(buckets.filtered(active))
            };
            scheduled += filtered.scheduled() as u64;
            let st = propagate(
                gpus.device_mut(d),
                g,
                spoken,
                prog,
                &filtered,
                opts,
                shards,
                decisions,
            )?;
            stats.merge(&st);
        }
        Ok(())
    })();
    if let Some(t) = &opts.tracer {
        let now = gpus.elapsed_seconds();
        if propagate_result.is_ok() {
            t.end(now);
        } else {
            t.end_err(now);
        }
    }
    propagate_result?;
    // UpdateVertex: each device writes back its own range (the modeled
    // kernel); the host applies program state only after the whole device
    // phase succeeded.
    for (i, &d) in layout.assign.iter().enumerate() {
        let r = &layout.ranges[i];
        let m = r.num_vertices() as u64;
        gpus.device_mut(d).launch("update_vertex", |ctx| {
            ctx.global_read_seq(0x4_0000_0000 + u64::from(r.start) * 12, m, 12);
            ctx.global_write_seq(0x7_0000_0000 + u64::from(r.start) * 4, m, 4);
            ctx.warps_launched(m.div_ceil(32));
            ctx.alu(2 * m.div_ceil(32));
        })?;
    }
    let direction = if sparse {
        // Direction resolved once on the host (every device carries the
        // same cost model, so one choice serves the fleet — and a
        // repartition re-drive makes the same choice from the same scratch
        // inputs). Under `Auto` each device first pays the density
        // measurement for its own range.
        mark_changed(spoken, decisions, changed);
        let dir = choose_direction(
            opts.frontier,
            g,
            changed,
            gpus.device(layout.assign[0]).cost_model(),
        );
        if opts.frontier == super::FrontierMode::Auto {
            for (i, &d) in layout.assign.iter().enumerate() {
                charge_frontier_density(
                    gpus.device_mut(d),
                    layout.ranges[i].num_vertices() as u64,
                )?;
            }
        }
        // Shared host recompute into the scratch frontier (the live one
        // stays untouched until commit); each device pays the maintenance
        // kernels for its own vertex range.
        let volume = if dir == Direction::Pull {
            recompute_active_pull(g, changed, next_active)
        } else {
            recompute_active(g, changed, next_active)
        };
        for (i, &d) in layout.assign.iter().enumerate() {
            let r = &layout.ranges[i];
            let share = volume / ndev;
            let range_active = next_active[r.start as usize..r.end as usize]
                .iter()
                .filter(|&&a| a)
                .count() as u64;
            if dir == Direction::Pull {
                charge_pull_gather(
                    gpus.device_mut(d),
                    r.num_vertices() as u64,
                    share,
                    range_active,
                )?;
            } else {
                charge_frontier(
                    gpus.device_mut(d),
                    r.num_vertices() as u64,
                    share,
                    range_active,
                )?;
            }
        }
        dir
    } else {
        Direction::Dense
    };
    let mut snapshot_s = 0.0;
    let mut snapshots = 0u64;
    if opts.barrier_hook.is_some() {
        // Each device reads back its own range's label state.
        let before = gpus.elapsed_seconds();
        for (i, &d) in layout.assign.iter().enumerate() {
            charge_snapshot(gpus.device_mut(d), layout.ranges[i].num_vertices() as u64)?;
        }
        snapshot_s = gpus.elapsed_seconds() - before;
        snapshots = 1;
    }
    // Label exchange: each device ships its range's fresh labels to every
    // peer over the host link, then everyone synchronizes.
    for (i, &d) in layout.assign.iter().enumerate() {
        let bytes = (layout.ranges[i].num_vertices() as u64) * 4 * (ndev - 1);
        let dev = gpus.device_mut(d);
        let before = dev.elapsed_seconds();
        dev.download(bytes);
        *transfer_s += dev.elapsed_seconds() - before;
    }
    gpus.sync();
    Ok(PhaseOut {
        scheduled,
        stats,
        snapshot_s,
        snapshots,
        direction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GpuEngine;
    use crate::variants::ClassicLp;
    use glp_graph::gen::{caveman, community_powerlaw, CommunityPowerLawConfig};

    #[test]
    fn multi_gpu_matches_single_gpu_labels() {
        let g = caveman(8, 7);
        let opts = RunOptions::default();
        let mut reference = ClassicLp::new(g.num_vertices());
        GpuEngine::titan_v().run(&g, &mut reference, &opts).unwrap();
        let mut prog = ClassicLp::new(g.num_vertices());
        let mut engine = MultiGpuEngine::titan_v(2);
        engine.run(&g, &mut prog, &opts).unwrap();
        assert_eq!(prog.labels(), reference.labels());
    }

    #[test]
    fn two_gpus_faster_than_one_but_sublinear() {
        // Large enough that edge work dominates the per-iteration fixed
        // costs (kernel launches, barrier sync) that do not parallelize.
        let g = community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 30_000,
            avg_degree: 32.0,
            ..Default::default()
        });
        let opts = RunOptions::default().with_max_iterations(10);
        let mut p1 = ClassicLp::with_max_iterations(g.num_vertices(), 10);
        let r1 = GpuEngine::titan_v().run(&g, &mut p1, &opts).unwrap();
        let mut p2 = ClassicLp::with_max_iterations(g.num_vertices(), 10);
        let r2 = MultiGpuEngine::titan_v(2).run(&g, &mut p2, &opts).unwrap();
        let speedup = r1.modeled_seconds / r2.modeled_seconds;
        assert!(speedup > 1.2, "speedup {speedup}");
        assert!(speedup < 2.0, "speedup {speedup}");
    }
}
