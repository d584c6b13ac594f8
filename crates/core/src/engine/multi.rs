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
//! survives: the backend **repartitions** the graph across the survivors
//! (re-uploading their new shares, charged as transfer time) and the
//! driver re-drives the interrupted iteration's device phase
//! ([`super::bsp`]), which precedes every host-side `update_vertex` — so
//! no update is applied twice and the labels stay byte-identical to a
//! fault-free run. Only when the last device dies does `run` return
//! [`EngineError::DeviceLost`].

use super::bsp::{drive, Backend, Phase};
use super::gpu::{
    bytes_per_edge, charge_frontier, charge_snapshot, charge_update, pick_labels, propagate,
};
use super::kernels::{ScheduleLedger, ShardStats};
use super::{BspEngine, Decision, Direction, Engine, EngineError, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::{Device, DeviceConfig, DeviceError, MultiGpu};
use glp_graph::partition::{partition_even, VertexRange};
use glp_graph::{Graph, Label};
use glp_trace::{Category, Clock};

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

    /// The device set, mutably (to attach a fault plan to one device).
    pub fn gpus_mut(&mut self) -> &mut MultiGpu {
        &mut self.gpus
    }
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
        drive(&mut *self.backend(g, opts), g, prog, opts)
    }
}

impl BspEngine for MultiGpuEngine {
    fn backend<'a>(&'a mut self, _g: &Graph, opts: &RunOptions) -> Box<dyn Backend + 'a> {
        opts.validate_for_device(self.gpus.device(0).config().shared_mem_per_block);
        let shards = opts.resolve_shards().div_ceil(self.gpus.len()).max(1);
        Box::new(MultiBackend {
            ledgers: (0..self.gpus.len())
                .map(|_| ScheduleLedger::default())
                .collect(),
            gpus: &mut self.gpus,
            assign: Vec::new(),
            ranges: Vec::new(),
            footprints: Vec::new(),
            shards,
            transfer_s: 0.0,
        })
    }
}

struct MultiBackend<'a> {
    gpus: &'a mut MultiGpu,
    /// Per device (indexed like `gpus`), the schedules this run priced on
    /// it; dropped with the run.
    ledgers: Vec<ScheduleLedger>,
    /// The current partitioning over the alive devices: vertex range
    /// `ranges[i]` lives on device `assign[i]` and, once uploaded,
    /// occupies `footprints[i]` bytes there (freed before a repartition).
    /// `footprints` covers exactly the shares resident right now: `free`
    /// drains it, and a `stage` that fails part-way frees its uploaded
    /// prefix before returning — a failed stage leaves nothing resident,
    /// on the initial upload (which no `teardown` follows) as on a
    /// repartition's re-upload (which one does).
    assign: Vec<usize>,
    ranges: Vec<VertexRange>,
    footprints: Vec<u64>,
    shards: usize,
    transfer_s: f64,
}

impl MultiBackend<'_> {
    /// Releases every uploaded share still on a surviving device.
    fn free(&mut self) {
        for (&d, bytes) in self.assign.iter().zip(self.footprints.drain(..)) {
            if !self.gpus.device(d).is_lost() {
                self.gpus.device_mut(d).free(bytes);
            }
        }
    }

    /// Runs `f` on every partition's device, on that device's own clock.
    fn each_part(
        &mut self,
        mut f: impl FnMut(&mut Device, &VertexRange) -> Result<(), DeviceError>,
    ) -> Result<(), DeviceError> {
        for (&d, r) in self.assign.iter().zip(&self.ranges) {
            f(self.gpus.device_mut(d), r)?;
        }
        Ok(())
    }
}

impl Backend for MultiBackend<'_> {
    fn name(&self) -> &'static str {
        "GLP-multi"
    }

    fn modeled_now(&self) -> Option<f64> {
        Some(self.gpus.elapsed_seconds())
    }

    fn each_device(&mut self, f: &mut dyn FnMut(&mut Device)) {
        self.gpus.iter_mut().for_each(f);
    }

    /// Partitions `g` over the surviving devices and uploads every share,
    /// charging transfer time. Fails if no device is left, or one is lost
    /// or out of memory.
    fn stage(&mut self, g: &Graph) -> Result<(), DeviceError> {
        self.assign = self.gpus.survivors();
        if self.assign.is_empty() {
            return Err(DeviceError::Lost { device: 0 });
        }
        self.ranges = partition_even(g, self.assign.len());
        let (bpe, n) = (bytes_per_edge(g), g.num_vertices() as u64);
        self.footprints.clear();
        for i in 0..self.assign.len() {
            let r = &self.ranges[i];
            let bytes = r.num_edges() * bpe + (r.num_vertices() as u64) * 8 + n * 8;
            let dev = self.gpus.device_mut(self.assign[i]);
            let before = dev.elapsed_seconds();
            if let Err(e) = dev.upload(bytes) {
                self.free();
                return Err(e);
            }
            self.footprints.push(bytes);
            self.transfer_s += dev.elapsed_seconds() - before;
        }
        self.gpus.sync();
        Ok(())
    }

    fn pick(&mut self, p: &Phase<'_>, spoken: &mut [Label]) -> Result<(), DeviceError> {
        let shards = self.shards;
        self.each_part(|dev, r| {
            let (lo, hi) = (r.start as usize, r.end as usize);
            if lo == hi {
                return Ok(());
            }
            pick_labels(dev, &mut spoken[lo..hi], r.start, p.prog, shards)
        })
    }

    fn propagate(
        &mut self,
        p: &Phase<'_>,
        spoken: &[Label],
        decisions: &mut [Decision],
    ) -> Result<ShardStats, DeviceError> {
        let mut stats = ShardStats::default();
        for (&d, r) in self.assign.iter().zip(&self.ranges) {
            let (dev, ledger) = (self.gpus.device_mut(d), &mut self.ledgers[d]);
            let st = propagate(
                dev,
                ledger,
                p,
                r.start..r.end,
                self.shards,
                spoken,
                decisions,
            )?;
            stats.merge(&st);
        }
        Ok(stats)
    }

    /// Each device writes back its own range.
    fn charge_update(&mut self, _n: u64) -> Result<(), DeviceError> {
        self.each_part(|dev, r| charge_update(dev, r.start, r.num_vertices() as u64))
    }

    /// One host-side choice and rebuild serves the fleet (every device
    /// carries the same cost model); each device pays the kernels for its
    /// own range and an even share of the volume.
    fn charge_frontier(
        &mut self,
        priced: bool,
        dir: Direction,
        _changed: u64,
        volume: u64,
        next_active: &[bool],
    ) -> Result<(), DeviceError> {
        let share = volume / self.assign.len() as u64;
        self.each_part(|dev, r| {
            let range_active = next_active[r.start as usize..r.end as usize]
                .iter()
                .filter(|&&a| a)
                .count() as u64;
            let m = r.num_vertices() as u64;
            charge_frontier(dev, priced, dir, m, share, range_active)
        })
    }

    /// Each device reads back its own range's label state.
    fn charge_snapshot(&mut self, _n: u64) -> Result<(), DeviceError> {
        self.each_part(|dev, r| charge_snapshot(dev, r.num_vertices() as u64))
    }

    /// Label exchange: each device ships its range's fresh labels to every
    /// peer over the host link, then everyone synchronizes.
    fn exchange(&mut self) {
        let peers = self.assign.len() as u64 - 1;
        for (&d, r) in self.assign.iter().zip(&self.ranges) {
            let dev = self.gpus.device_mut(d);
            let before = dev.elapsed_seconds();
            dev.download(r.num_vertices() as u64 * 4 * peers);
            self.transfer_s += dev.elapsed_seconds() - before;
        }
        self.gpus.sync();
    }

    /// A lost device with survivors left: repartition over them. The
    /// instant lands in the still-open span of the re-driven iteration.
    fn recover(&mut self, p: &Phase<'_>, fault: DeviceError) -> Result<(), DeviceError> {
        if !matches!(fault, DeviceError::Lost { .. }) || self.gpus.alive() == 0 {
            return Err(fault);
        }
        if let Some(t) = &p.opts.tracer {
            let at = self.gpus.elapsed_seconds();
            t.instant(Category::Resilience, "repartition", Clock::Modeled, at);
        }
        self.free();
        self.stage(p.g)
    }

    fn teardown(&mut self, _completed: bool) -> f64 {
        self.free();
        self.transfer_s
    }
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
