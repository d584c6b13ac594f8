//! The per-layer metric sheet of a traced run.
//!
//! Every traced run reports every layer metric of [`spec::per_layer`];
//! a layer the workload does not exercise stays at 0, which is the
//! predicted value on the "bypass" side of the interaction table.

use crate::report::{Metric, RunResult};
use crate::spans::Spans;
use crate::spec;
use glp_core::{Direction, LpRunReport};
use glp_gpusim::KernelCounters;
use glp_trace::KernelProfile;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, (f64, u64)>,
}

impl Layers {
    /// Sets a layer metric measured from `samples` samples.
    ///
    /// # Panics
    /// Panics on a name the spec does not declare — a typo would
    /// otherwise silently report 0.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        assert!(
            spec::is_layer_metric(name),
            "undeclared layer metric {name}"
        );
        self.values.insert(name.to_string(), (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |&(v, _)| v)
    }

    /// Per-kernel modeled seconds and launch counts, merged across engine
    /// tiers (a recluster that degraded to another tier still counts).
    pub fn set_kernels(&mut self, profile: &KernelProfile) {
        for kernel in spec::KERNELS {
            let (mut seconds, mut launches) = (0.0, 0u64);
            for (_, k, row) in profile.rows() {
                if k == kernel {
                    seconds += row.total_s;
                    launches += row.count;
                }
            }
            self.set(&spec::kernel_metric(kernel, "modeled_s"), seconds, launches);
            self.set(&spec::kernel_metric(kernel, "launches"), launches as f64, 1);
        }
    }

    pub fn set_counters(&mut self, c: &KernelCounters) {
        self.set("gpusim.global_sectors", c.global_sectors() as f64, 1);
        self.set("gpusim.shared_accesses", c.shared_accesses as f64, 1);
        self.set("gpusim.global_atomics", c.global_atomics as f64, 1);
        self.set("gpusim.warp_intrinsics", c.warp_intrinsics as f64, 1);
        self.set("gpusim.lane_utilization", c.warp_utilization(), 1);
    }

    /// Everything one LP run report says about the simulator and engine.
    pub fn set_lp_report(&mut self, r: &LpRunReport) {
        self.set_kernels(&r.kernel_profile);
        self.set_counters(&r.gpu_counters);
        self.set("gpusim.transfer_modeled_s", r.transfer_seconds, 1);
        self.set("gpusim.transfer_share", r.transfer_fraction(), 1);
        self.set("sketch.fallback_rate", r.fallback_rate(), r.smem_vertices);
        self.set("core.engine.iterations", f64::from(r.iterations), 1);
        let active: u64 = r.active_per_iteration.iter().sum();
        self.set("core.engine.active_sum", active as f64, 1);
        let push = r.direction_count(Direction::Push);
        let pull = r.direction_count(Direction::Pull);
        self.set("core.engine.push_iters", push as f64, 1);
        self.set("core.engine.pull_iters", pull as f64, 1);
    }

    /// Ends the traced pass: finishes (checks, writes, summarizes) the
    /// trace behind `spans` and records the `trace.*` metrics.
    /// `overhead_ratio` is traced over untraced wall of the same calls,
    /// each side a median of `samples`. A malformed trace is a failed
    /// operation.
    pub fn finish_trace(
        &mut self,
        spans: Spans,
        overhead_ratio: f64,
        samples: u64,
        result: &mut RunResult,
    ) {
        let stem = format!("{}-seed{}", result.args.workload, result.args.seed);
        let summary = match spans.finish(&stem) {
            Ok(summary) => summary,
            Err(e) => return result.fail(e),
        };
        self.set("trace.overhead_ratio", overhead_ratio, samples);
        self.set("trace.spans", summary.spans as f64, 1);
        self.set("trace.dropped", summary.dropped as f64, 1);
        self.set(
            "trace.wall_self_s",
            summary.wall_self_total(),
            summary.spans,
        );
        self.set("trace.modeled_leaf_s", summary.modeled_leaf_s, 1);
        result.note("trace_file", summary.path.display().to_string());
    }

    /// Writes the whole sheet, in spec order, into `result`.
    pub fn report(&self, result: &mut RunResult) {
        for (name, unit, _) in spec::per_layer() {
            let (value, samples) = self.values.get(&name).copied().unwrap_or((0.0, 0));
            result.metrics.push(Metric {
                name,
                value,
                unit: unit.to_string(),
                samples,
            });
        }
    }
}
