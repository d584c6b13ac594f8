//! Fault-tolerant execution: a ladder of engines under the driver's
//! recovery policy.
//!
//! [`ResilientEngine`] holds an ordered ladder of [`BspEngine`]s (fastest
//! first) and a retry budget, and runs them as *one* driven run
//! ([`super::bsp`]): when a device phase fails, a **transient** fault
//! ([`EngineError::is_transient`]) re-stages the same tier at once — a
//! simulated fault has no host condition to wait out, and a host sleep
//! would not reach the modeled clock — while a **persistent** one (device
//! lost, out of memory) or an exhausted budget stages the next tier, and
//! the failed iteration's device phase is re-driven there. Completed
//! iterations are never recomputed, and nothing is checkpointed: the
//! frontier, the report and the program stay with the driver. Because
//! every BSP backend is bit-identical, a run that starts on the GPU and
//! finishes on the host produces exactly the labels the GPU would have, for
//! any program.
//!
//! What recovery costs on the modeled clock is the label readback at every
//! barrier (`barrier_snapshot`, surfaced as
//! [`LpRunReport::snapshot_seconds`](crate::LpRunReport::snapshot_seconds)):
//! the host copy that makes losing a card free.

use super::bsp::drive_ladder;
use super::{Backend, BspEngine, Engine, EngineError, ResilienceReport, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_graph::Graph;
use glp_trace::{Category, Clock};

/// A ladder of engines run under the recovery policy. See the module docs.
pub struct ResilientEngine {
    tiers: Vec<Box<dyn BspEngine>>,
    /// Same-rung retries per rung after a transient fault.
    max_retries: u32,
    last: ResilienceReport,
}

impl std::fmt::Debug for ResilientEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientEngine")
            .field("tiers", &self.tier_names())
            .field("max_retries", &self.max_retries)
            .field("last", &self.last)
            .finish()
    }
}

impl ResilientEngine {
    /// Wraps an explicit ladder (fastest tier first).
    ///
    /// # Panics
    /// Panics when the ladder is empty.
    pub fn new(tiers: Vec<Box<dyn BspEngine>>) -> Self {
        assert!(!tiers.is_empty(), "ladder needs at least one tier");
        Self {
            tiers,
            max_retries: 3,
            last: ResilienceReport::default(),
        }
    }

    /// The standard ladder for the paper's single-card setup: in-core GPU
    /// → out-of-core hybrid → host BSP sweep.
    pub fn gpu_ladder() -> Self {
        Self::new(vec![
            Box::new(super::GpuEngine::titan_v()),
            Box::new(super::HybridEngine::titan_v()),
            Box::new(super::SequentialEngine::bsp()),
        ])
    }

    /// Transient-fault retry budget per tier (default 3).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// What recovery work the last `run` performed.
    pub fn resilience(&self) -> &ResilienceReport {
        &self.last
    }

    /// Names of the ladder tiers, fastest first.
    pub fn tier_names(&self) -> Vec<&'static str> {
        self.tiers.iter().map(|t| t.name()).collect()
    }

    /// The ladder tiers, fastest first — after a run, each one's devices
    /// (through [`BspEngine::backend`]) hold what that tier launched in it.
    pub fn tiers_mut(&mut self) -> &mut [Box<dyn BspEngine>] {
        &mut self.tiers
    }
}

impl Engine for ResilientEngine {
    fn name(&self) -> &'static str {
        "Resilient"
    }

    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        // The ladder's own span runs on the wall clock (its overhead is
        // host-side: re-staging), stamped from the tracer's time base so it
        // sits inside any caller span around the run; tier runs nest under
        // it structurally while keeping their modeled clocks.
        let span = opts.tracer.as_ref().map(|t| {
            let mark = t.open_depth();
            t.begin(Category::Run, self.name(), Clock::Wall, t.wall_now());
            (t, mark)
        });
        let mut backends: Vec<_> = self.tiers.iter_mut().map(|t| t.backend(g, opts)).collect();
        let mut rungs: Vec<&mut dyn Backend> = backends.iter_mut().map(|b| &mut **b as _).collect();
        let outcome = drive_ladder(&mut rungs, self.max_retries, g, prog, opts, &mut self.last);
        match (&outcome, span) {
            (Ok(_), Some((t, _))) => t.end(t.wall_now()),
            (Err(_), Some((t, mark))) => t.fail_open_to(mark, t.wall_now()),
            (_, None) => {}
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::super::{FrontierMode, GpuEngine, SequentialEngine};
    use super::*;
    use crate::variants::ClassicLp;
    use glp_graph::gen::{caveman, two_cliques_bridge};
    use glp_trace::Tracer;

    /// A caller span around a ladder run contains the ladder's own wall
    /// span, and that contains a host tier's: all three are stamped from
    /// the tracer's time base, so whole-trace containment holds with a
    /// finite epsilon (the run span used to start at a private 0).
    #[test]
    fn run_span_lies_inside_a_caller_span_on_the_tracers_clock() {
        let g = caveman(4, 6);
        let tracer = Tracer::new();
        // The caller's span must not start at the recording's zero.
        while tracer.wall_now() < 1e-3 {
            std::hint::spin_loop();
        }
        tracer.begin(Category::Serve, "caller", Clock::Wall, tracer.wall_now());
        let opts = RunOptions::default().with_tracer(tracer.clone());
        for mut engine in [
            ResilientEngine::gpu_ladder(),
            ResilientEngine::new(vec![Box::new(SequentialEngine::bsp())]),
        ] {
            let mut prog = ClassicLp::new(g.num_vertices());
            engine.run(&g, &mut prog, &opts).unwrap();
        }
        tracer.end(tracer.wall_now());
        let trace = tracer.finish();
        assert_eq!(trace.named("Resilient").count(), 2);
        trace.check_well_formed(1e-9).unwrap();
    }

    #[test]
    fn fault_free_run_matches_bare_engine_with_snapshot_overhead() {
        let g = caveman(6, 8);
        let mut bare_prog = ClassicLp::new(g.num_vertices());
        let bare = GpuEngine::titan_v()
            .run(&g, &mut bare_prog, &RunOptions::default())
            .unwrap();

        let mut engine = ResilientEngine::gpu_ladder();
        let mut prog = ClassicLp::new(g.num_vertices());
        let report = engine.run(&g, &mut prog, &RunOptions::default()).unwrap();

        assert_eq!(prog.labels(), bare_prog.labels());
        assert_eq!(report.changed_per_iteration, bare.changed_per_iteration);
        assert_eq!(report.active_per_iteration, bare.active_per_iteration);
        let stats = engine.resilience();
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.degradations, 0);
        assert_eq!(stats.iterations_salvaged, 0);
        assert_eq!(stats.tier, Some("GLP"));
        // Fault tolerance is not free: every barrier paid a snapshot.
        assert_eq!(report.snapshots_taken, u64::from(report.iterations));
        assert!(report.snapshot_seconds > 0.0);
        assert!(
            report.snapshot_fraction() < 0.5,
            "snapshots should be cheap"
        );
    }

    #[test]
    fn bsp_sequential_tier_matches_gpu_traces() {
        let g = two_cliques_bridge(9);
        for mode in [
            FrontierMode::Auto,
            FrontierMode::Dense,
            FrontierMode::Push,
            FrontierMode::Pull,
        ] {
            let opts = RunOptions::default().with_frontier(mode);
            let mut gpu_prog = ClassicLp::new(g.num_vertices());
            let gpu = GpuEngine::titan_v().run(&g, &mut gpu_prog, &opts).unwrap();
            let mut host_prog = ClassicLp::new(g.num_vertices());
            let host = SequentialEngine::bsp()
                .run(&g, &mut host_prog, &opts)
                .unwrap();
            assert_eq!(host_prog.labels(), gpu_prog.labels());
            assert_eq!(host.changed_per_iteration, gpu.changed_per_iteration);
            assert_eq!(host.active_per_iteration, gpu.active_per_iteration);
            // Every tier prices `Auto` on the one constant cost model — so
            // even the per-iteration push/pull choices line up across the
            // degradation ladder.
            assert_eq!(host.direction_per_iteration, gpu.direction_per_iteration);
        }
    }

    /// The policy needs no injected fault to be exercised: a graph that
    /// does not fit the top tier's card is a persistent fault at `stage`,
    /// and the ladder walks down to the hybrid tier, which streams it.
    #[test]
    fn out_of_memory_at_staging_walks_the_ladder() {
        use super::super::HybridEngine;
        use glp_gpusim::{Device, DeviceConfig};
        let g = caveman(6, 8);
        let state = g.num_vertices() as u64 * 20;
        let small = || Device::new(DeviceConfig::tiny(state + g.size_bytes() / 3));
        let mut want = ClassicLp::new(g.num_vertices());
        let bare = GpuEngine::titan_v()
            .run(&g, &mut want, &RunOptions::default())
            .unwrap();

        let mut engine = ResilientEngine::new(vec![
            Box::new(GpuEngine::new(small())),
            Box::new(HybridEngine::new(small())),
        ]);
        let mut prog = ClassicLp::new(g.num_vertices());
        let report = engine.run(&g, &mut prog, &RunOptions::default()).unwrap();
        let stats = engine.resilience();
        assert_eq!((stats.retries, stats.degradations), (0, 1));
        assert_eq!(stats.iterations_salvaged, 0);
        assert_eq!(stats.tier, Some("GLP-hybrid"));
        assert!(matches!(
            stats.faults[..],
            [EngineError::OutOfMemory { .. }]
        ));
        assert_eq!(prog.labels(), want.labels());
        assert_eq!(report.changed_per_iteration, bare.changed_per_iteration);
        assert!(report.transfer_seconds > 0.0, "the hybrid tier streamed");

        // With nothing below it the same fault is the run's, and the card
        // is left empty.
        let gpu = GpuEngine::new(small());
        let mut engine = ResilientEngine::new(vec![Box::new(gpu)]);
        let mut prog = ClassicLp::new(g.num_vertices());
        let err = engine
            .run(&g, &mut prog, &RunOptions::default())
            .unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(engine.resilience().tier, Some("GLP"));
        assert_eq!(engine.resilience().degradations, 0);
    }

    /// The barrier readback is what a run that *can* recover pays; one rung
    /// with no retry budget cannot, so it is a bare engine to the bit.
    #[test]
    fn one_rung_without_a_retry_budget_is_a_bare_engine() {
        let g = caveman(6, 8);
        let mut bare_prog = ClassicLp::new(g.num_vertices());
        let bare = GpuEngine::titan_v()
            .run(&g, &mut bare_prog, &RunOptions::default())
            .unwrap();
        let mut engine =
            ResilientEngine::new(vec![Box::new(GpuEngine::titan_v())]).with_max_retries(0);
        let mut prog = ClassicLp::new(g.num_vertices());
        let report = engine.run(&g, &mut prog, &RunOptions::default()).unwrap();
        assert_eq!(report.snapshots_taken, 0);
        assert_eq!(report.modeled_seconds, bare.modeled_seconds);
        assert_eq!(report.iteration_seconds, bare.iteration_seconds);
        assert_eq!(prog.labels(), bare_prog.labels());
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_ladder_rejected() {
        ResilientEngine::new(Vec::new());
    }
}
