//! Fault-tolerant execution: retry, iteration-granular resume, and a
//! graceful-degradation ladder.
//!
//! [`ResilientEngine`] wraps an ordered ladder of engines (fastest first)
//! and drives whichever tier is currently healthy:
//!
//! 1. A [`BarrierHook`] checkpoints the program's state (via
//!    [`LpProgram::save_state`]) and the live frontier at every completed
//!    BSP barrier. The snapshot readback is charged to the cost model
//!    (`barrier_snapshot` kernel, surfaced as
//!    [`LpRunReport::snapshot_seconds`](crate::LpRunReport::snapshot_seconds)).
//! 2. A **transient** fault ([`EngineError::is_transient`]) is retried on
//!    the same tier with capped exponential backoff, restoring the last
//!    checkpoint and resuming from the iteration that failed — completed
//!    iterations are never recomputed.
//! 3. A **persistent** fault (device lost, out of memory) or an exhausted
//!    retry budget walks the ladder down one tier and resumes there.
//!    Because every BSP engine in the workspace is bit-identical, a run
//!    that starts on the GPU and finishes on the host produces exactly
//!    the labels the GPU would have.
//!
//! Programs that do not implement `save_state` cannot be safely retried
//! (`begin_iteration` is not idempotent in general — e.g. SLP's speaker
//! draw), so for them the wrapper runs the top tier once and propagates
//! any fault unchanged.

use super::bsp::trace_fail;
use super::options::BarrierHook;
use super::{Direction, Engine, EngineError, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_graph::Graph;
use glp_trace::{Category, Clock, Tracer};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the recovery machinery did during the last
/// [`ResilientEngine::run`].
#[derive(Clone, Debug, Default)]
pub struct ResilienceReport {
    /// Same-tier retries after transient faults.
    pub retries: u32,
    /// Ladder steps taken after persistent faults (or exhausted retries).
    pub degradations: u32,
    /// Completed iterations carried across recoveries instead of being
    /// recomputed, summed over all recovery events.
    pub iterations_salvaged: u64,
    /// Name of the tier that produced the final outcome.
    pub tier: Option<&'static str>,
    /// Every fault observed, in order.
    pub faults: Vec<EngineError>,
}

/// The last completed barrier, as captured by the checkpoint hook.
#[derive(Default)]
struct Salvage {
    /// Next iteration to execute (= completed iterations).
    next: u32,
    /// Program state at the last completed barrier (initially the
    /// pre-run state).
    blob: Option<Vec<u8>>,
    /// Frontier the next iteration should consume (sparse runs only).
    frontier: Option<Vec<bool>>,
    /// Traces for iterations `0..next`, stitched into the final report.
    changed: Vec<u64>,
    active: Vec<u64>,
    directions: Vec<Direction>,
}

/// The fault-tolerant wrapper. See the module docs for the recovery
/// policy.
pub struct ResilientEngine {
    tiers: Vec<Box<dyn Engine>>,
    max_retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    last: ResilienceReport,
}

impl std::fmt::Debug for ResilientEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientEngine")
            .field(
                "tiers",
                &self.tiers.iter().map(|t| t.name()).collect::<Vec<_>>(),
            )
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
    pub fn new(tiers: Vec<Box<dyn Engine>>) -> Self {
        assert!(!tiers.is_empty(), "ladder needs at least one tier");
        Self {
            tiers,
            max_retries: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
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

    /// Exponential-backoff schedule for transient retries: `base`, then
    /// doubling up to `cap`. Tests pass `Duration::ZERO` to skip sleeping.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
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
        self.last = ResilienceReport::default();
        // The wrapper's own span runs on the wall clock (its overhead is
        // host-side: retries, backoff, restores), stamped from the
        // tracer's time base so it sits inside any caller span around the
        // run; tier runs nest under it structurally while keeping their
        // modeled clocks.
        let wall_now = || opts.tracer.as_ref().map_or(0.0, Tracer::wall_now);
        let trace_mark = opts.tracer.as_ref().map(|t| {
            let mark = t.open_depth();
            t.begin(Category::Run, self.name(), Clock::Wall, t.wall_now());
            mark
        });
        let Some(initial_blob) = prog.save_state() else {
            // No checkpoint support: a failed attempt leaves the program
            // in an unrecoverable mid-iteration state, so retrying or
            // degrading would not reproduce the fault-free run. One
            // attempt, fault propagated.
            self.last.tier = Some(self.tiers[0].name());
            let out = self.tiers[0].run(g, prog, opts);
            if let Err(e) = &out {
                self.last.faults.push(*e);
                trace_fail(&opts.tracer, trace_mark, wall_now());
            } else if let Some(t) = &opts.tracer {
                t.end(t.wall_now());
            }
            return out;
        };

        let salvage = Arc::new(Mutex::new(Salvage {
            blob: Some(initial_blob),
            ..Default::default()
        }));
        let salvage_hook = {
            let salvage = Arc::clone(&salvage);
            BarrierHook::new(move |ev| {
                let mut s = salvage.lock().expect("salvage lock");
                // Guard against a re-fired barrier (a resumed attempt
                // replays its first hook at exactly `next`).
                if ev.iteration as usize != s.changed.len() {
                    return;
                }
                // A program may refuse mid-run saves; keep the previous
                // checkpoint then (recovery just redoes more work).
                if let Some(blob) = ev.program.save_state() {
                    s.blob = Some(blob);
                    s.frontier = ev.active.map(<[bool]>::to_vec);
                    s.changed.push(ev.changed);
                    s.active.push(ev.scheduled);
                    s.directions.push(ev.direction);
                    s.next = ev.iteration + 1;
                }
            })
        };
        // The wrapper needs the barrier for its salvage state, but a
        // caller's own hook (e.g. a memo-capturing recluster) must keep
        // firing too — chain rather than replace. Both observe the same
        // barrier; the single `barrier_snapshot` charge already covers it.
        let hook = match &opts.barrier_hook {
            Some(user) => {
                let (salvage_hook, user) = (salvage_hook.clone(), user.clone());
                BarrierHook::new(move |ev| {
                    salvage_hook.fire(ev);
                    user.fire(ev);
                })
            }
            None => salvage_hook,
        };

        let mut tier = 0usize;
        let mut retries_left = self.max_retries;
        let mut backoff = self.backoff_base;
        let mut first_attempt = true;

        loop {
            let (start, frontier) = {
                let s = salvage.lock().expect("salvage lock");
                (s.next, s.frontier.clone())
            };
            if !first_attempt {
                let s = salvage.lock().expect("salvage lock");
                let blob = s.blob.as_deref().expect("checkpoint blob present");
                assert!(
                    prog.restore_state(blob),
                    "program rejected its own checkpoint"
                );
            }
            first_attempt = false;
            let mut attempt_opts = opts.clone().with_barrier_hook(hook.clone());
            attempt_opts.start_iteration = start;
            attempt_opts.initial_frontier = frontier;

            match self.tiers[tier].run(g, prog, &attempt_opts) {
                Ok(mut report) => {
                    let s = salvage.lock().expect("salvage lock");
                    let prefix = (start as usize).min(s.changed.len());
                    if prefix > 0 {
                        // Stitch the salvaged iterations' traces in front
                        // of the final attempt's resumed traces. (The
                        // timing fields cover only the final attempt — a
                        // degraded tier has its own clock.)
                        let mut changed = s.changed[..prefix].to_vec();
                        changed.append(&mut report.changed_per_iteration);
                        report.changed_per_iteration = changed;
                        let mut active = s.active[..prefix].to_vec();
                        active.append(&mut report.active_per_iteration);
                        report.active_per_iteration = active;
                        let mut directions = s.directions[..prefix].to_vec();
                        directions.append(&mut report.direction_per_iteration);
                        report.direction_per_iteration = directions;
                        report.iterations = report.iterations.max(start);
                    }
                    self.last.tier = Some(self.tiers[tier].name());
                    if let Some(t) = &opts.tracer {
                        t.end(t.wall_now());
                    }
                    return Ok(report);
                }
                Err(e) => {
                    self.last.faults.push(e);
                    let completed = salvage.lock().expect("salvage lock").next;
                    // The failing tier's `fail_open_to` recorded which span
                    // was mid-flight when the fault hit (the failed
                    // iteration); the recovery instant attaches there so a
                    // trace shows *what* a retry/degrade recovered from.
                    let fault_span = opts.tracer.as_ref().and_then(|t| t.take_error_span());
                    if e.is_transient() && retries_left > 0 {
                        retries_left -= 1;
                        self.last.retries += 1;
                        if let Some(t) = &opts.tracer {
                            t.instant_with_parent(
                                Category::Resilience,
                                "retry",
                                Clock::Wall,
                                t.wall_now(),
                                fault_span,
                            );
                        }
                        if backoff > Duration::ZERO {
                            std::thread::sleep(backoff);
                        }
                        backoff = (backoff * 2).min(self.backoff_cap);
                    } else if tier + 1 < self.tiers.len() {
                        tier += 1;
                        self.last.degradations += 1;
                        retries_left = self.max_retries;
                        backoff = self.backoff_base;
                        if let Some(t) = &opts.tracer {
                            t.instant_with_parent(
                                Category::Resilience,
                                "degrade",
                                Clock::Wall,
                                t.wall_now(),
                                fault_span,
                            );
                        }
                    } else {
                        self.last.tier = Some(self.tiers[tier].name());
                        trace_fail(&opts.tracer, trace_mark, wall_now());
                        return Err(e);
                    }
                    // Everything completed before the fault is resumed,
                    // not recomputed.
                    self.last.iterations_salvaged += u64::from(completed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{FrontierMode, GpuEngine, SequentialEngine};
    use super::*;
    use crate::variants::{ClassicLp, Slp};
    use glp_graph::gen::{caveman, two_cliques_bridge};

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
            // The host tier prices `Auto` on `CostModel::default()`, which
            // every modeled device also carries — so even the per-iteration
            // push/pull choices line up across the degradation ladder.
            assert_eq!(host.direction_per_iteration, gpu.direction_per_iteration);
        }
    }

    #[test]
    fn checkpoint_free_program_still_runs() {
        let g = caveman(4, 6);
        let mut engine = ResilientEngine::gpu_ladder();
        let mut slp = Slp::new(g.num_vertices(), 7);
        assert!(slp.save_state().is_some(), "SLP does checkpoint");
        // LLP-style programs without sparse activation also work; the real
        // no-checkpoint case is pinned through the API default test. Here
        // we confirm a checkpointing program round-trips through the
        // wrapper untouched.
        let report = engine.run(&g, &mut slp, &RunOptions::default()).unwrap();
        assert!(report.iterations > 0);
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_ladder_rejected() {
        ResilientEngine::new(Vec::new());
    }
}
