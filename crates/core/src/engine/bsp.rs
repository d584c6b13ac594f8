//! The one BSP driver: the paper's workflow (Figure 2) — PickLabel →
//! LabelPropagation → UpdateVertex → barrier — written once, with the
//! recovery policy around it.
//!
//! [`drive`] owns what every synchronous LP run repeats: the iteration
//! loop, the run / iteration / dispatch spans and their error unwind, the
//! frontier (Gunrock's *filter*: change flags → direction choice → push or
//! pull rebuild → bucket filtering), the barrier hook, the report, and
//! releasing the backend on the fault path. A [`Backend`] supplies what
//! differs between tiers — where the data lives and how the MFL is computed
//! and charged (*advance + compute*).
//!
//! Every iteration has two phases. The fallible **device phase** reads the
//! program immutably and writes only run-owned scratch, launching the
//! backend's kernels in the workflow's order. The infallible **commit** then
//! applies the decisions, swaps the frontier in and fires the hook. A fault
//! therefore lands before anything host-visible moved — the
//! [`Engine`](super::Engine) contract "on `Err`, no iteration was partially
//! applied" — so the live program *is* the last barrier plus
//! `begin_iteration(i)`, and **recovery** is re-driving iteration `i`'s
//! device phase from PickLabel without beginning the iteration again: on the
//! backend itself if it healed in place ([`Backend::recover`]), else — after
//! a teardown — on the same rung re-staged (transient fault, retry budget
//! left) or on the next rung of the ladder (DESIGN.md § One driver, five
//! backends has the diagram). The frontier, the scratch, the report and the
//! program never leave the driver, so nothing is checkpointed, restored or
//! stitched. A bare engine's `run` is the one-rung, zero-retry case;
//! [`ResilientEngine`](super::ResilientEngine) hands the same loop a ladder
//! of backends and a retry budget.

use super::dispatch::Buckets;
use super::kernels::ShardStats;
use super::options::BarrierEvent;
use super::{Decision, Direction, EngineError, FrontierMode, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::{CostModel, Device, DeviceError};
use glp_graph::{Graph, Label, VertexId};
use glp_trace::{Category, Clock, KernelProfile};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// What one iteration's device phase reads.
pub struct Phase<'a> {
    /// The graph.
    pub g: &'a Graph,
    /// The program, frozen until the commit.
    pub prog: &'a dyn LpProgram,
    /// The run's options.
    pub opts: &'a RunOptions,
    /// This iteration's dispatch: the buckets restricted to the frontier.
    pub work: &'a Buckets,
    /// Whether `work` is the full bucketing (dense, or a full frontier).
    pub saturated: bool,
}

/// One execution tier under [`drive`]. Methods are in the order a run
/// calls them; every default is the host tier's "nothing to charge".
pub trait Backend {
    /// Tier name: the run span and the kernel-profile rows carry it.
    fn name(&self) -> &'static str;

    /// The tier's modeled clock. `None` is a host tier: spans and
    /// `iteration_seconds` use wall seconds, no modeled time is reported.
    fn modeled_now(&self) -> Option<f64> {
        None
    }

    /// Visits every device the tier charges (the driver attaches the
    /// tracer and reads cost model, kernel logs and counters through it).
    fn each_device(&mut self, _f: &mut dyn FnMut(&mut Device)) {}

    /// Whether the tier can schedule over a frontier (G-Sort cannot).
    fn frontier_capable(&self) -> bool {
        true
    }

    /// Uploads / lays out the graph, all or nothing: a failed `stage`
    /// releases whatever it had acquired, because no `teardown` follows.
    fn stage(&mut self, _g: &Graph) -> Result<(), DeviceError> {
        Ok(())
    }

    /// PickLabel: fills `spoken[v]` for every vertex.
    fn pick(&mut self, p: &Phase<'_>, spoken: &mut [Label]) -> Result<(), DeviceError> {
        p.prog.pick_labels_into(0, spoken);
        Ok(())
    }

    /// LabelPropagation: `decisions[v]` for every vertex of `p.work`.
    fn propagate(
        &mut self,
        p: &Phase<'_>,
        spoken: &[Label],
        decisions: &mut [Decision],
    ) -> Result<ShardStats, DeviceError>;

    /// Settles data movement that overlapped the `compute_s` seconds
    /// `propagate` just took (the hybrid adjacency stream), at the point
    /// of the launch order where its remainder extends the clock.
    fn stream(&mut self, _p: &Phase<'_>, _compute_s: f64) {}

    /// Charges the UpdateVertex write-back of `n` decisions.
    fn charge_update(&mut self, _n: u64) -> Result<(), DeviceError> {
        Ok(())
    }

    /// Charges the frontier rebuild the driver just ran on the host:
    /// `volume` scatter marks (push) or scanned in-edges (pull) gave
    /// `next_active`; `priced` adds `Auto`'s density measurement.
    fn charge_frontier(
        &mut self,
        _priced: bool,
        _dir: Direction,
        _volume: u64,
        _next_active: &[bool],
    ) -> Result<(), DeviceError> {
        Ok(())
    }

    /// Charges a barrier hook's label readback (default: `n` per device).
    fn charge_snapshot(&mut self, n: u64) -> Result<(), DeviceError> {
        let mut out = Ok(());
        self.each_device(&mut |d| out = out.and_then(|()| super::gpu::charge_snapshot(d, n)));
        out
    }

    /// Ends the device phase: peer label exchange + sync (multi-GPU).
    fn exchange(&mut self) {}

    /// Offers the tier a fault of its device phase: `Ok` if it healed
    /// itself (multi-GPU repartitions) and the phase should be re-driven.
    fn recover(&mut self, _p: &Phase<'_>, fault: DeviceError) -> Result<(), DeviceError> {
        Err(fault)
    }

    /// Downloads the labels if the run `completed`, then releases what
    /// `stage` acquired — on the fault path too: a retrying caller reuses
    /// the engine, and leaked residency would turn a transient fault into
    /// a spurious out-of-memory. Returns the modeled transfer seconds.
    fn teardown(&mut self, _completed: bool) -> f64 {
        0.0
    }
}

/// The recovery budget of a run: how often a transient fault
/// ([`EngineError::is_transient`]) re-stages the same rung before the
/// ladder is walked down, and the capped exponential backoff between tries.
/// The default is a bare engine's: no retries, so with one rung any fault
/// the backend declines is the run's.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Recovery {
    /// Same-rung retries per rung.
    pub max_retries: u32,
    /// First backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

/// What the recovery policy did during a run.
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

/// The buffers a device phase writes; nothing else moves before the commit.
struct Scratch {
    spoken: Vec<Label>,
    decisions: Vec<Decision>,
    changed: Vec<bool>,
    next_active: Vec<bool>,
}

struct Driver<'a, 'b> {
    rungs: &'a mut [&'b mut dyn Backend],
    /// The rung being driven, and what its current attempt opened.
    tier: usize,
    clock: Clock,
    /// What `Auto` prices directions on: the devices' model, which is the
    /// default one host tiers use — so all tiers choose alike.
    cost: CostModel,
    start: f64,
    trace_mark: Option<usize>,
    g: &'a Graph,
    opts: &'a RunOptions,
    epoch: Instant,
    policy: &'a Recovery,
    retries_left: u32,
    backoff: Duration,
    /// Whether barriers charge the label readback: a hook wants the labels,
    /// or the run can recover and reads them back so a lost card costs
    /// nothing. A bare, hook-free run charges none and stays
    /// cost-model-identical to a build without fault tolerance.
    snapshots: bool,
    stats: &'a mut ResilienceReport,
}

/// Runs `prog` on `g` under `opts` on `backend` until the program reports
/// termination or the iteration cap is hit: the one-rung, zero-retry ladder.
pub fn drive(
    backend: &mut dyn Backend,
    g: &Graph,
    prog: &mut dyn LpProgram,
    opts: &RunOptions,
) -> Result<LpRunReport, EngineError> {
    let mut stats = ResilienceReport::default();
    drive_ladder(
        &mut [backend],
        &Recovery::default(),
        g,
        prog,
        opts,
        &mut stats,
    )
}

/// [`drive`] over an ordered ladder of backends (fastest first) under a
/// recovery `policy`; `stats` is reset and says what the policy did, on
/// `Err` too.
pub(crate) fn drive_ladder(
    rungs: &mut [&mut dyn Backend],
    policy: &Recovery,
    g: &Graph,
    prog: &mut dyn LpProgram,
    opts: &RunOptions,
    stats: &mut ResilienceReport,
) -> Result<LpRunReport, EngineError> {
    assert_eq!(
        prog.num_vertices(),
        g.num_vertices(),
        "program sized for a different graph"
    );
    *stats = ResilienceReport::default();
    let epoch = Instant::now();
    let log_marks: Vec<Vec<usize>> = rungs
        .iter_mut()
        .map(|backend| {
            let mut marks = Vec::new();
            backend.each_device(&mut |d| {
                d.set_tracer(opts.tracer.clone());
                marks.push(d.kernel_log().len());
            });
            marks
        })
        .collect();
    let mut driver = Driver {
        snapshots: opts.barrier_hook.is_some() || rungs.len() > 1 || policy.max_retries > 0,
        rungs,
        tier: 0,
        clock: Clock::Wall,
        cost: CostModel::default(),
        start: 0.0,
        trace_mark: None,
        g,
        opts,
        epoch,
        policy,
        retries_left: policy.max_retries,
        backoff: policy.backoff_base,
        stats,
    };
    let mut report = LpRunReport::default();
    // On `Err` every attempt has been closed already.
    driver.open(&mut report, 0)?;
    driver.iterate(prog, &mut report)?;
    driver.close(&mut report, true, true);
    let tier = driver.tier;
    report.wall_seconds = epoch.elapsed().as_secs_f64();
    // Every rung that ran contributes its devices' counters and launches.
    for (backend, marks) in rungs[..=tier].iter_mut().zip(log_marks) {
        let (name, mut marks) = (backend.name(), marks.into_iter());
        backend.each_device(&mut |d| {
            let mark = marks.next().expect("device set is fixed for the run");
            report.gpu_counters.merge(d.totals());
            let mut profile = KernelProfile::new();
            for rec in &d.kernel_log()[mark..] {
                profile.record(name, rec.name, rec.seconds);
            }
            report.kernel_profile.merge(&profile);
        });
    }
    Ok(report)
}

impl Driver<'_, '_> {
    fn backend(&mut self) -> &mut dyn Backend {
        &mut *self.rungs[self.tier]
    }

    /// Span time: the rung's modeled clock, else wall seconds — the
    /// tracer's when one records, so host-tier spans share its time base.
    fn now(&self) -> f64 {
        let wall = || match &self.opts.tracer {
            Some(t) => t.wall_now(),
            None => self.epoch.elapsed().as_secs_f64(),
        };
        self.rungs[self.tier].modeled_now().unwrap_or_else(wall)
    }

    /// Opens an attempt on the current rung — its run span, then
    /// [`Backend::stage`] — and on a failed upload walks the policy until
    /// some rung is staged. `completed` iterations are already committed.
    fn open(&mut self, report: &mut LpRunReport, completed: u32) -> Result<(), EngineError> {
        loop {
            let mut cost = None;
            self.backend().each_device(&mut |d| {
                cost.get_or_insert_with(|| d.cost_model().clone());
            });
            self.cost = cost.unwrap_or_default();
            self.clock = match self.backend().modeled_now() {
                Some(_) => Clock::Modeled,
                None => Clock::Wall,
            };
            self.start = self.now();
            let (name, clock, start) = (self.backend().name(), self.clock, self.start);
            self.stats.tier = Some(name);
            self.trace_mark = self.opts.tracer.as_ref().map(|t| {
                let mark = t.open_depth();
                t.begin(Category::Run, name, clock, start);
                mark
            });
            let g = self.g;
            match self.backend().stage(g) {
                Ok(()) => return Ok(()),
                Err(fault) => {
                    self.close(report, false, false);
                    self.next_attempt(fault, completed)?;
                }
            }
        }
    }

    /// Ends the attempt: teardown if it was `staged`, the run span closed
    /// (flagged, with everything open under it, unless `completed`), and the
    /// attempt's own device clock and transfers folded into the report.
    fn close(&mut self, report: &mut LpRunReport, staged: bool, completed: bool) {
        if staged {
            report.transfer_seconds += self.backend().teardown(completed);
        }
        let end = self.now();
        if let (Some(t), Some(mark)) = (&self.opts.tracer, self.trace_mark) {
            // The error unwind closes every span above the run's too,
            // innermost-first, so the policy can parent its retry/degrade
            // instant to the failed iteration span.
            if completed {
                t.end(end);
            } else {
                t.fail_open_to(mark, end);
            }
        }
        if self.clock == Clock::Modeled {
            report.modeled_seconds += end - self.start;
        }
    }

    /// The recovery policy, for a fault the backend declined and whose
    /// attempt is closed: retry this rung while the fault is transient and
    /// the budget lasts, else step down the ladder, else the fault is the
    /// run's. The instant is parented to the span the fault interrupted (the
    /// failed iteration), so a trace shows *what* was recovered from.
    fn next_attempt(&mut self, fault: DeviceError, completed: u32) -> Result<(), EngineError> {
        let fault = EngineError::from(fault);
        self.stats.faults.push(fault);
        let retry = fault.is_transient() && self.retries_left > 0;
        if retry {
            self.retries_left -= 1;
            self.stats.retries += 1;
        } else if self.tier + 1 < self.rungs.len() {
            self.tier += 1;
            self.stats.degradations += 1;
            self.retries_left = self.policy.max_retries;
        } else {
            return Err(fault);
        }
        if let Some(t) = &self.opts.tracer {
            let name = if retry { "retry" } else { "degrade" };
            let (at, parent) = (t.wall_now(), t.take_error_span());
            t.instant_with_parent(Category::Resilience, name, Clock::Wall, at, parent);
        }
        if retry {
            std::thread::sleep(self.backoff);
            self.backoff = (self.backoff * 2).min(self.policy.backoff_cap);
        } else {
            self.backoff = self.policy.backoff_base;
        }
        // Everything committed before the fault is kept, not recomputed.
        self.stats.iterations_salvaged += u64::from(completed);
        Ok(())
    }

    /// Opens `iteration`'s span on the current rung's clock.
    fn open_iteration(&self, iteration: u32) -> f64 {
        let at = self.now();
        if let Some(t) = &self.opts.tracer {
            let arg = u64::from(iteration);
            t.begin_arg(Category::Iteration, "iteration", self.clock, at, arg);
        }
        at
    }

    /// The iteration loop.
    fn iterate(
        &mut self,
        prog: &mut dyn LpProgram,
        report: &mut LpRunReport,
    ) -> Result<(), EngineError> {
        let (g, opts) = (self.g, self.opts);
        let n = g.num_vertices();
        let buckets = Buckets::build(g, opts.strategy, opts.thresholds);
        // Whether the run keeps a frontier; a rung that cannot schedule
        // over one (G-Sort) runs its iterations all-active.
        let frontier = opts.frontier.sparse(prog.sparse_activation());
        let mut active = initial_active(n, frontier, opts);
        let mut scratch = Scratch {
            spoken: vec![0; n],
            decisions: vec![None; n],
            changed: vec![false; if frontier { n } else { 0 }],
            next_active: vec![false; if frontier { n } else { 0 }],
        };
        let mut last_direction: Option<Direction> = None;
        for iteration in 0..opts.max_iterations {
            let mut iter_start = self.open_iteration(iteration);
            prog.begin_iteration(iteration);
            // The device phase, re-driven after every recovery. Its results
            // are folded into the report only at the commit, so a re-driven
            // phase never double-counts, and `begin_iteration` is not
            // re-called — the program already advanced into this iteration.
            let (sparse, scheduled, (stats, direction, snapshot_s)) = loop {
                let sparse = frontier && self.backend().frontier_capable();
                if frontier && !sparse {
                    active.fill(true);
                }
                // Filter: the degree-bucketed dispatch over this iteration's
                // frontier; the full bucketing is reused while it is saturated.
                let saturated = !sparse || active.iter().all(|&a| a);
                let work: Cow<'_, Buckets> = if saturated {
                    Cow::Borrowed(&buckets)
                } else {
                    Cow::Owned(buckets.filtered(&active))
                };
                let phase = Phase {
                    g,
                    prog: &*prog,
                    opts,
                    work: &work,
                    saturated,
                };
                let fault = match self.device_phase(&phase, &mut scratch, sparse, last_direction) {
                    Ok(out) => break (sparse, work.scheduled() as u64, out),
                    Err(fault) => fault,
                };
                if let Err(fault) = self.backend().recover(&phase, fault) {
                    self.close(report, true, false);
                    self.next_attempt(fault, iteration)?;
                    self.open(report, iteration)?;
                    iter_start = self.open_iteration(iteration);
                }
            };

            // Commit: host-side program updates in ascending vertex order,
            // exactly once per iteration.
            let changed = prog.apply_decisions(&scratch.decisions);
            if sparse {
                std::mem::swap(&mut active, &mut scratch.next_active);
            }
            last_direction = Some(direction);
            prog.end_iteration(iteration);
            report.smem_fallbacks += stats.fallbacks;
            report.smem_vertices += stats.smem_vertices;
            if self.snapshots {
                report.snapshot_seconds += snapshot_s;
                report.snapshots_taken += 1;
            }
            if let Some(hook) = &opts.barrier_hook {
                hook.fire(&BarrierEvent {
                    iteration,
                    changed,
                    scheduled,
                    active: if sparse { Some(&active) } else { None },
                    direction,
                    program: &*prog,
                });
            }
            report.active_per_iteration.push(scheduled);
            report.changed_per_iteration.push(changed);
            report.direction_per_iteration.push(direction);
            let iter_end = self.now();
            report.iteration_seconds.push(iter_end - iter_start);
            report.iterations = iteration + 1;
            if let Some(t) = &opts.tracer {
                t.end(iter_end);
            }
            if prog.finished(iteration, changed) {
                break;
            }
        }
        Ok(())
    }

    /// The fallible half of an iteration, in the paper's launch order.
    /// Returns kernel stats, rebuild direction, modeled snapshot seconds.
    fn device_phase(
        &mut self,
        p: &Phase<'_>,
        s: &mut Scratch,
        sparse: bool,
        prev: Option<Direction>,
    ) -> Result<(ShardStats, Direction, f64), DeviceError> {
        let (tracer, clock) = (p.opts.tracer.as_ref(), self.clock);
        let n = s.spoken.len() as u64;
        self.backend().pick(p, &mut s.spoken)?;
        s.decisions.fill(None);
        let before = self.now();
        if let Some(t) = tracer {
            let scheduled = p.work.scheduled() as u64;
            t.begin_arg(
                Category::Dispatch,
                dispatch_name(prev),
                clock,
                before,
                scheduled,
            );
        }
        let propagated = self.backend().propagate(p, &s.spoken, &mut s.decisions);
        let after = self.now();
        if let Some(t) = tracer {
            // Closed here, not by the run's unwind, so a recovered fault
            // leaves an error-flagged dispatch under a healthy iteration.
            if propagated.is_ok() {
                t.end(after);
            } else {
                t.end_err(after);
            }
        }
        let stats = propagated?;
        self.backend().stream(p, after - before);
        self.backend().charge_update(n)?;
        let direction = if sparse {
            mark_changed(&s.spoken, &s.decisions, &mut s.changed);
            let dir = choose_direction(p.opts.frontier, p.g, &s.changed, &self.cost);
            let volume = rebuild_frontier(p.g, dir, &s.changed, &mut s.next_active);
            let priced = p.opts.frontier == FrontierMode::Auto;
            self.backend()
                .charge_frontier(priced, dir, volume, &s.next_active)?;
            dir
        } else {
            Direction::Dense
        };
        let mut snapshot_s = 0.0;
        if self.snapshots {
            let t0 = self.backend().modeled_now();
            self.backend().charge_snapshot(n)?;
            if let (Some(t0), Some(t1)) = (t0, self.backend().modeled_now()) {
                snapshot_s = t1 - t0;
            }
            if let Some(t) = tracer {
                t.instant(Category::Resilience, "snapshot", clock, self.now());
            }
        }
        self.backend().exchange();
        Ok((stats, direction, snapshot_s))
    }
}

/// The frontier a run starts from: saturated, or the caller's warm-start
/// bitmap when one is supplied to a sparse run — the caller warrants it
/// covers every vertex whose decision could differ from its current state.
pub fn initial_active(n: usize, sparse: bool, opts: &RunOptions) -> Vec<bool> {
    match &opts.initial_frontier {
        Some(f) if sparse => {
            assert_eq!(f.len(), n, "initial frontier sized for a different graph");
            f.clone()
        }
        _ => vec![true; n],
    }
}

/// Flags the vertices whose decision differs from the label they spoke
/// this round — the change set every frontier rebuild starts from. `Auto`'s
/// pricing ([`choose_direction`]) and the rebuild it then picks both read it.
pub(crate) fn mark_changed(spoken: &[Label], decisions: &[Decision], changed: &mut [bool]) {
    for ((c, &s), &d) in changed.iter_mut().zip(spoken).zip(decisions) {
        *c = matches!(d, Some((l, _)) if l != s);
    }
}

/// Rebuilds the active set from the `changed` set in direction `dir`,
/// returning the volume the matching kernel is charged for. **Push** marks
/// the out-neighbors of every changed vertex (volume: Σ their out-degree).
/// **Pull** has every vertex scan its in-neighbors up to the first changed
/// one (volume: entries scanned — the early exit is why a dense frontier
/// makes it cheap). `v ∈ out(u) ⟺ u ∈ in(v)`, so both mark *exactly* the
/// same vertices — the contract `direction_equivalence.rs` pins.
pub(crate) fn rebuild_frontier(
    g: &Graph,
    dir: Direction,
    changed: &[bool],
    active: &mut [bool],
) -> u64 {
    active.fill(false);
    let mut volume = 0u64;
    if dir == Direction::Pull {
        let inc = g.incoming();
        for (v, a) in active.iter_mut().enumerate() {
            for &u in inc.neighbors(v as VertexId) {
                volume += 1;
                if changed[u as usize] {
                    *a = true;
                    break;
                }
            }
        }
    } else {
        let out = g.outgoing();
        for (v, _) in changed.iter().enumerate().filter(|&(_, &c)| c) {
            for &u in out.neighbors(v as VertexId) {
                active[u as usize] = true;
            }
            volume += u64::from(out.degree(v as VertexId));
        }
    }
    volume
}

/// Resolves a [`FrontierMode`] to this iteration's rebuild [`Direction`].
/// `Auto` prices push's scattered sectors for the actual change volume
/// (Σ out-degree over `changed`) against a worst-case coalesced pull scan
/// via [`CostModel::prefer_pull`].
fn choose_direction(
    mode: FrontierMode,
    g: &Graph,
    changed: &[bool],
    cost: &CostModel,
) -> Direction {
    match mode {
        FrontierMode::Dense => Direction::Dense,
        FrontierMode::Push => Direction::Push,
        FrontierMode::Pull => Direction::Pull,
        FrontierMode::Auto => {
            let out = g.outgoing();
            let flagged = changed.iter().enumerate().filter(|&(_, &c)| c);
            let touched = flagged
                .map(|(v, _)| u64::from(out.degree(v as VertexId)))
                .sum();
            if cost.prefer_pull(g.num_vertices() as u64, touched, g.num_edges()) {
                Direction::Pull
            } else {
                Direction::Push
            }
        }
    }
}

/// Dispatch-span name tagged with the direction that built the frontier
/// this iteration consumes (the *previous* iteration's rebuild choice).
/// Iteration 0 and dense scheduling keep the plain name.
pub(crate) fn dispatch_name(prev: Option<Direction>) -> &'static str {
    match prev {
        Some(Direction::Push) => "dispatch:push",
        Some(Direction::Pull) => "dispatch:pull",
        Some(Direction::Dense) | None => "dispatch",
    }
}
