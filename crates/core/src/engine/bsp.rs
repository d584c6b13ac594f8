//! The one BSP driver: the paper's workflow (Figure 2) — PickLabel →
//! LabelPropagation → UpdateVertex → barrier — written once.
//!
//! [`drive`] owns what every synchronous LP run repeats: the iteration range
//! and resume, the run / iteration / dispatch spans and their error unwind,
//! the frontier (Gunrock's *filter*: change flags → direction choice → push
//! or pull rebuild → bucket filtering), the barrier hook, the report, and
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
//! applied" — and a backend that heals itself ([`Backend::recover`]) has its
//! device phase re-driven from PickLabel.

use super::dispatch::Buckets;
use super::kernels::ShardStats;
use super::options::BarrierEvent;
use super::{Decision, Direction, EngineError, FrontierMode, RunOptions};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::{CostModel, Device, DeviceError};
use glp_graph::{Graph, Label, VertexId};
use glp_trace::{Category, Clock, KernelProfile, Tracer};
use std::borrow::Cow;
use std::time::Instant;

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

/// The buffers a device phase writes; nothing else moves before the commit.
struct Scratch {
    spoken: Vec<Label>,
    decisions: Vec<Decision>,
    changed: Vec<bool>,
    next_active: Vec<bool>,
}

struct Driver<'a> {
    backend: &'a mut dyn Backend,
    g: &'a Graph,
    opts: &'a RunOptions,
    epoch: Instant,
    clock: Clock,
    /// What `Auto` prices directions on: the devices' model, which is the
    /// default one host tiers use — so all tiers choose alike.
    cost: CostModel,
}

/// Runs `prog` on `g` under `opts` on `backend` until the program reports
/// termination or the iteration cap is hit.
pub fn drive(
    backend: &mut dyn Backend,
    g: &Graph,
    prog: &mut dyn LpProgram,
    opts: &RunOptions,
) -> Result<LpRunReport, EngineError> {
    assert_eq!(
        prog.num_vertices(),
        g.num_vertices(),
        "program sized for a different graph"
    );
    let tier = backend.name();
    let tracer = &opts.tracer;
    let mut cost = CostModel::default();
    let mut log_marks = Vec::new();
    backend.each_device(&mut |d| {
        d.set_tracer(tracer.clone());
        if log_marks.is_empty() {
            cost = d.cost_model().clone();
        }
        log_marks.push(d.kernel_log().len());
    });
    let clock = match backend.modeled_now() {
        Some(_) => Clock::Modeled,
        None => Clock::Wall,
    };
    let epoch = Instant::now();
    let mut driver = Driver {
        backend,
        g,
        opts,
        epoch,
        clock,
        cost,
    };
    let start = driver.now();
    let trace_mark = tracer.as_ref().map(|t| {
        let mark = t.open_depth();
        t.begin(Category::Run, tier, clock, start);
        mark
    });
    let mut report = LpRunReport::default();
    let outcome = match driver.backend.stage(g) {
        Ok(()) => {
            let outcome = driver.iterate(prog, &mut report);
            report.transfer_seconds = driver.backend.teardown(outcome.is_ok());
            outcome
        }
        Err(e) => Err(e.into()),
    };
    let end = driver.now();
    if let Err(e) = outcome {
        trace_fail(tracer, trace_mark, end);
        return Err(e);
    }
    if let Some(t) = tracer {
        t.end(end);
    }
    if clock == Clock::Modeled {
        report.modeled_seconds = end - start;
    }
    report.wall_seconds = epoch.elapsed().as_secs_f64();
    let mut marks = log_marks.into_iter();
    driver.backend.each_device(&mut |d| {
        let mark = marks.next().expect("device set is fixed for the run");
        report.gpu_counters.merge(d.totals());
        let mut profile = KernelProfile::new();
        for rec in &d.kernel_log()[mark..] {
            profile.record(tier, rec.name, rec.seconds);
        }
        report.kernel_profile.merge(&profile);
    });
    Ok(report)
}

impl Driver<'_> {
    /// Span time: the backend's modeled clock, else wall seconds — the
    /// tracer's when one records, so host-tier spans share its time base.
    fn now(&self) -> f64 {
        let wall = || match &self.opts.tracer {
            Some(t) => t.wall_now(),
            None => self.epoch.elapsed().as_secs_f64(),
        };
        self.backend.modeled_now().unwrap_or_else(wall)
    }

    /// The iteration loop.
    fn iterate(
        &mut self,
        prog: &mut dyn LpProgram,
        report: &mut LpRunReport,
    ) -> Result<(), EngineError> {
        let (g, opts, clock) = (self.g, self.opts, self.clock);
        let n = g.num_vertices();
        let buckets = Buckets::build(g, opts.strategy, opts.thresholds);
        let sparse =
            self.backend.frontier_capable() && opts.frontier.sparse(prog.sparse_activation());
        let mut active = initial_active(n, sparse, opts);
        let mut scratch = Scratch {
            spoken: vec![0; n],
            decisions: vec![None; n],
            changed: vec![false; if sparse { n } else { 0 }],
            next_active: vec![false; if sparse { n } else { 0 }],
        };
        let mut last_direction: Option<Direction> = None;
        for iteration in opts.start_iteration..opts.max_iterations {
            let iter_start = self.now();
            if let Some(t) = &opts.tracer {
                let arg = u64::from(iteration);
                t.begin_arg(Category::Iteration, "iteration", clock, iter_start, arg);
            }
            prog.begin_iteration(iteration);
            // Filter: the degree-bucketed dispatch over this iteration's
            // frontier; the full bucketing is reused while it is saturated.
            let saturated = !sparse || active.iter().all(|&a| a);
            let work: Cow<'_, Buckets> = if saturated {
                Cow::Borrowed(&buckets)
            } else {
                Cow::Owned(buckets.filtered(&active))
            };
            let scheduled = work.scheduled() as u64;
            let phase = Phase {
                g,
                prog: &*prog,
                opts,
                work: &work,
                saturated,
            };
            // Folded into the report only at the commit, so a re-driven phase
            // never double-counts; `begin_iteration` is not re-called — the
            // program already advanced into this iteration.
            let (stats, direction, snapshot_s) = loop {
                match self.device_phase(&phase, &mut scratch, sparse, last_direction) {
                    Ok(out) => break out,
                    Err(fault) => self.backend.recover(&phase, fault)?,
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
            if let Some(hook) = &opts.barrier_hook {
                report.snapshot_seconds += snapshot_s;
                report.snapshots_taken += 1;
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
        self.backend.pick(p, &mut s.spoken)?;
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
        let propagated = self.backend.propagate(p, &s.spoken, &mut s.decisions);
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
        self.backend.stream(p, after - before);
        self.backend.charge_update(n)?;
        let direction = if sparse {
            mark_changed(&s.spoken, &s.decisions, &mut s.changed);
            let dir = choose_direction(p.opts.frontier, p.g, &s.changed, &self.cost);
            let volume = rebuild_frontier(p.g, dir, &s.changed, &mut s.next_active);
            let priced = p.opts.frontier == FrontierMode::Auto;
            self.backend
                .charge_frontier(priced, dir, volume, &s.next_active)?;
            dir
        } else {
            Direction::Dense
        };
        let mut snapshot_s = 0.0;
        if p.opts.barrier_hook.is_some() {
            // Only charged when a hook is installed, so hook-free runs are
            // cost-model-identical to builds without fault tolerance.
            let t0 = self.backend.modeled_now();
            self.backend.charge_snapshot(n)?;
            if let (Some(t0), Some(t1)) = (t0, self.backend.modeled_now()) {
                snapshot_s = t1 - t0;
            }
            if let Some(t) = tracer {
                t.instant(Category::Resilience, "snapshot", clock, self.now());
            }
        }
        self.backend.exchange();
        Ok((stats, direction, snapshot_s))
    }
}

/// Error-path unwind: closes every span opened above `mark`,
/// innermost-first, flagged as errors, so a recovery layer above can parent
/// its retry/degrade events to the failed iteration span.
pub(crate) fn trace_fail(tracer: &Option<Tracer>, mark: Option<usize>, at_s: f64) {
    if let (Some(t), Some(m)) = (tracer, mark) {
        t.fail_open_to(m, at_s);
    }
}

/// The frontier a run starts from: saturated for a fresh run, the caller's
/// captured bitmap when one is supplied to a sparse run — either an
/// iteration-granular resume (`start_iteration > 0`) or a warm start from
/// iteration 0, where the caller warrants the bitmap covers every vertex
/// whose decision could differ from its current state.
pub fn initial_active(n: usize, sparse: bool, opts: &RunOptions) -> Vec<bool> {
    match &opts.initial_frontier {
        Some(f) if sparse => {
            assert_eq!(f.len(), n, "resume frontier sized for a different graph");
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
/// Iteration 0, resumes with no prior rebuild, and dense scheduling all
/// keep the plain name.
pub(crate) fn dispatch_name(prev: Option<Direction>) -> &'static str {
    match prev {
        Some(Direction::Push) => "dispatch:push",
        Some(Direction::Pull) => "dispatch:pull",
        Some(Direction::Dense) | None => "dispatch",
    }
}
