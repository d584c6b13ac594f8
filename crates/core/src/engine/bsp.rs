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
//! left) or on the next rung of the ladder (DESIGN.md § One driver, seven
//! backends has the diagram). The frontier, the scratch, the report and the
//! program never leave the driver, so nothing is checkpointed, restored or
//! stitched. A bare engine's `run` is the one-rung, zero-retry case;
//! [`ResilientEngine`](super::ResilientEngine) hands the same loop a ladder
//! of backends and a retry budget.
//!
//! Synchronous LP on a bipartite graph does not settle, it oscillates with
//! period two, so a long run keeps asking for a LabelPropagation phase whose
//! exact input the driver saw two iterations ago. For a program that declares
//! [`sparse_activation`](LpProgram::sparse_activation) that phase is a pure
//! function of the spoken labels and the frontier, and the driver **replays**
//! it instead of computing it again ([`Scratch`]): the recorded decisions are
//! committed and the recorded launches pass the devices' launch boundary once
//! more ([`Device::relaunch`]), so the modeled clock, the counters, the kernel
//! log, the trace and the fault behaviour cannot tell a replayed iteration
//! from a computed one. A rung that keeps a modeled clock without a device
//! (the CPU baselines, the cluster) has nothing to re-commit: never replayed.

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
use std::ops::Range;
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
    /// The full bucketing stands in whenever the frontier holds every
    /// vertex a kernel processes, so `work.isolated` lists the frontier's
    /// isolated vertices only when `saturated`.
    pub work: &'a Buckets,
    /// Whether every vertex is active (dense, or a full frontier).
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

    /// Charges the frontier rebuild the driver just ran on the host: `changed`
    /// vertices' `volume` scatter marks (push) or `volume` scanned in-edges
    /// (pull) gave `next_active`; `priced` adds `Auto`'s density measurement.
    fn charge_frontier(
        &mut self,
        _priced: bool,
        _dir: Direction,
        _changed: u64,
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

/// One LabelPropagation phase: what it read and what it produced. Only
/// `spoken` and `decisions` are kept while the memo is not armed.
#[derive(Default)]
struct PhaseRecord {
    spoken: Vec<Label>,
    decisions: Vec<Decision>,
    active: Vec<bool>,
    stats: ShardStats,
    /// Per device, in [`Backend::each_device`] order, the kernel-log range
    /// the phase appended when it was computed.
    launches: Vec<Range<usize>>,
    /// Whether all of the above describe a phase this attempt computed (or
    /// took over from such a record).
    recorded: bool,
}

/// The buffers a device phase writes; nothing else moves before the commit.
///
/// `ring[0]` is the phase being driven. Once the memo is armed, `ring[1]` and
/// `ring[2]` are the phases one and two iterations back, and a phase whose
/// `(spoken, active)` equals `ring[2]`'s — compared element by element —
/// takes over its decisions, stats and launches instead of computing them.
/// The memo arms lazily, the first time an iteration's fingerprint equals the
/// one two iterations back: a run that never cycles keeps one phase's buffers
/// and pays one pass over `(spoken, active)` per iteration. The fingerprint
/// only arms; it never authorises a replay. Records name kernel-log ranges of
/// the devices they ran on, so any fault forgets them.
struct Scratch {
    ring: [PhaseRecord; 3],
    armed: bool,
    /// Fingerprints of the last two iterations, newest first (until armed).
    prints: [Option<u64>; 2],
    changed: Vec<bool>,
    next_active: Vec<bool>,
}

impl Scratch {
    fn new(n: usize, frontier: bool) -> Self {
        let mut ring: [PhaseRecord; 3] = Default::default();
        ring[0].spoken = vec![0; n];
        ring[0].decisions = vec![None; n];
        Self {
            ring,
            armed: false,
            prints: [None; 2],
            changed: vec![false; if frontier { n } else { 0 }],
            next_active: vec![false; if frontier { n } else { 0 }],
        }
    }

    /// Makes room for the next phase: the record two phases back, which
    /// nothing compares against any more, becomes the one being driven.
    fn begin_phase(&mut self) {
        if self.armed {
            self.ring.rotate_right(1);
        }
        self.ring[0].recorded = false;
    }

    /// After PickLabel: whether this phase's input is exactly the input of
    /// the phase two back, whose outputs it then takes over.
    fn recall(&mut self, active: &[bool]) -> bool {
        let [cur, _, old] = &mut self.ring;
        if !self.armed {
            let print = fingerprint(&cur.spoken, active);
            if self.prints[1] == Some(print) {
                self.armed = true;
                let n = cur.spoken.len();
                for rec in &mut self.ring[1..] {
                    rec.spoken = vec![0; n];
                    rec.decisions = vec![None; n];
                }
            }
            self.prints = [Some(print), self.prints[0]];
            return false;
        }
        let hit = old.recorded && old.spoken == cur.spoken && old.active == active;
        if hit {
            std::mem::swap(&mut cur.decisions, &mut old.decisions);
            std::mem::swap(&mut cur.active, &mut old.active);
            std::mem::swap(&mut cur.launches, &mut old.launches);
            cur.stats = old.stats;
            cur.recorded = true;
        }
        hit
    }

    /// Drops every record and disarms: what a fault leaves is a different
    /// device set, or logs the records' ranges no longer describe.
    fn forget(&mut self) {
        self.armed = false;
        self.prints = [None; 2];
        self.ring[0].recorded = false;
        self.ring[1] = PhaseRecord::default();
        self.ring[2] = PhaseRecord::default();
    }
}

/// Folds a phase's input into 64 bits. Eight independent multiply chains:
/// a single serial one is bound by the multiplier's latency and costs
/// several times as much on an 80 k-vertex run.
fn fingerprint(spoken: &[Label], active: &[bool]) -> u64 {
    const LANES: usize = 8;
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [0u64; LANES];
    let fold = |lanes: &mut [u64; LANES], s: &[Label], a: &[bool]| {
        for ((lane, &l), &on) in lanes.iter_mut().zip(s).zip(a) {
            *lane = (*lane ^ (u64::from(l) << 1 | u64::from(on))).wrapping_mul(MUL);
        }
    };
    let (s_chunks, a_chunks) = (spoken.chunks_exact(LANES), active.chunks_exact(LANES));
    let (s_tail, a_tail) = (s_chunks.remainder(), a_chunks.remainder());
    for (s, a) in s_chunks.zip(a_chunks) {
        fold(&mut lanes, s, a);
    }
    fold(&mut lanes, s_tail, a_tail);
    lanes
        .iter()
        .fold(spoken.len() as u64, |h, &lane| (h ^ lane).wrapping_mul(MUL))
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
    /// Whether this attempt may replay: replay re-commits the *devices'*
    /// launches, so a modeled clock kept without a device would lose charges.
    replayable: bool,
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
        replayable: false,
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
            self.clock = match self.backend().modeled_now() {
                Some(_) => Clock::Modeled,
                None => Clock::Wall,
            };
            self.replayable = cost.is_some() || self.clock == Clock::Wall;
            self.cost = cost.unwrap_or_default();
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
        let mut scratch = Scratch::new(n, frontier);
        // Under `sparse_activation` a phase is a pure function of
        // `(spoken, active)`: only then may a recorded one stand in for it.
        let memoize = prog.sparse_activation();
        #[cfg(test)]
        let memoize = memoize && !tests::NEVER_REPLAY.get();
        let mut last_direction: Option<Direction> = None;
        for iteration in 0..opts.max_iterations {
            let mut iter_start = self.open_iteration(iteration);
            prog.begin_iteration(iteration);
            // The device phase, re-driven after every recovery. Its results
            // are folded into the report only at the commit, so a re-driven
            // phase never double-counts, and `begin_iteration` is not
            // re-called — the program already advanced into this iteration.
            let (sparse, scheduled, (stats, direction, snapshot_s, replayed)) = loop {
                let sparse = frontier && self.backend().frontier_capable();
                if frontier && !sparse {
                    active.fill(true);
                }
                // Filter: the degree-bucketed dispatch over this iteration's
                // frontier; the full bucketing is reused while the frontier
                // holds every vertex the kernels process, isolated or not.
                let saturated = !sparse || active.iter().all(|&a| a);
                let work: Cow<'_, Buckets> = if saturated || buckets.filter_keeps_all(&active) {
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
                let memo = (memoize && self.replayable).then_some(&active[..]);
                let fault =
                    match self.device_phase(&phase, &mut scratch, memo, sparse, last_direction) {
                        Ok(out) => break (sparse, work.scheduled() as u64, out),
                        Err(fault) => fault,
                    };
                scratch.forget();
                if let Err(fault) = self.backend().recover(&phase, fault) {
                    self.close(report, true, false);
                    self.next_attempt(fault, iteration)?;
                    self.open(report, iteration)?;
                    iter_start = self.open_iteration(iteration);
                }
            };

            // Commit: host-side program updates in ascending vertex order,
            // exactly once per iteration.
            let changed = prog.apply_decisions(&scratch.ring[0].decisions);
            if sparse {
                std::mem::swap(&mut active, &mut scratch.next_active);
            }
            last_direction = Some(direction);
            prog.end_iteration(iteration);
            report.smem_fallbacks += stats.fallbacks;
            report.smem_vertices += stats.smem_vertices;
            report.replayed_iterations += u32::from(replayed);
            // A replayed phase re-commits launches; it priced nothing.
            if !replayed {
                report.priced_launches += stats.priced_launches;
            }
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
    /// `memo` is the frontier when the phase may be replayed from a record.
    /// Returns kernel stats, rebuild direction, modeled snapshot seconds and
    /// whether the LabelPropagation phase was replayed.
    fn device_phase(
        &mut self,
        p: &Phase<'_>,
        s: &mut Scratch,
        memo: Option<&[bool]>,
        sparse: bool,
        prev: Option<Direction>,
    ) -> Result<(ShardStats, Direction, f64, bool), DeviceError> {
        let (tracer, clock) = (p.opts.tracer.as_ref(), self.clock);
        s.begin_phase();
        let n = s.ring[0].spoken.len() as u64;
        self.backend().pick(p, &mut s.ring[0].spoken)?;
        let replayed = memo.is_some_and(|active| s.recall(active));
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
        let cur = &mut s.ring[0];
        let propagated = if replayed {
            self.relaunch(&cur.launches).map(|()| cur.stats)
        } else {
            self.propagate(p, cur, memo.filter(|_| s.armed))
        };
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
            let changed = mark_changed(&cur.spoken, &cur.decisions, &mut s.changed);
            let dir = choose_direction(p.opts.frontier, p.g, &s.changed, &self.cost);
            let volume = rebuild_frontier(p.g, dir, &s.changed, &mut s.next_active);
            let priced = p.opts.frontier == FrontierMode::Auto;
            self.backend()
                .charge_frontier(priced, dir, changed, volume, &s.next_active)?;
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
        Ok((stats, direction, snapshot_s, replayed))
    }

    /// [`Backend::propagate`] into `rec`. With the memo armed (`record` is
    /// the frontier) it also notes what a replay needs: the frontier, the
    /// stats and the launches each device logged.
    fn propagate(
        &mut self,
        p: &Phase<'_>,
        rec: &mut PhaseRecord,
        record: Option<&[bool]>,
    ) -> Result<ShardStats, DeviceError> {
        rec.launches.clear();
        if record.is_some() {
            self.backend().each_device(&mut |d| {
                let mark = d.kernel_log().len();
                rec.launches.push(mark..mark);
            });
        }
        rec.decisions.fill(None);
        let stats = self
            .backend()
            .propagate(p, &rec.spoken, &mut rec.decisions)?;
        if let Some(active) = record {
            let mut logged = rec.launches.iter_mut();
            self.backend().each_device(&mut |d| {
                let range = logged.next().expect("device set is fixed within a phase");
                range.end = d.kernel_log().len();
            });
            rec.active.clear();
            rec.active.extend_from_slice(active);
            rec.stats = stats;
            rec.recorded = true;
        }
        Ok(stats)
    }

    /// Passes the recorded `launches` through their devices' launch boundary
    /// again, in the order the phase issued them, stopping at the first
    /// fault as the phase would have.
    fn relaunch(&mut self, launches: &[Range<usize>]) -> Result<(), DeviceError> {
        let (mut ranges, mut out) = (launches.iter(), Ok(()));
        self.backend().each_device(&mut |d| {
            let range = ranges.next().expect("a fault forgets the records");
            for logged in range.clone() {
                out = out.and_then(|()| d.relaunch(logged));
            }
        });
        out
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

/// Flags (and counts) the vertices whose decision differs from the label they
/// spoke this round — the change set every frontier rebuild starts from.
/// `Auto`'s pricing ([`choose_direction`]) and the rebuild it picks read it.
pub(crate) fn mark_changed(spoken: &[Label], decisions: &[Decision], flags: &mut [bool]) -> u64 {
    let mut count = 0;
    for ((c, &s), &d) in flags.iter_mut().zip(spoken).zip(decisions) {
        *c = matches!(d, Some((l, _)) if l != s);
        count += u64::from(*c);
    }
    count
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

#[cfg(test)]
pub(super) mod tests {
    use super::super::{
        BarrierHook, Engine, GpuEngine, HybridEngine, MultiGpuEngine, SequentialEngine,
    };
    use super::*;
    use crate::variants::{ClassicLp, SeededLp, WeightedLp};
    use glp_gpusim::{DeviceConfig, KernelCounters};
    use glp_graph::gen::{
        bipartite_interaction, caveman, community_powerlaw, road_network, BipartiteConfig,
        CommunityPowerLawConfig, RoadConfig,
    };
    use glp_graph::GraphBuilder;
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    thread_local! {
        /// The pin that proves replay ≡ recompute: while set, the calling
        /// thread's runs compute every phase. Absent from non-test builds.
        pub(super) static NEVER_REPLAY: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    const ITERS: u32 = 20;

    fn single_edge() -> Graph {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).symmetrize(true);
        b.build()
    }

    /// The user–item window shape: synchronous LP 2-cycles on it. Dense
    /// enough that its hubs run the CMS+HT kernel (`ShardStats` is not 0).
    fn bipartite(seed: u64) -> Graph {
        bipartite_interaction(&BipartiteConfig {
            num_users: 60,
            num_items: 25,
            num_interactions: 3000,
            skew: 0.8,
            seed,
        })
    }

    fn graph(family: usize, seed: u64) -> Graph {
        match family {
            0 => single_edge(),
            1 => bipartite(seed),
            2 => road_network(&RoadConfig {
                width: 12,
                height: 9,
                keep: 0.7,
                seed,
            }),
            3 => caveman(6, 5),
            _ => community_powerlaw(&CommunityPowerLawConfig {
                num_vertices: 300,
                avg_degree: 6.0,
                num_communities: 6,
                seed,
                ..Default::default()
            }),
        }
    }

    /// `ClassicLp`, `WeightedLp` without and with retention, `SeededLp`.
    fn program(variant: usize, g: &Graph) -> Box<dyn LpProgram> {
        let n = g.num_vertices();
        let weights = || {
            let edges = g.incoming().num_edges() as usize;
            Arc::new((0..edges).map(|e| 1.0 + (e % 3) as f32).collect::<Vec<_>>())
        };
        match variant {
            0 => Box::new(ClassicLp::with_max_iterations(n, ITERS)),
            1 => Box::new(WeightedLp::new(n, weights(), ITERS)),
            2 => Box::new(WeightedLp::new(n, weights(), ITERS).with_retention(0.5)),
            _ => {
                let seeds: Vec<VertexId> = (0..n as VertexId).step_by(7).collect();
                Box::new(SeededLp::with_max_iterations(n, &seeds, ITERS))
            }
        }
    }

    /// One engine of each tier the driver serves in this crate.
    pub(crate) enum Rig {
        Gpu(GpuEngine),
        Hybrid(HybridEngine),
        Multi(MultiGpuEngine),
        Host(super::super::sequential::SequentialBsp),
    }

    impl Rig {
        pub(crate) fn new(tier: usize, g: &Graph) -> Self {
            match tier {
                0 => Rig::Gpu(GpuEngine::titan_v()),
                1 => {
                    // Room for the label state and half the CSR: it streams.
                    let resident = super::super::gpu::resident_bytes(g);
                    let mem = resident + (g.size_bytes() / 2).max(1);
                    Rig::Hybrid(HybridEngine::new(Device::new(DeviceConfig::tiny(mem))))
                }
                2 => Rig::Multi(MultiGpuEngine::titan_v(2)),
                _ => Rig::Host(SequentialEngine::bsp()),
            }
        }

        pub(crate) fn engine(&mut self) -> &mut dyn Engine {
            match self {
                Rig::Gpu(e) => e,
                Rig::Hybrid(e) => e,
                Rig::Multi(e) => e,
                Rig::Host(e) => e,
            }
        }

        /// Every device's kernel log: name, seconds bits, counters.
        pub(crate) fn logs(&self) -> Vec<Vec<(&'static str, u64, KernelCounters)>> {
            let devices: Vec<&Device> = match self {
                Rig::Gpu(e) => vec![e.device()],
                Rig::Hybrid(e) => vec![e.device()],
                Rig::Multi(e) => (0..e.gpus().len()).map(|i| e.gpus().device(i)).collect(),
                Rig::Host(_) => Vec::new(),
            };
            let entry = |r: &glp_gpusim::KernelRecord| (r.name, r.seconds.to_bits(), r.counters);
            devices
                .iter()
                .map(|d| d.kernel_log().iter().map(entry).collect())
                .collect()
        }
    }

    /// A barrier event: iteration, changed, scheduled, frontier, labels.
    type Barrier = (u32, u64, u64, Option<Vec<bool>>, Vec<Label>);

    /// What a run leaves behind, floats as bits.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        labels: Vec<Label>,
        changed: Vec<u64>,
        active: Vec<u64>,
        directions: Vec<Direction>,
        clocks: [u64; 3],
        iteration_bits: Vec<u64>,
        counters: KernelCounters,
        smem: (u64, u64),
        snapshots: u64,
        logs: Vec<Vec<(&'static str, u64, KernelCounters)>>,
        barriers: Vec<Barrier>,
    }

    /// Runs with the memo live (`replay`) or pinned off; returns the
    /// outcome and how many iterations were replayed.
    fn run(
        tier: usize,
        g: &Graph,
        prog: &mut dyn LpProgram,
        mode: FrontierMode,
        hook: bool,
        replay: bool,
    ) -> (Outcome, u32) {
        let barriers = Arc::new(Mutex::new(Vec::new()));
        let mut opts = RunOptions::default().with_frontier(mode);
        if hook {
            let sink = Arc::clone(&barriers);
            opts = opts.with_barrier_hook(BarrierHook::new(move |ev| {
                sink.lock().unwrap().push((
                    ev.iteration,
                    ev.changed,
                    ev.scheduled,
                    ev.active.map(<[bool]>::to_vec),
                    ev.program.labels().to_vec(),
                ));
            }));
        }
        let mut rig = Rig::new(tier, g);
        NEVER_REPLAY.set(!replay);
        let report = rig.engine().run(g, prog, &opts).unwrap();
        NEVER_REPLAY.set(false);
        let device_tier = !matches!(rig, Rig::Host(_));
        let outcome = Outcome {
            labels: prog.labels().to_vec(),
            changed: report.changed_per_iteration.clone(),
            active: report.active_per_iteration.clone(),
            directions: report.direction_per_iteration.clone(),
            clocks: [
                report.modeled_seconds.to_bits(),
                report.transfer_seconds.to_bits(),
                report.snapshot_seconds.to_bits(),
            ],
            // The host tier's iterations are wall-clocked.
            iteration_bits: report
                .iteration_seconds
                .iter()
                .filter(|_| device_tier)
                .map(|s| s.to_bits())
                .collect(),
            counters: report.gpu_counters,
            smem: (report.smem_fallbacks, report.smem_vertices),
            snapshots: report.snapshots_taken,
            logs: rig.logs(),
            barriers: std::mem::take(&mut *barriers.lock().unwrap()),
        };
        (outcome, report.replayed_iterations)
    }

    const MODES: [FrontierMode; 4] = [
        FrontierMode::Dense,
        FrontierMode::Auto,
        FrontierMode::Push,
        FrontierMode::Pull,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// A run that replays phases leaves exactly what the run that
        /// computes every phase leaves.
        #[test]
        fn replaying_equals_recomputing(
            family in 0usize..5,
            seed in 0u64..1000,
            variant in 0usize..4,
            mode in 0usize..4,
            tier in 0usize..4,
            hook in any::<bool>(),
        ) {
            let g = graph(family, seed);
            let mut computed = program(variant, &g);
            let (want, none) = run(tier, &g, &mut *computed, MODES[mode], hook, false);
            prop_assert_eq!(none, 0);
            let mut replayed = program(variant, &g);
            let (got, _) = run(tier, &g, &mut *replayed, MODES[mode], hook, true);
            prop_assert_eq!(got, want);
        }
    }

    /// The shape the memo exists for: a bipartite window replays about half
    /// of its iterations on every tier and mode, equally often (the memo's
    /// key is the tier-independent `(spoken, active)`).
    #[test]
    fn a_bipartite_window_replays_on_every_tier() {
        let g = bipartite(7);
        let mut counts = Vec::new();
        for tier in 0..4 {
            for mode in MODES {
                let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), ITERS);
                let (outcome, replayed) = run(tier, &g, &mut prog, mode, false, true);
                assert_eq!(outcome.changed.len(), ITERS as usize, "still cycling");
                assert!(tier == 3 || outcome.smem.1 > 0, "no hub on tier {tier}");
                counts.push(replayed);
            }
        }
        assert!(counts[0] >= ITERS / 2, "replayed {counts:?}");
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "replayed {counts:?}"
        );
    }

    /// A single edge swaps its two labels forever: the fingerprint repeats
    /// at t = 2, the phases of t = 2 and t = 3 are recorded, and every
    /// iteration from t = 4 on is a replay.
    #[test]
    fn a_single_edge_replays_from_the_fourth_iteration_on() {
        let g = single_edge();
        for tier in 0..4 {
            let mut prog = ClassicLp::with_max_iterations(2, ITERS);
            let (outcome, replayed) = run(tier, &g, &mut prog, FrontierMode::Auto, false, true);
            assert_eq!(outcome.changed, vec![2; ITERS as usize]);
            assert_eq!(replayed, ITERS - 4, "tier {tier}");
        }
    }

    /// Labels that 2-cycle while the scores follow a hidden per-iteration
    /// state: not a `sparse_activation` program, so never replayed.
    struct DriftingScores {
        labels: Vec<Label>,
        iteration: u32,
        scores: Vec<f64>,
    }

    impl LpProgram for DriftingScores {
        fn num_vertices(&self) -> usize {
            self.labels.len()
        }
        fn pick_label(&self, v: VertexId) -> Label {
            self.labels[v as usize]
        }
        fn label_score(&self, _v: VertexId, _l: Label, freq: f64) -> f64 {
            freq + f64::from(self.iteration)
        }
        fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
            let (label, score) = winner.expect("both ends have a neighbour");
            self.scores.push(score);
            self.labels[v as usize] = label;
            true
        }
        fn begin_iteration(&mut self, iteration: u32) {
            self.iteration = iteration;
        }
        fn finished(&self, iteration: u32, _changed: u64) -> bool {
            iteration + 1 >= ITERS
        }
        fn labels(&self) -> &[Label] {
            &self.labels
        }
    }

    #[test]
    fn a_program_with_hidden_state_is_never_replayed() {
        let g = single_edge();
        for tier in 0..4 {
            let mut prog = DriftingScores {
                labels: vec![0, 1],
                iteration: 0,
                scores: Vec::new(),
            };
            let (_, replayed) = run(tier, &g, &mut prog, FrontierMode::Auto, false, true);
            assert_eq!(replayed, 0);
            assert_eq!(prog.labels, [0, 1], "an even number of swaps");
            let want: Vec<f64> = (0..ITERS).flat_map(|t| [1.0 + f64::from(t); 2]).collect();
            assert_eq!(
                prog.scores, want,
                "tier {tier}: a stale phase was committed"
            );
        }
    }

    /// The authorisation rule on its own. In a run the frontier is a
    /// function of the labels' history, so once a fingerprint has repeated
    /// `spoken` and `active` repeat together; a colliding fingerprint is what
    /// could arm the memo without that, and then only the exact comparison of
    /// both stands between a stale phase and the commit.
    #[test]
    fn only_an_identical_input_recalls_a_phase() {
        let mut s = Scratch::new(3, true);
        // Drives one phase over `(spoken, active)`; a computed one decides
        // `tag` everywhere and is recorded the way the driver records it.
        let mut phase = |spoken: [Label; 3], active: [bool; 3], tag: Label| {
            s.begin_phase();
            s.ring[0].spoken = spoken.to_vec();
            let hit = s.recall(&active);
            if !hit && s.armed {
                let cur = &mut s.ring[0];
                cur.decisions.fill(Some((tag, 1.0)));
                cur.active = active.to_vec();
                cur.recorded = true;
            }
            (hit, s.armed, s.ring[0].decisions[0].map(|(l, _)| l))
        };
        let (a, b) = ([4, 5, 6], [5, 4, 6]);
        let (all, some) = ([true; 3], [true, false, true]);
        // Not armed until an input repeats two apart; arming replays nothing.
        assert_eq!(phase(a, all, 0), (false, false, None));
        assert_eq!(phase(b, all, 1), (false, false, None));
        assert_eq!(phase(a, all, 2), (false, true, Some(2)));
        assert_eq!(phase(b, all, 3), (false, true, Some(3)));
        // Identical input: the phase two back is taken over, again and again.
        assert_eq!(phase(a, all, 4), (true, true, Some(2)));
        assert_eq!(phase(b, all, 5), (true, true, Some(3)));
        assert_eq!(phase(a, all, 6), (true, true, Some(2)));
        // Same labels, another frontier: computed. Same frontier, other
        // labels: computed. Each is then the record two phases later.
        assert_eq!(phase(b, some, 7), (false, true, Some(7)));
        assert_eq!(phase([4, 5, 7], all, 8), (false, true, Some(8)));
        assert_eq!(phase(b, all, 9), (false, true, Some(9)));
        assert_eq!(phase([4, 5, 7], all, 10), (true, true, Some(8)));
        assert_eq!(phase(b, some, 11), (false, true, Some(11)));
    }

    #[test]
    fn the_fingerprint_reads_every_element_and_its_position() {
        let spoken: Vec<Label> = (0..37).collect();
        let active = vec![true; 37];
        let base = fingerprint(&spoken, &active);
        assert_eq!(base, fingerprint(&spoken, &active));
        for i in [0, 7, 8, 31, 32, 36] {
            let mut s = spoken.clone();
            s[i] ^= 1;
            assert_ne!(base, fingerprint(&s, &active), "label {i}");
            let mut a = active.clone();
            a[i] = false;
            assert_ne!(base, fingerprint(&spoken, &a), "flag {i}");
        }
        let mut swapped = spoken.clone();
        swapped.swap(3, 11);
        assert_ne!(base, fingerprint(&swapped, &active));
        assert_ne!(base, fingerprint(&spoken[..36], &active[..36]));
    }
}
