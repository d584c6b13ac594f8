//! The one threaded shell of both serving fronts: [`FraudService`] runs
//! it around a [`ServiceCore`], [`ShardRouter`] around a [`FleetCore`].
//!
//! [`Shell::start`] opens the ingest gate and starts one supervised
//! **front** worker — the single service's batcher, the fleet's router —
//! that drains the queue into micro-batches and applies them. Then it
//! starts one supervised **recluster** worker per scoring core and, for
//! the fleet, the **exchange** worker. Requests to those travel over
//! capacity-1 channels: one made while another is pending coalesces
//! (counted), so work never queues up behind itself. [`Shell::shutdown`]
//! closes the gate, joins the front worker, drops the pokes, joins the
//! other workers in start order, then runs the core's final step.
//!
//! Every worker runs under a [`supervisor`](crate::supervisor) thread: a
//! panic is caught, counted, recorded in the health monitor, and
//! answered with a capped-exponential-backoff restart until the health
//! machine says `Down`.
//!
//! [`FraudService`]: crate::FraudService
//! [`ShardRouter`]: crate::ShardRouter
//! [`FleetCore`]: crate::FleetCore

use crate::config::ServeConfig;
use crate::health::HealthMonitor;
use crate::ingest::{open_ingest, Batcher, IngestGate, Submitted};
use crate::service::ServiceCore;
use crate::supervisor::{supervise, RestartPolicy, WorkerExit, WorkerOutcome, WorkerStatus};
use crate::telemetry::Telemetry;
use crate::FaultPlan;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use glp_trace::{Category, Clock, Tracer};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How a core wires the shell's gate, front worker and supervisors.
pub(crate) struct Front {
    /// The front worker's name: its thread and its crash streak.
    pub(crate) name: &'static str,
    /// What the gate, the batcher and the cadences read (a fleet's shard
    /// configuration).
    pub(crate) cfg: ServeConfig,
    pub(crate) health: Arc<HealthMonitor>,
    pub(crate) telemetry: Arc<Telemetry>,
    /// The day watermark the gate checks regressions against.
    pub(crate) window_end: Arc<AtomicU32>,
    /// The recorder of the `batch` span.
    pub(crate) tracer: Option<Tracer>,
    /// The exchange worker's cadence in batches; `None` starts none.
    pub(crate) exchange_every: Option<u64>,
    /// The plan the batcher fault hooks read.
    pub(crate) plan: Option<Arc<FaultPlan>>,
}

/// The synchronous core a shell drives: [`ServiceCore`] or
/// [`FleetCore`](crate::FleetCore).
pub(crate) trait Core: Send + Sync + 'static {
    /// The shell's wiring to this core.
    fn front(&self) -> Front;
    /// Applies one drained micro-batch; returns the new batch count.
    fn apply_batch(&self, batch: &[Submitted]) -> u64;
    /// Batches applied so far: the index the batcher fault hooks read.
    fn applied(&self) -> u64;
    /// Writes the configured checkpoint. A failure is counted, not fatal:
    /// the previous image on disk survives.
    fn save(&self);
    /// Brings the served verdicts up to the window: a recluster, or the
    /// fleet's exchange round.
    fn refresh(&self);
    /// Runs on every (re)start of the front worker, before it drains.
    fn resume(&self) {}
}

/// A running shell.
pub(crate) struct Shell<C> {
    pub(crate) core: Arc<C>,
    pub(crate) gate: IngestGate,
    front: Arc<Front>,
    /// One per scoring core, then the exchange worker's.
    pokes: Vec<Sender<()>>,
    /// The front worker first, then the others in start order.
    workers: Vec<(JoinHandle<()>, Arc<WorkerStatus>)>,
}

impl<C: Core> Shell<C> {
    /// Starts the front worker over `core`, one recluster worker per core
    /// of `scorers`, then the exchange worker when the front has a cadence.
    pub(crate) fn start(core: Arc<C>, scorers: Vec<Arc<ServiceCore>>) -> Self {
        let front = Arc::new(core.front());
        let policy = RestartPolicy::for_config(&front.cfg);
        let (gate, new_batcher) = open_ingest(
            &front.cfg,
            Arc::clone(&front.window_end),
            Arc::clone(&front.health),
            Arc::clone(&front.telemetry),
        );
        let exchanges = usize::from(front.exchange_every.is_some());
        let (pokes, rxs): (Vec<_>, Vec<_>) = (0..scorers.len() + exchanges)
            .map(|_| bounded::<()>(1))
            .unzip();
        let (health, telemetry) = (Arc::clone(&front.health), Arc::clone(&front.telemetry));
        let body = {
            let (core, front) = (Arc::clone(&core), Arc::clone(&front));
            let (scorers, pokes) = (scorers.clone(), pokes.clone());
            move || front_loop(&*core, &front, &new_batcher(), &scorers, &pokes)
        };
        let mut workers = vec![supervise(front.name, health, telemetry, policy, body)];
        let mut rxs = rxs.into_iter();
        for (scorer, rx) in scorers.into_iter().zip(&mut rxs) {
            let health = Arc::clone(scorer.health_monitor());
            let telemetry = Arc::clone(scorer.telemetry());
            let owed = Cell::new(false);
            let body = move || recluster_loop(&scorer, &rx, &owed);
            workers.push(supervise("recluster", health, telemetry, policy, body));
        }
        if let Some(rx) = rxs.next() {
            let (health, telemetry) = (Arc::clone(&front.health), Arc::clone(&front.telemetry));
            let (core, front) = (Arc::clone(&core), Arc::clone(&front));
            let body = move || {
                while rx.recv().is_ok() && !front.health.is_down() {
                    core.refresh();
                }
                WorkerExit::Finished
            };
            workers.push(supervise("exchange", health, telemetry, policy, body));
        }
        Self {
            core,
            gate,
            front,
            pokes,
            workers,
        }
    }

    /// Asks the exchange worker for a round now (coalesces if one is
    /// pending).
    pub(crate) fn force_exchange(&self) {
        if self.front.exchange_every.is_some() {
            let tx = self.pokes.last().expect("the exchange worker's poke");
            poke(tx, &self.front.telemetry);
        }
    }

    /// The ordered shutdown: closes the gate, joins the front worker once
    /// it has drained the queue, drops the pokes, joins the other workers
    /// in start order, then refreshes the verdicts and writes the
    /// configured checkpoint. Returns the core and every worker's outcome,
    /// the front's first.
    pub(crate) fn shutdown(self) -> (Arc<C>, Vec<WorkerOutcome>) {
        drop(self.gate);
        let join = |(worker, status): (JoinHandle<()>, Arc<WorkerStatus>)| {
            worker.join().expect("supervisor threads do not panic");
            status.outcome()
        };
        let mut workers = self.workers.into_iter();
        let front = join(workers.next().expect("the front worker starts first"));
        drop(self.pokes);
        let outcomes = std::iter::once(front).chain(workers.map(join)).collect();
        self.core.refresh();
        if self.front.cfg.checkpoint_path.is_some() {
            self.core.save();
        }
        (self.core, outcomes)
    }
}

/// The front worker: applies micro-batches, pokes the scoring cores'
/// recluster workers every `recluster_every_batches` and the exchange
/// worker at its cadence, and checkpoints every
/// `checkpoint_every_batches`.
fn front_loop<C: Core>(
    core: &C,
    front: &Front,
    batcher: &Batcher,
    scorers: &[Arc<ServiceCore>],
    pokes: &[Sender<()>],
) -> WorkerExit {
    core.resume();
    let cfg = &front.cfg;
    let live = || {
        let cores = scorers.iter().zip(pokes);
        cores.filter(|(core, _)| !core.health_monitor().is_down())
    };
    let poke_live = || live().for_each(|(_, tx)| poke(tx, &front.telemetry));
    loop {
        // Staleness gate: if the stalest live core's verdicts have fallen
        // max_staleness_batches behind its window (queries read each
        // core's own snapshot), stop applying until the recluster workers
        // catch up. The queue keeps absorbing traffic meanwhile and sheds
        // (counted) once full — bounded staleness turns overload into
        // backpressure instead of ever-staler answers. A Down core can
        // never catch up, so the gate does not wait on it.
        let stalest = || live().map(|(core, _)| core.staleness_batches()).max();
        while stalest() >= Some(cfg.max_staleness_batches) {
            poke_live();
            thread::sleep(Duration::from_micros(200));
        }
        if let Some(plan) = &front.plan {
            // Fires *before* the batch is drained: the queued
            // transactions survive the panic and the restarted worker
            // applies them — recovery is lossless by construction.
            plan.maybe_panic_batcher(core.applied());
        }
        // The batch span covers the drain wait: budget-bounded queue
        // reads until the micro-batch fills or times out.
        if let Some(t) = &front.tracer {
            t.begin(Category::Serve, "batch", Clock::Wall, t.wall_now());
        }
        let next = batcher.next_batch();
        if let Some(t) = &front.tracer {
            t.end(t.wall_now());
        }
        let Ok(mut batch) = next else {
            return WorkerExit::Finished;
        };
        if batch.is_empty() {
            continue; // idle tick
        }
        if let Some(plan) = &front.plan {
            if plan.corrupt_due(core.applied()) {
                // A corrupt record materializing inside the pipeline,
                // after the gate: the apply-side validation must shed it.
                batch[0].tx.amount = f32::NAN;
            }
        }
        let applied = core.apply_batch(&batch);
        front.health.record_progress(front.name);
        let due = |every| applied.is_multiple_of(every);
        if due(cfg.recluster_every_batches) {
            poke_live();
        }
        if front.exchange_every.is_some_and(due) {
            poke(&pokes[scorers.len()], &front.telemetry);
        }
        if cfg.checkpoint_path.is_some() && due(cfg.checkpoint_every_batches) {
            core.save();
        }
    }
}

/// Asks the worker behind a capacity-1 channel for one more run. If a
/// request is already pending behind the run in flight, this one
/// coalesces into it (counted) — work can never queue up behind itself.
fn poke(tx: &Sender<()>, telemetry: &Telemetry) {
    match tx.try_send(()) {
        Ok(()) | Err(TrySendError::Disconnected(())) => {}
        Err(TrySendError::Full(())) => {
            telemetry
                .reclusters_coalesced
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The recluster worker of one scoring core — the single service's, and
/// each fleet shard's: one recluster per poke. `owed` outlives the
/// worker's incarnations: a poke whose recluster panicked is served again
/// by the restarted worker before it waits for the next one, so a crash
/// costs a retry, not verdicts (and an unhealed crash streak) stale until
/// traffic pokes again.
pub(crate) fn recluster_loop(
    core: &ServiceCore,
    rx: &Receiver<()>,
    owed: &Cell<bool>,
) -> WorkerExit {
    while owed.take() || rx.recv().is_ok() {
        if core.health_monitor().is_down() {
            // Skip, don't exit: a fleet failover may revive this core,
            // and its recluster worker must still be here when it does.
            continue;
        }
        owed.set(true);
        if let Some(plan) = core.faults() {
            // A stall is served here, full or incremental recluster alike,
            // and claimed under the recluster lock it holds: every other
            // recluster (a synchronous `recluster_now` too) waits it out.
            let held = core.memo();
            let next = core.telemetry().reclusters.load(Ordering::Relaxed);
            if let Some(millis) = plan.stall_due(next) {
                thread::sleep(Duration::from_millis(millis));
            }
            drop(held);
            plan.maybe_panic_recluster(next);
        }
        core.recluster_now();
        owed.set(false);
        core.health_monitor().record_progress("recluster");
    }
    WorkerExit::Finished
}
