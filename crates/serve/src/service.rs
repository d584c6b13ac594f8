//! The always-on service: ingest → window → recluster → verdicts, wired
//! together with plain threads and channels — and supervised, so it
//! *stays* always-on under partial failure.
//!
//! Two layers:
//!
//! * [`ServiceCore`] — the synchronous heart: apply a micro-batch, run a
//!   recluster, look up a verdict, write/restore a checkpoint. No threads
//!   of its own; tests and the determinism suite drive it step by step.
//! * [`FraudService`] — the threaded shell: a **batcher** thread drains
//!   the ingest queue into micro-batches and applies them, and a
//!   **recluster** thread rebuilds verdicts when poked. Requests to
//!   recluster travel over a capacity-1 channel: if one is already in
//!   flight the request coalesces (counted), so recluster work can never
//!   queue up behind itself.
//!
//! Both workers run under [`supervisor`](crate::supervisor) threads: a
//! panic is caught, counted, recorded in the [`HealthMonitor`], and
//! answered with a capped-exponential-backoff restart until the health
//! machine says [`Down`](HealthState::Down). Queries keep being served
//! from the last good snapshot throughout — every lock on the query and
//! telemetry paths recovers from poisoning instead of propagating it.
//!
//! Shared state is exactly two cells: the window behind a `Mutex` (held
//! only to apply a batch or clone out a materialization) and the verdict
//! snapshot behind an [`EpochCell`] (pointer swap). Queries touch only
//! the latter — a query observes LP results, it never waits on LP.
//!
//! Durability is the window itself: with `checkpoint_path` set, the
//! batcher periodically persists the window (plus clocks and counters)
//! through [`glp_fraud::checkpoint`], and [`FraudService::recover`]
//! resumes from the last checkpoint with LP output byte-identical to an
//! uninterrupted run (pinned in `tests/checkpoint_restore.rs`).

use crate::config::ServeConfig;
#[cfg(feature = "fault-injection")]
use crate::faults::FaultPlan;
use crate::health::{HealthMonitor, HealthReport, HealthState, HealthThresholds};
use crate::ingest::{ingest_pair, Batcher, BurstState, Closed, IngestGate, Submitted};
use crate::query::{FraudScorer, Verdict, VerdictSnapshot};
use crate::recluster::{absorb_outcome, ReclusterMode, ReclusterRun, WarmState};
use crate::supervisor::{supervise, RestartPolicy, WorkerExit, WorkerOutcome, WorkerStatus};
use crate::swap::EpochCell;
use crate::telemetry::Telemetry;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use glp_fraud::checkpoint::{CheckpointError, WindowCheckpoint};
use glp_fraud::{IncrementalWindow, Transaction};
use glp_trace::{Category, Clock, Tracer};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// The synchronous scoring core shared by the service threads, the
/// tests, and the bench harness's calibration phase.
pub struct ServiceCore {
    cfg: ServeConfig,
    window: Mutex<IncrementalWindow>,
    /// Warm-start state; the lock also serializes reclusters, so at most
    /// one LP run consumes/produces the memo at a time.
    recluster: Mutex<WarmState>,
    /// The live blacklist seeds. Mutable because label noise is real:
    /// entries get retracted and added while the service runs
    /// ([`Self::update_blacklist`]). A change resets the warm-start memo
    /// — the memo's coverage check ([`LpMemo::covers`]) compares window
    /// lineage, not seed sets, so a churned blacklist *must* force the
    /// next recluster to run from scratch or the delta replay would keep
    /// propagating labels from seeds that no longer exist.
    blacklist: Mutex<Vec<u32>>,
    verdicts: EpochCell<VerdictSnapshot>,
    telemetry: Arc<Telemetry>,
    batches_applied: AtomicU64,
    /// Watermark of the window's exclusive end day, mirrored out of the
    /// lock so the ingest gate can run its day-regression check without
    /// contending with apply.
    window_end: Arc<AtomicU32>,
    health: Arc<HealthMonitor>,
    /// Optional span recorder. Serve stages record wall-clock spans on
    /// its time base; the recluster LP run nests its engine spans under
    /// the recluster span via the same handle.
    tracer: Option<Tracer>,
    #[cfg(feature = "fault-injection")]
    faults: Option<Arc<FaultPlan>>,
}

impl ServiceCore {
    /// A core with an empty window and the given blacklist seeds.
    pub fn new(cfg: ServeConfig, blacklist: Vec<u32>) -> Self {
        let window = IncrementalWindow::empty(cfg.window_days);
        Self::from_state(cfg, blacklist, window, 0, 0, &[])
    }

    /// A core resuming from a decoded checkpoint: the window, batch
    /// clock, snapshot epoch, and monotonic telemetry counters all
    /// continue where the checkpoint left them. Fails if the checkpoint
    /// violates window invariants or disagrees with `cfg.window_days`.
    pub fn restore(
        cfg: ServeConfig,
        blacklist: Vec<u32>,
        ckpt: &WindowCheckpoint,
    ) -> Result<Self, CheckpointError> {
        if ckpt.days != cfg.window_days {
            return Err(CheckpointError::Invalid(
                "checkpoint window length disagrees with the configuration",
            ));
        }
        let window = ckpt.restore_window()?;
        let core = Self::from_state(
            cfg,
            blacklist,
            window,
            ckpt.batches_applied,
            ckpt.snapshot_epoch,
            &ckpt.counters,
        );
        // Rebuild verdicts from the restored window before anything is
        // served: staleness reads 0 and queries see real answers, not the
        // default-empty snapshot.
        core.recluster_now();
        Ok(core)
    }

    fn from_state(
        cfg: ServeConfig,
        blacklist: Vec<u32>,
        window: IncrementalWindow,
        batches_applied: u64,
        snapshot_epoch: u64,
        counters: &[u64],
    ) -> Self {
        let telemetry = Arc::new(Telemetry::new());
        telemetry.restore_counters(counters);
        let health = Arc::new(HealthMonitor::new(HealthThresholds {
            shedding_after: cfg.shedding_after_crashes,
            down_after: cfg.down_after_crashes,
        }));
        let initial = VerdictSnapshot {
            as_of_batch: batches_applied,
            ..VerdictSnapshot::default()
        };
        Self {
            window_end: Arc::new(AtomicU32::new(window.end())),
            window: Mutex::new(window),
            recluster: Mutex::new(WarmState::default()),
            cfg,
            blacklist: Mutex::new(blacklist),
            verdicts: EpochCell::with_epoch(initial, snapshot_epoch),
            telemetry,
            batches_applied: AtomicU64::new(batches_applied),
            health,
            tracer: None,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    /// Attaches a span recorder: every serve stage (ingest → batch →
    /// apply → recluster → swap → checkpoint) records wall-clock spans,
    /// and recluster LP runs record their engine/kernel spans through the
    /// same handle. Without one, nothing is recorded and behavior is
    /// unchanged.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached span recorder, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches a fault plan; every hook in the worker loops consults it.
    #[cfg(feature = "fault-injection")]
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    #[cfg(feature = "fault-injection")]
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The telemetry block.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The health monitor (crash streaks and the state machine).
    pub fn health_monitor(&self) -> &Arc<HealthMonitor> {
        &self.health
    }

    /// One consistent health observation: the crash-driven state, raised
    /// to at least [`Degraded`](HealthState::Degraded) while the served
    /// snapshot is staler than `max_staleness_batches`, plus the numbers
    /// needed to interpret it (staleness, streak, last panic).
    pub fn health(&self) -> HealthReport {
        let staleness = self.staleness_batches();
        let mut state = self.health.state();
        if staleness >= self.cfg.max_staleness_batches {
            state = state.max(HealthState::Degraded);
        }
        if self.health.burst_overlay() {
            // A detected burst flood degrades, never downs: the service
            // is serving and draining, just shedding loudly.
            state = state.max(HealthState::Degraded);
        }
        HealthReport {
            state,
            consecutive_crashes: self.health.consecutive_crashes(),
            staleness_batches: staleness,
            snapshot_epoch: self.verdicts.epoch(),
            last_panic: self.health.last_panic(),
            engine_tier: self.health.engine_tier(),
        }
    }

    /// The current blacklist seeds (sorted, deduplicated).
    pub fn blacklist(&self) -> Vec<u32> {
        self.blacklist
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Applies blacklist churn: `add` entries are inserted, `remove`
    /// entries retracted (label noise being withdrawn). Returns whether
    /// the effective seed set changed; when it did, the warm-start memo
    /// is reset — the recluster-staleness guard — so the *next* recluster
    /// runs from scratch against the new seeds instead of incrementally
    /// replaying labels a retracted seed already propagated. Counted in
    /// `blacklist_revisions`.
    pub fn update_blacklist(&self, add: &[u32], remove: &[u32]) -> bool {
        let changed = {
            let mut bl = self.blacklist.lock().unwrap_or_else(|e| e.into_inner());
            let before = bl.clone();
            bl.extend_from_slice(add);
            bl.sort_unstable();
            bl.dedup();
            bl.retain(|u| !remove.contains(u));
            *bl != before
        };
        if changed {
            self.telemetry
                .blacklist_revisions
                .fetch_add(1, Ordering::Relaxed);
            // The memo's coverage check compares window lineage only; a
            // churned seed set silently invalidates it, so drop it here.
            self.recluster
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .reset();
        }
        changed
    }

    /// Micro-batches applied so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied.load(Ordering::Relaxed)
    }

    /// Batches applied since the current snapshot was materialized — the
    /// live staleness, bounded by `recluster_every_batches` plus one
    /// in-flight recluster whenever the recluster thread keeps up.
    pub fn staleness_batches(&self) -> u64 {
        self.batches_applied()
            .saturating_sub(self.verdicts.load().as_of_batch)
    }

    /// Applies one stamped micro-batch to the window and records ingest
    /// telemetry. Invalid transactions that slipped past the gate (or
    /// were corrupted after it) are shed here — counted as
    /// `rejected_invalid` — instead of being allowed to corrupt the
    /// window or panic the apply. Returns the new applied-batch count.
    pub fn apply(&self, batch: &[Submitted]) -> u64 {
        if batch.is_empty() {
            return self.batches_applied();
        }
        if let Some(t) = &self.tracer {
            t.instant(Category::Serve, "ingest", Clock::Wall, t.wall_now());
            t.begin_arg(
                Category::Serve,
                "apply",
                Clock::Wall,
                t.wall_now(),
                batch.len() as u64,
            );
        }
        let mut invalid = 0u64;
        {
            let mut w = self.window.lock().unwrap_or_else(|e| e.into_inner());
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &self.faults {
                // Fires while the window mutex is held: poisons the lock.
                plan.maybe_panic_in_apply(self.batches_applied());
            }
            // Validate against the *running* end: apply_batch's
            // invariant is t.day + 1 >= end with end advancing per
            // transaction, so the filter must advance the same way.
            let mut end = w.end();
            let mut txs: Vec<Transaction> = Vec::with_capacity(batch.len());
            for s in batch {
                let t = s.tx;
                if t.amount.is_finite() && t.day + 1 >= end {
                    end = end.max(t.day + 1);
                    txs.push(t);
                } else {
                    invalid += 1;
                }
            }
            w.apply_batch(&txs);
            self.window_end.store(w.end(), Ordering::Release);
        }
        if invalid > 0 {
            self.telemetry
                .rejected_invalid
                .fetch_add(invalid, Ordering::Relaxed);
        }
        let applied = Instant::now();
        for s in batch {
            let lag = applied.duration_since(s.at).as_nanos() as u64;
            self.telemetry.ingest_lag.record(lag);
        }
        self.telemetry.batch_size.record(batch.len() as u64);
        self.telemetry.batches.fetch_add(1, Ordering::Relaxed);
        let applied_count = self.batches_applied.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = &self.tracer {
            t.end(t.wall_now());
        }
        applied_count
    }

    /// Convenience for synchronous callers: stamps and applies raw
    /// transactions as one micro-batch.
    pub fn apply_transactions(&self, txs: &[Transaction]) -> u64 {
        let now = Instant::now();
        let batch: Vec<Submitted> = txs.iter().map(|&tx| Submitted { tx, at: now }).collect();
        self.apply(&batch)
    }

    /// Materializes the current window (with its delta), reclusters it —
    /// incrementally when the previous run's memo covers the delta, from
    /// scratch otherwise or every [`ServeConfig::full_recluster_every`]
    /// incremental runs — and publishes the verdict snapshot. The window
    /// lock is held only for the materialization (a patch of the previous
    /// graph, or a rebuild from the live log after expiry); LP and scoring
    /// run on the immutable result. Returns what ran:
    /// the mode, the wall seconds, and the frontier the LP consumed.
    pub fn recluster_now(&self) -> ReclusterRun {
        let started = Instant::now();
        if let Some(t) = &self.tracer {
            t.begin(Category::Serve, "recluster", Clock::Wall, t.wall_now());
        }
        // The warm-start lock is held across the whole run: concurrent
        // reclusters serialize, so each consumes the memo of the run
        // directly before it.
        let mut st = self.recluster.lock().unwrap_or_else(|e| e.into_inner());
        let (workload, delta, window_end, as_of) = {
            let mut w = self.window.lock().unwrap_or_else(|e| e.into_inner());
            let (workload, delta) = w.materialize_delta();
            (
                workload,
                delta,
                w.end(),
                self.batches_applied.load(Ordering::Relaxed),
            )
        };
        let mut mode = ReclusterMode::Full;
        let mut frontier = 0usize;
        let snapshot = if workload.graph.num_vertices() == 0 {
            // Nothing to cluster yet: publish the empty scoring. No LP
            // ran, so no memo and no incremental/full decision recorded.
            st.reset();
            VerdictSnapshot {
                window_end,
                as_of_batch: as_of,
                ..VerdictSnapshot::default()
            }
        } else {
            let blacklist = self.blacklist();
            let outcome = st.run(
                &workload,
                &blacklist,
                &self.cfg,
                &delta,
                as_of,
                window_end,
                self.tracer.as_ref(),
            );
            absorb_outcome(&self.telemetry, &self.health, &outcome);
            mode = outcome.mode;
            frontier = outcome.frontier;
            outcome.snapshot
        };
        if let Some(t) = &self.tracer {
            t.begin(Category::Serve, "swap", Clock::Wall, t.wall_now());
        }
        self.verdicts.publish(snapshot);
        if let Some(t) = &self.tracer {
            t.end(t.wall_now()); // swap
        }
        self.telemetry.reclusters.fetch_add(1, Ordering::Relaxed);
        self.telemetry
            .recluster_wall
            .record(started.elapsed().as_nanos() as u64);
        if let Some(t) = &self.tracer {
            t.end(t.wall_now()); // recluster
        }
        ReclusterRun {
            mode,
            wall_seconds: started.elapsed().as_secs_f64(),
            frontier,
        }
    }

    /// Persists the current window (plus batch clock, snapshot epoch,
    /// and monotonic counters) to `path` via an atomic temp-file write.
    /// Failures are counted (`checkpoint_failures`) and returned; the
    /// previous checkpoint on disk is never damaged by a failed write.
    pub fn checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        if let Some(t) = &self.tracer {
            t.begin(Category::Serve, "checkpoint", Clock::Wall, t.wall_now());
        }
        let ckpt = {
            let w = self.window.lock().unwrap_or_else(|e| e.into_inner());
            WindowCheckpoint::capture(
                &w,
                self.batches_applied.load(Ordering::Relaxed),
                self.verdicts.epoch(),
                self.telemetry.counters_snapshot(),
            )
        };
        // The write itself runs outside the window lock.
        let result = match ckpt.write_atomic(path) {
            Ok(()) => {
                self.telemetry
                    .checkpoints_written
                    .fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.telemetry
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        };
        if let Some(t) = &self.tracer {
            let now = t.wall_now();
            if result.is_ok() {
                t.end(now);
            } else {
                t.end_err(now);
            }
        }
        result
    }

    /// The freshest published snapshot.
    pub fn snapshot(&self) -> Arc<VerdictSnapshot> {
        self.verdicts.load()
    }

    /// Snapshots published so far.
    pub fn epoch(&self) -> u64 {
        self.verdicts.epoch()
    }

    fn restart_policy(&self) -> RestartPolicy {
        RestartPolicy {
            backoff_base: self.cfg.restart_backoff,
            backoff_cap: self.cfg.restart_backoff_cap,
        }
    }
}

/// A cloneable, read-only scoring handle: the in-process query
/// front-end. Lookups are two binary searches against an immutable
/// snapshot — they never contend with ingest or reclustering beyond a
/// pointer-clone, and they keep answering (from the last good snapshot)
/// whatever state the write side is in.
#[derive(Clone)]
pub struct QueryHandle {
    core: Arc<ServiceCore>,
}

impl QueryHandle {
    /// The current health observation (state, staleness, crash streak).
    pub fn health(&self) -> HealthReport {
        self.core.health()
    }
}

impl FraudScorer for QueryHandle {
    fn score(&self, user: u32) -> Verdict {
        let t0 = Instant::now();
        let v = self.core.verdicts.load().verdict(user);
        self.core
            .telemetry
            .query_latency
            .record(t0.elapsed().as_nanos() as u64);
        self.core.telemetry.queries.fetch_add(1, Ordering::Relaxed);
        v
    }

    fn snapshot(&self) -> Arc<VerdictSnapshot> {
        self.core.verdicts.load()
    }
}

/// How [`FraudService::shutdown`] went: the core for final inspection
/// plus each supervised worker's outcome. Replaces the PR-1 behaviour of
/// re-panicking on `join()` when a worker had died.
#[derive(Clone)]
pub struct ShutdownReport {
    /// The service core (snapshots, telemetry, health) after the final
    /// recluster.
    pub core: Arc<ServiceCore>,
    /// How the batcher worker ended.
    pub batcher: WorkerOutcome,
    /// How the recluster worker ended.
    pub recluster: WorkerOutcome,
    /// Health state at shutdown (staleness overlay included).
    pub state: HealthState,
}

impl ShutdownReport {
    /// Whether both workers exited cleanly without ever panicking.
    pub fn clean(&self) -> bool {
        self.batcher == WorkerOutcome::Clean { panics: 0 }
            && self.recluster == WorkerOutcome::Clean { panics: 0 }
    }
}

/// The threaded always-on service.
pub struct FraudService {
    core: Arc<ServiceCore>,
    gate: IngestGate,
    recluster_tx: Sender<()>,
    batcher: Option<JoinHandle<()>>,
    recluster_worker: Option<JoinHandle<()>>,
    batcher_status: Arc<WorkerStatus>,
    recluster_status: Arc<WorkerStatus>,
}

impl FraudService {
    /// Starts the service: spawns the supervised batcher and recluster
    /// workers.
    pub fn start(cfg: ServeConfig, blacklist: Vec<u32>) -> Self {
        Self::start_on(Arc::new(ServiceCore::new(cfg, blacklist)))
    }

    /// Starts the service with a fault plan attached (feature
    /// `fault-injection`): every hook in the worker loops consults the
    /// plan, so the scheduled faults fire at their batch/recluster
    /// indices.
    #[cfg(feature = "fault-injection")]
    pub fn start_with_faults(cfg: ServeConfig, blacklist: Vec<u32>, plan: Arc<FaultPlan>) -> Self {
        Self::start_on(Arc::new(ServiceCore::new(cfg, blacklist).with_faults(plan)))
    }

    /// Resumes a service from the checkpoint at `path`: the window,
    /// batch clock, snapshot epoch, and monotonic counters continue
    /// where the checkpoint left them, verdicts are rebuilt before the
    /// first query, and ingest picks up at the restored window end.
    /// The configuration and blacklist are not checkpointed (they are
    /// deployment inputs, not stream state) and must be supplied again.
    pub fn recover(
        cfg: ServeConfig,
        blacklist: Vec<u32>,
        path: &Path,
    ) -> Result<Self, CheckpointError> {
        let ckpt = WindowCheckpoint::read(path)?;
        let core = ServiceCore::restore(cfg, blacklist, &ckpt)?;
        Ok(Self::start_on(Arc::new(core)))
    }

    fn start_on(core: Arc<ServiceCore>) -> Self {
        let cfg = core.cfg.clone();
        let burst =
            BurstState::from_config(&cfg, Arc::clone(&core.health), Arc::clone(core.telemetry()));
        let (gate, batch_rx) = ingest_pair(
            cfg.queue_capacity,
            cfg.shed_policy,
            cfg.window_days,
            Arc::clone(&core.window_end),
            Arc::clone(&core.health),
            Arc::clone(core.telemetry()),
            burst.clone(),
        );
        // Capacity 1: at most one recluster pending beyond the one in
        // flight; further requests coalesce.
        let (recluster_tx, recluster_rx): (Sender<()>, Receiver<()>) = bounded(1);

        let (batcher, batcher_status) = {
            let core = Arc::clone(&core);
            let recluster_tx = recluster_tx.clone();
            let policy = core.restart_policy();
            let health = Arc::clone(&core.health);
            let telemetry = Arc::clone(core.telemetry());
            supervise("batcher", health, telemetry, policy, move || {
                let batcher = Batcher::new(batch_rx.clone(), cfg.max_batch, cfg.batch_budget)
                    .with_burst(burst.clone());
                batch_loop(&core, &batcher, &recluster_tx)
            })
        };
        let (recluster_worker, recluster_status) = {
            let core = Arc::clone(&core);
            let policy = core.restart_policy();
            let health = Arc::clone(&core.health);
            let telemetry = Arc::clone(core.telemetry());
            supervise("recluster", health, telemetry, policy, move || {
                recluster_loop(&core, &recluster_rx)
            })
        };
        Self {
            core,
            gate,
            recluster_tx,
            batcher: Some(batcher),
            recluster_worker: Some(recluster_worker),
            batcher_status,
            recluster_status,
        }
    }

    /// A producer-side submission gate (cloneable).
    pub fn gate(&self) -> IngestGate {
        self.gate.clone()
    }

    /// Submits one transaction through the service's own gate.
    pub fn submit(&self, tx: Transaction) -> Result<(), Transaction> {
        self.gate.submit(tx)
    }

    /// A query handle (cloneable).
    pub fn handle(&self) -> QueryHandle {
        QueryHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// The synchronous core (telemetry, staleness, snapshots).
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// The current health observation.
    pub fn health(&self) -> HealthReport {
        self.core.health()
    }

    /// Runs a recluster on the caller's thread right now and reports
    /// what ran — the same trigger name and return type as
    /// [`ServiceCore::recluster_now`] and the fleet's
    /// [`FleetCore::recluster_now`](crate::router::FleetCore::recluster_now).
    /// The warm-start lock serializes this with the recluster worker, so
    /// a forced run never races a scheduled one.
    pub fn recluster_now(&self) -> ReclusterRun {
        self.core.recluster_now()
    }

    /// Stops the service: closes the ingest queue, lets the batcher
    /// drain what is already queued, runs one final recluster so the
    /// last batches are scored, and joins both supervisors. Worker
    /// panics along the way are *reported*, not re-thrown — a service
    /// that lost a worker still shuts down in order. Any gates cloned
    /// out of the service must be dropped first, or the queue never
    /// reads as closed.
    pub fn shutdown(mut self) -> ShutdownReport {
        drop(self.gate);
        if let Some(h) = self.batcher.take() {
            h.join().expect("supervisor threads do not panic");
        }
        drop(self.recluster_tx);
        if let Some(h) = self.recluster_worker.take() {
            h.join().expect("supervisor threads do not panic");
        }
        self.core.recluster_now();
        // A final checkpoint so a clean shutdown leaves the freshest
        // possible resume point.
        if let Some(path) = &self.core.cfg.checkpoint_path {
            let _ = self.core.checkpoint(path);
        }
        ShutdownReport {
            state: self.core.health().state,
            batcher: self.batcher_status.outcome(),
            recluster: self.recluster_status.outcome(),
            core: Arc::clone(&self.core),
        }
    }
}

fn request_recluster(core: &ServiceCore, recluster_tx: &Sender<()>) {
    match recluster_tx.try_send(()) {
        Ok(()) | Err(TrySendError::Disconnected(())) => {}
        Err(TrySendError::Full(())) => {
            core.telemetry
                .reclusters_coalesced
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn batch_loop(core: &ServiceCore, batcher: &Batcher, recluster_tx: &Sender<()>) -> WorkerExit {
    loop {
        // Staleness gate: if verdicts have fallen max_staleness_batches
        // behind the window, stop applying until the recluster thread
        // catches up. The queue keeps absorbing traffic meanwhile and
        // sheds (counted) once full — bounded staleness turns overload
        // into backpressure instead of ever-staler answers. A Down
        // service can never catch up, so the wait aborts instead of
        // spinning forever.
        while core.staleness_batches() >= core.cfg.max_staleness_batches {
            if core.health.is_down() {
                return WorkerExit::Finished;
            }
            request_recluster(core, recluster_tx);
            thread::sleep(std::time::Duration::from_micros(200));
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = core.faults() {
            // Fires *before* the batch is drained: the queued
            // transactions survive the panic and the restarted worker
            // applies them — recovery is lossless by construction.
            plan.maybe_panic_batcher(core.batches_applied());
        }
        let next = {
            // The batch span covers the drain wait: budget-bounded queue
            // reads until the micro-batch fills or times out.
            if let Some(t) = core.tracer() {
                t.begin(Category::Serve, "batch", Clock::Wall, t.wall_now());
            }
            let next = batcher.next_batch();
            if let Some(t) = core.tracer() {
                t.end(t.wall_now());
            }
            next
        };
        match next {
            Err(Closed) => return WorkerExit::Finished,
            Ok(batch) => {
                if batch.is_empty() {
                    continue; // idle tick
                }
                #[cfg(feature = "fault-injection")]
                let batch = corrupt_if_due(core, batch);
                let applied = core.apply(&batch);
                core.health.record_progress("batcher");
                if applied.is_multiple_of(core.cfg.recluster_every_batches) {
                    request_recluster(core, recluster_tx);
                }
                if let Some(path) = &core.cfg.checkpoint_path {
                    if applied.is_multiple_of(core.cfg.checkpoint_every_batches) {
                        #[cfg(feature = "fault-injection")]
                        if let Some(plan) = core.faults() {
                            if plan.checkpoint_fail_due(applied) {
                                glp_fraud::checkpoint::faults::fail_next_writes(1);
                            }
                        }
                        // Failure is counted inside and does not stop
                        // the service; the previous checkpoint survives.
                        let _ = core.checkpoint(path);
                    }
                }
            }
        }
    }
}

#[cfg(feature = "fault-injection")]
fn corrupt_if_due(core: &ServiceCore, mut batch: Vec<Submitted>) -> Vec<Submitted> {
    if let Some(plan) = core.faults() {
        if plan.corrupt_due(core.batches_applied()) {
            // A corrupt record materializing inside the pipeline, after
            // the gate: the apply-side validation must shed it.
            batch[0].tx.amount = f32::NAN;
        }
    }
    batch
}

fn recluster_loop(core: &ServiceCore, recluster_rx: &Receiver<()>) -> WorkerExit {
    while recluster_rx.recv().is_ok() {
        if core.health.is_down() {
            return WorkerExit::Finished;
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = core.faults() {
            let next = core.telemetry.reclusters.load(Ordering::Relaxed);
            if let Some(millis) = plan.stall_due(next) {
                // The stall is injected at the device layer: the whole
                // stack above gpusim experiences a slow card.
                glp_gpusim::faults::inject_kernel_stall(1, millis * 1_000);
            }
            plan.maybe_panic_recluster(next);
        }
        core.recluster_now();
        core.health.record_progress("recluster");
    }
    WorkerExit::Finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShedPolicy;
    use glp_fraud::{TxConfig, TxStream};
    use std::time::Duration;

    fn stream() -> TxStream {
        TxStream::generate(&TxConfig {
            num_users: 1_000,
            num_items: 400,
            days: 20,
            tx_per_day: 600,
            num_rings: 3,
            ring_size: 10,
            ring_tx_per_day: 30,
            blacklist_fraction: 0.25,
            ..Default::default()
        })
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            queue_capacity: 8_192,
            max_batch: 256,
            batch_budget: Duration::from_millis(2),
            shed_policy: ShedPolicy::DropOldest,
            recluster_every_batches: 4,
            engine_shards: 2,
            ..ServeConfig::default()
        }
        .with_window_days(10)
    }

    #[test]
    fn core_scores_like_the_offline_pipeline_would() {
        let s = stream();
        let core = ServiceCore::new(cfg(), s.blacklist.clone());
        for day in 0..s.config.days {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            core.apply_transactions(&txs);
        }
        core.recluster_now();
        let snap = core.snapshot();
        assert_eq!(snap.window_end, s.config.days);
        assert!(snap.num_flagged() > 0, "rings should be flagged");
        assert_eq!(core.epoch(), 1);
        assert_eq!(core.staleness_batches(), 0);
        let h = core.health();
        assert_eq!(h.state, HealthState::Healthy);
        assert_eq!(h.consecutive_crashes, 0);
    }

    #[test]
    fn threaded_service_end_to_end() {
        let s = stream();
        let service = FraudService::start(cfg(), s.blacklist.clone());
        let handle = service.handle();
        for t in s.window(0, s.config.days) {
            service.submit(*t).expect("service accepts while running");
        }
        let report = service.shutdown();
        assert!(report.clean(), "no faults injected: clean outcomes");
        assert_eq!(report.state, HealthState::Healthy);
        let core = report.core;
        // Shutdown drains the queue and reclusters once more, so every
        // submitted transaction is scored.
        let snap = core.snapshot();
        assert_eq!(snap.window_end, s.config.days);
        assert!(snap.num_flagged() > 0);
        let flagged_user = snap.flagged[0].0;
        assert!(matches!(
            handle.score(flagged_user),
            Verdict::Flagged { .. }
        ));
        let t = core.telemetry();
        assert!(t.batches.load(Ordering::Relaxed) > 0);
        assert!(t.ingest_lag.count() > 0);
        assert_eq!(
            t.ingest_lag.count(),
            t.ingested.load(Ordering::Relaxed) - t.shed_total()
        );
        assert_eq!(t.worker_panics.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn invalid_submissions_are_shed_not_applied() {
        let s = stream();
        let service = FraudService::start(cfg(), s.blacklist.clone());
        let valid: Vec<Transaction> = s.window(0, 3).copied().collect();
        for t in &valid {
            service.submit(*t).expect("valid traffic flows");
        }
        // Gate-level garbage: non-finite amounts.
        let nan = Transaction {
            buyer: 1,
            item: 2,
            day: 2,
            amount: f32::NAN,
        };
        let inf = Transaction {
            buyer: 9,
            item: 4,
            day: 2,
            amount: f32::NEG_INFINITY,
        };
        assert!(service.submit(nan).is_err());
        assert!(service.submit(inf).is_err());
        let report = service.shutdown();
        let t = report.core.telemetry();
        assert_eq!(t.rejected_invalid.load(Ordering::Relaxed), 2);
        assert_eq!(t.ingested.load(Ordering::Relaxed), valid.len() as u64);
        // The window absorbed exactly the valid traffic.
        assert_eq!(report.core.snapshot().window_end, 3);
    }

    #[test]
    fn day_regression_is_filtered_at_apply() {
        // A day regression *within* the gate's tolerance must be shed by
        // the authoritative apply-side filter rather than panicking the
        // window's apply_batch.
        let s = stream();
        let core = ServiceCore::new(cfg(), s.blacklist.clone());
        let day5: Vec<Transaction> = s.window(5, 6).copied().collect();
        core.apply_transactions(&day5); // window end = 6
        let stale = Transaction {
            buyer: 1,
            item: 2,
            day: 2, // closed day, still inside the 10-day window
            amount: 1.0,
        };
        core.apply_transactions(&[stale]);
        assert_eq!(core.telemetry().rejected_invalid.load(Ordering::Relaxed), 1);
        assert_eq!(core.batches_applied(), 2, "batch still counted");
        // Mixed batch: the regression is dropped, the rest applies.
        let day6: Vec<Transaction> = s.window(6, 7).copied().collect();
        let mut mixed = vec![stale];
        mixed.extend_from_slice(&day6);
        core.apply_transactions(&mixed);
        assert_eq!(core.telemetry().rejected_invalid.load(Ordering::Relaxed), 2);
        core.recluster_now();
        assert_eq!(core.snapshot().window_end, 7);
    }

    #[test]
    fn reject_new_backpressure_is_counted_and_nonblocking() {
        // A tiny queue and a batcher that cannot keep up: submissions
        // must return (not block) and shed must be counted.
        let s = stream();
        let mut c = cfg();
        c.queue_capacity = 64;
        c.shed_policy = ShedPolicy::RejectNew;
        let service = FraudService::start(c, s.blacklist.clone());
        let mut rejected = 0u64;
        for t in s.window(0, s.config.days) {
            if service.submit(*t).is_err() {
                rejected += 1;
            }
        }
        let core = service.shutdown().core;
        let t = core.telemetry();
        assert_eq!(t.shed_rejected_new.load(Ordering::Relaxed), rejected);
        assert_eq!(t.shed_dropped_oldest.load(Ordering::Relaxed), 0);
        // Accepted = submitted - rejected, and all accepted were applied.
        assert_eq!(
            t.ingested.load(Ordering::Relaxed) + rejected,
            s.window(0, s.config.days).count() as u64
        );
        assert_eq!(t.ingest_lag.count(), t.ingested.load(Ordering::Relaxed));
    }

    #[test]
    fn staleness_gate_bounds_staleness_and_sheds_under_overload() {
        // Cadence of 1 and a staleness bound of 1: every batch must be
        // reclustered before the next applies. The batcher is therefore
        // slower than the producer, the tiny queue fills, and overload
        // surfaces as counted rejections — not as stale verdicts.
        let s = stream();
        let mut c = cfg();
        c.queue_capacity = 64;
        c.max_batch = 64;
        c.shed_policy = ShedPolicy::RejectNew;
        c.recluster_every_batches = 1;
        c.max_staleness_batches = 1;
        let service = FraudService::start(c, s.blacklist.clone());
        let mut rejected = 0u64;
        for t in s.window(0, s.config.days) {
            if service.submit(*t).is_err() {
                rejected += 1;
            }
        }
        let core = service.shutdown().core;
        let t = core.telemetry();
        assert!(rejected > 0, "overload should shed");
        assert_eq!(t.shed_rejected_new.load(Ordering::Relaxed), rejected);
        assert!(t.reclusters.load(Ordering::Relaxed) > 0);
        assert_eq!(core.staleness_batches(), 0, "shutdown reclusters last");
    }

    #[test]
    fn queries_never_block_on_reclustering() {
        let s = stream();
        let core = ServiceCore::new(cfg(), s.blacklist.clone());
        let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
        core.apply_transactions(&all);
        core.recluster_now();
        let core = Arc::new(core);
        let handle = QueryHandle {
            core: Arc::clone(&core),
        };
        // Hammer queries from this thread while a recluster runs in
        // another; every query must complete well inside the recluster's
        // wall time.
        let reclusterer = {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                for _ in 0..3 {
                    core.recluster_now();
                }
            })
        };
        for i in 0..50_000u32 {
            let _ = handle.score(i % 1_000);
        }
        reclusterer.join().unwrap();
        let t = core.telemetry();
        assert_eq!(t.queries.load(Ordering::Relaxed), 50_000);
        // p99 query latency stays microseconds even with reclusters
        // running: pointer-clone + two binary searches.
        let p99 = t.query_latency.quantile(0.99);
        assert!(p99 < 1_000_000, "p99 query latency {p99} ns");
    }
}
