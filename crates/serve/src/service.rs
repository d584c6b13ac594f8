//! The always-on service: ingest → window → recluster → verdicts, wired
//! together with plain threads and channels — and supervised, so it
//! *stays* always-on under partial failure.
//!
//! Two layers:
//!
//! * [`ServiceCore`] — the synchronous heart: apply a micro-batch, run a
//!   recluster, look up a verdict, write/restore a checkpoint. No threads
//!   of its own; tests and the determinism suite drive it step by step.
//! * [`FraudService`] — the threaded shell around one core, the same
//!   shell the fleet's [`ShardRouter`](crate::ShardRouter) runs: a
//!   supervised **batcher** worker drains the ingest queue into
//!   micro-batches and applies them, and a supervised **recluster**
//!   worker rebuilds verdicts when poked. Queries keep being served from
//!   the last good snapshot whatever the workers do — every lock on the
//!   query and telemetry paths recovers from poisoning instead of
//!   propagating it.
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
use crate::exchange::ShardFrame;
use crate::health::{HealthMonitor, HealthReport, HealthState};
use crate::ingest::{IngestGate, Submitted};
use crate::query::{FraudScorer, Verdict, VerdictSnapshot};
use crate::recluster::{absorb_outcome, LpMemo, ReclusterMode, ReclusterRequest, ReclusterRun};
use crate::shell::{Core, Front, Shell};
use crate::stamped::{admit, record_admission, StampedWindow};
use crate::supervisor::WorkerOutcome;
use crate::swap::EpochCell;
use crate::telemetry::Telemetry;
use crate::unpoison;
use crate::FaultPlan;
use glp_fraud::checkpoint::WindowCheckpoint;
use glp_fraud::{RecordError, Transaction};
use glp_trace::{Category, Clock, Tracer};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The live blacklist seeds, always canonical (sorted, deduplicated).
/// Mutable because label noise is real: entries get retracted and added
/// while the service runs. [`Self::update`] is the only place seeds are
/// canonicalised, so "did the seed set change" is a comparison of two
/// canonical lists from construction on. A fleet's shards share the
/// fleet's one list.
pub(crate) struct Blacklist(Mutex<Vec<u32>>);

impl Blacklist {
    pub(crate) fn new(seeds: Vec<u32>) -> Self {
        let list = Self(Mutex::new(Vec::new()));
        list.update(&seeds, &[]);
        list
    }

    /// The current seeds.
    pub(crate) fn get(&self) -> Vec<u32> {
        unpoison(self.0.lock()).clone()
    }

    /// Inserts `add`, retracts `remove`; returns whether the effective
    /// seed set changed.
    pub(crate) fn update(&self, add: &[u32], remove: &[u32]) -> bool {
        let mut bl = unpoison(self.0.lock());
        let before = bl.clone();
        bl.extend_from_slice(add);
        bl.sort_unstable();
        bl.dedup();
        bl.retain(|u| !remove.contains(u));
        *bl != before
    }
}

/// The synchronous scoring core — a stamped window, a blacklist, the
/// warm-start memo and a verdict cell — shared by the service threads,
/// the tests, the bench harness, and the sharded fleet, which routes to
/// N of them ([`FleetCore`](crate::router::FleetCore)).
///
/// A core takes transactions through one of two doors. Standalone, it is
/// its own authority: [`Self::apply`] validates and stamps from the
/// core's own counter. As a fleet shard it is fed
/// [`Self::apply_stamped`]: only the transactions whose buyer the
/// [`Partitioner`](crate::partition::Partitioner) routes to it, already
/// validated and stamped by the router, plus the *fleet's* day watermark.
pub struct ServiceCore {
    cfg: ServeConfig,
    state: Mutex<StampedWindow>,
    /// The previous recluster's memo; the lock also serializes
    /// reclusters, so at most one LP run consumes/produces it at a time.
    recluster: Mutex<Option<LpMemo>>,
    /// The seeds scoring reads; a fleet shard shares the fleet's.
    pub(crate) blacklist: Arc<Blacklist>,
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
    /// the recluster span via the same handle. Fleet shards have none.
    tracer: Option<Tracer>,
    faults: Option<Arc<FaultPlan>>,
}

impl ServiceCore {
    /// A core with an empty window and the given blacklist seeds.
    pub fn new(cfg: ServeConfig, blacklist: Vec<u32>) -> Self {
        let window = StampedWindow::empty(cfg.pipeline.window_days);
        Self::from_state(cfg, blacklist, window, 0, 0, &[])
    }

    /// A core resuming from a decoded checkpoint: the window with its
    /// stamps, batch clock, snapshot epoch, and monotonic telemetry
    /// counters all continue where the checkpoint left them. Fails if
    /// the checkpoint violates window invariants or disagrees with
    /// `cfg.pipeline.window_days`.
    pub fn restore(
        cfg: ServeConfig,
        blacklist: Vec<u32>,
        ckpt: &WindowCheckpoint,
    ) -> Result<Self, RecordError> {
        let window = StampedWindow::from_checkpoint(ckpt, cfg.pipeline.window_days)?;
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
        // default-empty snapshot. (A fleet follows with an exchange round
        // once every shard is up — see `FleetCore::restore`.)
        core.recluster_now();
        Ok(core)
    }

    pub(crate) fn from_state(
        cfg: ServeConfig,
        blacklist: Vec<u32>,
        window: StampedWindow,
        batches_applied: u64,
        snapshot_epoch: u64,
        counters: &[u64],
    ) -> Self {
        let telemetry = Arc::new(Telemetry::new());
        telemetry.restore_counters(counters);
        let initial = VerdictSnapshot {
            as_of_batch: batches_applied,
            ..VerdictSnapshot::default()
        };
        Self {
            window_end: Arc::new(AtomicU32::new(window.end())),
            state: Mutex::new(window),
            recluster: Mutex::new(None),
            health: Arc::new(HealthMonitor::for_config(&cfg)),
            cfg,
            blacklist: Arc::new(Blacklist::new(blacklist)),
            verdicts: EpochCell::with_epoch(initial, snapshot_epoch),
            telemetry,
            batches_applied: AtomicU64::new(batches_applied),
            tracer: None,
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
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The attached fault plan, if any.
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
        self.blacklist.get()
    }

    /// Applies blacklist churn: `add` entries are inserted, `remove`
    /// entries retracted (label noise being withdrawn). Returns whether
    /// the effective seed set changed; a change is counted in
    /// `blacklist_revisions`. The next recluster scores against the new
    /// seeds whichever path it takes: the LP trajectory a replay reuses
    /// never reads a seed. A fleet's shards share the fleet's list, so
    /// there the fleet-level
    /// [`FleetCore::update_blacklist`](crate::router::FleetCore::update_blacklist)
    /// is the one to call.
    pub fn update_blacklist(&self, add: &[u32], remove: &[u32]) -> bool {
        let changed = self.blacklist.update(add, remove);
        if changed {
            self.telemetry
                .blacklist_revisions
                .fetch_add(1, Ordering::Relaxed);
        }
        changed
    }

    /// Micro-batches applied so far (as a fleet shard: fleet batches
    /// absorbed — empty sub-batches count, the watermark still advanced).
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

    /// The window's exclusive end day (as a fleet shard: the fleet
    /// watermark after every routed batch).
    pub fn window_end(&self) -> u32 {
        self.window_end.load(Ordering::Acquire)
    }

    /// The highest sequence stamp currently in the window, if any —
    /// what a restored fleet resumes its stamp counter from.
    pub fn last_seq(&self) -> Option<u64> {
        self.state().last_seq()
    }

    /// A consistent copy of this core's log with its sequence stamps,
    /// attributed to `shard` — its contribution to the cross-shard
    /// exchange.
    pub fn frame(&self, shard: usize) -> ShardFrame {
        self.state().frame(shard)
    }

    /// Opens a wall-clock serve span when a tracer is attached.
    fn span(&self, name: &'static str) {
        if let Some(t) = &self.tracer {
            t.begin(Category::Serve, name, Clock::Wall, t.wall_now());
        }
    }

    /// Closes the innermost span [`Self::span`] opened.
    fn end_span(&self) {
        if let Some(t) = &self.tracer {
            t.end(t.wall_now());
        }
    }

    fn state(&self) -> MutexGuard<'_, StampedWindow> {
        unpoison(self.state.lock())
    }

    /// The previous recluster's memo, locked: holding it keeps every
    /// other recluster waiting.
    pub(crate) fn memo(&self) -> MutexGuard<'_, Option<LpMemo>> {
        unpoison(self.recluster.lock())
    }

    /// Validates one submitted micro-batch, stamps what it admits from
    /// the core's own counter, applies it, and records ingest telemetry.
    /// Invalid transactions that slipped past the gate (or were corrupted
    /// after it) are shed here — counted as `rejected_invalid` — instead
    /// of being allowed to corrupt the window or panic the apply. Returns
    /// the new applied-batch count.
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
        // Admitted under the window lock, against the window's own end:
        // the filter stays authoritative whoever else holds a handle.
        let state = self.state();
        let (mut end, mut next) = (state.end(), state.next_seq());
        let accepted = admit(batch, &mut end, || {
            next += 1;
            next - 1
        });
        let applied = self.absorb(state, &accepted, end);
        record_admission(&self.telemetry, batch, accepted.len());
        self.end_span();
        applied
    }

    /// Convenience for synchronous callers: stamps and applies raw
    /// transactions as one micro-batch.
    pub fn apply_transactions(&self, txs: &[Transaction]) -> u64 {
        self.apply(&Submitted::now(txs))
    }

    /// Applies one routed, *pre-validated* sub-batch and advances the
    /// window to `watermark` — the fleet shard's door. The router has
    /// already filtered non-finite amounts and day regressions against
    /// the running global end, and the sub-batch preserves global arrival
    /// order, so the day-monotonicity invariant of `apply_batch` holds by
    /// construction. An empty sub-batch still advances the window and the
    /// batch clock. Returns the new applied-batch count.
    pub fn apply_stamped(&self, batch: &[(u64, Transaction)], watermark: u32) -> u64 {
        let applied = self.absorb(self.state(), batch, watermark);
        if !batch.is_empty() {
            self.telemetry.record_batch(batch.len());
        }
        applied
    }

    /// The one write into the window, shared by both doors.
    fn absorb(
        &self,
        mut state: MutexGuard<'_, StampedWindow>,
        batch: &[(u64, Transaction)],
        watermark: u32,
    ) -> u64 {
        if let Some(plan) = &self.faults {
            // Fires while the window mutex is held: poisons the lock.
            plan.maybe_panic_in_apply(self.batches_applied());
        }
        state.apply(batch, watermark);
        self.window_end.store(state.end(), Ordering::Release);
        drop(state);
        self.batches_applied.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Materializes the current window (with its delta), reclusters it —
    /// incrementally when the previous run's memo covers the delta, from
    /// scratch otherwise or every [`ServeConfig::full_recluster_every`]
    /// incremental runs — and publishes the verdict snapshot. The window
    /// lock is held only for the materialization (a patch of the previous
    /// graph, or a rebuild from the live log after expiry); LP and scoring
    /// run on the immutable result. Returns what ran: the mode, the wall
    /// seconds, and the frontier the LP consumed. (A fleet round runs its
    /// shards' reclusters concurrently, up to one per core, so with a core
    /// per shard the max of their `wall_seconds` is the round's shard
    /// phase.)
    pub fn recluster_now(&self) -> ReclusterRun {
        let started = Instant::now();
        self.span("recluster");
        // The memo lock is held across the whole run: concurrent
        // reclusters serialize, so each consumes the memo of the run
        // directly before it.
        let mut memo = self.memo();
        let (workload, delta, window_end, as_of) = {
            let mut s = self.state();
            let (workload, delta) = s.window().materialize_delta();
            (
                workload,
                delta,
                s.end(),
                self.batches_applied.load(Ordering::Relaxed),
            )
        };
        let mut mode = ReclusterMode::Full;
        let mut frontier = 0usize;
        let snapshot = if workload.graph.num_vertices() == 0 {
            // Nothing to cluster yet: publish the empty scoring. No LP
            // ran, so no incremental/full decision is recorded; the kept
            // memo cannot cover the refilled window's delta, whose
            // `prev_*` stamp is this empty one.
            VerdictSnapshot {
                window_end,
                as_of_batch: as_of,
                ..VerdictSnapshot::default()
            }
        } else {
            let blacklist = self.blacklist();
            let outcome = ReclusterRequest::full(&workload, &blacklist, &self.cfg)
                .warm_from(memo.as_ref(), &delta)
                .stamped(as_of, window_end)
                .with_tracer(self.tracer.as_ref())
                .run();
            absorb_outcome(&self.telemetry, &self.health, &outcome);
            mode = outcome.mode;
            frontier = outcome.frontier;
            *memo = outcome.memo;
            outcome.snapshot
        };
        self.span("swap");
        self.verdicts.publish(snapshot);
        self.end_span();
        self.telemetry.reclusters.fetch_add(1, Ordering::Relaxed);
        self.end_span();
        ReclusterRun {
            mode,
            wall_seconds: started.elapsed().as_secs_f64(),
            frontier,
        }
    }

    /// Persists the current window with its sequence stamps (plus batch
    /// clock, snapshot epoch, and monotonic counters) to `path` via an
    /// atomic temp-file write. Failures are counted
    /// (`checkpoint_failures`) and returned; the previous checkpoint on
    /// disk is never damaged by a failed write. An attached fault plan's
    /// `Fault::CheckpointFail` due at the image's batch count fails the
    /// write before the filesystem is touched. Returns the batch count the
    /// persisted image carries — the core's *durable* progress, which the
    /// fleet router uses as its journal-truncation watermark.
    pub fn checkpoint(&self, path: &Path) -> Result<u64, RecordError> {
        self.span("checkpoint");
        let ckpt = self.state().capture(
            self.batches_applied.load(Ordering::Relaxed),
            self.verdicts.epoch(),
            self.telemetry.counters_snapshot(),
        );
        let injected = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.checkpoint_fail_due(ckpt.batches_applied));
        // The write itself runs outside the window lock.
        let written = if injected {
            Err(RecordError::Io(std::io::Error::other(
                "injected fault: checkpoint-fail",
            )))
        } else {
            ckpt.write_atomic(path)
        };
        let result = match written {
            Ok(()) => {
                self.telemetry
                    .checkpoints_written
                    .fetch_add(1, Ordering::Relaxed);
                Ok(ckpt.batches_applied)
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

    /// Replaces this core's entire window state in one swap — the
    /// failover path: the caller has reconstructed the window and its
    /// stamps offline (checkpoint image + journal replay) and installs
    /// the result here before [`HealthMonitor::revive`]-ing the shard.
    /// Clears a poison left by the crash that killed the shard: the dying
    /// apply is the reason this rebuild exists, and its partial state is
    /// discarded wholesale by the swap.
    pub(crate) fn rebuild_from(&self, window: StampedWindow, batches_applied: u64) {
        self.state.clear_poison();
        self.window_end.store(window.end(), Ordering::Release);
        // The kept memo describes the discarded window, but the rebuilt
        // window has no baseline: its first delta reports `expired`, so
        // the next recluster runs full.
        *self.state() = window;
        self.batches_applied
            .store(batches_applied, Ordering::Relaxed);
    }

    /// The freshest published snapshot.
    pub fn snapshot(&self) -> Arc<VerdictSnapshot> {
        self.verdicts.load()
    }

    /// Snapshots published so far.
    pub fn epoch(&self) -> u64 {
        self.verdicts.epoch()
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
        self.core.telemetry.queries.fetch_add(1, Ordering::Relaxed);
        self.core.verdicts.load().verdict(user)
    }

    fn snapshot(&self) -> Arc<VerdictSnapshot> {
        self.core.verdicts.load()
    }
}

/// How [`FraudService::shutdown`] went: the core for final inspection
/// plus each supervised worker's outcome.
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

/// The threaded always-on service: the threaded shell around one
/// [`ServiceCore`].
pub struct FraudService(Shell<ServiceCore>);

impl FraudService {
    /// Starts the service: spawns the supervised batcher and recluster
    /// workers.
    pub fn start(cfg: ServeConfig, blacklist: Vec<u32>) -> Self {
        Self::start_on(ServiceCore::new(cfg, blacklist))
    }

    /// Starts the service with a fault plan attached: every hook in the
    /// worker loops consults the plan, so the scheduled faults fire at
    /// their batch/recluster indices.
    pub fn start_with_faults(cfg: ServeConfig, blacklist: Vec<u32>, plan: Arc<FaultPlan>) -> Self {
        Self::start_on(ServiceCore::new(cfg, blacklist).with_faults(plan))
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
    ) -> Result<Self, RecordError> {
        let ckpt = WindowCheckpoint::read(path)?;
        Ok(Self::start_on(ServiceCore::restore(cfg, blacklist, &ckpt)?))
    }

    fn start_on(core: ServiceCore) -> Self {
        let core = Arc::new(core);
        Self(Shell::start(Arc::clone(&core), vec![core]))
    }

    /// A producer-side submission gate (cloneable).
    pub fn gate(&self) -> IngestGate {
        self.0.gate.clone()
    }

    /// Submits one transaction through the service's own gate.
    pub fn submit(&self, tx: Transaction) -> Result<(), Transaction> {
        self.0.gate.submit(tx)
    }

    /// A query handle (cloneable).
    pub fn handle(&self) -> QueryHandle {
        QueryHandle {
            core: Arc::clone(&self.0.core),
        }
    }

    /// The synchronous core (telemetry, staleness, snapshots).
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.0.core
    }

    /// The current health observation.
    pub fn health(&self) -> HealthReport {
        self.0.core.health()
    }

    /// Runs a recluster on the caller's thread right now and reports
    /// what ran — the same trigger name and return type as
    /// [`ServiceCore::recluster_now`] and the fleet's
    /// [`FleetCore::recluster_now`](crate::router::FleetCore::recluster_now).
    /// The memo lock serializes this with the recluster worker, so
    /// a forced run never races a scheduled one.
    pub fn recluster_now(&self) -> ReclusterRun {
        self.0.core.recluster_now()
    }

    /// Stops the service: closes the ingest queue, lets the batcher
    /// drain what is already queued, joins both supervisors, then runs
    /// one final recluster so the last batches are scored and writes a
    /// final checkpoint when configured. Worker panics along the way are
    /// *reported*, not re-thrown — a service that lost a worker still
    /// shuts down in order. Any gates cloned out of the service must be
    /// dropped first, or the queue never reads as closed.
    pub fn shutdown(self) -> ShutdownReport {
        let (core, outcomes) = self.0.shutdown();
        let [batcher, recluster] =
            <[WorkerOutcome; 2]>::try_from(outcomes).expect("a batcher and a recluster worker");
        ShutdownReport {
            state: core.health().state,
            batcher,
            recluster,
            core,
        }
    }
}

impl Core for ServiceCore {
    fn front(&self) -> Front {
        Front {
            name: "batcher",
            cfg: self.cfg.clone(),
            health: Arc::clone(&self.health),
            telemetry: Arc::clone(&self.telemetry),
            window_end: Arc::clone(&self.window_end),
            tracer: self.tracer.clone(),
            exchange_every: None,
            plan: self.faults.clone(),
        }
    }

    fn apply_batch(&self, batch: &[Submitted]) -> u64 {
        self.apply(batch)
    }

    fn applied(&self) -> u64 {
        self.batches_applied()
    }

    fn save(&self) {
        if let Some(path) = &self.cfg.checkpoint_path {
            let _ = self.checkpoint(path);
        }
    }

    fn refresh(&self) {
        self.recluster_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShedPolicy;
    use glp_fraud::{TxConfig, TxStream};
    use std::thread;
    use std::time::Duration;
    use {
        crate::shell::recluster_loop,
        crate::supervisor::{supervise, RestartPolicy},
        crossbeam::channel::bounded,
        std::cell::Cell,
    };

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
        let mut latency: Vec<Duration> = (0..50_000u32)
            .map(|i| {
                let t0 = Instant::now();
                let _ = handle.score(i % 1_000);
                t0.elapsed()
            })
            .collect();
        reclusterer.join().unwrap();
        let t = core.telemetry();
        assert_eq!(t.queries.load(Ordering::Relaxed), 50_000);
        // p99 query latency stays microseconds even with reclusters
        // running: pointer-clone + two binary searches.
        latency.sort_unstable();
        let p99 = latency[latency.len() * 99 / 100];
        assert!(p99 < Duration::from_millis(1), "p99 query latency {p99:?}");
    }

    /// A stall claimed by an incremental recluster — which launches no
    /// kernel — is served there: the poke that claims it publishes no
    /// sooner than the stall ends, and the full recluster after it, on the
    /// same worker thread, is not slowed by it.
    #[test]
    fn a_stall_is_served_by_the_recluster_that_claims_it() {
        use crate::Fault;
        const STALL: Duration = Duration::from_millis(150);
        let s = stream();
        let mut c = cfg();
        c.delta_fraction_max = 1.0;
        // One incremental run, then a full one.
        c.full_recluster_every = 1;
        let day0: Vec<Transaction> = s.window(0, 1).copied().collect();
        let (first, rest) = day0.split_at(day0.len() / 2);
        let (second, third) = rest.split_at(rest.len() / 2);
        let plan = Arc::new(FaultPlan::new([Fault::ReclusterStall {
            at_recluster: 1,
            millis: STALL.as_millis() as u64,
        }]));
        let core = Arc::new(ServiceCore::new(c, s.blacklist.clone()).with_faults(plan));
        core.apply_transactions(first);
        assert_eq!(core.recluster_now().mode, ReclusterMode::Full);
        let (tx, rx) = bounded(1);
        let worker = {
            let core = Arc::clone(&core);
            thread::spawn(move || recluster_loop(&core, &rx, &Cell::new(false)))
        };
        // Apply, poke the worker, and wait for its snapshot.
        let poke = |txs: &[Transaction]| {
            core.apply_transactions(txs);
            let epoch = core.epoch();
            let started = Instant::now();
            tx.send(()).expect("worker alive");
            while core.epoch() == epoch {
                thread::sleep(Duration::from_micros(100));
            }
            started.elapsed()
        };
        let t = Arc::clone(core.telemetry());
        let stalled = poke(second);
        assert_eq!(t.reclusters_incremental.load(Ordering::Relaxed), 1);
        assert!(stalled >= STALL, "stall not served: {stalled:?}");
        let after = poke(third);
        assert_eq!(t.reclusters_full.load(Ordering::Relaxed), 2);
        assert!(
            after < STALL,
            "the stall leaked into a later recluster: {after:?}"
        );
        drop(tx);
        worker.join().expect("worker exits cleanly");
    }

    #[test]
    fn a_restarted_recluster_worker_serves_the_poke_its_crash_lost() {
        use crate::Fault;
        let s = stream();
        let plan = Arc::new(FaultPlan::new([Fault::ReclusterPanic { at_recluster: 0 }]));
        let core = Arc::new(ServiceCore::new(cfg(), s.blacklist.clone()).with_faults(plan));
        let day0: Vec<Transaction> = s.window(0, 1).copied().collect();
        core.apply_transactions(&day0);
        // One poke, then the channel closes: no later traffic will poke
        // the restarted worker.
        let (tx, rx) = bounded(1);
        tx.send(()).expect("capacity 1");
        drop(tx);
        let (worker, status) = {
            let core = Arc::clone(&core);
            let owed = Cell::new(false);
            supervise(
                "recluster",
                Arc::clone(&core.health),
                Arc::clone(core.telemetry()),
                RestartPolicy::for_config(&core.cfg),
                move || recluster_loop(&core, &rx, &owed),
            )
        };
        worker.join().expect("supervisor threads do not panic");
        assert_eq!(status.outcome(), WorkerOutcome::Clean { panics: 1 });
        assert_eq!(core.telemetry().reclusters.load(Ordering::Relaxed), 1);
        assert_eq!(core.staleness_batches(), 0);
        assert_eq!(core.health().state, HealthState::Healthy);
    }

    /// A fleet-shard-shaped fixture: an 8-day window over a 12-day
    /// stream, so expiry pops the front of the log.
    fn shard_stream() -> TxStream {
        TxStream::generate(&TxConfig {
            num_users: 800,
            num_items: 300,
            days: 12,
            tx_per_day: 500,
            num_rings: 2,
            ring_size: 10,
            ring_tx_per_day: 25,
            blacklist_fraction: 0.3,
            ..Default::default()
        })
    }

    fn shard_cfg() -> ServeConfig {
        ServeConfig {
            engine_shards: 2,
            ..ServeConfig::default()
        }
        .with_window_days(8)
    }

    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("glp-core-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("core.ckpt")
    }

    #[test]
    fn shard_window_tracks_the_fleet_watermark() {
        let s = shard_stream();
        let shard = ServiceCore::new(shard_cfg(), s.blacklist.clone());
        let mut seq = 0u64;
        for day in 0..s.config.days {
            // Route only even buyers here; the watermark still advances
            // on days where this shard sees nothing.
            let batch: Vec<(u64, Transaction)> = s
                .window(day, day + 1)
                .filter(|t| t.buyer % 2 == 0)
                .map(|&t| {
                    seq += 1;
                    (seq, t)
                })
                .collect();
            shard.apply_stamped(&batch, day + 1);
            assert_eq!(shard.window_end(), day + 1);
        }
        assert_eq!(shard.batches_applied(), u64::from(s.config.days));
        let frame = shard.frame(1);
        assert_eq!(frame.shard, 1);
        assert_eq!(frame.end, s.config.days);
        assert!(frame.txs.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(frame.txs.iter().all(|(_, t)| t.buyer % 2 == 0));
        // Expiry kept stamps parallel to the log: only the last
        // `window_days` days remain.
        assert!(frame.txs.iter().all(|(_, t)| t.day + 8 >= s.config.days));
        shard.recluster_now();
        assert_eq!(shard.snapshot().window_end, s.config.days);
    }

    #[test]
    fn shard_checkpoint_roundtrips_with_stamps() {
        let s = shard_stream();
        let path = ckpt_path("shard");
        let shard = ServiceCore::new(shard_cfg(), s.blacklist.clone());
        let mut seq = 10u64;
        for day in 0..s.config.days {
            let batch: Vec<(u64, Transaction)> = s
                .window(day, day + 1)
                .filter(|t| t.buyer % 2 == 1)
                .map(|&t| {
                    seq += 3; // sparse, non-contiguous stamps survive
                    (seq, t)
                })
                .collect();
            shard.apply_stamped(&batch, day + 1);
        }
        shard.recluster_now();
        shard.checkpoint(&path).unwrap();
        let ckpt = WindowCheckpoint::read(&path).unwrap();
        let restored = ServiceCore::restore(shard_cfg(), s.blacklist.clone(), &ckpt).unwrap();
        assert_eq!(restored.batches_applied(), shard.batches_applied());
        assert_eq!(restored.last_seq(), shard.last_seq());
        let (a, b) = (shard.frame(0), restored.frame(0));
        assert_eq!(a.txs.len(), b.txs.len());
        assert!(a.txs.iter().zip(&b.txs).all(|(x, y)| x.0 == y.0));
        assert_eq!(
            shard.snapshot().canonical_bytes(),
            restored.snapshot().canonical_bytes(),
            "restored shard must score byte-identically"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn an_image_carrying_a_deleted_last_counter_restores_every_kept_one() {
        // Images written while `probe_evaluations` was the 24th and last
        // checkpointed counter carry one value more than a core keeps:
        // a restore takes the kept ones in checkpoint order and ignores
        // the extra one.
        let s = shard_stream();
        let path = ckpt_path("longer-counters");
        let core = ServiceCore::new(shard_cfg(), s.blacklist.clone());
        let txs: Vec<Transaction> = s.window(0, 2).copied().collect();
        core.apply_transactions(&txs);
        core.checkpoint(&path).unwrap();
        let mut image = WindowCheckpoint::read(&path).unwrap();
        let kept = image.counters.len();
        // Counter i holds 1 000 (i + 1), so a value landing in the wrong
        // cell shows.
        let parent: Vec<u64> = (1..=kept as u64 + 1).map(|i| i * 1_000).collect();
        image.counters = parent.clone();
        image.write_atomic(&path).unwrap();
        let ckpt = WindowCheckpoint::read(&path).unwrap();
        assert_eq!(ckpt.counters, parent);
        let restored = ServiceCore::restore(shard_cfg(), s.blacklist.clone(), &ckpt).unwrap();
        let got = restored.telemetry().counters_snapshot();
        assert_eq!(got.len(), kept);
        assert!(got.iter().zip(&parent).all(|(g, p)| g / 1_000 == p / 1_000));
        // On top of the image, `restore` ran exactly one full recluster.
        let moved: u64 = got.iter().zip(&parent).map(|(g, p)| g - p).sum();
        assert_eq!(moved, 2);
        let snap = restored.telemetry().snapshot();
        assert_eq!(snap.counter("reclusters") % 1_000, 1);
        assert_eq!(snap.counter("reclusters_full") % 1_000, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn single_core_persists_its_stamps_and_still_reads_unstamped_images() {
        use crate::config::FleetConfig;
        use crate::partition::Partitioner;
        use crate::router::FleetCore;
        let s = shard_stream();
        let path = ckpt_path("single");
        let core = ServiceCore::new(shard_cfg(), s.blacklist.clone());
        for day in 0..s.config.days {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            core.apply_transactions(&txs);
        }
        core.recluster_now();
        let frame = core.frame(0);
        assert!(
            frame.txs[0].0 > 0,
            "expiry popped the log's front: stamps are no longer log positions"
        );
        core.checkpoint(&path).unwrap();
        let ckpt = WindowCheckpoint::read(&path).unwrap();
        assert_eq!(ckpt.seqs.len(), frame.txs.len());

        // checkpoint → restore round-trips the frame exactly.
        let restored = ServiceCore::restore(shard_cfg(), s.blacklist.clone(), &ckpt).unwrap();
        let back = restored.frame(0);
        assert_eq!((back.days, back.end), (frame.days, frame.end));
        assert_eq!(back.txs, frame.txs);
        // And the restored core keeps stamping above the image's maximum.
        let next_day: Vec<Transaction> = s
            .window(s.config.days - 1, s.config.days)
            .copied()
            .collect();
        restored.apply_transactions(&next_day[..1]);
        assert_eq!(restored.last_seq(), core.last_seq().map(|m| m + 1));

        // A fleet migrated from that image resumes stamping above it too.
        let fleet_cfg = FleetConfig {
            shard: shard_cfg(),
            shards: 2,
            ..FleetConfig::default()
        };
        let fleet = FleetCore::migrate_from_single(
            fleet_cfg,
            Partitioner::hashed(2, 7),
            s.blacklist.clone(),
            &ckpt,
        )
        .unwrap();
        fleet.apply_transactions(&next_day[..1]);
        let max_stamp = fleet.shards().iter().filter_map(|c| c.last_seq()).max();
        assert_eq!(max_stamp, core.last_seq().map(|m| m + 1));

        // An image without stamps restores with log positions and
        // publishes byte-identical verdicts.
        let bare = {
            let mut w = glp_fraud::IncrementalWindow::empty(8);
            let live: Vec<Transaction> = frame.txs.iter().map(|&(_, t)| t).collect();
            w.apply_batch(&live);
            WindowCheckpoint::capture(&w, ckpt.batches_applied, ckpt.snapshot_epoch, vec![])
        };
        assert!(bare.seqs.is_empty());
        let positional = ServiceCore::restore(shard_cfg(), s.blacklist.clone(), &bare).unwrap();
        let stamps: Vec<u64> = positional.frame(0).txs.iter().map(|&(q, _)| q).collect();
        assert_eq!(stamps, (0..frame.txs.len() as u64).collect::<Vec<_>>());
        assert_eq!(
            positional.snapshot().canonical_bytes(),
            core.snapshot().canonical_bytes()
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn validating_and_stamped_doors_agree() {
        // One core validates and stamps for itself; the other is fed the
        // transactions the first one admitted, stamped the same way, with
        // the same watermark — as a fleet router would feed a lone shard.
        let s = shard_stream();
        let own = ServiceCore::new(shard_cfg(), s.blacklist.clone());
        let fed = ServiceCore::new(shard_cfg(), s.blacklist.clone());
        let stale = Transaction {
            buyer: 1,
            item: 2,
            day: 0,
            amount: 1.0,
        };
        let nan = Transaction {
            amount: f32::NAN,
            ..stale
        };
        let (mut seq, mut end, mut invalid) = (0u64, 0u32, 0u64);
        for day in 0..s.config.days {
            let mut batches: Vec<Vec<Transaction>> =
                vec![s.window(day, day + 1).copied().collect()];
            if day == 5 {
                // An entirely invalid batch, then a mixed one.
                batches.push(vec![stale, nan]);
                batches.push(vec![nan, s.window(day, day + 1).next().copied().unwrap()]);
            }
            for batch in batches {
                own.apply_transactions(&batch);
                let mut accepted: Vec<(u64, Transaction)> = Vec::new();
                for &t in &batch {
                    if t.amount.is_finite() && t.day + 1 >= end {
                        end = end.max(t.day + 1);
                        accepted.push((seq, t));
                        seq += 1;
                    }
                }
                invalid += (batch.len() - accepted.len()) as u64;
                fed.apply_stamped(&accepted, end);
            }
            own.recluster_now();
            fed.recluster_now();
            assert_eq!(
                own.snapshot().canonical_bytes(),
                fed.snapshot().canonical_bytes(),
                "day {day}"
            );
        }
        assert_eq!(invalid, 3);
        assert_eq!(
            own.telemetry().rejected_invalid.load(Ordering::Relaxed),
            invalid
        );
        assert_eq!(fed.telemetry().rejected_invalid.load(Ordering::Relaxed), 0);
        assert_eq!(own.batches_applied(), fed.batches_applied());
        assert_eq!(own.batches_applied(), u64::from(s.config.days) + 2);
        let (a, b) = (own.frame(0), fed.frame(0));
        assert_eq!((a.days, a.end), (b.days, b.end));
        assert_eq!(a.txs, b.txs);
    }

    #[test]
    fn blacklist_is_canonical_from_construction() {
        use crate::config::FleetConfig;
        use crate::partition::Partitioner;
        use crate::router::FleetCore;
        let s = stream();
        // An unsorted seed list with a duplicate.
        let mut seeds = s.blacklist.clone();
        seeds.reverse();
        seeds.push(seeds[0]);
        let mut canonical = s.blacklist.clone();
        canonical.sort_unstable();
        canonical.dedup();
        let mut c = cfg();
        c.delta_fraction_max = 1.0;
        let day0: Vec<Transaction> = s.window(0, 1).copied().collect();
        let (first, rest) = day0.split_at(day0.len() / 2);

        let core = ServiceCore::new(c.clone(), seeds.clone());
        assert_eq!(core.blacklist(), canonical);
        core.apply_transactions(first);
        assert_eq!(core.recluster_now().mode, ReclusterMode::Full);
        assert!(!core.update_blacklist(&[], &[]), "nothing changed");
        assert_eq!(
            core.telemetry().snapshot().counter("blacklist_revisions"),
            0
        );
        core.apply_transactions(rest);
        assert_eq!(
            core.recluster_now().mode,
            ReclusterMode::Incremental,
            "a no-op update must not drop the warm memo"
        );

        let fleet_cfg = FleetConfig {
            shard: c,
            shards: 2,
            ..FleetConfig::default()
        };
        let fleet = FleetCore::new(fleet_cfg, Partitioner::hashed(2, 7), seeds);
        assert_eq!(fleet.blacklist(), canonical);
        fleet.apply_transactions(first);
        fleet.exchange_now();
        assert!(!fleet.update_blacklist(&[], &[]), "nothing changed");
        assert_eq!(fleet.fleet_telemetry().counter("blacklist_revisions"), 0);
        assert!(fleet.shards().iter().all(|c| c.blacklist() == canonical));
        fleet.apply_transactions(rest);
        for run in fleet.exchange_now().shard_runs {
            assert_eq!(run.mode, ReclusterMode::Incremental);
        }

        // A real change is one revision fleet-wide: the shards share the
        // fleet's seed list, so nothing fans out and counts it again.
        assert!(fleet.update_blacklist(&[], &canonical[..1]));
        assert_eq!(fleet.fleet_telemetry().counter("blacklist_revisions"), 1);
        assert!(fleet
            .shards()
            .iter()
            .all(|c| c.blacklist() == canonical[1..]));
    }
}
