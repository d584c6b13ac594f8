//! The sharded fleet: a community-aware router fanning micro-batches to
//! N shard cores, with periodic cross-shard label exchange.
//!
//! Two layers, mirroring [`service`](crate::service):
//!
//! * [`FleetCore`] — the synchronous heart: validate and stamp a
//!   micro-batch, fan it out by
//!   [`Partitioner`](crate::partition::Partitioner), recluster shards,
//!   run an exchange round, look up a verdict, checkpoint/restore the
//!   whole fleet. No long-lived threads: a round's shard reclusters and
//!   checkpoint writes fan out over scoped workers, up to one per core,
//!   and are joined before the call returns. The determinism suite
//!   drives it step by step.
//! * [`ShardRouter`] — the threaded shell around the fleet, the same
//!   shell [`FraudService`](crate::FraudService) runs: a supervised
//!   **router** worker drains the ingest queue and fans batches out (its
//!   staleness gate waits on the stalest live shard), one supervised
//!   **recluster** worker per shard refreshes that shard's local
//!   verdicts, and one supervised **exchange** worker reconciles boundary
//!   components into the fleet snapshot.
//!
//! **Routing and validation.** The router is the fleet's single
//! authority on validity and ordering: it filters non-finite amounts and
//! day regressions against the running global watermark, stamps each
//! accepted transaction with a fleet-wide monotone sequence number, and
//! hands every shard its sub-batch *plus* the new watermark — so all
//! shard windows expire in lockstep even on batches where they receive
//! nothing.
//!
//! **Partial failure.** A shard whose apply panics is crash-tracked by
//! its own [`HealthMonitor`]; until its streak reaches `Down` the next
//! routed batch simply retries it, and after that its keyspace is shed
//! (counted in `shed_unhealthy`) while every other shard keeps serving —
//! the fleet reports [`Degraded`](HealthState::Degraded), not `Down`
//! (see [`fleet_state`]). Queries for a dead shard's users fall back to
//! the last reconciled fleet snapshot.
//!
//! **Durability.** Each shard checkpoints its own window (with sequence
//! stamps) to `<base>.shard<i>`; [`FleetCore::restore`] brings the whole
//! fleet back and [`FleetCore::migrate_from_single`] splits a
//! single-core checkpoint across a fleet — both ending with an exchange
//! round so the first query already sees reconciled verdicts.
//!
//! **Journal + failover.** With `wal_dir` configured, the router
//! journals every validated, seq-stamped micro-batch to a write-ahead
//! log ([`glp_fraud::journal`]) *before* fan-out. That single ordering
//! decision buys three recovery paths:
//!
//! * **Automatic shard failover** — a shard that reaches `Down` is no
//!   longer shed forever: the next batch routed its way triggers
//!   [`FleetCore::failover_shard`], which rebuilds the shard's window
//!   from its last checkpoint plus journal replay of the batches after
//!   it (restricted to its keyspace, in router sequence order),
//!   re-admits it via [`HealthMonitor::revive`], and resumes serving —
//!   byte-identical to a fleet that never lost the shard.
//! * **Zero-loss crash-restart** — [`FleetCore::restore`] follows the
//!   checkpoints with [`FleetCore::sync_from_wal`], so every journaled
//!   batch the crash interrupted lands exactly once; a missing or
//!   corrupt shard checkpoint downgrades to a journal-only rebuild of
//!   that shard instead of failing the whole restore.
//! * **The write-ahead crash window** — a crash *between* journal
//!   append and fan-out leaves a batch durable but unapplied; the
//!   router worker replays it on restart before accepting new traffic,
//!   again exactly once.
//!
//! Checkpoints bound the journal: after each fleet checkpoint the
//! segments every shard's durable image already covers are deleted
//! (`wal_truncate_on_checkpoint`).

use crate::config::FleetConfig;
use crate::exchange::{reconcile_with, BoundaryCache, ExchangeReport, FleetSnapshot};
use crate::health::{
    fleet_state, FleetHealthReport, HealthMonitor, HealthState, ShardHealthReport,
};
use crate::ingest::{IngestGate, Submitted};
use crate::partition::Partitioner;
use crate::query::{FraudScorer, Verdict, VerdictSnapshot};
use crate::recluster::{absorb_outcome, ReclusterMode, ReclusterRun};
use crate::service::{Blacklist, ServiceCore};
use crate::shell::{Core, Front, Shell};
use crate::stamped::{admit, record_admission, StampedWindow};
use crate::supervisor::{panic_message, WorkerOutcome};
use crate::swap::EpochCell;
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::unpoison;
use crate::FaultPlan;
use glp_fraud::checkpoint::WindowCheckpoint;
use glp_fraud::journal::{FleetWal, WalRecord};
use glp_fraud::{RecordError, Transaction};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one [`FleetCore::exchange_now`] round cost and found.
#[derive(Clone, Debug)]
pub struct ExchangeOutcome {
    /// What each shard's pre-exchange local recluster ran, in shard
    /// order (a down shard contributes a zero-wall, zero-frontier `Full`
    /// placeholder). The shards recluster concurrently, up to one per
    /// core, so with a core per shard the round's shard phase costs the
    /// max of these walls.
    pub shard_runs: Vec<ReclusterRun>,
    /// What the boundary recluster ran, when one was needed (`None`
    /// when no component spans shards).
    pub boundary_run: Option<ReclusterRun>,
    /// Wall seconds of the boundary reconciliation itself (union-find,
    /// merge, boundary LP, assembly).
    pub exchange_wall: f64,
    /// What the round found.
    pub report: ExchangeReport,
}

/// Why a shard failover ([`FleetCore::failover_shard`]) failed.
#[derive(Debug)]
pub enum FailoverError {
    /// The fleet has no write-ahead journal configured; a dead shard's
    /// post-checkpoint history is unrecoverable and its keyspace stays
    /// shed (the pre-journal behaviour).
    NoJournal,
    /// The journal could not supply the shard's missing history.
    Wal(RecordError),
}

impl std::fmt::Display for FailoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoJournal => write!(f, "failover: no write-ahead journal configured"),
            Self::Wal(e) => write!(f, "failover: {e}"),
        }
    }
}

impl std::error::Error for FailoverError {}

/// One completed shard failover, as recorded in
/// [`FleetCore::failover_events`].
#[derive(Clone, Debug)]
pub struct FailoverEvent {
    /// Which shard was rebuilt.
    pub shard: usize,
    /// Journal records replayed on top of the base image.
    pub replayed_batches: u64,
    /// Whether a checkpoint supplied the base image (`false` = the
    /// shard was rebuilt from the journal alone).
    pub from_checkpoint: bool,
}

/// The merged fleet telemetry: the router's and every shard's counters,
/// GPU totals and kernel profiles folded into one [`TelemetrySnapshot`].
#[derive(Clone, Debug)]
pub struct FleetTelemetry {
    /// Router telemetry plus every shard's, counters summed.
    pub merged: TelemetrySnapshot,
}

impl FleetTelemetry {
    /// The named merged counter's value (see [`TelemetrySnapshot::counter`]).
    pub fn counter(&self, name: &str) -> u64 {
        self.merged.counter(name)
    }
}

/// The synchronous sharded fleet (see module docs).
pub struct FleetCore {
    cfg: FleetConfig,
    partitioner: Partitioner,
    /// The fleet's live blacklist seeds, shared by every shard core and
    /// churned via [`Self::update_blacklist`].
    blacklist: Arc<Blacklist>,
    /// One scoring core per shard, fed through
    /// [`ServiceCore::apply_stamped`].
    shards: Vec<Arc<ServiceCore>>,
    fleet: EpochCell<FleetSnapshot>,
    /// Router-level telemetry (ingest, routing, exchange); shard cores
    /// have their own blocks, merged by [`Self::fleet_telemetry`].
    telemetry: Arc<Telemetry>,
    /// Router-level health; per-shard monitors live in the shard cores.
    health: Arc<HealthMonitor>,
    batches_applied: AtomicU64,
    /// Global day watermark, mirrored for the ingest gate.
    window_end: Arc<AtomicU32>,
    /// Next fleet-wide sequence stamp.
    next_seq: AtomicU64,
    /// The write-ahead batch journal (None = journaling off). Locked
    /// only on the router thread's append and the (rare) recovery
    /// reads; never on the query path.
    wal: Option<Mutex<FleetWal>>,
    /// Per-shard durable progress: the `batches_applied` of each
    /// shard's newest on-disk checkpoint. `min` over these is the
    /// journal-truncation watermark — a Down shard pins its last good
    /// image here, so the journal retains exactly what its failover
    /// will need.
    durable: Vec<AtomicU64>,
    /// Completed failovers, in completion order.
    failover_log: Mutex<Vec<FailoverEvent>>,
    /// Set when a shard's failover hit a permanent journal gap: retrying
    /// every batch would fail identically, so the shard stays shed until
    /// a process-level recovery.
    failover_blocked: Vec<AtomicBool>,
    /// Carry-over state of the boundary recluster, letting consecutive
    /// exchange rounds go incremental when the spanning set only grew
    /// (see [`BoundaryCache`]). A stale cache is safe — its prefix check
    /// falls back to a full boundary recluster — so recovery paths never
    /// need to reset it.
    boundary: Mutex<BoundaryCache>,
    faults: Option<Arc<FaultPlan>>,
}

/// Opens the configured journal, if any.
fn open_wal(cfg: &FleetConfig) -> Result<Option<FleetWal>, RecordError> {
    cfg.wal_dir
        .as_ref()
        .map(|dir| FleetWal::open(dir, cfg.wal_segment_bytes))
        .transpose()
}

impl FleetCore {
    /// A fleet of `cfg.shards` empty shard cores.
    pub fn new(cfg: FleetConfig, partitioner: Partitioner, blacklist: Vec<u32>) -> Self {
        assert_eq!(
            partitioner.shards(),
            cfg.shards,
            "partitioner and fleet disagree on shard count"
        );
        let wal = open_wal(&cfg).expect("the configured journal directory must be openable");
        let shards = (0..cfg.shards)
            .map(|_| ServiceCore::new(cfg.shard.clone(), blacklist.clone()))
            .collect();
        Self::assemble(cfg, partitioner, blacklist, shards, wal)
    }

    /// Restores a whole fleet from its per-shard checkpoints
    /// (`<base>.shard<i>` for every `i`) plus, when a journal is
    /// configured, a replay of every journaled batch the checkpoints
    /// don't cover — so a crash loses nothing that reached the journal.
    /// With a journal, a missing or corrupt shard checkpoint downgrades
    /// to rebuilding that shard from the journal alone (which requires
    /// the journal to still hold its full history — see
    /// `wal_truncate_on_checkpoint`). Ends with one exchange round so
    /// queries see reconciled verdicts before any new traffic.
    pub fn restore(
        cfg: FleetConfig,
        partitioner: Partitioner,
        blacklist: Vec<u32>,
    ) -> Result<Self, RecordError> {
        assert_eq!(partitioner.shards(), cfg.shards);
        let wal = open_wal(&cfg)?;
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut durables = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let restored = match cfg.shard_checkpoint_path(i) {
                None => Err(RecordError::Invalid("no checkpoint path configured")),
                Some(path) => WindowCheckpoint::read(&path).and_then(|ckpt| {
                    ServiceCore::restore(cfg.shard.clone(), blacklist.clone(), &ckpt)
                        .map(|core| (core, ckpt.batches_applied))
                }),
            };
            let (core, durable) = match restored {
                Ok(restored) => restored,
                Err(e) if wal.is_none() => return Err(e),
                // Unreadable image, journal available: start this shard
                // empty and let `sync_from_wal` replay its entire history
                // from the journal.
                Err(_) => (ServiceCore::new(cfg.shard.clone(), blacklist.clone()), 0),
            };
            shards.push(core);
            durables.push(durable);
        }
        let core = Self::assemble(cfg, partitioner, blacklist, shards, wal);
        for (cell, durable) in core.durable.iter().zip(durables) {
            cell.store(durable, Ordering::Relaxed);
        }
        core.sync_from_wal()?;
        core.exchange_now();
        Ok(core)
    }

    /// Splits one single-core checkpoint (written by a standalone
    /// [`ServiceCore`]) across a fleet: the window partitions by routed
    /// buyer with every transaction keeping its stamp (log positions
    /// when the image predates stamps — a single log is already in
    /// arrival order), and an exchange round reconciles before anything
    /// is served — the scale-out migration path.
    pub fn migrate_from_single(
        cfg: FleetConfig,
        partitioner: Partitioner,
        blacklist: Vec<u32>,
        ckpt: &WindowCheckpoint,
    ) -> Result<Self, RecordError> {
        assert_eq!(partitioner.shards(), cfg.shards);
        let wal = open_wal(&cfg).expect("the configured journal directory must be openable");
        let shards = StampedWindow::from_checkpoint(ckpt, cfg.shard.pipeline.window_days)?
            .partition_by(cfg.shards, |u| partitioner.shard_of(u))
            .into_iter()
            .enumerate()
            .map(|(i, window)| {
                // Monotonic counters describe the single core's whole
                // history; shard 0 inherits them so the fleet total is
                // continuous rather than N-fold.
                let counters: &[u64] = if i == 0 { &ckpt.counters } else { &[] };
                ServiceCore::from_state(
                    cfg.shard.clone(),
                    blacklist.clone(),
                    window,
                    ckpt.batches_applied,
                    ckpt.snapshot_epoch,
                    counters,
                )
            })
            .collect();
        let core = Self::assemble(cfg, partitioner, blacklist, shards, wal);
        core.exchange_now();
        Ok(core)
    }

    fn assemble(
        cfg: FleetConfig,
        partitioner: Partitioner,
        blacklist: Vec<u32>,
        shards: Vec<ServiceCore>,
        wal: Option<FleetWal>,
    ) -> Self {
        let window_end = shards.iter().map(|s| s.window_end()).max().unwrap_or(0);
        let batches = shards
            .iter()
            .map(|s| s.batches_applied())
            .max()
            .unwrap_or(0);
        let next_seq = shards
            .iter()
            .filter_map(|s| s.last_seq())
            .max()
            .map_or(0, |m| m + 1);
        let durable = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        let failover_blocked = (0..shards.len()).map(|_| AtomicBool::new(false)).collect();
        let boundary = Mutex::new(BoundaryCache::new(cfg.shard.pipeline.window_days));
        let blacklist = Arc::new(Blacklist::new(blacklist));
        let shards = shards
            .into_iter()
            .map(|mut s| {
                s.blacklist = Arc::clone(&blacklist);
                Arc::new(s)
            })
            .collect();
        Self {
            health: Arc::new(HealthMonitor::for_config(&cfg.shard)),
            cfg,
            partitioner,
            blacklist,
            shards,
            fleet: EpochCell::new(FleetSnapshot::default()),
            telemetry: Arc::new(Telemetry::new()),
            batches_applied: AtomicU64::new(batches),
            window_end: Arc::new(AtomicU32::new(window_end)),
            next_seq: AtomicU64::new(next_seq),
            wal: wal.map(Mutex::new),
            durable,
            failover_log: Mutex::new(Vec::new()),
            failover_blocked,
            boundary,
            faults: None,
        }
    }

    /// Runs `f(i, shard i)` for every shard and returns the results in
    /// shard order. Shards share no state, so the calls run through
    /// [`glp_gpusim::fan_out`] over at most the host's cores; a 1-shard
    /// fleet or a 1-core host runs them inline and spawns nothing. A
    /// panicking call is re-raised here with its original payload, after
    /// every other call has finished. Everything order-sensitive — which
    /// error is first, watermarks, journal truncation, the boundary
    /// exchange — stays with the caller.
    fn fan_out<R: Send>(&self, f: impl Fn(usize, &ServiceCore) -> R + Sync) -> Vec<R> {
        #[cfg(test)]
        let workers = tests::WORKERS.get().unwrap_or_else(glp_gpusim::host_cores);
        #[cfg(not(test))]
        let workers = glp_gpusim::host_cores();
        let shards = self.shards.iter().collect();
        glp_gpusim::fan_out(shards, workers, |i, s| f(i, s))
            .unwrap_or_else(|(_, payload)| std::panic::resume_unwind(payload))
    }

    /// Attaches a fault plan: the routed apply consults
    /// [`FaultPlan::maybe_panic_shard`] per shard per fleet batch, and a
    /// [`ShardRouter`]'s router worker its batcher hooks. Without one,
    /// each hook is a single `Option` test.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The shard cores, indexed by shard id.
    pub fn shards(&self) -> &[Arc<ServiceCore>] {
        &self.shards
    }

    /// The router's partitioner.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The router's own telemetry block (see [`Self::fleet_telemetry`]
    /// for the merged fleet view).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The fleet's current blacklist seeds (sorted, deduplicated).
    pub fn blacklist(&self) -> Vec<u32> {
        self.blacklist.get()
    }

    /// Applies blacklist churn fleet-wide: the shards share the fleet's
    /// one seed list, so this changes every shard's seeds at once. The
    /// next round scores against the new seeds whichever path each
    /// recluster takes: the LP trajectories the shard memos and the
    /// boundary cache replay never read a seed. Returns whether the seed
    /// set changed; counted once in `blacklist_revisions` (router block).
    pub fn update_blacklist(&self, add: &[u32], remove: &[u32]) -> bool {
        let changed = self.blacklist.update(add, remove);
        if changed {
            self.telemetry
                .blacklist_revisions
                .fetch_add(1, Ordering::Relaxed);
        }
        changed
    }

    /// Fleet micro-batches applied so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied.load(Ordering::Relaxed)
    }

    /// The global day watermark.
    pub fn window_end(&self) -> u32 {
        self.window_end.load(Ordering::Acquire)
    }

    /// The last reconciled fleet snapshot (empty before the first
    /// exchange round).
    pub fn fleet_snapshot(&self) -> Arc<FleetSnapshot> {
        self.fleet.load()
    }

    /// Validates, stamps, routes, and fans out one micro-batch. The
    /// router is authoritative: shards receive only pre-validated
    /// transactions in global arrival order, plus the new watermark.
    /// With a journal configured the accepted batch is journaled
    /// *before* fan-out, and a down shard triggers an automatic
    /// failover ([`Self::failover_shard`]) instead of shedding; without
    /// one, a sub-batch routed to a down shard is shed (counted). A
    /// shard that panics mid-apply loses that sub-batch the same way,
    /// with the crash recorded on *its* monitor. Returns the fleet
    /// batch count.
    pub fn apply(&self, batch: &[Submitted]) -> u64 {
        if batch.is_empty() {
            return self.batches_applied();
        }
        let fleet_batch = self.batches_applied();
        let mut end = self.window_end.load(Ordering::Acquire);
        let accepted = admit(batch, &mut end, || {
            self.next_seq.fetch_add(1, Ordering::Relaxed)
        });
        // Journal first (even an all-invalid batch: record indices must
        // stay dense for replay), then fan out — a crash from here on
        // loses nothing that was accepted.
        self.journal(fleet_batch, end, &accepted);
        if let Some(plan) = &self.faults {
            plan.maybe_crash_after_journal(fleet_batch);
        }
        let mut routed: Vec<Vec<(u64, Transaction)>> = vec![Vec::new(); self.shards.len()];
        for &(seq, t) in &accepted {
            routed[self.partitioner.shard_of(t.buyer)].push((seq, t));
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let sub = std::mem::take(&mut routed[i]);
            let health = shard.health_monitor();
            if health.is_down() {
                if self.try_auto_failover(i) {
                    // The rebuild replayed the journal through this very
                    // batch (journaled above, before fan-out) — applying
                    // `sub` now would double-count it.
                    continue;
                }
                if !sub.is_empty() {
                    self.telemetry
                        .shed_unhealthy
                        .fetch_add(sub.len() as u64, Ordering::Relaxed);
                }
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = &self.faults {
                    // Fires before the sub-batch lands: the shard window
                    // is untouched, the sub-batch is what's lost.
                    plan.maybe_panic_shard(i, fleet_batch);
                }
                shard.apply_stamped(&sub, end);
            }));
            match outcome {
                Ok(()) => health.record_progress("apply"),
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    shard
                        .telemetry()
                        .worker_panics
                        .fetch_add(1, Ordering::Relaxed);
                    let state = health.record_crash("apply", &msg);
                    if state == HealthState::Down && self.try_auto_failover(i) {
                        // Rebuilt through this batch, crash and all —
                        // nothing was lost, nothing to shed.
                        continue;
                    }
                    if state != HealthState::Down {
                        // The next routed batch retries this shard —
                        // count it like a supervisor restart.
                        shard
                            .telemetry()
                            .worker_restarts
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.telemetry
                        .shed_unhealthy
                        .fetch_add(sub.len() as u64, Ordering::Relaxed);
                }
            }
        }
        self.window_end.store(end, Ordering::Release);
        record_admission(&self.telemetry, batch, accepted.len());
        self.batches_applied.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Stamps and applies raw transactions as one micro-batch
    /// (synchronous drivers: tests, the determinism suite, the bench).
    pub fn apply_transactions(&self, txs: &[Transaction]) -> u64 {
        self.apply(&Submitted::now(txs))
    }

    /// Triggers every live shard's local recluster and waits for all of
    /// them, returning one [`ReclusterRun`] per shard in shard order —
    /// the fleet's analogue of [`ServiceCore::recluster_now`](crate::service::ServiceCore::recluster_now),
    /// sharing its name and per-run shape. A down shard contributes a
    /// zero-wall, zero-frontier `Full` placeholder. Shards recluster
    /// concurrently, up to one per core, so each wall is measured with
    /// its siblings running; with a core per shard the round costs the
    /// `max` of the returned walls.
    pub fn recluster_now(&self) -> Vec<ReclusterRun> {
        self.fan_out(|_, s| {
            if s.health_monitor().is_down() {
                ReclusterRun {
                    mode: ReclusterMode::Full,
                    wall_seconds: 0.0,
                    frontier: 0,
                }
            } else {
                s.recluster_now()
            }
        })
    }

    /// One full exchange round: fresh local reclusters on every live
    /// shard (concurrently, see [`Self::recluster_now`]), then boundary
    /// reconciliation on this thread once all of them are done, then
    /// publication of the fleet snapshot. Down shards contribute nothing
    /// — their keyspace is missing from the fleet snapshot until they
    /// are restored.
    pub fn exchange_now(&self) -> ExchangeOutcome {
        let shard_runs = self.recluster_now();
        let started = Instant::now();
        let mut frames = Vec::new();
        let mut locals: Vec<Arc<VerdictSnapshot>> = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            if s.health_monitor().is_down() {
                continue;
            }
            frames.push(s.frame(i));
            locals.push(s.snapshot());
        }
        let end = self.window_end.load(Ordering::Acquire);
        let as_of = self.batches_applied();
        let blacklist = self.blacklist();
        let mut boundary = unpoison(self.boundary.lock());
        let r = reconcile_with(
            &frames,
            &locals,
            &self.cfg.shard,
            &blacklist,
            end,
            as_of,
            Some(&mut boundary),
        );
        drop(boundary);
        let boundary_run = r.boundary.map(|(outcome, wall_seconds)| {
            absorb_outcome(&self.telemetry, &self.health, &outcome);
            outcome.as_run(wall_seconds)
        });
        self.fleet.publish(FleetSnapshot {
            verdicts: Arc::new(r.snapshot),
            boundary_users: r.boundary_users,
        });
        self.telemetry.reclusters.fetch_add(1, Ordering::Relaxed);
        let exchange_wall = started.elapsed().as_secs_f64();
        self.health.record_progress("exchange");
        ExchangeOutcome {
            shard_runs,
            boundary_run,
            exchange_wall,
            report: r.report,
        }
    }

    /// One verdict lookup, routed: boundary users answer from the
    /// reconciled fleet snapshot (their home shard's local view is
    /// incomplete by definition), interior users from their home
    /// shard's freshest local snapshot, and a down shard's users fall
    /// back to the last fleet snapshot.
    pub fn verdict(&self, user: u32) -> Verdict {
        let fleet = self.fleet.load();
        if fleet.boundary_users.binary_search(&user).is_ok() {
            return fleet.verdicts.verdict(user);
        }
        let shard = &self.shards[self.partitioner.shard_of(user)];
        if shard.health_monitor().is_down() {
            fleet.verdicts.verdict(user)
        } else {
            shard.snapshot().verdict(user)
        }
    }

    /// The fleet health document: effective state (see [`fleet_state`]),
    /// the router's own state, and one row per shard.
    pub fn health(&self) -> FleetHealthReport {
        let shards: Vec<ShardHealthReport> = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardHealthReport {
                shard,
                state: s.health_monitor().state(),
                consecutive_crashes: s.health_monitor().consecutive_crashes(),
                worker_panics: s.telemetry().worker_panics.load(Ordering::Relaxed),
                worker_restarts: s.telemetry().worker_restarts.load(Ordering::Relaxed),
                last_panic: s.health_monitor().last_panic(),
            })
            .collect();
        let states: Vec<HealthState> = shards.iter().map(|r| r.state).collect();
        let mut state = fleet_state(self.health.state(), &states);
        if self.health.burst_overlay() {
            // A burst flood at the fleet's gate degrades, never downs.
            state = state.max(HealthState::Degraded);
        }
        FleetHealthReport {
            state,
            router: self.health.state(),
            shards,
            snapshot_epoch: self.fleet.epoch(),
        }
    }

    /// The merged telemetry of the whole fleet: the router's own block
    /// plus every shard's.
    pub fn fleet_telemetry(&self) -> FleetTelemetry {
        let mut merged = self.telemetry.snapshot();
        for s in &self.shards {
            merged.merge(&s.telemetry().snapshot());
        }
        FleetTelemetry { merged }
    }

    /// Checkpoints every live shard to its `<base>.shard<i>` path, the
    /// image writes running concurrently (up to one per core). Without a
    /// configured path nothing is written. A down shard is skipped — its
    /// last good image on disk *is* its recovery point. Once every write
    /// has finished, successful images advance the journal-truncation
    /// watermark and the journal is truncated when configured. Returns
    /// the error of the lowest-numbered failing shard after attempting
    /// all.
    pub fn checkpoint_all(&self) -> Result<(), RecordError> {
        let paths = (0..self.shards.len())
            .map(|i| self.cfg.shard_checkpoint_path(i))
            .collect::<Option<Vec<_>>>()
            .ok_or(RecordError::Invalid("no checkpoint path configured"))?;
        let written =
            self.fan_out(|i, s| (!s.health_monitor().is_down()).then(|| s.checkpoint(&paths[i])));
        let mut first_err = None;
        for (i, result) in written.into_iter().enumerate() {
            match result {
                Some(Ok(durable)) => self.durable[i].store(durable, Ordering::Relaxed),
                Some(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                None => {}
            }
        }
        self.truncate_journal();
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Journals one validated fleet batch before fan-out. An append
    /// failure (injected or real) is loud — crash-tracked against the
    /// router's `wal-journal` worker, degrading the fleet — but does
    /// not stop the batch from being scored: availability over
    /// durability, never silently.
    fn journal(&self, fleet_batch: u64, watermark: u32, accepted: &[(u64, Transaction)]) {
        let Some(wal) = &self.wal else { return };
        let injected = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.wal_append_fail_due(fleet_batch));
        let result = if injected {
            Err(RecordError::Io(std::io::Error::other(
                "injected fault: wal-append-fail",
            )))
        } else {
            unpoison(wal.lock()).append(fleet_batch, watermark, accepted)
        };
        match result {
            Ok(()) => {
                self.telemetry
                    .wal_appended_batches
                    .fetch_add(1, Ordering::Relaxed);
                self.health.record_progress("wal-journal");
            }
            Err(e) => {
                self.health.record_crash("wal-journal", &e.to_string());
            }
        }
    }

    /// Drops journal segments every shard's durable checkpoint already
    /// covers (no-op when journaling or truncation is off).
    fn truncate_journal(&self) {
        if !self.cfg.wal_truncate_on_checkpoint {
            return;
        }
        let Some(wal) = &self.wal else { return };
        let durable = self
            .durable
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0);
        if durable == 0 {
            return;
        }
        match unpoison(wal.lock()).truncate_covered(durable) {
            Ok(removed) => {
                if removed > 0 {
                    self.telemetry
                        .wal_truncations
                        .fetch_add(removed, Ordering::Relaxed);
                }
            }
            Err(e) => {
                self.health.record_crash("wal-journal", &e.to_string());
            }
        }
    }

    /// Rebuilds shard `i` from its last checkpoint (if readable; from
    /// the journal alone otherwise) plus a replay of every journaled
    /// batch past it, restricted to its keyspace in router sequence
    /// order, then re-admits it ([`HealthMonitor::revive`]) and
    /// publishes a fresh local snapshot. The rebuild happens entirely
    /// off the shard's lock on a scratch window; the installed state is
    /// byte-identical to a shard that never died, because the journal
    /// holds exactly what the router would have fanned out.
    pub fn failover_shard(&self, i: usize) -> Result<FailoverEvent, FailoverError> {
        let Some(wal) = &self.wal else {
            return Err(FailoverError::NoJournal);
        };
        let shard = &self.shards[i];
        // A missing, corrupt, or mismatched image is not fatal here: the
        // journal-alone path covers it (and the journal will be missing
        // history only if truncation already deleted it, which the gap
        // check turns into a typed error).
        let image = self.cfg.shard_checkpoint_path(i).and_then(|path| {
            let ckpt = WindowCheckpoint::read(&path).ok()?;
            let window =
                StampedWindow::from_checkpoint(&ckpt, self.cfg.shard.pipeline.window_days).ok()?;
            Some((window, ckpt.batches_applied))
        });
        let from_checkpoint = image.is_some();
        let (mut window, base) =
            image.unwrap_or_else(|| (StampedWindow::empty(self.cfg.shard.pipeline.window_days), 0));
        let records = unpoison(wal.lock()).records().map_err(FailoverError::Wal)?;
        let next = self
            .replay_keyspace(i, &records, base, |sub, watermark| {
                window.apply(sub, watermark)
            })
            .map_err(FailoverError::Wal)?;
        let replayed = next - base;
        shard.rebuild_from(window, next);
        shard
            .telemetry()
            .wal_replayed_batches
            .fetch_add(replayed, Ordering::Relaxed);
        shard.telemetry().failovers.fetch_add(1, Ordering::Relaxed);
        shard.health_monitor().revive();
        shard.recluster_now();
        let event = FailoverEvent {
            shard: i,
            replayed_batches: replayed,
            from_checkpoint,
        };
        unpoison(self.failover_log.lock()).push(event.clone());
        Ok(event)
    }

    /// Completed failovers, in completion order.
    pub fn failover_events(&self) -> Vec<FailoverEvent> {
        unpoison(self.failover_log.lock()).clone()
    }

    /// The fan-out's failover trigger: false without a journal (the
    /// shard stays shed, the pre-journal contract) or after a permanent
    /// replay gap; otherwise attempts the rebuild, crash-tracking a
    /// failed attempt so the next batch retries it.
    fn try_auto_failover(&self, i: usize) -> bool {
        if self.wal.is_none() || self.failover_blocked[i].load(Ordering::Relaxed) {
            return false;
        }
        match self.failover_shard(i) {
            Ok(_) => true,
            Err(e) => {
                if matches!(e, FailoverError::Wal(RecordError::Gap { .. })) {
                    // The journal will never grow the missing history
                    // back; retrying per batch would fail identically.
                    self.failover_blocked[i].store(true, Ordering::Relaxed);
                }
                self.shards[i]
                    .health_monitor()
                    .record_crash("failover", &e.to_string());
                false
            }
        }
    }

    /// Replays journaled batches that never reached the live shards —
    /// the crash-restart catch-up ([`Self::restore`] calls this after
    /// loading checkpoints) and the healer of the write-ahead crash
    /// window (the router worker calls it on every (re)start). Each live
    /// shard independently replays the records past its own progress
    /// cursor, so a batch lands exactly once however the crash
    /// interleaved with fan-out. Fleet-level cursors (batch count,
    /// watermark, next sequence stamp) advance past everything
    /// journaled. Returns the number of per-shard record applications.
    pub fn sync_from_wal(&self) -> Result<u64, RecordError> {
        let Some(wal) = &self.wal else { return Ok(0) };
        let tail = unpoison(wal.lock()).tail_batch();
        let Some(tail) = tail else { return Ok(0) };
        let caught_up = |count: u64| count > tail;
        if caught_up(self.batches_applied())
            && self
                .shards
                .iter()
                .filter(|s| !s.health_monitor().is_down())
                .all(|s| caught_up(s.batches_applied()))
        {
            return Ok(0);
        }
        let records = unpoison(wal.lock()).records()?;
        let mut replayed = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.health_monitor().is_down() {
                continue;
            }
            self.replay_keyspace(i, &records, shard.batches_applied(), |sub, watermark| {
                shard.apply_stamped(sub, watermark);
                shard
                    .telemetry()
                    .wal_replayed_batches
                    .fetch_add(1, Ordering::Relaxed);
                replayed += 1;
            })?;
        }
        if let Some(last) = records.last() {
            self.batches_applied
                .fetch_max(last.batch + 1, Ordering::Relaxed);
            self.window_end.fetch_max(last.watermark, Ordering::AcqRel);
            if let Some(max_seq) = records
                .iter()
                .flat_map(|r| r.txs.iter().map(|&(seq, _)| seq))
                .max()
            {
                self.next_seq.fetch_max(max_seq + 1, Ordering::Relaxed);
            }
        }
        Ok(replayed)
    }

    /// The journal replay loop, written once: feeds `apply` every record
    /// from batch `next` on, restricted to shard `i`'s keyspace and in
    /// router sequence order, with the record's watermark. Records must
    /// be dense from `next` — a hole is a typed [`RecordError::Gap`].
    /// Returns the batch count after the last record replayed.
    fn replay_keyspace(
        &self,
        i: usize,
        records: &[WalRecord],
        mut next: u64,
        mut apply: impl FnMut(&[(u64, Transaction)], u32),
    ) -> Result<u64, RecordError> {
        let first = next;
        for rec in records.iter().filter(|rec| rec.batch >= first) {
            if rec.batch != next {
                return Err(RecordError::Gap {
                    needed: next,
                    first: rec.batch,
                });
            }
            let sub: Vec<(u64, Transaction)> = rec
                .txs
                .iter()
                .copied()
                .filter(|&(_, t)| self.partitioner.shard_of(t.buyer) == i)
                .collect();
            apply(&sub, rec.watermark);
            next = rec.batch + 1;
        }
        Ok(next)
    }
}

/// A cloneable fleet-wide scoring handle (the sharded analogue of
/// [`QueryHandle`](crate::service::QueryHandle)).
#[derive(Clone)]
pub struct FleetHandle {
    core: Arc<FleetCore>,
}

impl FleetHandle {
    /// The current fleet health document.
    pub fn health(&self) -> FleetHealthReport {
        self.core.health()
    }
}

impl FraudScorer for FleetHandle {
    fn score(&self, user: u32) -> Verdict {
        self.core.telemetry.queries.fetch_add(1, Ordering::Relaxed);
        self.core.verdict(user)
    }

    fn snapshot(&self) -> Arc<VerdictSnapshot> {
        Arc::clone(&self.core.fleet.load().verdicts)
    }
}

/// How [`ShardRouter::shutdown`] went.
pub struct FleetShutdownReport {
    /// The fleet core after the final exchange round.
    pub core: Arc<FleetCore>,
    /// How the router worker ended.
    pub router: WorkerOutcome,
    /// How each shard's recluster worker ended, by shard id.
    pub shards: Vec<WorkerOutcome>,
    /// How the exchange worker ended.
    pub exchange: WorkerOutcome,
    /// Fleet state at shutdown.
    pub state: HealthState,
}

impl FleetShutdownReport {
    /// Whether every worker exited cleanly without ever panicking.
    pub fn clean(&self) -> bool {
        let clean = WorkerOutcome::Clean { panics: 0 };
        self.router == clean && self.exchange == clean && self.shards.iter().all(|o| *o == clean)
    }
}

/// The threaded sharded service: the threaded shell around a
/// [`FleetCore`] (see module docs).
pub struct ShardRouter(Shell<FleetCore>);

impl ShardRouter {
    /// Starts the fleet: one supervised router worker, one supervised
    /// recluster worker per shard, one supervised exchange worker.
    pub fn start(cfg: FleetConfig, partitioner: Partitioner, blacklist: Vec<u32>) -> Self {
        Self::start_on(FleetCore::new(cfg, partitioner, blacklist))
    }

    /// Starts the fleet with a fault plan attached: the router worker's
    /// batcher hooks and the routed apply consult it.
    pub fn start_with_faults(
        cfg: FleetConfig,
        partitioner: Partitioner,
        blacklist: Vec<u32>,
        plan: Arc<FaultPlan>,
    ) -> Self {
        Self::start_on(FleetCore::new(cfg, partitioner, blacklist).with_faults(plan))
    }

    /// Resumes a fleet from its per-shard checkpoints plus journal
    /// replay (see [`FleetCore::restore`]).
    pub fn recover(
        cfg: FleetConfig,
        partitioner: Partitioner,
        blacklist: Vec<u32>,
    ) -> Result<Self, RecordError> {
        Ok(Self::start_on(FleetCore::restore(
            cfg,
            partitioner,
            blacklist,
        )?))
    }

    fn start_on(core: FleetCore) -> Self {
        let shards = core.shards.clone();
        Self(Shell::start(Arc::new(core), shards))
    }

    /// A producer-side submission gate (cloneable).
    pub fn gate(&self) -> IngestGate {
        self.0.gate.clone()
    }

    /// Submits one transaction through the fleet's gate.
    pub fn submit(&self, tx: Transaction) -> Result<(), Transaction> {
        self.0.gate.submit(tx)
    }

    /// A fleet-wide query handle (cloneable).
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            core: Arc::clone(&self.0.core),
        }
    }

    /// The synchronous fleet core.
    pub fn core(&self) -> &Arc<FleetCore> {
        &self.0.core
    }

    /// The current fleet health document.
    pub fn health(&self) -> FleetHealthReport {
        self.0.core.health()
    }

    /// Triggers every live shard's local recluster synchronously,
    /// returning one [`ReclusterRun`] per shard — the threaded shell's
    /// spelling of [`FleetCore::recluster_now`], sharing the fleet-wide
    /// trigger name and return shape. Each shard's warm-state lock
    /// serializes this with its recluster worker, so a forced run never
    /// races a scheduled one.
    pub fn recluster_now(&self) -> Vec<ReclusterRun> {
        self.0.core.recluster_now()
    }

    /// Asks the exchange worker for a reconciliation round now
    /// (coalesces if one is pending).
    pub fn force_exchange(&self) {
        self.0.force_exchange();
    }

    /// Stops the fleet: closes the ingest queue, drains the router,
    /// joins every worker, runs one final exchange round so the last
    /// batches are scored fleet-wide, and writes final checkpoints when
    /// configured. Worker panics are reported, not re-thrown.
    pub fn shutdown(self) -> FleetShutdownReport {
        let (core, mut shards) = self.0.shutdown();
        let exchange = shards.pop().expect("the exchange worker starts last");
        let router = shards.remove(0);
        FleetShutdownReport {
            state: core.health().state,
            router,
            shards,
            exchange,
            core,
        }
    }
}

impl Core for FleetCore {
    fn front(&self) -> Front {
        Front {
            name: "router",
            cfg: self.cfg.shard.clone(),
            health: Arc::clone(&self.health),
            telemetry: Arc::clone(&self.telemetry),
            window_end: Arc::clone(&self.window_end),
            tracer: None,
            exchange_every: Some(self.cfg.exchange_every_batches),
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
        let _ = self.checkpoint_all();
    }

    fn refresh(&self) {
        self.exchange_now();
    }

    /// Heals the write-ahead crash window: a batch journaled by a
    /// previous incarnation of the router worker but never fanned out
    /// replays exactly once before any new traffic is drained.
    fn resume(&self) {
        if let Err(e) = self.sync_from_wal() {
            self.health.record_crash("wal-journal", &e.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShedPolicy;
    use glp_fraud::{RegionalStream, RegionalTxConfig};
    use std::path::Path;

    thread_local! {
        /// Pins the worker count of the calling thread's fan-out rounds
        /// (`Some(1)`: every shard inline, in shard order). Absent from
        /// non-test builds.
        pub(super) static WORKERS: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    fn stream() -> RegionalStream {
        RegionalStream::generate(&RegionalTxConfig {
            regions: 4,
            users_per_region: 250,
            items_per_region: 100,
            days: 10,
            tx_per_day: 1_000,
            cross_rings: 4,
            ring_size: 10,
            ring_tx_per_day: 30,
            blacklist_fraction: 0.3,
            ..Default::default()
        })
    }

    fn fleet_cfg(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            exchange_every_batches: 8,
            ..FleetConfig::default()
        }
        .with_window_days(8)
    }

    fn partitioner(s: &RegionalStream, shards: usize) -> Partitioner {
        Partitioner::with_communities(shards, 7, s.community_map())
    }

    #[test]
    fn fleet_core_routes_reclusters_and_answers() {
        let s = stream();
        let cfg = fleet_cfg(2);
        let core = FleetCore::new(cfg, partitioner(&s, 2), s.blacklist.clone());
        for day in 0..s.config.days {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            core.apply_transactions(&txs);
        }
        let outcome = core.exchange_now();
        assert!(outcome.report.spanning_components > 0);
        assert_eq!(outcome.shard_runs.len(), 2);
        assert!(
            outcome.boundary_run.is_some(),
            "spanning components need a boundary recluster"
        );
        let snap = core.fleet_snapshot();
        assert_eq!(snap.verdicts.window_end, s.config.days);
        assert!(snap.verdicts.num_flagged() > 0, "rings should be flagged");
        // Every flagged user answers Flagged through the routed path.
        for &(u, _, _) in &snap.verdicts.flagged {
            assert!(matches!(core.verdict(u), Verdict::Flagged { .. }));
        }
        let h = core.health();
        assert_eq!(h.state, HealthState::Healthy);
        assert_eq!(h.shards.len(), 2);
        // The merged telemetry sees the routed batches and both shards'
        // reclusters.
        let t = core.fleet_telemetry();
        assert!(t.counter("batches") > 0);
        assert!(t.counter("reclusters") >= 3, "2 shards + exchange");
    }

    #[test]
    fn threaded_router_end_to_end() {
        let s = stream();
        let router = ShardRouter::start(fleet_cfg(2), partitioner(&s, 2), s.blacklist.clone());
        let handle = router.handle();
        for t in s.window(0, s.config.days) {
            router.submit(*t).expect("fleet accepts while running");
        }
        let report = router.shutdown();
        assert!(report.clean(), "no faults injected: clean outcomes");
        assert_eq!(report.state, HealthState::Healthy);
        let core = report.core;
        let snap = core.fleet_snapshot();
        assert_eq!(snap.verdicts.window_end, s.config.days);
        assert!(snap.verdicts.num_flagged() > 0);
        let flagged_user = snap.verdicts.flagged[0].0;
        assert!(matches!(
            handle.score(flagged_user),
            Verdict::Flagged { .. }
        ));
        let t = core.fleet_telemetry();
        assert_eq!(t.merged.worker_panics, 0);
        assert_eq!(core.health().state, HealthState::Healthy);
        assert_eq!(t.counter("failovers"), 0);
        assert!(t.counter("batches") > 0);
    }

    /// A burst flood degrades, never downs: the burst overlay lifts a
    /// healthy single core and a healthy fleet to exactly `Degraded`, and
    /// clearing it returns both to `Healthy`.
    #[test]
    fn a_burst_degrades_but_never_goes_down() {
        let s = stream();
        let single = ServiceCore::new(fleet_cfg(2).shard, s.blacklist.clone());
        let fleet = FleetCore::new(fleet_cfg(2), partitioner(&s, 2), s.blacklist.clone());
        let states = |burst: bool| {
            single.health_monitor().set_burst(burst);
            fleet.health.set_burst(burst);
            [single.health().state, fleet.health().state]
        };
        assert_eq!(states(true), [HealthState::Degraded; 2]);
        assert_eq!(states(false), [HealthState::Healthy; 2]);
    }

    /// The router worker runs the batcher's fault hooks: a panic before
    /// the drain is lossless, and the record corrupted after the gate is
    /// shed by the router's admit — so the fleet scores exactly what a
    /// fault-free fleet fed the stream without that record scores.
    #[test]
    fn the_router_worker_reads_the_batcher_fault_hooks() {
        use crate::{Fault, FaultSpec};
        let s = stream();
        let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
        let mut cfg = fleet_cfg(2);
        // Nothing sheds: both runs must apply the same transactions.
        cfg.shard.queue_capacity = 1 << 16;
        cfg.shard.shed_policy = ShedPolicy::RejectNew;
        let spec = FaultSpec {
            batcher_panics: 1,
            corrupt_txs: 1,
            batch_horizon: 2,
            ..FaultSpec::default()
        };
        let plan = Arc::new(FaultPlan::seeded(7, &spec));
        // A horizon of 2 pins both to batch 1: the panic fires before the
        // second batch is drained, the corruption hits its first record.
        assert_eq!(
            plan.scheduled(),
            [
                Fault::BatcherPanic { at_batch: 1 },
                Fault::CorruptTx { at_batch: 1 }
            ]
        );
        let router = ShardRouter::start_with_faults(
            cfg.clone(),
            partitioner(&s, 2),
            s.blacklist.clone(),
            Arc::clone(&plan),
        );
        // The first batch is the first record alone, so the second batch
        // starts with the second record.
        router.submit(all[0]).expect("fleet accepts while running");
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while router.core().batches_applied() == 0 {
            assert!(Instant::now() < deadline, "the first batch never applied");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for t in &all[1..] {
            router.submit(*t).expect("large queue, no shed");
        }
        let report = router.shutdown();
        assert!(plan.all_fired(), "the router never read the plan");
        assert_eq!(report.router, WorkerOutcome::Clean { panics: 1 });
        let rejected = report
            .core
            .telemetry()
            .rejected_invalid
            .load(Ordering::Relaxed);
        assert_eq!(rejected, 1, "the corrupted record is shed, exactly once");

        let reference = ShardRouter::start(cfg, partitioner(&s, 2), s.blacklist.clone());
        for (i, t) in all.iter().enumerate().filter(|&(i, _)| i != 1) {
            reference
                .submit(*t)
                .unwrap_or_else(|_| panic!("record {i} shed"));
        }
        let want = reference.shutdown().core.fleet_snapshot();
        assert_eq!(
            report.core.fleet_snapshot().verdicts.canonical_bytes(),
            want.verdicts.canonical_bytes(),
            "the recovered fleet must converge to the fault-free verdicts"
        );
    }

    #[test]
    fn staleness_gate_bounds_every_live_shard_and_sheds_under_overload() {
        // Cadence of 1 and a staleness bound of 1: every fleet batch must
        // be reclustered on every shard before the next applies. The
        // router is therefore slower than the producer, the tiny queue
        // fills, and overload surfaces as counted rejections — not as
        // stale verdicts.
        let s = stream();
        let mut cfg = fleet_cfg(2);
        cfg.shard.queue_capacity = 64;
        cfg.shard.max_batch = 64;
        cfg.shard.shed_policy = ShedPolicy::RejectNew;
        cfg.shard.recluster_every_batches = 1;
        cfg.shard.max_staleness_batches = 1;
        let router = ShardRouter::start(cfg, partitioner(&s, 2), s.blacklist.clone());
        let mut rejected = 0u64;
        for t in s.window(0, s.config.days) {
            if router.submit(*t).is_err() {
                rejected += 1;
            }
        }
        let core = router.shutdown().core;
        let t = core.telemetry();
        assert!(rejected > 0, "overload should shed");
        assert_eq!(t.shed_rejected_new.load(Ordering::Relaxed), rejected);
        for shard in core.shards() {
            // Batch k + 1 waits for a snapshot as of batch k on every
            // shard; shutdown adds the last one.
            let reclusters = shard.telemetry().reclusters.load(Ordering::Relaxed);
            assert!(
                reclusters >= core.batches_applied(),
                "{reclusters} reclusters"
            );
            assert_eq!(shard.staleness_batches(), 0, "shutdown reclusters last");
        }
    }

    #[test]
    fn invalid_traffic_is_shed_by_the_router() {
        let s = stream();
        let core = FleetCore::new(fleet_cfg(2), partitioner(&s, 2), s.blacklist.clone());
        let day0: Vec<Transaction> = s.window(0, 1).copied().collect();
        core.apply_transactions(&day0);
        let nan = Transaction {
            buyer: 1,
            item: 2,
            day: 0,
            amount: f32::NAN,
        };
        core.apply_transactions(&[nan]);
        assert_eq!(core.telemetry().rejected_invalid.load(Ordering::Relaxed), 1);
        // Shards only ever saw validated traffic.
        for shard in core.shards() {
            assert_eq!(
                shard.telemetry().rejected_invalid.load(Ordering::Relaxed),
                0
            );
        }
    }

    /// What one drive of a journaled 4-shard fleet published.
    #[derive(Default)]
    struct Observed {
        /// Fleet snapshot after every exchange round, the restored
        /// fleet's last.
        fleet: Vec<Vec<u8>>,
        /// Every shard's snapshot at the end of the drive, then after
        /// the restore.
        shards: Vec<Vec<u8>>,
        /// `(mode, frontier)` of every shard and boundary run.
        runs: Vec<(ReclusterMode, usize)>,
        /// Durable watermarks after each `checkpoint_all`.
        durable: Vec<Vec<u64>>,
        /// Journal segment files after each `checkpoint_all`.
        segments: Vec<Vec<String>>,
    }

    /// Exchange rounds every day, checkpoints with journal truncation,
    /// one shard taken `Down` mid-stream (and failed over on the next
    /// batch), then a crash and a restore that replays the journal tail
    /// through `sync_from_wal` — with the calling thread's fan-out pinned
    /// to `workers`.
    fn drive(workers: Option<usize>, tag: &str) -> Observed {
        let s = stream();
        let dir = std::env::temp_dir().join(format!("glp_fan_out_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = fleet_cfg(4);
        cfg.shard.checkpoint_path = Some(dir.join("fleet.ckpt"));
        cfg.wal_dir = Some(dir.join("wal"));
        // Small segments, so that truncation has segments to delete.
        cfg.wal_segment_bytes = 16 << 10;
        let segments = |wal: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(wal)
                .expect("journal directory")
                .map(|e| {
                    e.expect("dir entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .collect();
            names.sort();
            names
        };
        let partitioner = || Partitioner::balanced(4, 7, s.community_map());
        let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
        WORKERS.set(workers);
        let mut seen = Observed::default();
        {
            let fleet = FleetCore::new(cfg.clone(), partitioner(), s.blacklist.clone());
            for (round, batches) in all.chunks(128).enumerate() {
                for batch in batches.chunks(64) {
                    fleet.apply_transactions(batch);
                }
                if round == 50 {
                    // Down until the next batch routed its way fails it over.
                    let victim = fleet.shards()[2].health_monitor();
                    for _ in 0..cfg.shard.down_after_crashes {
                        victim.record_crash("test", "killed");
                    }
                }
                let o = fleet.exchange_now();
                let runs = o.shard_runs.iter().chain(&o.boundary_run);
                seen.runs.extend(runs.map(|r| (r.mode, r.frontier)));
                seen.fleet
                    .push(fleet.fleet_snapshot().verdicts.canonical_bytes());
                // The batches after the last checkpoint live in the
                // journal only.
                if matches!(round, 20 | 40 | 50 | 70) {
                    fleet.checkpoint_all().expect("checkpoint");
                    let durable = fleet.durable.iter().map(|d| d.load(Ordering::Relaxed));
                    seen.durable.push(durable.collect());
                    seen.segments.push(segments(&dir.join("wal")));
                }
            }
            assert_eq!(fleet.failover_events().len(), 1, "shard 2 failed over");
            seen.shards.extend(
                fleet
                    .shards()
                    .iter()
                    .map(|s| s.snapshot().canonical_bytes()),
            );
        }
        let restored = FleetCore::restore(cfg, partitioner(), s.blacklist.clone())
            .expect("checkpoints + journal tail");
        seen.fleet
            .push(restored.fleet_snapshot().verdicts.canonical_bytes());
        seen.shards.extend(
            restored
                .shards()
                .iter()
                .map(|s| s.snapshot().canonical_bytes()),
        );
        WORKERS.set(None);
        let _ = std::fs::remove_dir_all(&dir);
        seen
    }

    #[test]
    fn the_fan_out_is_invisible() {
        let inline = drive(Some(1), "inline");
        let fanned = drive(None, "fanned");
        // The drive reaches what it claims to: incremental shard runs, and
        // a checkpoint that skipped the down shard, whose old image pins
        // the truncation watermark.
        assert!(inline
            .runs
            .iter()
            .any(|r| r.0 == ReclusterMode::Incremental));
        assert!(inline.durable[2][2] < inline.durable[2][0]);
        assert!(inline.fleet == fanned.fleet, "fleet snapshots differ");
        assert!(inline.shards == fanned.shards, "shard snapshots differ");
        assert_eq!(inline.runs, fanned.runs);
        assert_eq!(inline.durable, fanned.durable);
        assert_eq!(inline.segments, fanned.segments);
    }
}
