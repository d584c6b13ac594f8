//! The service health state machine.
//!
//! An always-on scorer cannot answer "are you OK?" with a boolean: a
//! worker that panicked once and restarted is *serving but suspect*, a
//! crash-looping worker is *shedding to protect itself*, and a worker
//! past its restart budget is *down but still answering from its last
//! good snapshot*. Those are four distinct operational states with four
//! distinct contracts:
//!
//! ```text
//!              crash                 crash ≥ S             crash ≥ N
//!   Healthy ──────────▶ Degraded ──────────▶ Shedding ──────────▶ Down
//!      ▲                   │                     │                 (sticky)
//!      └──── progress ─────┴───── progress ──────┘
//! ```
//!
//! * **Healthy** — everything normal.
//! * **Degraded** — a supervised worker crashed recently (or verdicts
//!   have staled past the configured bound); queries are still served,
//!   from the last good snapshot, stamped with its staleness.
//! * **Shedding** — the crash streak reached the shedding threshold; the
//!   ingest gate refuses new transactions (counted) while supervision
//!   keeps restarting the worker with backoff.
//! * **Down** — the streak reached the restart budget; supervision gives
//!   up (a crash loop is a bug, not weather), ingest stays closed, and
//!   queries keep answering from the last published snapshot. Sticky:
//!   only a restart (or [`recover`](crate::FraudService::recover)) leaves
//!   it.
//!
//! Transitions are driven by exactly two events — `record_crash` from the
//! supervisor and `record_progress` from a worker completing real work —
//! so the machine is trivially deterministic under fault injection.

use crate::config::ServeConfig;
use crate::unpoison;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;

/// The four operational states, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum HealthState {
    /// Everything normal.
    Healthy = 0,
    /// Serving, but a worker crashed recently or verdicts are stale.
    Degraded = 1,
    /// Crash streak ongoing: ingest refuses new work (counted).
    Shedding = 2,
    /// Restart budget exhausted: ingest closed, queries answer from the
    /// last good snapshot. Sticky.
    Down = 3,
}

impl HealthState {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Healthy,
            1 => Self::Degraded,
            2 => Self::Shedding,
            _ => Self::Down,
        }
    }
}

/// Crash-streak thresholds (see [`ServeConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct HealthThresholds {
    /// Consecutive crashes at which the gate starts shedding.
    pub shedding_after: u32,
    /// Consecutive crashes at which supervision gives up (the restart
    /// budget `N`).
    pub down_after: u32,
}

/// Shared crash/health bookkeeping: written by the supervisor and the
/// workers, read by the ingest gate on every submit and by `health()`.
///
/// Crash streaks are **per worker** and the service state derives from
/// the *worst* streak: one worker making progress must not mask another
/// worker's crash loop (a reclustering service whose batcher panics on
/// every batch is broken, however many snapshots it publishes).
#[derive(Debug)]
pub struct HealthMonitor {
    state: AtomicU8,
    streaks: Mutex<HashMap<&'static str, u32>>,
    thresholds: HealthThresholds,
    last_panic: Mutex<Option<String>>,
    engine_tier: Mutex<Option<&'static str>>,
    burst: AtomicBool,
}

impl HealthMonitor {
    /// A monitor starting `Healthy`.
    pub fn new(thresholds: HealthThresholds) -> Self {
        assert!(
            thresholds.shedding_after >= 1 && thresholds.down_after > thresholds.shedding_after,
            "need 1 <= shedding_after < down_after"
        );
        Self {
            state: AtomicU8::new(HealthState::Healthy as u8),
            streaks: Mutex::new(HashMap::new()),
            thresholds,
            last_panic: Mutex::new(None),
            engine_tier: Mutex::new(None),
            burst: AtomicBool::new(false),
        }
    }

    /// A monitor with the crash-streak thresholds `cfg` configures.
    pub fn for_config(cfg: &ServeConfig) -> Self {
        Self::new(HealthThresholds {
            shedding_after: cfg.shedding_after_crashes,
            down_after: cfg.down_after_crashes,
        })
    }

    /// Current crash-driven state (staleness overlays are applied by
    /// [`ServiceCore::health`](crate::ServiceCore::health)).
    pub fn state(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Whether the service is permanently down.
    pub fn is_down(&self) -> bool {
        self.state() == HealthState::Down
    }

    /// The worst current crash streak across all workers.
    pub fn consecutive_crashes(&self) -> u32 {
        unpoison(self.streaks.lock())
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Records which engine tier produced the most recent recluster — the
    /// recluster worker reports it after every LP run, so operators can
    /// see at a glance whether scoring currently runs on the GPU or the
    /// BSP driver's recovery policy has degraded it down the
    /// [`ResilientEngine`](glp_core::ResilientEngine) ladder.
    pub fn set_engine_tier(&self, tier: &'static str) {
        *unpoison(self.engine_tier.lock()) = Some(tier);
    }

    /// The engine tier of the most recent recluster (`None` before the
    /// first snapshot is published).
    pub fn engine_tier(&self) -> Option<&'static str> {
        *unpoison(self.engine_tier.lock())
    }

    /// Raised and cleared by the burst detector (see
    /// [`BurstState`](crate::ingest::BurstState)): while set, `health()`
    /// overlays the crash-driven state to at least
    /// [`HealthState::Degraded`] — the service is serving, but shedding
    /// a burst flood and draining in tightened batches. The overlay never
    /// reaches `Shedding`, so it cannot feed back into admission.
    pub fn set_burst(&self, active: bool) {
        self.burst.store(active, Ordering::Release);
    }

    /// Whether the burst overlay is currently raised.
    pub fn burst_overlay(&self) -> bool {
        self.burst.load(Ordering::Acquire)
    }

    /// The panic message of the most recent worker crash, if any.
    pub fn last_panic(&self) -> Option<String> {
        unpoison(self.last_panic.lock()).clone()
    }

    fn severity(&self, streak: u32) -> HealthState {
        if streak >= self.thresholds.down_after {
            HealthState::Down
        } else if streak >= self.thresholds.shedding_after {
            HealthState::Shedding
        } else if streak >= 1 {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        }
    }

    /// Called by the supervisor for every caught panic of `worker`.
    /// Returns the state after the transition (the supervisor stops
    /// restarting on [`HealthState::Down`]).
    pub fn record_crash(&self, worker: &'static str, panic_msg: &str) -> HealthState {
        *unpoison(self.last_panic.lock()) = Some(format!("{worker}: {panic_msg}"));
        let streak = {
            let mut s = unpoison(self.streaks.lock());
            let entry = s.entry(worker).or_insert(0);
            *entry += 1;
            *entry
        };
        // Never downgrade severity on a crash (Down is sticky).
        self.state
            .fetch_max(self.severity(streak) as u8, Ordering::AcqRel);
        self.state()
    }

    /// Called by `worker` after completing real work (a batch applied, a
    /// snapshot published): ends *its* crash streak and lowers the
    /// service state to the severity of the worst *remaining* streak —
    /// back to `Healthy` when no other worker is crashing, but never out
    /// of `Down`, which only a process restart (or
    /// [`recover`](crate::FraudService::recover)) clears.
    pub fn record_progress(&self, worker: &'static str) {
        if self.is_down() {
            return;
        }
        let target = {
            let mut s = unpoison(self.streaks.lock());
            s.insert(worker, 0);
            self.severity(s.values().copied().max().unwrap_or(0))
        };
        // Lower the state to `target`, never raising it and never
        // leaving Down. Racing with record_crash's fetch_max: the worst
        // outcome is one extra submit shed before the next progress tick.
        let mut cur = self.state.load(Ordering::Acquire);
        while cur > target as u8
            && cur != HealthState::Down as u8
            && self
                .state
                .compare_exchange_weak(cur, target as u8, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            cur = self.state.load(Ordering::Acquire);
        }
    }

    /// Re-admits a service after failover: clears every crash streak and
    /// forces the state back to `Healthy`. This is the *only* exit from
    /// [`HealthState::Down`] short of a process restart, and it is
    /// reserved for the fleet's failover path
    /// ([`FleetCore::failover_shard`](crate::router::FleetCore::failover_shard)),
    /// which calls it strictly *after* the shard's state has been rebuilt
    /// from its checkpoint plus journal replay — reviving a shard whose
    /// window is still wrong would serve bad verdicts, not heal anything.
    pub fn revive(&self) {
        unpoison(self.streaks.lock()).clear();
        self.state
            .store(HealthState::Healthy as u8, Ordering::Release);
    }
}

/// One observation of service health, as returned by
/// [`ServiceCore::health`](crate::ServiceCore::health): the effective
/// state plus everything an operator (or a shedding decision) needs to
/// interpret it.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Effective state: the crash-driven state, raised to at least
    /// `Degraded` while verdicts are staler than the configured bound.
    pub state: HealthState,
    /// Current worker crash streak.
    pub consecutive_crashes: u32,
    /// Batches applied since the served snapshot was materialized.
    pub staleness_batches: u64,
    /// Epoch of the snapshot queries are currently served from.
    pub snapshot_epoch: u64,
    /// Panic message of the most recent worker crash, if any.
    pub last_panic: Option<String>,
    /// Engine tier the last recluster ran on (`None` before the first),
    /// e.g. `"GLP"` when healthy or `"Sequential-BSP"` after the full
    /// degradation ladder.
    pub engine_tier: Option<&'static str>,
}

/// Combines the router's own state with per-shard states into the
/// fleet-level state the sharded service reports (see
/// [`FleetCore::health`](crate::router::FleetCore::health)).
///
/// The ladder is deliberately asymmetric: a single sick or dead shard
/// only *degrades* the fleet — its keyspace sheds while the surviving
/// shards keep serving theirs — because partial answers from a
/// partitioned keyspace are the whole point of sharding. The fleet is
/// `Down` only when the router itself is down or *every* shard is, i.e.
/// when no keyspace is served at all.
pub fn fleet_state(router: HealthState, shards: &[HealthState]) -> HealthState {
    let overlay = if !shards.is_empty() && shards.iter().all(|&s| s == HealthState::Down) {
        HealthState::Down
    } else if shards.iter().any(|&s| s > HealthState::Healthy) {
        HealthState::Degraded
    } else {
        HealthState::Healthy
    };
    router.max(overlay)
}

/// One shard core's health, as seen in a [`FleetHealthReport`].
#[derive(Clone, Debug)]
pub struct ShardHealthReport {
    /// Shard index in the fleet.
    pub shard: usize,
    /// The shard's own crash-driven state.
    pub state: HealthState,
    /// The shard's worst current crash streak.
    pub consecutive_crashes: u32,
    /// Panics of this shard's workers caught by supervision.
    pub worker_panics: u64,
    /// Restarts of this shard's workers performed by supervision.
    pub worker_restarts: u64,
    /// Panic message of this shard's most recent crash, if any.
    pub last_panic: Option<String>,
}

/// Fleet-level health: the service state plus one row per shard, so an
/// operator can tell *which* shard is sick and how it got there.
#[derive(Clone, Debug)]
pub struct FleetHealthReport {
    /// Effective fleet state (see [`fleet_state`]).
    pub state: HealthState,
    /// The router's own crash-driven state.
    pub router: HealthState,
    /// Per-shard health rows, indexed by shard id.
    pub shards: Vec<ShardHealthReport>,
    /// Epoch of the fleet snapshot queries are served from.
    pub snapshot_epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(HealthThresholds {
            shedding_after: 3,
            down_after: 5,
        })
    }

    #[test]
    fn crashes_walk_the_severity_ladder() {
        let m = monitor();
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.record_crash("w", "p1"), HealthState::Degraded);
        assert_eq!(m.record_crash("w", "p2"), HealthState::Degraded);
        assert_eq!(m.record_crash("w", "p3"), HealthState::Shedding);
        assert_eq!(m.record_crash("w", "p4"), HealthState::Shedding);
        assert_eq!(m.record_crash("w", "p5"), HealthState::Down);
        assert_eq!(m.last_panic().as_deref(), Some("w: p5"));
    }

    #[test]
    fn progress_ends_the_streak_and_restores_healthy() {
        let m = monitor();
        m.record_crash("w", "p");
        m.record_crash("w", "p");
        assert_eq!(m.consecutive_crashes(), 2);
        m.record_progress("w");
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.consecutive_crashes(), 0);
        // The streak restarts from scratch.
        assert_eq!(m.record_crash("w", "p"), HealthState::Degraded);
    }

    #[test]
    fn engine_tier_is_reported_once_set() {
        let m = monitor();
        assert_eq!(m.engine_tier(), None);
        m.set_engine_tier("GLP");
        assert_eq!(m.engine_tier(), Some("GLP"));
        m.set_engine_tier("Sequential-BSP");
        assert_eq!(m.engine_tier(), Some("Sequential-BSP"));
    }

    #[test]
    fn burst_overlay_flag_raises_and_clears() {
        let m = monitor();
        assert!(!m.burst_overlay());
        m.set_burst(true);
        assert!(m.burst_overlay());
        // The crash-driven state is untouched — the overlay is applied by
        // the core's `health()`, not stored in the machine.
        assert_eq!(m.state(), HealthState::Healthy);
        m.set_burst(false);
        assert!(!m.burst_overlay());
    }

    #[test]
    fn down_is_sticky() {
        let m = monitor();
        for _ in 0..5 {
            m.record_crash("w", "loop");
        }
        assert!(m.is_down());
        m.record_progress("w");
        assert!(m.is_down(), "progress must not resurrect a Down service");
    }

    #[test]
    fn revive_is_the_one_exit_from_down() {
        let m = monitor();
        for _ in 0..5 {
            m.record_crash("w", "loop");
        }
        assert!(m.is_down());
        m.revive();
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.consecutive_crashes(), 0, "streaks cleared");
        // The ladder works again from scratch after re-admission.
        assert_eq!(m.record_crash("w", "p"), HealthState::Degraded);
    }

    #[test]
    fn fleet_state_degrades_on_one_dead_shard_downs_on_all() {
        use HealthState::*;
        // All healthy.
        assert_eq!(fleet_state(Healthy, &[Healthy, Healthy]), Healthy);
        // One sick or dead shard: Degraded, never Down.
        assert_eq!(fleet_state(Healthy, &[Healthy, Degraded]), Degraded);
        assert_eq!(fleet_state(Healthy, &[Down, Healthy, Healthy]), Degraded);
        assert_eq!(fleet_state(Healthy, &[Down, Shedding, Healthy]), Degraded);
        // Every shard dead: nothing served, Down.
        assert_eq!(fleet_state(Healthy, &[Down, Down]), Down);
        // The router's own state always floors the result.
        assert_eq!(fleet_state(Shedding, &[Healthy, Healthy]), Shedding);
        assert_eq!(fleet_state(Down, &[Healthy, Healthy]), Down);
        // No shards (degenerate): router state alone.
        assert_eq!(fleet_state(Healthy, &[]), Healthy);
    }

    #[test]
    fn one_workers_progress_does_not_mask_anothers_crash_loop() {
        let m = monitor();
        // Worker `a` crash-loops while worker `b` keeps making progress:
        // `b`'s progress must not reset `a`'s streak, so `a` still walks
        // the ladder all the way to Down.
        m.record_crash("a", "p1");
        m.record_progress("b");
        assert_eq!(m.state(), HealthState::Degraded, "a's streak persists");
        m.record_crash("a", "p2");
        m.record_crash("a", "p3");
        m.record_progress("b");
        assert_eq!(m.state(), HealthState::Shedding);
        assert_eq!(m.consecutive_crashes(), 3);
        m.record_crash("a", "p4");
        m.record_crash("a", "p5");
        assert!(m.is_down());
        // And a's own progress *would* have cleared it (fresh monitor).
        let m2 = monitor();
        m2.record_crash("a", "p");
        m2.record_progress("a");
        assert_eq!(m2.state(), HealthState::Healthy);
    }
}
