//! The ingest stage: a bounded queue with explicit backpressure in front
//! of a micro-batcher.
//!
//! Producers submit transactions through [`IngestGate`]; the queue bound
//! is the service's only buffer, so overload is confronted immediately at
//! the door and handled by the configured [`ShedPolicy`] — **counted**,
//! never silent, and never by blocking the producer. The batch loop
//! drains the queue into micro-batches shaped by both a size cap and a
//! time budget: under load batches fill to `max_batch` (amortizing the
//! window lock), when traffic is thin the budget bounds how long a lone
//! transaction waits before it is applied.
//!
//! A [`BurstState`] detector watches the gate's shed rate over fixed
//! evaluation windows. When the rate crosses the configured threshold
//! the service enters *burst* mode: the batcher tightens (smaller
//! batches, shorter budgets, so the queue drains faster) and the health
//! overlay reports at least `Degraded`; the detector leaves burst mode
//! only after a configurable run of calm windows (hysteresis).
//! Crucially, burst mode never changes *admission* decisions — the
//! accepted-transaction sequence stays a pure function of the offered
//! schedule, which the overload determinism test pins.

use crate::config::{ServeConfig, ShedPolicy};
use crate::health::{HealthMonitor, HealthState};
use crate::telemetry::Telemetry;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use glp_fraud::Transaction;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transaction stamped at submission, so the batcher can charge the
/// full queue wait to the ingest-lag histogram.
#[derive(Clone, Copy, Debug)]
pub struct Submitted {
    /// The transaction itself.
    pub tx: Transaction,
    /// When the producer handed it over.
    pub at: Instant,
}

impl Submitted {
    /// Stamps raw transactions as submitted now — one micro-batch for
    /// the synchronous drivers (tests, the determinism suite, the bench).
    pub fn now(txs: &[Transaction]) -> Vec<Self> {
        let at = Instant::now();
        txs.iter().map(|&tx| Self { tx, at }).collect()
    }
}

/// Shed rate (sheds / submissions over one evaluation window) at or above
/// which the burst detector enters *burst* mode.
const BURST_SHED_THRESHOLD: f64 = 0.10;
/// Shed rate below which an evaluation window counts as *calm*. The gap
/// up to [`BURST_SHED_THRESHOLD`] is the hysteresis band that stops the
/// detector flapping on a load hovering at the threshold.
const BURST_RECOVER_THRESHOLD: f64 = 0.02;
/// Consecutive calm windows required to leave burst mode.
const BURST_RECOVERY_WINDOWS: u32 = 2;
/// How much batching tightens during a burst: the batch size cap and time
/// budget are divided by this (floor 1 transaction / 1 ms), so the window
/// drains in smaller, faster batches while the flood lasts. Admission is
/// *not* affected — accepted-transaction sequences stay deterministic.
const BURST_BATCH_DIVISOR: u32 = 4;

/// Shed-rate burst detector shared by the gate (which feeds it one
/// observation per submit) and the batcher (which tightens while a
/// burst is active).
///
/// The detector evaluates once per [`ServeConfig::burst_window`] gate
/// submissions: a window whose shed rate reaches `BURST_SHED_THRESHOLD`
/// enters burst mode (counted in `bursts_detected`, health overlay raised
/// at least to [`Degraded`](HealthState::Degraded)); only
/// `BURST_RECOVERY_WINDOWS` consecutive windows below
/// `BURST_RECOVER_THRESHOLD` leave it. Windows are counted in
/// *submissions*, not wall time, so detection is a deterministic function
/// of the offered schedule.
#[derive(Debug)]
pub struct BurstState {
    window: u64,
    submissions: AtomicU64,
    sheds: AtomicU64,
    calm: AtomicU32,
    active: AtomicBool,
    health: Arc<HealthMonitor>,
    telemetry: Arc<Telemetry>,
}

impl BurstState {
    /// A detector evaluating every `cfg.burst_window` submissions, or
    /// `None` when `burst_window == 0` (detection disabled).
    pub fn from_config(
        cfg: &ServeConfig,
        health: Arc<HealthMonitor>,
        telemetry: Arc<Telemetry>,
    ) -> Option<Arc<Self>> {
        if cfg.burst_window == 0 {
            return None;
        }
        Some(Arc::new(Self {
            window: cfg.burst_window,
            submissions: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            calm: AtomicU32::new(0),
            active: AtomicBool::new(false),
            health,
            telemetry,
        }))
    }

    /// Whether a burst is currently active.
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// One gate observation: `shed` is true when the submit shed load
    /// (overflow or unhealthy — invalid transactions are not an overload
    /// signal). The submission that completes an evaluation window
    /// evaluates the window's shed rate and drives the enter/exit
    /// transitions.
    fn record(&self, shed: bool) {
        if shed {
            self.sheds.fetch_add(1, Ordering::Relaxed);
        }
        let n = self.submissions.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.window) {
            return;
        }
        // Racing producers may attribute a shed to the neighbouring
        // window; the rate is a smoothed signal either way, and in the
        // single-producer harnesses (benches, tests) this is exact.
        let shed_count = self.sheds.swap(0, Ordering::AcqRel);
        let rate = shed_count as f64 / self.window as f64;
        if rate >= BURST_SHED_THRESHOLD {
            self.calm.store(0, Ordering::Relaxed);
            if !self.active.swap(true, Ordering::AcqRel) {
                self.telemetry
                    .bursts_detected
                    .fetch_add(1, Ordering::Relaxed);
                self.health.set_burst(true);
            }
        } else if rate < BURST_RECOVER_THRESHOLD {
            self.note_calm();
        } else {
            // In the hysteresis band: not calm enough to recover, not
            // loud enough to (re-)enter.
            self.calm.store(0, Ordering::Relaxed);
        }
    }

    /// One *calm window* worth of evidence: a below-threshold evaluation
    /// window, or an idle batcher tick (the queue sat empty for a full
    /// budget — a flood cannot be in progress), so a burst followed by
    /// silence still recovers instead of pinning the overlay until the
    /// next traffic arrives.
    fn note_calm(&self) {
        if !self.active() {
            return;
        }
        let calm = self.calm.fetch_add(1, Ordering::AcqRel) + 1;
        if calm >= BURST_RECOVERY_WINDOWS {
            self.calm.store(0, Ordering::Relaxed);
            self.active.store(false, Ordering::Release);
            self.health.set_burst(false);
        }
    }

    /// Clears the detector outright — the ingest queue closed (every
    /// gate dropped), so there is no admission left to protect and a
    /// lingering overlay would misreport the final health.
    fn force_clear(&self) {
        if self.active.swap(false, Ordering::AcqRel) {
            self.health.set_burst(false);
        }
        self.calm.store(0, Ordering::Relaxed);
    }

    /// The batch shape the batcher should use right now: the configured
    /// `(max_batch, budget)` untouched when calm, divided by
    /// [`BURST_BATCH_DIVISOR`] (floor 1 transaction / 1 ms) while a burst
    /// is active.
    fn shape(&self, max_batch: usize, budget: Duration) -> (usize, Duration) {
        if !self.active() {
            return (max_batch, budget);
        }
        (
            (max_batch / BURST_BATCH_DIVISOR as usize).max(1),
            (budget / BURST_BATCH_DIVISOR).max(Duration::from_millis(1)),
        )
    }
}

/// Creates the ingest pair: the producer-facing gate and the
/// batcher-facing drain. `window_days` and the `window_end` watermark
/// (maintained by the apply path) bound the day-regression check; the
/// health monitor closes the gate while the service is
/// [`Shedding`](HealthState::Shedding) or worse. `burst`, when present,
/// receives one observation per submit (see [`BurstState`]).
pub fn ingest_pair(
    capacity: usize,
    policy: ShedPolicy,
    window_days: u32,
    window_end: Arc<AtomicU32>,
    health: Arc<HealthMonitor>,
    telemetry: Arc<Telemetry>,
    burst: Option<Arc<BurstState>>,
) -> (IngestGate, Receiver<Submitted>) {
    let (tx, rx) = bounded(capacity);
    (
        IngestGate {
            tx,
            evict: rx.clone(),
            policy,
            window_days,
            window_end,
            health,
            telemetry,
            burst,
        },
        rx,
    )
}

/// The ingest side of one threaded shell, wired from `cfg`: the gate, and
/// a factory for the batcher draining it (a supervised worker builds a
/// fresh [`Batcher`] on every restart), sharing one burst detector.
pub(crate) fn open_ingest(
    cfg: &ServeConfig,
    window_end: Arc<AtomicU32>,
    health: Arc<HealthMonitor>,
    telemetry: Arc<Telemetry>,
) -> (IngestGate, impl Fn() -> Batcher + Send + 'static) {
    let burst = BurstState::from_config(cfg, Arc::clone(&health), Arc::clone(&telemetry));
    let (gate, rx) = ingest_pair(
        cfg.queue_capacity,
        cfg.shed_policy,
        cfg.pipeline.window_days,
        window_end,
        health,
        telemetry,
        burst.clone(),
    );
    let (max_batch, budget) = (cfg.max_batch, cfg.batch_budget);
    let new_batcher = move || Batcher::new(rx.clone(), max_batch, budget).with_burst(burst.clone());
    (gate, new_batcher)
}

/// Producer-facing submission point. Cloneable; one per producer thread.
#[derive(Clone)]
pub struct IngestGate {
    tx: Sender<Submitted>,
    /// Second receiver on the same queue, used only to evict under
    /// [`ShedPolicy::DropOldest`] (the queue is MPMC, so eviction is just
    /// a competing consumer).
    evict: Receiver<Submitted>,
    policy: ShedPolicy,
    window_days: u32,
    /// Watermark of the window's exclusive end day, maintained by the
    /// apply path. Only ever increases, so a slightly stale read makes
    /// the gate's day check *more permissive* — the apply-side validation
    /// remains authoritative.
    window_end: Arc<AtomicU32>,
    health: Arc<HealthMonitor>,
    telemetry: Arc<Telemetry>,
    burst: Option<Arc<BurstState>>,
}

impl IngestGate {
    /// Whether `tx` is obviously malformed: a non-finite amount, or a
    /// day regression beyond the live window (it could only corrupt
    /// history that has already expired). Note that `buyer == item` is
    /// *not* malformed — buyer and item ids live in disjoint namespaces
    /// (the bipartite build assigns them separate vertex ranges), so a
    /// numeric collision cannot create a self-edge.
    fn invalid(&self, tx: &Transaction) -> bool {
        !tx.amount.is_finite()
            || tx.day
                < self
                    .window_end
                    .load(Ordering::Acquire)
                    .saturating_sub(self.window_days)
    }

    /// Submits one transaction. Never blocks. `Err` returns the
    /// transaction when it was shed: invalid (counted
    /// `rejected_invalid`), service unhealthy (counted `shed_unhealthy`),
    /// a full queue under [`ShedPolicy::RejectNew`] (counted), or the
    /// service shut down.
    ///
    /// Shedding is counted under two axes: *per reason* (`shed_unhealthy`
    /// / `rejected_invalid` / per-policy overflow counters) and, for
    /// overflow, the policy-independent `shed_overflow` roll-up — the
    /// counter dashboards alert on without caring which [`ShedPolicy`]
    /// is configured. `shed_overflow` always equals
    /// [`shed_total`](Telemetry::shed_total).
    pub fn submit(&self, tx: Transaction) -> Result<(), Transaction> {
        if self.invalid(&tx) {
            self.telemetry
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(tx);
        }
        if self.health.state() >= HealthState::Shedding {
            self.telemetry
                .shed_unhealthy
                .fetch_add(1, Ordering::Relaxed);
            self.observe_burst(true);
            return Err(tx);
        }
        let mut item = Submitted {
            tx,
            at: Instant::now(),
        };
        let mut shed_any = false;
        loop {
            match self.tx.try_send(item) {
                Ok(()) => {
                    self.telemetry.ingested.fetch_add(1, Ordering::Relaxed);
                    self.observe_burst(shed_any);
                    return Ok(());
                }
                Err(TrySendError::Disconnected(s)) => return Err(s.tx),
                Err(TrySendError::Full(s)) => match self.policy {
                    ShedPolicy::RejectNew => {
                        self.telemetry
                            .shed_rejected_new
                            .fetch_add(1, Ordering::Relaxed);
                        self.telemetry.shed_overflow.fetch_add(1, Ordering::Relaxed);
                        self.observe_burst(true);
                        return Err(s.tx);
                    }
                    ShedPolicy::DropOldest => {
                        // Evict the head to make room; if the batcher
                        // raced us and drained it already, just retry.
                        if self.evict.try_recv().is_ok() {
                            self.telemetry
                                .shed_dropped_oldest
                                .fetch_add(1, Ordering::Relaxed);
                            self.telemetry.shed_overflow.fetch_add(1, Ordering::Relaxed);
                            shed_any = true;
                        }
                        item = s;
                    }
                },
            }
        }
    }

    /// Feeds the burst detector one observation for this submit (no-op
    /// when detection is disabled).
    fn observe_burst(&self, shed: bool) {
        if let Some(b) = &self.burst {
            b.record(shed);
        }
    }

    /// Transactions currently queued (diagnostic).
    pub fn queued(&self) -> usize {
        self.tx.len()
    }
}

/// Drains a receiver into micro-batches.
pub struct Batcher {
    rx: Receiver<Submitted>,
    max_batch: usize,
    budget: Duration,
    burst: Option<Arc<BurstState>>,
}

/// The ingest channel closed: every gate is gone and the queue drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

impl Batcher {
    /// A batcher over `rx` with the given size cap and time budget.
    pub fn new(rx: Receiver<Submitted>, max_batch: usize, budget: Duration) -> Self {
        assert!(max_batch >= 1, "batches need at least one transaction");
        Self {
            rx,
            max_batch,
            budget,
            burst: None,
        }
    }

    /// Attaches a burst detector: while a burst is active, batches
    /// tighten to `max_batch / divisor` and `budget / divisor` so the
    /// flooded queue drains in smaller, faster steps.
    pub fn with_burst(mut self, burst: Option<Arc<BurstState>>) -> Self {
        self.burst = burst;
        self
    }

    /// The next micro-batch: waits up to the budget for a first
    /// transaction (an empty batch means an idle tick — callers loop),
    /// then drains greedily until the size cap or until the budget from
    /// the first arrival elapses with the queue empty. The shape is
    /// re-read per batch, so burst tightening takes effect on the very
    /// next batch after detection.
    pub fn next_batch(&self) -> Result<Vec<Submitted>, Closed> {
        let (max_batch, budget) = match &self.burst {
            Some(b) => b.shape(self.max_batch, self.budget),
            None => (self.max_batch, self.budget),
        };
        let first = match self.rx.recv_timeout(budget) {
            Ok(s) => s,
            Err(RecvTimeoutError::Timeout) => {
                // The queue sat empty for a full budget: a flood cannot
                // be in progress, so an idle tick is one calm window of
                // evidence toward burst recovery.
                if let Some(b) = &self.burst {
                    b.note_calm();
                }
                return Ok(Vec::new());
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Every gate dropped — there is no admission left to
                // protect, so a lingering burst overlay would only
                // misreport the final health.
                if let Some(b) = &self.burst {
                    b.force_clear();
                }
                return Err(Closed);
            }
        };
        let deadline = Instant::now() + budget;
        let mut batch = Vec::with_capacity(max_batch.min(64));
        batch.push(first);
        while batch.len() < max_batch {
            match self.rx.try_recv() {
                Ok(s) => batch.push(s),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match self.rx.recv_timeout(deadline - now) {
                        Ok(s) => batch.push(s),
                        Err(_) => break,
                    }
                }
            }
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthThresholds;

    fn tx(day: u32) -> Transaction {
        Transaction {
            buyer: 1,
            item: 2,
            day,
            amount: 1.0,
        }
    }

    fn pair(
        capacity: usize,
        policy: ShedPolicy,
    ) -> (IngestGate, Receiver<Submitted>, Arc<Telemetry>) {
        let t = Arc::new(Telemetry::new());
        let health = Arc::new(HealthMonitor::new(HealthThresholds {
            shedding_after: 2,
            down_after: 4,
        }));
        let (gate, rx) = ingest_pair(
            capacity,
            policy,
            10,
            Arc::new(AtomicU32::new(0)),
            health,
            Arc::clone(&t),
            None,
        );
        (gate, rx, t)
    }

    fn burst_pair(
        capacity: usize,
        policy: ShedPolicy,
        cfg: &ServeConfig,
    ) -> (IngestGate, Receiver<Submitted>, Arc<Telemetry>) {
        let t = Arc::new(Telemetry::new());
        let health = Arc::new(HealthMonitor::new(HealthThresholds {
            shedding_after: 2,
            down_after: 4,
        }));
        let burst = BurstState::from_config(cfg, Arc::clone(&health), Arc::clone(&t));
        let (gate, rx) = ingest_pair(
            capacity,
            policy,
            10,
            Arc::new(AtomicU32::new(0)),
            health,
            Arc::clone(&t),
            burst,
        );
        (gate, rx, t)
    }

    #[test]
    fn invalid_transactions_are_shed_and_counted() {
        let (gate, _rx, t) = pair(16, ShedPolicy::RejectNew);
        let nan = Transaction {
            amount: f32::NAN,
            ..tx(0)
        };
        let inf = Transaction {
            amount: f32::INFINITY,
            ..tx(0)
        };
        assert!(gate.submit(nan).is_err());
        assert!(gate.submit(inf).is_err());
        assert_eq!(t.rejected_invalid.load(Ordering::Relaxed), 2);
        assert_eq!(t.ingested.load(Ordering::Relaxed), 0);
        // Valid traffic still flows — including buyer == item, which is
        // a namespace collision, not a self-edge (ids are bipartite).
        assert!(gate.submit(tx(0)).is_ok());
        let collision = Transaction {
            buyer: 7,
            item: 7,
            day: 0,
            amount: 1.0,
        };
        assert!(gate.submit(collision).is_ok());
    }

    #[test]
    fn day_regressions_beyond_the_window_are_shed() {
        let (gate, _rx, t) = pair(16, ShedPolicy::RejectNew);
        // Window [15, 25): a day-10 transaction could only corrupt
        // already-expired history.
        gate.window_end.store(25, Ordering::Release);
        assert!(gate.submit(tx(10)).is_err());
        assert_eq!(t.rejected_invalid.load(Ordering::Relaxed), 1);
        // In-window (even if for a closed batch day) passes the gate —
        // the apply-side validation is authoritative for those.
        assert!(gate.submit(tx(20)).is_ok());
        assert!(gate.submit(tx(24)).is_ok());
    }

    #[test]
    fn unhealthy_gate_sheds_counted() {
        let (gate, _rx, t) = pair(16, ShedPolicy::RejectNew);
        gate.health.record_crash("w", "p1");
        assert!(gate.submit(tx(0)).is_ok(), "Degraded still ingests");
        gate.health.record_crash("w", "p2");
        assert!(gate.submit(tx(0)).is_err(), "Shedding refuses");
        assert_eq!(t.shed_unhealthy.load(Ordering::Relaxed), 1);
        gate.health.record_progress("w");
        assert!(gate.submit(tx(0)).is_ok(), "recovery reopens the gate");
    }

    #[test]
    fn reject_new_counts_and_returns_the_transaction() {
        let (gate, _rx, t) = pair(2, ShedPolicy::RejectNew);
        gate.submit(tx(0)).unwrap();
        gate.submit(tx(1)).unwrap();
        let rejected = gate.submit(tx(2)).unwrap_err();
        assert_eq!(rejected.day, 2);
        assert_eq!(t.shed_rejected_new.load(Ordering::Relaxed), 1);
        assert_eq!(t.ingested.load(Ordering::Relaxed), 2);
        assert_eq!(gate.queued(), 2);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_and_counts() {
        let (gate, rx, t) = pair(2, ShedPolicy::DropOldest);
        gate.submit(tx(0)).unwrap();
        gate.submit(tx(1)).unwrap();
        gate.submit(tx(2)).unwrap(); // evicts day 0
        assert_eq!(t.shed_dropped_oldest.load(Ordering::Relaxed), 1);
        assert_eq!(t.ingested.load(Ordering::Relaxed), 3);
        let days: Vec<u32> = (0..2).map(|_| rx.try_recv().unwrap().tx.day).collect();
        assert_eq!(days, vec![1, 2]);
    }

    #[test]
    fn shed_overflow_rolls_up_both_policies() {
        // RejectNew: every overflow bumps shed_overflow with the
        // per-policy counter.
        let (gate, _rx, t) = pair(2, ShedPolicy::RejectNew);
        gate.submit(tx(0)).unwrap();
        gate.submit(tx(1)).unwrap();
        assert!(gate.submit(tx(2)).is_err());
        assert_eq!(t.shed_overflow.load(Ordering::Relaxed), 1);
        assert_eq!(t.shed_overflow.load(Ordering::Relaxed), t.shed_total());
        // DropOldest: likewise, and only when an eviction actually
        // happened.
        let (gate, _rx, t) = pair(2, ShedPolicy::DropOldest);
        gate.submit(tx(0)).unwrap();
        gate.submit(tx(1)).unwrap();
        gate.submit(tx(2)).unwrap();
        gate.submit(tx(3)).unwrap();
        assert_eq!(t.shed_overflow.load(Ordering::Relaxed), 2);
        assert_eq!(t.shed_overflow.load(Ordering::Relaxed), t.shed_total());
    }

    #[test]
    fn burst_detector_enters_counts_and_recovers_with_hysteresis() {
        // A 50-submission window: one shed in it is a 2 % rate, inside
        // the hysteresis band [BURST_RECOVER_THRESHOLD, BURST_SHED_THRESHOLD).
        let cfg = ServeConfig {
            burst_window: 50,
            ..ServeConfig::default()
        };
        // Capacity 2 with no consumer: the third submit onward sheds.
        let (gate, rx, t) = burst_pair(2, ShedPolicy::DropOldest, &cfg);
        let burst = gate.burst.as_ref().unwrap().clone();
        assert!(!burst.active());
        // Window 1: 2 accepts + 48 evictions = 96% shed rate -> burst.
        for d in 0..50 {
            gate.submit(tx(d)).unwrap();
        }
        assert!(burst.active(), "96% shed rate must trip the detector");
        assert_eq!(t.bursts_detected.load(Ordering::Relaxed), 1);
        assert!(gate.health.burst_overlay());
        // The batcher tightens: cap 8 becomes 8 / BURST_BATCH_DIVISOR.
        let b = Batcher::new(rx.clone(), 8, Duration::from_millis(50))
            .with_burst(Some(Arc::clone(&burst)));
        assert_eq!(
            b.next_batch().unwrap().len(),
            8 / BURST_BATCH_DIVISOR as usize
        );
        while rx.try_recv().is_ok() {}
        let calm_window = || {
            for d in 0..50 {
                gate.submit(tx(d)).unwrap();
                let _ = rx.try_recv(); // consumer keeps up: no sheds
            }
        };
        // One calm window is not enough to recover...
        calm_window();
        assert!(burst.active(), "one calm window must not recover");
        // ...and a window inside the band neither recovers nor re-enters,
        // but restarts the calm run: three submits with no consumer evict
        // one, the rest are drained as they come.
        for d in 0..3 {
            gate.submit(tx(d)).unwrap();
        }
        while rx.try_recv().is_ok() {}
        for d in 3..50 {
            gate.submit(tx(d)).unwrap();
            let _ = rx.try_recv();
        }
        assert!(burst.active(), "a window in the band must not recover");
        assert_eq!(t.bursts_detected.load(Ordering::Relaxed), 1);
        calm_window();
        assert!(burst.active(), "the band window restarted the calm run");
        // The second consecutive calm window after it recovers.
        calm_window();
        assert!(!burst.active(), "two calm windows recover");
        assert!(!gate.health.burst_overlay());
        assert_eq!(
            t.bursts_detected.load(Ordering::Relaxed),
            1,
            "recovery does not recount"
        );
    }

    #[test]
    fn burst_mode_does_not_change_admission() {
        // The same offered schedule yields the same accepted sequence
        // with detection on and off — burst mode only reshapes batches.
        let cfg = ServeConfig {
            burst_window: 4,
            ..ServeConfig::default()
        };
        let run = |with_burst: bool| -> (Vec<u32>, u64) {
            let (gate, rx, t) = if with_burst {
                burst_pair(3, ShedPolicy::DropOldest, &cfg)
            } else {
                pair(3, ShedPolicy::DropOldest)
            };
            let mut accepted = Vec::new();
            for d in 0..12 {
                if gate.submit(tx(d)).is_ok() {
                    // Drain every fourth submit: each window of four
                    // evicts one (25 %), so detection does engage.
                    if d % 4 == 3 {
                        while let Ok(s) = rx.try_recv() {
                            accepted.push(s.tx.day);
                        }
                    }
                }
            }
            while let Ok(s) = rx.try_recv() {
                accepted.push(s.tx.day);
            }
            (accepted, t.bursts_detected.load(Ordering::Relaxed))
        };
        let (with, bursts) = run(true);
        assert_eq!(bursts, 1, "the schedule must trip the detector");
        assert_eq!(with, run(false).0);
    }

    #[test]
    fn batcher_caps_by_count() {
        let (gate, rx, _t) = pair(16, ShedPolicy::RejectNew);
        for d in 0..10 {
            gate.submit(tx(d)).unwrap();
        }
        let b = Batcher::new(rx, 4, Duration::from_millis(50));
        let batch = b.next_batch().unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(b.next_batch().unwrap().len(), 4);
        assert_eq!(b.next_batch().unwrap().len(), 2);
    }

    #[test]
    fn batcher_idle_tick_is_empty_and_closure_is_reported() {
        let (gate, rx, _t) = pair(4, ShedPolicy::RejectNew);
        let b = Batcher::new(rx, 4, Duration::from_millis(5));
        assert!(b.next_batch().unwrap().is_empty());
        drop(gate);
        assert!(matches!(b.next_batch(), Err(Closed)));
    }
}
