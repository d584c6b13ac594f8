//! Recluster-stall injection: the recluster worker serves a `ReclusterStall` itself, holding the recluster lock, so
//! the whole stack above it experiences a slow recluster.
//!
//! Pins the staleness gate's contract under a slow recluster: verdict
//! staleness is *bounded* (the batcher stops applying), overload turns
//! into counted shedding at the full queue, and `health()` reports
//! `Degraded` while the served snapshot is stale — then everything
//! recovers once the stalled recluster completes.

use glp_serve::{Fault, FaultPlan, FraudService, HealthState, ServeConfig, ShedPolicy};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn recluster_stall_degrades_health_and_sheds_bounded() {
    let s = glp_fraud::TxStream::generate(&glp_fraud::TxConfig {
        num_users: 1_000,
        num_items: 400,
        days: 20,
        tx_per_day: 600,
        num_rings: 2,
        ring_size: 8,
        ring_tx_per_day: 20,
        blacklist_fraction: 0.25,
        ..Default::default()
    });
    let cfg = ServeConfig {
        // Tiny queue + tight staleness bound: a stalled recluster must
        // visibly stop the batcher and fill the queue.
        queue_capacity: 64,
        max_batch: 64,
        batch_budget: Duration::from_millis(1),
        shed_policy: ShedPolicy::RejectNew,
        recluster_every_batches: 1,
        max_staleness_batches: 2,
        engine_shards: 1,
        // Every recluster full (the stall is served either way).
        delta_fraction_max: 0.0,
        ..ServeConfig::default()
    }
    .with_window_days(10);

    // Stall the *second* recluster for 400 ms.
    let plan = Arc::new(FaultPlan::new([Fault::ReclusterStall {
        at_recluster: 1,
        millis: 400,
    }]));
    let service = FraudService::start_with_faults(cfg, s.blacklist.clone(), Arc::clone(&plan));

    // Pump traffic until the stall bites: we must observe Degraded
    // health (stale snapshot) and counted shedding (full queue) while
    // the stalled recluster is in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_degraded = false;
    let (mut submitted, mut rejected) = (0u64, 0u64);
    'outer: loop {
        for t in s.window(0, s.config.days) {
            submitted += 1;
            if service.submit(*t).is_err() {
                rejected += 1;
            }
            let h = service.health();
            if h.state >= HealthState::Degraded && h.staleness_batches >= 2 {
                saw_degraded = true;
            }
            if saw_degraded && rejected > 0 {
                break 'outer;
            }
            assert!(
                Instant::now() < deadline,
                "never observed Degraded + shedding under a 400ms stall \
                 (fired: {:?})",
                plan.fired()
            );
        }
    }

    let report = service.shutdown();
    assert!(plan.all_fired(), "the scheduled stall must have fired");
    assert_eq!(
        plan.fired()[0].what,
        "recluster-stall(400ms)@recluster1",
        "the stall was served by the recluster worker"
    );
    assert!(report.clean(), "a slow recluster is not a crash");
    let t = report.core.telemetry();
    let counted = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    // Nothing is silent. Every submission was either queued or refused at
    // the gate, and every gate refusal is a counted full-queue shed or a
    // counted day regression. `rejected_invalid` can exceed the gate's
    // share: when the pump loop wraps the 20-day stream, the gate (which
    // only refuses days that fell out of the window) queues transactions
    // the apply-side admit rule (nothing older than the running end) then
    // refuses — so the surplus is exactly what was queued but not applied.
    assert_eq!(submitted, counted(&t.ingested) + rejected);
    let refused = counted(&t.shed_rejected_new) + counted(&t.rejected_invalid);
    assert!(rejected <= refused);
    // A standalone core stamps what it applies consecutively from 0.
    let applied = report.core.last_seq().map_or(0, |s| s + 1);
    assert_eq!(refused - rejected, counted(&t.ingested) - applied);
    assert!(t.shed_rejected_new.load(Ordering::Relaxed) > 0);
    assert_eq!(t.worker_panics.load(Ordering::Relaxed), 0);
    // Shutdown ran a final recluster, so the service recovered to
    // freshness after the stall.
    assert_eq!(report.core.staleness_batches(), 0);
    assert_eq!(report.core.health().state, HealthState::Healthy);
}
