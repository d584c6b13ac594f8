//! Deterministic overload: a fixed offered schedule driven through the
//! ingest gate must admit exactly the same transaction sequence on every
//! run, under *both* shed policies, with burst detection active — burst
//! mode tightens batching and raises the health overlay, but admission
//! is a pure function of the schedule. The accepted prefix then feeds
//! the sharded fleet: 1-, 2-, and 4-shard runs over the admitted
//! sequence publish byte-identical verdict snapshots, so an adversary
//! flooding the gate cannot even perturb *which* verdicts the fleet
//! converges to, only how much organic load rides along.

use glp_fraud::Transaction;
use glp_serve::{
    ingest::ingest_pair, BurstState, FleetConfig, FleetCore, HealthMonitor, HealthThresholds,
    Partitioner, ServeConfig, ServiceCore, ShedPolicy, Telemetry,
};
use glp_test_support::adversarial_stream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Drives the whole adversarial stream through a small gate on a fixed
/// interleaved schedule — submit one, drain one from the queue every
/// third submission (a consumer that cannot keep up) — and returns the
/// admitted sequence in queue order plus the final telemetry. Entirely
/// single-threaded, so every admission decision is a pure function of
/// the schedule.
fn offered_schedule(policy: ShedPolicy, detect_bursts: bool) -> (Vec<Transaction>, Arc<Telemetry>) {
    let s = adversarial_stream();
    let cfg = ServeConfig {
        // A window small enough that the flood day overflows it many
        // times over, and burst windows short enough to evaluate often.
        queue_capacity: 64,
        burst_window: if detect_bursts { 128 } else { 0 },
        ..ServeConfig::default()
    };
    let health = Arc::new(HealthMonitor::new(HealthThresholds {
        shedding_after: 3,
        down_after: 8,
    }));
    let telemetry = Arc::new(Telemetry::new());
    let burst = BurstState::from_config(&cfg, Arc::clone(&health), Arc::clone(&telemetry));
    let (gate, rx) = ingest_pair(
        cfg.queue_capacity,
        policy,
        cfg.pipeline.window_days,
        Arc::new(AtomicU32::new(0)),
        health,
        Arc::clone(&telemetry),
        burst,
    );
    let mut accepted = Vec::new();
    for (i, tx) in s.window(0, s.config.base.days).enumerate() {
        let _ = gate.submit(*tx);
        if i % 3 == 0 {
            if let Ok(item) = rx.try_recv() {
                accepted.push(item.tx);
            }
        }
    }
    while let Ok(item) = rx.try_recv() {
        accepted.push(item.tx);
    }
    (accepted, telemetry)
}

#[test]
fn admitted_sequence_is_deterministic_under_both_policies() {
    for policy in [ShedPolicy::DropOldest, ShedPolicy::RejectNew] {
        let (a, ta) = offered_schedule(policy, true);
        let (b, tb) = offered_schedule(policy, true);
        assert_eq!(a, b, "{policy:?}: admitted sequence must be reproducible");
        assert_eq!(
            ta.shed_total(),
            tb.shed_total(),
            "{policy:?}: shed accounting must be reproducible"
        );
        assert!(
            ta.shed_total() > 0,
            "{policy:?}: the schedule must actually overload the gate"
        );
        assert_eq!(
            ta.shed_overflow.load(Ordering::Relaxed),
            ta.shed_total(),
            "{policy:?}: the overflow roll-up must cover every overflow shed"
        );
        assert!(
            ta.bursts_detected.load(Ordering::Relaxed) > 0,
            "{policy:?}: the flood must trip the burst detector"
        );
    }
}

#[test]
fn burst_detection_does_not_change_admission() {
    for policy in [ShedPolicy::DropOldest, ShedPolicy::RejectNew] {
        let (with, _) = offered_schedule(policy, true);
        let (without, _) = offered_schedule(policy, false);
        assert_eq!(
            with, without,
            "{policy:?}: burst mode must not perturb admission"
        );
    }
}

/// The admitted prefix through a sharded fleet at fixed batch
/// boundaries, as canonical snapshot bytes (cf. `tests/determinism.rs`).
fn fleet_over_admitted(admitted: &[Transaction], shards: usize) -> Vec<Vec<u8>> {
    let s = adversarial_stream();
    let cfg = FleetConfig {
        shards,
        ..FleetConfig::default()
    }
    .with_window_days(10);
    let partitioner = Partitioner::with_communities(shards, 7, s.community_map());
    let core = FleetCore::new(cfg, partitioner, s.blacklist.clone());
    let mut snapshots = Vec::new();
    for (i, chunk) in admitted.chunks(400).enumerate() {
        core.apply_transactions(chunk);
        if (i + 1) % 4 == 0 {
            core.exchange_now();
            snapshots.push(core.fleet_snapshot().verdicts.canonical_bytes());
        }
    }
    core.exchange_now();
    snapshots.push(core.fleet_snapshot().verdicts.canonical_bytes());
    snapshots
}

#[test]
fn admitted_prefix_is_byte_identical_across_1_2_4_shards() {
    let (admitted, _) = offered_schedule(ShedPolicy::DropOldest, true);
    assert!(
        admitted.len() > 2_000,
        "enough must survive shedding to exercise the fleet"
    );

    // The unsharded reference over the same admitted prefix.
    let s = adversarial_stream();
    let core = ServiceCore::new(
        ServeConfig::default().with_window_days(10),
        s.blacklist.clone(),
    );
    let mut reference = Vec::new();
    for (i, chunk) in admitted.chunks(400).enumerate() {
        core.apply_transactions(chunk);
        if (i + 1) % 4 == 0 {
            core.recluster_now();
            reference.push(core.snapshot().canonical_bytes());
        }
    }
    core.recluster_now();
    reference.push(core.snapshot().canonical_bytes());

    let one = fleet_over_admitted(&admitted, 1);
    let two = fleet_over_admitted(&admitted, 2);
    let four = fleet_over_admitted(&admitted, 4);
    assert!(reference.len() > 2, "expected several published snapshots");
    assert_eq!(reference, one, "1-shard fleet differs from the reference");
    assert_eq!(reference, two, "2-shard fleet differs from the reference");
    assert_eq!(reference, four, "4-shard fleet differs from the reference");
}
