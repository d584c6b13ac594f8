//! Shard-loss chaos pins: killing one shard mid-stream must *degrade* the
//! fleet — its keyspace sheds while every surviving shard keeps serving
//! verdicts identical to a fault-free run — never take the whole service
//! down. This is the sharded subsystem's
//! core availability claim, demonstrated against injected panics rather
//! than asserted on faith.

use glp_fraud::Transaction;
use glp_serve::{
    Fault, FaultPlan, FleetConfig, FleetCore, FraudScorer, HealthState, Partitioner, ShardRouter,
};
use glp_test_support::regional_stream;
use std::sync::Arc;

const SHARDS: usize = 4;
const VICTIM: usize = 1;

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        exchange_every_batches: 8,
        ..FleetConfig::default()
    }
    .with_window_days(10)
}

/// A plan that panics the victim shard's apply path on enough
/// *consecutive* fleet batches to walk its health monitor all the way
/// to `Down` (`down_after_crashes` defaults to 6; one success in
/// between would reset the streak).
fn kill_plan(from_batch: u64) -> Arc<FaultPlan> {
    let down_after = u64::from(fleet_cfg().shard.down_after_crashes);
    Arc::new(FaultPlan::new((0..down_after).map(|i| Fault::ShardPanic {
        shard: VICTIM,
        at_batch: from_batch + i,
    })))
}

/// Drives the whole regional stream through a fleet core in fixed
/// batches with an exchange round at the end, returning the core.
fn drive(core: &FleetCore, all: &[Transaction]) {
    for chunk in all.chunks(500) {
        core.apply_transactions(chunk);
    }
    core.exchange_now();
}

#[test]
fn killing_one_shard_degrades_the_fleet_and_spares_the_survivors() {
    let s = regional_stream();
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let partitioner = || Partitioner::with_communities(SHARDS, 7, s.community_map());

    let reference = FleetCore::new(fleet_cfg(), partitioner(), s.blacklist.clone());
    drive(&reference, &all);

    let plan = kill_plan(4);
    let faulted = FleetCore::new(fleet_cfg(), partitioner(), s.blacklist.clone())
        .with_faults(Arc::clone(&plan));
    drive(&faulted, &all);
    assert!(plan.all_fired(), "every scheduled shard panic must fire");

    // Degraded, not Down: the victim is dead but the fleet serves on.
    let health = faulted.health();
    assert_eq!(health.state, HealthState::Degraded);
    assert_eq!(health.router, HealthState::Healthy);
    let victim = &health.shards[VICTIM];
    assert_eq!(victim.state, HealthState::Down);
    let down_after = u64::from(fleet_cfg().shard.down_after_crashes);
    assert_eq!(victim.worker_panics, down_after);
    // The final crash pushes the shard to Down, so it is the only one
    // not followed by a retry.
    assert_eq!(victim.worker_restarts, down_after - 1);
    assert!(victim
        .last_panic
        .as_deref()
        .is_some_and(|m| m.contains("shard1-panic")));
    for (i, row) in health.shards.iter().enumerate() {
        if i != VICTIM {
            assert_eq!(row.state, HealthState::Healthy, "survivor {i} unhealthy");
            assert_eq!(row.worker_panics, 0);
        }
    }

    // The victim's keyspace sheds (counted), and once Down its whole
    // sub-batches shed too.
    let shed = faulted.telemetry().snapshot().counter("shed_unhealthy");
    assert!(shed > 0, "lost sub-batches must be counted as shed");

    // Survivors are untouched: their local windows saw exactly the same
    // sub-log as in the fault-free run, so their local snapshots are
    // byte-identical.
    for i in 0..SHARDS {
        if i == VICTIM {
            continue;
        }
        assert_eq!(
            faulted.shards()[i].snapshot().canonical_bytes(),
            reference.shards()[i].snapshot().canonical_bytes(),
            "survivor shard {i} diverged from the fault-free run"
        );
    }

    // Interior survivor users still answer from their live shard; the
    // victim's users fall back to the (victim-less) fleet snapshot
    // rather than erroring.
    let fleet = faulted.fleet_snapshot();
    assert!(fleet.verdicts.num_flagged() > 0, "survivors still flag");
    for &(user, ..) in &fleet.verdicts.flagged {
        let _ = faulted.verdict(user);
    }
}

#[test]
fn threaded_router_survives_a_shard_kill() {
    let s = regional_stream();
    let plan = kill_plan(3);
    let router = ShardRouter::start_with_faults(
        fleet_cfg(),
        Partitioner::with_communities(SHARDS, 7, s.community_map()),
        s.blacklist.clone(),
        Arc::clone(&plan),
    );
    let handle = router.handle();
    for t in s.window(0, s.config.days) {
        // The gate stays open through the kill: only the victim's
        // keyspace sheds, everything else must be accepted.
        let _ = router.submit(*t);
    }
    let report = router.shutdown();
    assert!(plan.all_fired(), "every scheduled shard panic must fire");
    assert_eq!(report.state, HealthState::Degraded, "degraded, not down");
    let health = report.core.health();
    assert_eq!(health.shards[VICTIM].state, HealthState::Down);
    assert!(health
        .shards
        .iter()
        .enumerate()
        .all(|(i, r)| i == VICTIM || r.state == HealthState::Healthy));
    // The surviving fleet still serves flagged verdicts.
    let snap = report.core.fleet_snapshot();
    assert!(snap.verdicts.num_flagged() > 0);
    let flagged_user = snap.verdicts.flagged[0].0;
    assert!(matches!(
        handle.score(flagged_user),
        glp_serve::Verdict::Flagged { .. }
    ));
}
