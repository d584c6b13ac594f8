//! Fault-injection pins: every recovery claim the fault-tolerance layer
//! makes is demonstrated against an injected fault, not asserted on
//! faith.
//!
//! The central pin: a batcher panic at a chosen batch index, caught and
//! restarted by the supervisor, yields a final snapshot **byte-identical**
//! to the fault-free run — the panic hook fires before the batch is
//! drained, so the queued transactions survive the crash and recovery is
//! lossless by construction.

use glp_fraud::{TxConfig, TxStream};
use glp_serve::{
    Fault, FaultPlan, FraudScorer, FraudService, HealthState, ServeConfig, ShedPolicy, Verdict,
    WorkerOutcome,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn stream() -> TxStream {
    TxStream::generate(&TxConfig {
        num_users: 1_200,
        num_items: 500,
        days: 20,
        tx_per_day: 700,
        num_rings: 3,
        ring_size: 10,
        ring_tx_per_day: 30,
        blacklist_fraction: 0.25,
        ..Default::default()
    })
}

fn cfg() -> ServeConfig {
    ServeConfig {
        // Large enough that nothing sheds: byte-identity across runs
        // requires both runs to apply the same transactions.
        queue_capacity: 1 << 16,
        max_batch: 256,
        batch_budget: Duration::from_millis(2),
        shed_policy: ShedPolicy::RejectNew,
        recluster_every_batches: 4,
        engine_shards: 2,
        restart_backoff: Duration::from_millis(1),
        restart_backoff_cap: Duration::from_millis(20),
        ..ServeConfig::default()
    }
    .with_window_days(10)
}

fn run_to_bytes(service: FraudService, s: &TxStream) -> (Vec<u8>, Arc<glp_serve::ServiceCore>) {
    for t in s.window(0, s.config.days) {
        service.submit(*t).expect("large queue, no shed");
    }
    let report = service.shutdown();
    let core = report.core;
    (core.snapshot().canonical_bytes(), core)
}

#[test]
fn batcher_panic_recovers_byte_identical() {
    let s = stream();

    // Fault-free reference run.
    let (want, _) = run_to_bytes(FraudService::start(cfg(), s.blacklist.clone()), &s);

    // Same traffic with a batcher panic before batch 6 is drained.
    let plan = Arc::new(FaultPlan::new([Fault::BatcherPanic { at_batch: 6 }]));
    let service = FraudService::start_with_faults(cfg(), s.blacklist.clone(), Arc::clone(&plan));
    let (got, core) = run_to_bytes(service, &s);

    assert!(plan.all_fired(), "the scheduled panic must actually fire");
    let t = core.telemetry();
    assert_eq!(t.worker_panics.load(Ordering::Relaxed), 1);
    assert_eq!(t.worker_restarts.load(Ordering::Relaxed), 1);
    assert_eq!(core.health().state, HealthState::Healthy, "streak reset");
    assert_eq!(
        got, want,
        "supervised restart must converge to the fault-free verdicts"
    );
}

#[test]
fn crash_loop_goes_down_but_queries_survive() {
    let s = stream();
    let mut c = cfg();
    c.shedding_after_crashes = 2;
    c.down_after_crashes = 3;
    // Three panics pinned to batch 0: the batcher never makes progress,
    // so each restart re-fires until the restart budget is exhausted.
    let plan = Arc::new(FaultPlan::new([
        Fault::BatcherPanic { at_batch: 0 },
        Fault::BatcherPanic { at_batch: 0 },
        Fault::BatcherPanic { at_batch: 0 },
    ]));
    let service = FraudService::start_with_faults(c, s.blacklist.clone(), Arc::clone(&plan));
    let handle = service.handle();

    let deadline = Instant::now() + Duration::from_secs(10);
    while service.health().state != HealthState::Down {
        assert!(Instant::now() < deadline, "service never went Down");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(plan.all_fired());

    // Ingest is closed — shed, counted — but queries still answer from
    // the last published snapshot (here: the initial empty one).
    let tx = *s.window(0, 1).next().expect("stream has transactions");
    assert!(service.submit(tx).is_err(), "Down service sheds");
    assert!(matches!(handle.score(tx.buyer), Verdict::Unknown));
    let h = service.health();
    assert_eq!(h.consecutive_crashes, 3);
    assert!(h
        .last_panic
        .expect("panic recorded")
        .contains("batcher-panic@batch0"));

    let report = service.shutdown();
    assert_eq!(report.state, HealthState::Down);
    match report.batcher {
        WorkerOutcome::Abandoned {
            panics,
            ref last_panic,
        } => {
            assert_eq!(panics, 3);
            assert!(last_panic.contains("batcher-panic@batch0"));
        }
        ref o => panic!("expected Abandoned batcher, got {o:?}"),
    }
    let t = report.core.telemetry();
    assert!(t.shed_unhealthy.load(Ordering::Relaxed) >= 1);
    assert_eq!(t.worker_panics.load(Ordering::Relaxed), 3);
    assert_eq!(
        t.worker_restarts.load(Ordering::Relaxed),
        2,
        "no restart after Down"
    );
}

#[test]
fn panic_inside_apply_poisons_and_recovers() {
    let s = stream();
    // Panic while holding the window mutex: the lock is poisoned and the
    // batch in hand is lost, but every later lock acquisition recovers
    // the poison and the service keeps scoring.
    let plan = Arc::new(FaultPlan::new([Fault::PanicInApply { at_batch: 1 }]));
    let service = FraudService::start_with_faults(cfg(), s.blacklist.clone(), Arc::clone(&plan));
    for t in s.window(0, s.config.days) {
        service.submit(*t).expect("large queue, no shed");
    }
    let report = service.shutdown();
    assert!(plan.all_fired());
    assert_eq!(report.batcher, WorkerOutcome::Clean { panics: 1 });
    assert_eq!(report.state, HealthState::Healthy);
    let core = report.core;
    let snap = core.snapshot();
    // One batch died with the panic; the rest of the stream still
    // flowed through the poisoned-then-recovered lock.
    assert_eq!(snap.window_end, s.config.days);
    assert!(snap.num_flagged() > 0, "scoring still works after poison");
}

#[test]
fn corrupt_transaction_is_shed_by_apply_validation() {
    let s = stream();
    let plan = Arc::new(FaultPlan::new([Fault::CorruptTx { at_batch: 1 }]));
    let service = FraudService::start_with_faults(cfg(), s.blacklist.clone(), Arc::clone(&plan));
    for t in s.window(0, s.config.days) {
        service.submit(*t).expect("large queue, no shed");
    }
    let report = service.shutdown();
    assert!(plan.all_fired());
    assert!(report.clean(), "corruption must not crash anything");
    assert_eq!(report.state, HealthState::Healthy);
    let t = report.core.telemetry();
    assert_eq!(
        t.rejected_invalid.load(Ordering::Relaxed),
        1,
        "the corrupted record is shed, counted, exactly once"
    );
    assert_eq!(report.core.snapshot().window_end, s.config.days);
}

#[test]
fn checkpoint_write_failure_is_counted_not_fatal() {
    let s = stream();
    let path = std::env::temp_dir().join(format!("glp_ckpt_fail_{}.ckpt", std::process::id()));
    let mut c = cfg();
    c.checkpoint_path = Some(path.clone());
    c.checkpoint_every_batches = 4;
    let plan = Arc::new(FaultPlan::new([Fault::CheckpointFail { at_batch: 4 }]));
    let service = FraudService::start_with_faults(c, s.blacklist.clone(), Arc::clone(&plan));
    for t in s.window(0, s.config.days) {
        service.submit(*t).expect("large queue, no shed");
    }
    let report = service.shutdown();
    assert!(plan.all_fired());
    assert!(report.clean(), "a failed checkpoint write is not a crash");
    assert_eq!(report.state, HealthState::Healthy);
    let t = report.core.telemetry();
    assert_eq!(t.checkpoint_failures.load(Ordering::Relaxed), 1);
    assert!(
        t.checkpoints_written.load(Ordering::Relaxed) >= 1,
        "later checkpoints (and the shutdown checkpoint) still land"
    );
    // The surviving checkpoint on disk is valid.
    assert!(glp_fraud::checkpoint::WindowCheckpoint::read(&path).is_ok());
    std::fs::remove_file(&path).ok();
}
