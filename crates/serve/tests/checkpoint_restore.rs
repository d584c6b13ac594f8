//! Checkpoint/restore pins: a run interrupted at batch `k` and resumed
//! from a checkpoint must produce **byte-identical** LP output to the
//! uninterrupted run, at the core level and through the threaded
//! service's `recover` path.
//!
//! The pin works because the window materializes by replaying its live
//! transaction log through the shared single-pass graph construction:
//! the final snapshot depends only on the surviving transactions and
//! their order, not on where batch (or process) boundaries fell.

use glp_fraud::checkpoint::WindowCheckpoint;
use glp_fraud::RecordError as CheckpointError;
use glp_fraud::{Transaction, TxConfig, TxStream};
use glp_serve::{FraudService, HealthState, ServeConfig, ServiceCore, ShedPolicy};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

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
        queue_capacity: 1 << 16,
        max_batch: 256,
        batch_budget: Duration::from_millis(2),
        shed_policy: ShedPolicy::RejectNew,
        recluster_every_batches: 4,
        engine_shards: 2,
        ..ServeConfig::default()
    }
    .with_window_days(10)
}

fn temp_ckpt(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("glp_{}_{}.ckpt", name, std::process::id()))
}

#[test]
fn interrupted_core_resumes_byte_identical() {
    let s = stream();
    let days = s.config.days;
    let split = 8;

    // Uninterrupted reference: one core sees every day.
    let reference = ServiceCore::new(cfg(), s.blacklist.clone());
    for day in 0..days {
        let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
        reference.apply_transactions(&txs);
    }
    reference.recluster_now();
    let want = reference.snapshot().canonical_bytes();

    // Interrupted run: apply the first `split` days, checkpoint, and
    // drop the core — the "kill" half of kill-then-recover.
    let path = temp_ckpt("core_resume");
    {
        let core = ServiceCore::new(cfg(), s.blacklist.clone());
        for day in 0..split {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            core.apply_transactions(&txs);
        }
        core.checkpoint(&path).expect("checkpoint writes");
        assert_eq!(
            core.telemetry().checkpoints_written.load(Ordering::Relaxed),
            1
        );
    }

    // Recover into a fresh core and feed it the rest of the stream.
    let ckpt = WindowCheckpoint::read(&path).expect("checkpoint reads back");
    let core = ServiceCore::restore(cfg(), s.blacklist.clone(), &ckpt).expect("restores");
    assert_eq!(core.batches_applied(), u64::from(split), "clock resumes");
    assert_eq!(core.staleness_batches(), 0, "restore reclusters first");
    assert_eq!(core.health().state, HealthState::Healthy);
    for day in split..days {
        let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
        core.apply_transactions(&txs);
    }
    core.recluster_now();
    assert_eq!(
        core.snapshot().canonical_bytes(),
        want,
        "recovered run must score identically to the uninterrupted run"
    );
    // Counters continued from the checkpoint: `batches` covers the whole
    // stream even though this core only applied the tail.
    assert_eq!(
        core.telemetry().batches.load(Ordering::Relaxed),
        u64::from(days)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn threaded_recover_serves_the_checkpointed_verdicts() {
    let s = stream();
    let path = temp_ckpt("threaded_recover");
    let mut c = cfg();
    c.checkpoint_path = Some(path.clone());
    c.checkpoint_every_batches = 8;

    let service = FraudService::start(c.clone(), s.blacklist.clone());
    for t in s.window(0, s.config.days) {
        service.submit(*t).expect("large queue, no shed");
    }
    let report = service.shutdown();
    assert!(report.clean());
    let want = report.core.snapshot().canonical_bytes();
    let batches = report.core.batches_applied();
    let epoch = report.core.epoch();
    assert!(
        report
            .core
            .telemetry()
            .checkpoints_written
            .load(Ordering::Relaxed)
            >= 1,
        "shutdown leaves a final checkpoint"
    );

    // Kill-then-recover: a brand-new service resumes from the file and
    // immediately serves the same verdicts.
    let revived =
        FraudService::recover(c, s.blacklist.clone(), &path).expect("recover from checkpoint");
    let snap = revived.core().snapshot();
    assert_eq!(
        snap.canonical_bytes(),
        want,
        "recovered service must serve byte-identical verdicts"
    );
    assert_eq!(revived.core().batches_applied(), batches);
    assert!(
        revived.core().epoch() > epoch,
        "epoch numbering continues across the restart"
    );
    assert_eq!(revived.health().state, HealthState::Healthy);
    let report = revived.shutdown();
    assert!(report.clean());
    std::fs::remove_file(&path).ok();
}

#[test]
fn recover_rejects_missing_and_mismatched_checkpoints() {
    let s = stream();
    let missing = temp_ckpt("definitely_missing");
    assert!(matches!(
        FraudService::recover(cfg(), s.blacklist.clone(), &missing),
        Err(CheckpointError::Io(_))
    ));

    // A checkpoint for a different window length must be refused, not
    // silently reinterpreted.
    let path = temp_ckpt("mismatched_days");
    let core = ServiceCore::new(cfg(), s.blacklist.clone());
    let txs: Vec<Transaction> = s.window(0, 1).copied().collect();
    core.apply_transactions(&txs);
    core.checkpoint(&path).expect("checkpoint writes");
    let other = cfg().with_window_days(7);
    assert!(matches!(
        FraudService::recover(other, s.blacklist.clone(), &path),
        Err(CheckpointError::Invalid(_))
    ));
    std::fs::remove_file(&path).ok();
}
