//! Journal + failover pins — the tests that turn "degrade instead of
//! down" into "degrade, then heal":
//!
//! * a shard killed mid-stream is rebuilt automatically (checkpoint +
//!   journal replay) and every published snapshot outside the crash
//!   window is **byte-identical** to a fault-free fleet run;
//! * a whole-fleet crash-restart from checkpoints + journal loses zero
//!   journaled batches;
//! * `recover` with one deleted shard checkpoint still restores the
//!   full fleet by rebuilding that shard from the journal alone;
//! * an injected journal-append failure degrades the fleet loudly but
//!   never stops scoring;
//! * a crash *between* journal append and fan-out replays the
//!   journaled-but-unapplied batch exactly once.

use glp_fraud::Transaction;
use glp_serve::{Fault, FaultPlan, FleetConfig, FleetCore, HealthState, Partitioner, ShardRouter};
use glp_test_support::regional_stream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SHARDS: usize = 3;
const VICTIM: usize = 1;

fn temp_base(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("glp_failover_{}_{}.ckpt", name, std::process::id()))
}

fn temp_wal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("glp_failover_{}_{}.wal", name, std::process::id()))
}

/// Journal + checkpoints, the full durability configuration.
fn fleet_cfg(base: &Path, wal: &Path) -> FleetConfig {
    let mut cfg = FleetConfig {
        shards: SHARDS,
        exchange_every_batches: 8,
        ..FleetConfig::default()
    }
    .with_window_days(10);
    cfg.shard.checkpoint_path = Some(base.to_path_buf());
    cfg.wal_dir = Some(wal.to_path_buf());
    cfg
}

/// The fault-free reference fleet: no journal, no checkpoints — the
/// run the healed fleet must match byte for byte.
fn ref_cfg() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        exchange_every_batches: 8,
        ..FleetConfig::default()
    }
    .with_window_days(10)
}

fn cleanup(base: &Path, wal: &Path) {
    for i in 0..SHARDS {
        let mut p = base.as_os_str().to_owned();
        p.push(format!(".shard{i}"));
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_dir_all(wal);
}

#[test]
fn killed_shard_rebuilds_automatically_and_stays_byte_identical() {
    let s = regional_stream();
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let chunk = all.len().div_ceil(20).max(1);
    let chunks: Vec<&[Transaction]> = all.chunks(chunk).collect();
    assert!(chunks.len() >= 16, "stream too small for the kill schedule");
    let base = temp_base("auto");
    let wal = temp_wal("auto");
    cleanup(&base, &wal);
    let partitioner = || Partitioner::with_communities(SHARDS, 7, s.community_map());

    let reference = FleetCore::new(ref_cfg(), partitioner(), s.blacklist.clone());

    // Walk the victim all the way to Down with consecutive panics; the
    // final one trips the automatic failover in the same batch.
    let down_after = u64::from(FleetConfig::default().shard.down_after_crashes);
    let kill_from = 8u64;
    let plan = Arc::new(FaultPlan::new((0..down_after).map(|j| Fault::ShardPanic {
        shard: VICTIM,
        at_batch: kill_from + j,
    })));
    let fleet = FleetCore::new(fleet_cfg(&base, &wal), partitioner(), s.blacklist.clone())
        .with_faults(Arc::clone(&plan));

    let last = chunks.len() as u64 - 1;
    for (j, c) in chunks.iter().enumerate() {
        let j = j as u64;
        reference.apply_transactions(c);
        fleet.apply_transactions(c);
        if j == 5 {
            // The failover's base image: mid-stream, well before the
            // kill window.
            fleet.checkpoint_all().expect("mid-stream checkpoint");
        }
        // Published snapshots outside the crash window — before the
        // first panic and from the first full post-rebuild batch on —
        // must match the fault-free run byte for byte.
        if j == 6 || j == kill_from + down_after || j == last {
            reference.exchange_now();
            fleet.exchange_now();
            assert_eq!(
                fleet.fleet_snapshot().verdicts.canonical_bytes(),
                reference.fleet_snapshot().verdicts.canonical_bytes(),
                "published snapshot diverged at batch {j}"
            );
        }
    }
    assert!(plan.all_fired(), "kill schedule never completed");

    let events = fleet.failover_events();
    assert_eq!(events.len(), 1, "exactly one rebuild");
    assert_eq!(events[0].shard, VICTIM);
    assert!(
        events[0].from_checkpoint,
        "the mid-stream image was the base"
    );
    assert!(events[0].replayed_batches > 0);
    let health = fleet.health();
    assert_eq!(
        health.shards[VICTIM].state,
        HealthState::Healthy,
        "re-admitted"
    );
    assert_eq!(health.state, HealthState::Healthy);

    let t = fleet.fleet_telemetry();
    assert_eq!(t.counter("failovers"), 1);
    assert_eq!(
        fleet.shards()[VICTIM]
            .telemetry()
            .failovers
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert!(t.counter("wal_replayed_batches") > 0);
    assert_eq!(t.counter("wal_appended_batches"), chunks.len() as u64);

    // Not just the merged view: every shard's local state is exactly
    // the never-killed fleet's.
    for i in 0..SHARDS {
        assert_eq!(
            fleet.shards()[i].snapshot().canonical_bytes(),
            reference.shards()[i].snapshot().canonical_bytes(),
            "shard {i} local snapshot diverged after the rebuild"
        );
    }
    cleanup(&base, &wal);
}

#[test]
fn whole_fleet_crash_restart_loses_no_journaled_batches() {
    let s = regional_stream();
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let split = all.len() / 2;
    let base = temp_base("crash");
    let wal = temp_wal("crash");
    cleanup(&base, &wal);
    let partitioner = || Partitioner::with_communities(SHARDS, 7, s.community_map());

    let reference = FleetCore::new(ref_cfg(), partitioner(), s.blacklist.clone());
    for chunk in all[..split].chunks(500) {
        reference.apply_transactions(chunk);
    }
    for chunk in all[split..].chunks(500) {
        reference.apply_transactions(chunk);
    }
    reference.exchange_now();

    // Checkpoint at the split; everything after it exists only in the
    // journal when the fleet "crashes" (dropped without shutdown).
    {
        let fleet = FleetCore::new(fleet_cfg(&base, &wal), partitioner(), s.blacklist.clone());
        for chunk in all[..split].chunks(500) {
            fleet.apply_transactions(chunk);
        }
        fleet.checkpoint_all().expect("mid-stream checkpoint");
        for chunk in all[split..].chunks(500) {
            fleet.apply_transactions(chunk);
        }
    }

    let restored = FleetCore::restore(fleet_cfg(&base, &wal), partitioner(), s.blacklist.clone())
        .expect("restore from checkpoints + journal");
    assert_eq!(
        restored.batches_applied(),
        reference.batches_applied(),
        "journal replay must cover every post-checkpoint batch"
    );
    assert_eq!(
        restored.fleet_snapshot().verdicts.canonical_bytes(),
        reference.fleet_snapshot().verdicts.canonical_bytes(),
        "crash-restart diverged from the uninterrupted run"
    );
    for i in 0..SHARDS {
        assert_eq!(
            restored.shards()[i].snapshot().canonical_bytes(),
            reference.shards()[i].snapshot().canonical_bytes(),
            "shard {i} local snapshot diverged after crash-restart"
        );
    }
    let t = restored.fleet_telemetry();
    assert!(
        t.counter("wal_replayed_batches") > 0,
        "the journal did real work"
    );
    cleanup(&base, &wal);
}

#[test]
fn recover_rebuilds_a_missing_shard_checkpoint_from_the_journal() {
    let s = regional_stream();
    let base = temp_base("lost_image");
    let wal = temp_wal("lost_image");
    cleanup(&base, &wal);
    let partitioner = || Partitioner::with_communities(SHARDS, 7, s.community_map());
    let mut cfg = fleet_cfg(&base, &wal);
    // Rebuilding a shard from batch 0 needs the journal's full history;
    // with truncation on, checkpoints would have deleted it.
    cfg.wal_truncate_on_checkpoint = false;

    let router = ShardRouter::start(cfg.clone(), partitioner(), s.blacklist.clone());
    for t in s.window(0, s.config.days) {
        router.submit(*t).expect("fleet accepts while running");
    }
    let report = router.shutdown();
    assert!(report.clean());
    let before = report.core.fleet_snapshot().verdicts.canonical_bytes();

    // The victim's durable image is gone; only the journal knows its
    // history.
    let victim_image = cfg.shard_checkpoint_path(VICTIM).expect("path configured");
    std::fs::remove_file(&victim_image).expect("delete the victim's checkpoint");

    let recovered = ShardRouter::recover(cfg, partitioner(), s.blacklist.clone())
        .expect("recover despite the missing shard image");
    assert_eq!(recovered.health().state, HealthState::Healthy);
    assert_eq!(
        recovered.core().fleet_snapshot().verdicts.canonical_bytes(),
        before,
        "journal-alone shard rebuild diverged from the pre-shutdown snapshot"
    );
    let t = recovered.core().fleet_telemetry();
    assert!(
        t.counter("wal_replayed_batches") > 0,
        "the victim was replayed"
    );
    let report = recovered.shutdown();
    assert!(report.clean());
    cleanup(&base, &wal);
}

#[test]
fn journal_append_failure_degrades_but_never_stops_scoring() {
    let s = regional_stream();
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let wal = temp_wal("append_fail");
    let _ = std::fs::remove_dir_all(&wal);
    let partitioner = || Partitioner::with_communities(SHARDS, 7, s.community_map());
    let mut cfg = ref_cfg();
    cfg.wal_dir = Some(wal.clone());

    let reference = FleetCore::new(ref_cfg(), partitioner(), s.blacklist.clone());
    let fail_at = 2u64;
    let plan = Arc::new(FaultPlan::new([Fault::WalAppendFail { at_batch: fail_at }]));
    let fleet =
        FleetCore::new(cfg, partitioner(), s.blacklist.clone()).with_faults(Arc::clone(&plan));

    let chunks: Vec<&[Transaction]> = all.chunks(500).collect();
    for (j, c) in chunks.iter().enumerate() {
        reference.apply_transactions(c);
        fleet.apply_transactions(c);
        if j as u64 == fail_at {
            // The failed append is loud: the fleet degrades...
            assert_eq!(fleet.health().state, HealthState::Degraded);
        }
    }
    assert!(plan.all_fired());
    // ...and the next successful append already healed it.
    assert_eq!(fleet.health().state, HealthState::Healthy);
    let t = fleet.fleet_telemetry();
    assert_eq!(
        t.counter("wal_appended_batches"),
        chunks.len() as u64 - 1,
        "exactly the failed batch is missing from the journal"
    );
    // Scoring never depended on the journal.
    reference.exchange_now();
    fleet.exchange_now();
    assert_eq!(
        fleet.fleet_snapshot().verdicts.canonical_bytes(),
        reference.fleet_snapshot().verdicts.canonical_bytes(),
        "an append failure must not change a single verdict byte"
    );
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn crash_between_journal_and_fanout_replays_exactly_once() {
    let s = regional_stream();
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let wal = temp_wal("crash_window");
    let _ = std::fs::remove_dir_all(&wal);
    let partitioner = || Partitioner::with_communities(SHARDS, 7, s.community_map());
    let mut cfg = ref_cfg();
    cfg.wal_dir = Some(wal.clone());

    let reference = FleetCore::new(ref_cfg(), partitioner(), s.blacklist.clone());
    let crash_at = 4u64;
    let plan = Arc::new(FaultPlan::new([Fault::CrashAfterJournal {
        at_batch: crash_at,
    }]));
    let fleet =
        FleetCore::new(cfg, partitioner(), s.blacklist.clone()).with_faults(Arc::clone(&plan));

    for (j, c) in all.chunks(500).enumerate() {
        reference.apply_transactions(c);
        if j as u64 == crash_at {
            // The canonical write-ahead crash window: the batch is on
            // disk, no shard ever saw it, the batch count never moved.
            let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fleet.apply_transactions(c)
            }));
            assert!(crash.is_err(), "the injected crash must fire");
            assert_eq!(fleet.batches_applied(), crash_at);
            // Recovery (what `router_loop` does on worker restart):
            // replay lands the record once on every shard...
            let replayed = fleet.sync_from_wal().expect("heal the crash window");
            assert_eq!(replayed, SHARDS as u64, "one record, each shard once");
            assert_eq!(fleet.batches_applied(), crash_at + 1);
            // ...and exactly once: a second sync finds nothing to do.
            assert_eq!(fleet.sync_from_wal().expect("idempotent"), 0);
        } else {
            fleet.apply_transactions(c);
        }
    }
    assert!(plan.all_fired());
    reference.exchange_now();
    fleet.exchange_now();
    assert_eq!(
        fleet.fleet_snapshot().verdicts.canonical_bytes(),
        reference.fleet_snapshot().verdicts.canonical_bytes(),
        "the journaled-but-unapplied batch must land exactly once"
    );
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn threaded_fleet_auto_heals_a_killed_shard() {
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    let s = regional_stream();
    let wal = temp_wal("threaded");
    let _ = std::fs::remove_dir_all(&wal);
    let partitioner = || Partitioner::with_communities(SHARDS, 7, s.community_map());
    // Journal only, no checkpoints: the rebuild must work from the
    // journal alone.
    let mut cfg = ref_cfg();
    cfg.wal_dir = Some(wal.clone());
    let down_after = u64::from(cfg.shard.down_after_crashes);
    let plan = Arc::new(FaultPlan::new((0..down_after).map(|j| Fault::ShardPanic {
        shard: VICTIM,
        at_batch: 2 + j,
    })));
    let router =
        ShardRouter::start_with_faults(cfg, partitioner(), s.blacklist.clone(), Arc::clone(&plan));
    for t in s.window(0, s.config.days) {
        router.submit(*t).expect("fleet accepts while running");
    }
    // The kill schedule and the heal both happen while traffic flows;
    // wait (bounded) for the rebuild to complete.
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        let victim = &router.core().shards()[VICTIM];
        if plan.all_fired()
            && victim.telemetry().failovers.load(Ordering::Relaxed) >= 1
            && router.health().shards[VICTIM].state == HealthState::Healthy
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(plan.all_fired(), "kill schedule never completed");
    let report = router.shutdown();
    let core = report.core;
    let events = core.failover_events();
    assert!(!events.is_empty(), "the victim was never rebuilt");
    assert_eq!(events[0].shard, VICTIM);
    assert!(
        !events[0].from_checkpoint,
        "no checkpoints: journal-alone rebuild"
    );
    assert_eq!(
        core.health().state,
        HealthState::Healthy,
        "fully healed fleet"
    );
    assert!(
        core.fleet_snapshot().verdicts.num_flagged() > 0,
        "still scoring"
    );
    let _ = std::fs::remove_dir_all(&wal);
}
