//! Serving determinism: the same seeded stream, fed at the same
//! micro-batch boundaries, must publish byte-identical verdict snapshots
//! no matter how many worker threads the LP engine shards across. This
//! lifts the engine's per-run bit-determinism guarantee up through the
//! whole serving stack — window maintenance, materialization, LP,
//! scoring, and snapshot encoding.

use glp_fraud::{RegionalStream, RegionalTxConfig, Transaction};
use glp_serve::{FleetConfig, FleetCore, Partitioner, ServeConfig, ServiceCore};
// The workload is the standard deterministic fraud stream shared with
// the pipeline and golden-trace suites.
use glp_test_support::{regional_stream, tx_stream as stream};

/// Drives one core through the stream at fixed batch boundaries
/// (`batch` transactions per apply), reclustering every 4 batches plus
/// once at the end, and returns every published snapshot's canonical
/// bytes.
fn run(shards: usize, batch: usize) -> Vec<Vec<u8>> {
    let s = stream();
    let cfg = ServeConfig {
        engine_shards: shards,
        ..ServeConfig::default()
    }
    .with_window_days(10);
    let core = ServiceCore::new(cfg, s.blacklist.clone());
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let mut snapshots = Vec::new();
    for (i, chunk) in all.chunks(batch).enumerate() {
        core.apply_transactions(chunk);
        if (i + 1) % 4 == 0 {
            core.recluster_now();
            snapshots.push(core.snapshot().canonical_bytes());
        }
    }
    core.recluster_now();
    snapshots.push(core.snapshot().canonical_bytes());
    snapshots
}

#[test]
fn verdicts_identical_across_1_2_4_worker_threads() {
    let one = run(1, 500);
    let two = run(2, 500);
    let four = run(4, 500);
    assert!(one.len() > 3, "expected several published snapshots");
    assert_eq!(one, two, "1-thread vs 2-thread snapshots differ");
    assert_eq!(one, four, "1-thread vs 4-thread snapshots differ");
}

#[test]
fn repeated_runs_are_identical() {
    assert_eq!(run(2, 500), run(2, 500));
}

// ---------------------------------------------------------------------
// Router-level determinism: the same stream routed across N shard cores
// (with community-aware placement and cross-shard rings forcing real
// boundary exchanges) must publish byte-identical fleet snapshots for
// every N — and identical to a single unsharded ServiceCore.
// ---------------------------------------------------------------------

/// Drives the whole regional stream through a sharded [`FleetCore`] at
/// fixed batch boundaries, running a full exchange round every 4
/// batches plus once at the end, and returns every published fleet
/// snapshot's canonical bytes.
fn fleet_run(shards: usize, batch: usize) -> Vec<Vec<u8>> {
    let s = regional_stream();
    let cfg = FleetConfig {
        shards,
        ..FleetConfig::default()
    }
    .with_window_days(10);
    let partitioner = Partitioner::with_communities(shards, 7, s.community_map());
    let core = FleetCore::new(cfg, partitioner, s.blacklist.clone());
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let mut snapshots = Vec::new();
    for (i, chunk) in all.chunks(batch).enumerate() {
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

/// The unsharded reference: one ServiceCore over the same stream at the
/// same batch and recluster boundaries.
fn single_core_reference(batch: usize) -> Vec<Vec<u8>> {
    let s = regional_stream();
    let cfg = ServeConfig::default().with_window_days(10);
    let core = ServiceCore::new(cfg, s.blacklist.clone());
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let mut snapshots = Vec::new();
    for (i, chunk) in all.chunks(batch).enumerate() {
        core.apply_transactions(chunk);
        if (i + 1) % 4 == 0 {
            core.recluster_now();
            snapshots.push(core.snapshot().canonical_bytes());
        }
    }
    core.recluster_now();
    snapshots.push(core.snapshot().canonical_bytes());
    snapshots
}

#[test]
fn fleet_verdicts_identical_across_1_2_4_shards() {
    let reference = single_core_reference(500);
    let one = fleet_run(1, 500);
    let two = fleet_run(2, 500);
    let four = fleet_run(4, 500);
    assert!(reference.len() > 3, "expected several published snapshots");
    assert_eq!(
        reference, one,
        "1-shard fleet differs from the unsharded reference"
    );
    assert_eq!(reference, two, "2-shard fleet differs from the reference");
    assert_eq!(reference, four, "4-shard fleet differs from the reference");
}

#[test]
fn repeated_fleet_runs_are_identical() {
    assert_eq!(fleet_run(2, 500), fleet_run(2, 500));
}

/// Σ over the exchange rounds of the largest shard snapshot's
/// `graph_edges` — the window the slowest shard reclusters — for a fleet
/// that places the stream's regions round-robin and exchanges every 8
/// batches of 512. Asserts the fleet flags the planted rings.
fn largest_shard_work(s: &RegionalStream, shards: usize) -> u64 {
    let cfg = FleetConfig {
        shards,
        ..FleetConfig::default()
    }
    .with_window_days(10);
    let partitioner = Partitioner::balanced(shards, 7, s.community_map());
    let core = FleetCore::new(cfg, partitioner, s.blacklist.clone());
    let all: Vec<Transaction> = s.window(0, s.config.days).copied().collect();
    let mut work = 0;
    let mut exchange = || {
        core.exchange_now();
        let largest = core.shards().iter().map(|c| c.snapshot().graph_edges);
        work += largest.max().unwrap_or(0);
    };
    for (i, chunk) in all.chunks(512).enumerate() {
        core.apply_transactions(chunk);
        if (i + 1) % 8 == 0 {
            exchange();
        }
    }
    exchange();
    assert!(
        core.fleet_snapshot().verdicts.num_flagged() > 0,
        "the {shards}-shard fleet must flag the planted rings"
    );
    work
}

/// Sharding divides the recluster work, counted rather than timed: at 4
/// shards the largest shard's windows, summed over the rounds, are at
/// least 2x smaller than the one shard's at 1 (they read 142 574 and
/// 35 902).
#[test]
fn four_shards_split_the_largest_shard_work_at_least_2x() {
    let s = RegionalStream::generate(&RegionalTxConfig {
        users_per_region: 200,
        items_per_region: 80,
        days: 10,
        tx_per_day: 2_000,
        ring_size: 12,
        ring_tx_per_day: 40,
        ..Default::default()
    });
    let (one, four) = (largest_shard_work(&s, 1), largest_shard_work(&s, 4));
    assert!(
        one >= 2 * four,
        "the largest shard reclusters {four} edges over the rounds at 4 shards \
         against {one} at 1: less than a 2x split"
    );
}
