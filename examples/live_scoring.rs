//! Live fraud scoring: the always-on service end to end.
//!
//! ```text
//! cargo run --release --example live_scoring
//! ```
//!
//! Starts the `glp-serve` scoring service (batcher + recluster threads),
//! replays a transaction stream through its bounded ingest queue, and
//! queries verdicts *while the service is still ingesting and
//! reclustering* — the serving-path counterpart of the offline
//! `fraud_pipeline` example. Finishes by printing the telemetry: ingest
//! lag and batch-size percentiles, reclusters by path, queries, and shed
//! counts.

use glp_suite::fraud::{TxConfig, TxStream};
use glp_suite::serve::{FraudScorer, FraudService, ServeConfig, Verdict};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn main() {
    // 1. A transaction stream with injected wash-trading rings; a slice
    //    of each ring is already black-listed (the LP seeds).
    let stream = TxStream::generate(&TxConfig {
        num_users: 5_000,
        num_items: 2_000,
        days: 30,
        tx_per_day: 3_000,
        num_rings: 6,
        ring_size: 15,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        ..Default::default()
    });
    println!(
        "stream: {} transactions over {} days, {} ring accounts, {} seeds",
        stream.transactions.len(),
        stream.config.days,
        stream.fraudulent_users().len(),
        stream.blacklist.len()
    );

    // 2. Start the service: 10-day window, micro-batches of up to 256
    //    transactions or 2 ms, recluster every 8 batches.
    let cfg = ServeConfig {
        max_batch: 256,
        batch_budget: Duration::from_millis(2),
        recluster_every_batches: 8,
        ..ServeConfig::default()
    }
    .with_window_days(10);
    let service = FraudService::start(cfg, stream.blacklist.clone());
    let handle = service.handle();

    // 3. Replay the stream through the ingest gate, peeking at verdicts
    //    mid-flight: scoring runs concurrently with ingestion.
    let probe: u32 = stream.fraudulent_users()[0];
    for (i, t) in stream.window(0, stream.config.days).enumerate() {
        service
            .submit(*t)
            .expect("service accepts while running (or sheds, counted)");
        if i % 20_000 == 19_999 {
            let snap = handle.snapshot();
            println!(
                "  after {:>6} tx: window end day {:>2}, {} users known, {} flagged, ring probe {:?}",
                i + 1,
                snap.window_end,
                snap.known_users.len(),
                snap.num_flagged(),
                handle.score(probe)
            );
        }
    }

    // 4. Shut down: drains the queue, runs a final recluster, joins.
    let report = service.shutdown();
    assert!(report.clean(), "no faults expected in this example");
    let core = report.core;
    let snap = core.snapshot();
    println!(
        "\nfinal snapshot: window [{}..{}), {} users, {} flagged",
        snap.window_end.saturating_sub(10),
        snap.window_end,
        snap.known_users.len(),
        snap.num_flagged()
    );

    // 5. How did the service do against the ground truth?
    let ring: Vec<u32> = stream
        .fraudulent_users()
        .iter()
        .copied()
        .filter(|&u| snap.known_users.binary_search(&u).is_ok())
        .collect();
    let caught = ring
        .iter()
        .filter(|&&u| matches!(snap.verdict(u), Verdict::Flagged { .. }))
        .count();
    println!(
        "ring members in window: {}, flagged: {} ({:.0}%)",
        ring.len(),
        caught,
        100.0 * caught as f64 / ring.len().max(1) as f64
    );

    // 6. The service's telemetry: ingest lag, batch shape, reclusters
    //    by path, queries and shed counts.
    let t = core.telemetry();
    let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
    println!(
        "\ntelemetry:\n  ingested {}, batches {} (p50 size {}), ingest lag p50 {} µs / p99 {} µs",
        n(&t.ingested),
        n(&t.batches),
        t.batch_size.quantile(0.5),
        t.ingest_lag.quantile(0.5) / 1_000,
        t.ingest_lag.quantile(0.99) / 1_000
    );
    println!(
        "  reclusters {} ({} full, {} incremental, {} coalesced), queries {}",
        n(&t.reclusters),
        n(&t.reclusters_full),
        n(&t.reclusters_incremental),
        n(&t.reclusters_coalesced),
        n(&t.queries)
    );
    println!(
        "  shed: overflow {}, unhealthy {}, invalid {}; health {:?}",
        n(&t.shed_overflow),
        n(&t.shed_unhealthy),
        n(&t.rejected_invalid),
        core.health().state
    );
}
