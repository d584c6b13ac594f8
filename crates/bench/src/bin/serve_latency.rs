//! serve_latency — offered-load sweep against the always-on scoring
//! service (`glp-serve`).
//!
//! Calibrates the *sustainable* throughput by driving the scoring core
//! synchronously end to end (batch apply + recluster at the configured
//! cadence), then runs the threaded service at a sweep of offered loads
//! (default 0.5×, 1×, and 2× sustainable). Each stage paces a bursty
//! producer against the ingest gate while a query thread hammers the
//! verdict snapshot, and reports ingest lag, query p50/p95/p99, shed
//! counts, and recluster statistics. Overload must shed — counted, never
//! silent — while query latency stays bounded; that is the service's
//! contract and this binary is how it is checked.
//!
//! It then measures the **sharding scaling curve**: the same regional
//! stream driven through a [`FleetCore`] at 1, 2, 4, and 8 shards with
//! community-aware routing and full boundary exchanges at the recluster
//! cadence. The container has one core, so shard reclusters run
//! sequentially and each wall is measured in isolation; a parallel
//! deployment's round cost is modeled as `max(shard walls) + exchange
//! wall`, giving a modeled tx/s per shard count. The curve self-asserts
//! the quantity sharding actually divides — Σ over rounds of the slowest
//! shard's recluster wall: at 4 shards it must be at least
//! `--scaling-min-speedup` (default 2×) smaller than at 1 shard, or the
//! bench exits non-zero. The routing/apply wall and the exchange wall are
//! serial whatever the shard count; they are reported beside it (and fold
//! into the end-to-end `speedup_vs_1shard`), unasserted — a ratio of wall
//! sums that include them *falls* whenever label propagation gets faster.
//!
//! Finally it measures the **incremental delta recluster** win: the same
//! warm window extended by small same-day micro-batches through two
//! service cores — one replaying incrementally, one pinned to
//! from-scratch reclusters — cross-checking every published snapshot
//! byte-for-byte and self-asserting the p50 speedup floor (default 7×).
//!
//! Usage: `cargo run -p glp-bench --release --bin serve_latency
//!         [--loads 0.5,1,2] [--stage-ms 400] [--json BENCH_serve.json]
//!         [--users N] [--days N] [--tx-per-day N] [--window-days N]
//!         [--queue N] [--max-batch N] [--recluster-every N] [--burst-ms N]
//!         [--no-scaling] [--scaling-shards 1,2,4,8] [--scaling-regions N]
//!         [--scaling-users-per-region N] [--scaling-tx-per-day N]
//!         [--scaling-days N] [--scaling-min-speedup X] [--no-scaling-assert]
//!         [--no-delta] [--delta-rounds N] [--delta-batch N]
//!         [--delta-warm-days N] [--delta-users N] [--delta-tx-per-day N]
//!         [--delta-min-speedup X] [--no-delta-assert]`

use glp_bench::table::print_table;
use glp_bench::Args;
use glp_fraud::{RegionalStream, RegionalTxConfig, Transaction, TxConfig, TxStream};
use glp_serve::{
    FleetConfig, FleetCore, FraudScorer, FraudService, Partitioner, ServeConfig, ServiceCore,
    Verdict,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn main() {
    let args = Args::parse();
    let loads: Vec<f64> = args
        .get_str("loads")
        .unwrap_or("0.5,1,2")
        .split(',')
        .map(|s| s.trim().parse().expect("--loads takes numbers"))
        .collect();
    let stage_ms: u64 = args.get("stage-ms", 400);
    let burst_ms: u64 = args.get("burst-ms", 5);
    let json_path = args.get_str("json").unwrap_or("BENCH_serve.json");

    let cfg = ServeConfig {
        queue_capacity: args.get("queue", 2_048),
        max_batch: args.get("max-batch", 512),
        batch_budget: Duration::from_millis(args.get("budget-ms", 2)),
        recluster_every_batches: args.get("recluster-every", 8),
        max_staleness_batches: args.get("max-staleness", 32),
        engine_shards: args.get("shards", 0),
        ..ServeConfig::default()
    }
    .with_window_days(args.get("window-days", 10));

    let tx_cfg = TxConfig {
        num_users: args.get("users", 4_000),
        num_items: args.get("items", 1_500),
        days: args.get("days", 60),
        tx_per_day: args.get("tx-per-day", 4_000),
        num_rings: 5,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        ..Default::default()
    };
    eprintln!("... generating transaction stream ({} days)", tx_cfg.days);
    let stream = TxStream::generate(&tx_cfg);
    let all: Vec<Transaction> = stream.window(0, tx_cfg.days).copied().collect();
    eprintln!(
        "... {} transactions, {} black-listed seeds",
        all.len(),
        stream.blacklist.len()
    );

    eprintln!("... calibrating sustainable throughput (synchronous drive)");
    let sustainable = calibrate(&cfg, &stream, &all);
    eprintln!("... sustainable ≈ {:.0} tx/s", sustainable);

    let mut rows = Vec::new();
    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    for &m in &loads {
        let offered = m * sustainable;
        eprintln!("... load {m}x ({offered:.0} tx/s offered, {stage_ms} ms)");
        let (row, json) = run_stage(&cfg, &stream, &all, m, offered, stage_ms, burst_ms);
        rows.push(row);
        json_rows.push(json);
    }

    println!(
        "serve_latency: offered-load sweep (sustainable {:.0} tx/s)",
        sustainable
    );
    print_table(
        &[
            "load",
            "offered/s",
            "achieved/s",
            "accepted",
            "shed",
            "lag p95",
            "query p50",
            "query p99",
            "reclusters",
            "staleness",
        ],
        &rows,
    );

    let scaling = if args.has("no-scaling") {
        serde_json::Value::Null
    } else {
        run_scaling(&args)
    };

    let delta = if args.has("no-delta") {
        serde_json::Value::Null
    } else {
        run_delta(&args)
    };

    let doc = serde_json::json!({
        "bench": "serve_latency",
        "transactions": all.len() as u64,
        "sustainable_tx_per_s": sustainable,
        "stage_ms": stage_ms,
        "config": serde_json::json!({
            "queue_capacity": cfg.queue_capacity as u64,
            "max_batch": cfg.max_batch as u64,
            "recluster_every_batches": cfg.recluster_every_batches,
            "window_days": cfg.window_days,
        }),
        "rows": json_rows,
        "scaling": scaling,
        "delta_recluster": delta,
    });
    std::fs::write(
        json_path,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
    eprintln!("wrote {json_path}");
}

/// End-to-end synchronous throughput: batch apply plus reclusters at the
/// service cadence, no threading — the conservative baseline the offered
/// loads are multiples of.
fn calibrate(cfg: &ServeConfig, stream: &TxStream, all: &[Transaction]) -> f64 {
    let core = ServiceCore::new(cfg.clone(), stream.blacklist.clone());
    let t0 = Instant::now();
    let mut batches = 0u64;
    for chunk in all.chunks(cfg.max_batch) {
        core.apply_transactions(chunk);
        batches += 1;
        if batches.is_multiple_of(cfg.recluster_every_batches) {
            core.recluster_now();
        }
    }
    core.recluster_now();
    all.len() as f64 / t0.elapsed().as_secs_f64()
}

#[allow(clippy::too_many_arguments)]
fn run_stage(
    cfg: &ServeConfig,
    stream: &TxStream,
    all: &[Transaction],
    multiplier: f64,
    offered: f64,
    stage_ms: u64,
    burst_ms: u64,
) -> (Vec<String>, serde_json::Value) {
    let service = FraudService::start(cfg.clone(), stream.blacklist.clone());
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let num_users = stream.config.num_users;

    // Query hammer: continuous lookups across the user space while the
    // producer runs, with a tiny periodic yield so it does not own a core.
    let query_worker = {
        let stop = Arc::clone(&stop);
        let handle = handle.clone();
        thread::spawn(move || {
            let mut i = 0u32;
            let mut counts = [0u64; 3]; // flagged, clean, unknown
            while !stop.load(Ordering::Relaxed) {
                match handle.score(i % num_users) {
                    Verdict::Flagged { .. } => counts[0] += 1,
                    Verdict::Clean => counts[1] += 1,
                    Verdict::Unknown => counts[2] += 1,
                }
                i = i.wrapping_add(1);
                if i.is_multiple_of(512) {
                    thread::sleep(Duration::from_micros(100));
                }
            }
            counts
        })
    };

    // Bursty producer: traffic arrives in `burst_ms`-sized clumps whose
    // long-run average matches the offered rate (real traffic is bursty;
    // a perfectly smooth producer would understate queue pressure).
    let burst = ((offered * burst_ms as f64 / 1_000.0).ceil() as usize).max(1);
    let started = Instant::now();
    let deadline = started + Duration::from_millis(stage_ms);
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    for chunk in all.chunks(burst) {
        let target = started + Duration::from_secs_f64(submitted as f64 / offered);
        let now = Instant::now();
        if target > now {
            thread::sleep(target - now);
        }
        if Instant::now() >= deadline {
            break;
        }
        for &t in chunk {
            submitted += 1;
            if service.submit(t).is_ok() {
                accepted += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let staleness = service.core().staleness_batches();
    stop.store(true, Ordering::Relaxed);
    let verdict_counts = query_worker.join().expect("query worker panicked");
    let core = service.shutdown().core;
    let t = core.telemetry();

    let achieved = submitted as f64 / elapsed;
    let shed = t.shed_total();
    let row = vec![
        format!("{multiplier}x"),
        format!("{offered:.0}"),
        format!("{achieved:.0}"),
        format!("{accepted}"),
        format!("{shed}"),
        format!("{:.1}us", t.ingest_lag.quantile(0.95) as f64 / 1_000.0),
        format!("{:.1}us", t.query_latency.quantile(0.50) as f64 / 1_000.0),
        format!("{:.1}us", t.query_latency.quantile(0.99) as f64 / 1_000.0),
        format!("{}", t.reclusters.load(Ordering::Relaxed)),
        format!("{staleness}"),
    ];
    let json = serde_json::json!({
        "load_multiplier": multiplier,
        "offered_tx_per_s": offered,
        "achieved_tx_per_s": achieved,
        "elapsed_s": elapsed,
        "submitted": submitted,
        "accepted": accepted,
        "shed_dropped_oldest": t.shed_dropped_oldest.load(Ordering::Relaxed),
        "shed_rejected_new": t.shed_rejected_new.load(Ordering::Relaxed),
        "batches": t.batches.load(Ordering::Relaxed),
        "reclusters": t.reclusters.load(Ordering::Relaxed),
        "reclusters_coalesced": t.reclusters_coalesced.load(Ordering::Relaxed),
        "staleness_batches_at_end": staleness,
        "queries": serde_json::json!({
            "flagged": verdict_counts[0],
            "clean": verdict_counts[1],
            "unknown": verdict_counts[2],
        }),
        "ingest_lag_ns": t.ingest_lag.to_json(),
        "batch_size": t.batch_size.to_json(),
        "recluster_wall_ns": t.recluster_wall.to_json(),
        "query_latency_ns": t.query_latency.to_json(),
    });
    (row, json)
}

/// Measures the steady-state win of incremental delta reclustering: two
/// identical service cores consume the same warm window and then the
/// same stream of small same-day micro-batches, one allowed to replay
/// incrementally (`delta_fraction_max` wide open, never forced full)
/// and one pinned to from-scratch reclusters (`delta_fraction_max =
/// 0.0`). Every round cross-checks the two published snapshots
/// byte-for-byte — the incremental path's whole contract — and the
/// section self-asserts the p50 speedup floor (default 7×) unless
/// `--no-delta-assert`.
fn run_delta(args: &Args) -> serde_json::Value {
    let rounds: usize = args.get("delta-rounds", 16);
    let batch: usize = args.get("delta-batch", 128);
    let warm_days = args.get("delta-warm-days", 8u32);
    let tx_cfg = TxConfig {
        num_users: args.get("delta-users", 4_000),
        num_items: args.get("delta-items", 1_500),
        days: warm_days + 2,
        tx_per_day: args.get("delta-tx-per-day", 4_000),
        num_rings: 5,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        ..Default::default()
    };
    eprintln!(
        "... delta: generating stream ({} warm days + steady-state tail)",
        warm_days
    );
    let stream = TxStream::generate(&tx_cfg);
    let warm: Vec<Transaction> = stream.window(0, warm_days).copied().collect();
    // The steady-state feed: the tail days' transactions in small
    // chunks. The window outlives the whole feed, so no round crosses
    // an expiry boundary — each delta is a pure same-window extension.
    let tail: Vec<Transaction> = stream.window(warm_days, tx_cfg.days).copied().collect();
    assert!(
        tail.len() >= rounds * batch,
        "not enough tail transactions: lower --delta-rounds or --delta-batch"
    );

    let base = ServeConfig {
        delta_fraction_max: 1.0,
        full_recluster_every: 0,
        ..ServeConfig::default()
    }
    .with_window_days(warm_days + 4);
    let full_cfg = ServeConfig {
        delta_fraction_max: 0.0,
        ..base.clone()
    };
    let inc = ServiceCore::new(base, stream.blacklist.clone());
    let full = ServiceCore::new(full_cfg, stream.blacklist.clone());
    for chunk in warm.chunks(512) {
        inc.apply_transactions(chunk);
        full.apply_transactions(chunk);
    }
    // Both warm-up reclusters run from scratch; the incremental core
    // additionally captures the memo every later round replays from.
    inc.recluster_now();
    full.recluster_now();
    assert_eq!(
        inc.snapshot().canonical_bytes(),
        full.snapshot().canonical_bytes(),
        "warm-up snapshots must agree before the steady-state rounds"
    );

    let mut inc_walls = Vec::with_capacity(rounds);
    let mut full_walls = Vec::with_capacity(rounds);
    let mut frontiers = Vec::with_capacity(rounds);
    let mut incremental_rounds = 0u64;
    let mut identical = true;
    for chunk in tail.chunks(batch).take(rounds) {
        inc.apply_transactions(chunk);
        full.apply_transactions(chunk);
        let ri = inc.recluster_now();
        let rf = full.recluster_now();
        inc_walls.push(ri.wall_seconds);
        full_walls.push(rf.wall_seconds);
        frontiers.push(ri.frontier as u64);
        if ri.mode == glp_serve::ReclusterMode::Incremental {
            incremental_rounds += 1;
        }
        identical &= inc.snapshot().canonical_bytes() == full.snapshot().canonical_bytes();
    }
    let p50 = |walls: &[f64]| {
        let mut sorted = walls.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[sorted.len() / 2]
    };
    let (inc_p50, full_p50) = (p50(&inc_walls), p50(&full_walls));
    let speedup = full_p50 / inc_p50;
    let mut fr = frontiers.clone();
    fr.sort_unstable();
    let frontier_p50 = fr[fr.len() / 2];

    println!("serve_latency: incremental delta recluster (steady state)");
    print_table(
        &[
            "rounds",
            "incremental",
            "identical",
            "p50 incr",
            "p50 full",
            "speedup",
            "frontier p50",
        ],
        &[vec![
            format!("{rounds}"),
            format!("{incremental_rounds}"),
            format!("{identical}"),
            format!("{:.2}ms", inc_p50 * 1_000.0),
            format!("{:.2}ms", full_p50 * 1_000.0),
            format!("{speedup:.1}x"),
            format!("{frontier_p50}"),
        ]],
    );

    let min_speedup: f64 = args.get("delta-min-speedup", 7.0);
    assert!(identical, "incremental snapshots diverged from full ones");
    assert!(
        incremental_rounds > 0,
        "steady-state rounds never went incremental"
    );
    if !args.has("no-delta-assert") {
        assert!(
            speedup >= min_speedup,
            "delta regression: incremental recluster p50 is only {speedup:.2}x faster \
             than from-scratch (floor {min_speedup:.1}x)"
        );
    }
    serde_json::json!({
        "rounds": rounds as u64,
        "batch": batch as u64,
        "incremental_rounds": incremental_rounds,
        "identical": identical,
        "p50_incremental_ms": inc_p50 * 1_000.0,
        "p50_full_ms": full_p50 * 1_000.0,
        "speedup_p50": speedup,
        "frontier_p50": frontier_p50,
        "assert": serde_json::json!({
            "min_speedup_p50": min_speedup,
            "ok": speedup >= min_speedup,
        }),
    })
}

/// Measures the sharding scaling curve: tx/s versus shard count on one
/// regional stream with community-aware routing. Shard reclusters run
/// sequentially here (one core), each wall measured in isolation; the
/// modeled parallel cost of an exchange round is `max(shard walls) +
/// exchange wall`, plus the measured routing/apply wall which is serial
/// in the router either way. Self-asserts that Σ `max(shard walls)` — the
/// only term sharding divides — shrinks by the configured multiple from 1
/// shard to 4; the end-to-end modeled throughput ratio is reported, not
/// asserted.
fn run_scaling(args: &Args) -> serde_json::Value {
    let shard_counts: Vec<usize> = args
        .get_str("scaling-shards")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|s| s.trim().parse().expect("--scaling-shards takes integers"))
        .collect();
    let window_days = args.get("window-days", 10);
    let max_batch: usize = args.get("max-batch", 512);
    let exchange_every: u64 = args.get("recluster-every", 8);
    let r_cfg = RegionalTxConfig {
        regions: args.get("scaling-regions", 8),
        users_per_region: args.get("scaling-users-per-region", 400),
        items_per_region: args.get("scaling-items-per-region", 150),
        days: args.get("scaling-days", 12),
        tx_per_day: args.get("scaling-tx-per-day", 6_000),
        cross_rings: 8,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        ..Default::default()
    };
    eprintln!(
        "... generating regional stream ({} regions, {} days) for the scaling curve",
        r_cfg.regions, r_cfg.days
    );
    let stream = RegionalStream::generate(&r_cfg);
    let all: Vec<Transaction> = stream.window(0, r_cfg.days).copied().collect();
    eprintln!("... {} transactions", all.len());

    let mut rows = Vec::new();
    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    let mut modeled: Vec<(usize, f64)> = Vec::new();
    // Per shard count: Σ over rounds of the slowest shard's recluster wall.
    let mut recluster: Vec<(usize, f64)> = Vec::new();
    for &n in &shard_counts {
        eprintln!("... scaling: {n} shard(s)");
        let cfg = FleetConfig {
            shards: n,
            exchange_every_batches: exchange_every,
            // One engine thread per shard core: each shard's wall stands
            // for one core's work, so harness threads spawned per kernel
            // launch (a fixed cost no shard count divides) stay out of it.
            shard: ServeConfig {
                engine_shards: 1,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        }
        .with_window_days(window_days);
        let core = FleetCore::new(
            cfg,
            Partitioner::balanced(n, 7, stream.community_map()),
            stream.blacklist.clone(),
        );
        let mut apply_wall = 0.0f64;
        let mut shard_max_wall = 0.0f64;
        let mut exchange_wall = 0.0f64;
        let mut rounds = 0u64;
        let mut batches = 0u64;
        let mut boundary_users = 0usize;
        let mut spanning = 0usize;
        let mut exchange = |core: &FleetCore| {
            let o = core.exchange_now();
            shard_max_wall += o
                .shard_runs
                .iter()
                .map(|r| r.wall_seconds)
                .fold(0.0, f64::max);
            exchange_wall += o.exchange_wall;
            rounds += 1;
            boundary_users = o.report.boundary_users;
            spanning = o.report.spanning_components;
        };
        for chunk in all.chunks(max_batch) {
            let t0 = Instant::now();
            core.apply_transactions(chunk);
            apply_wall += t0.elapsed().as_secs_f64();
            batches += 1;
            if batches.is_multiple_of(exchange_every) {
                exchange(&core);
            }
        }
        exchange(&core);
        assert!(
            core.fleet_snapshot().verdicts.num_flagged() > 0,
            "scaling run must flag the planted rings"
        );
        let round_wall = shard_max_wall + exchange_wall;
        let modeled_wall = apply_wall + round_wall;
        let tx_per_s = all.len() as f64 / modeled_wall;
        modeled.push((n, tx_per_s));
        recluster.push((n, shard_max_wall));
        let speedup = tx_per_s / modeled[0].1;
        let recluster_speedup = recluster[0].1 / shard_max_wall;
        rows.push(vec![
            format!("{n}"),
            format!("{}", all.len()),
            format!("{rounds}"),
            format!("{:.3}s", apply_wall),
            format!("{:.3}s", shard_max_wall),
            format!("{:.3}s", exchange_wall),
            format!("{recluster_speedup:.2}x"),
            format!("{:.3}s", modeled_wall),
            format!("{tx_per_s:.0}"),
            format!("{speedup:.2}x"),
            format!("{boundary_users}"),
        ]);
        json_rows.push(serde_json::json!({
            "shards": n as u64,
            "transactions": all.len() as u64,
            "exchange_rounds": rounds,
            "apply_wall_s": apply_wall,
            "shard_recluster_max_wall_s": shard_max_wall,
            "recluster_speedup_vs_1shard": recluster_speedup,
            "modeled_round_wall_s": round_wall,
            "exchange_wall_s": exchange_wall,
            "modeled_wall_s": modeled_wall,
            "modeled_tx_per_s": tx_per_s,
            "speedup_vs_1shard": speedup,
            "boundary_users": boundary_users as u64,
            "spanning_components": spanning as u64,
        }));
    }

    println!("serve_latency: sharding scaling curve (modeled-parallel rounds)");
    print_table(
        &[
            "shards",
            "txs",
            "rounds",
            "apply",
            "Σmax shard",
            "exchange",
            "shard speedup",
            "modeled",
            "tx/s",
            "speedup",
            "boundary",
        ],
        &rows,
    );

    let min_speedup: f64 = args.get("scaling-min-speedup", 2.0);
    let ratio_4_over_1 = |curve: &[(usize, f64)]| {
        let at = |shards: usize| curve.iter().find(|(n, _)| *n == shards).map(|&(_, x)| x);
        at(1).zip(at(4))
    };
    let end_to_end = ratio_4_over_1(&modeled).map(|(t1, t4)| t4 / t1);
    let checked = ratio_4_over_1(&recluster).map(|(w1, w4)| w1 / w4);
    let ok = checked.map(|s| s >= min_speedup);
    if let Some(s) = checked {
        eprintln!(
            "... 4-shard recluster speedup over 1-shard: {s:.2}x (floor {min_speedup:.1}x); \
             end-to-end modeled throughput {:.2}x (not asserted)",
            end_to_end.unwrap_or(0.0)
        );
        if !args.has("no-scaling-assert") {
            assert!(
                s >= min_speedup,
                "scaling regression: at 4 shards the slowest-shard recluster wall is only \
                 {s:.2}x smaller than at 1 shard (floor {min_speedup:.1}x)"
            );
        }
    }
    serde_json::json!({
        "stream": serde_json::json!({
            "regions": r_cfg.regions as u64,
            "users_per_region": r_cfg.users_per_region as u64,
            "days": r_cfg.days,
            "tx_per_day": r_cfg.tx_per_day as u64,
            "transactions": all.len() as u64,
        }),
        "exchange_every_batches": exchange_every,
        "rows": json_rows,
        "assert": serde_json::json!({
            "min_speedup_4x_over_1": min_speedup,
            "measured_recluster_speedup_4_over_1": checked.unwrap_or(0.0),
            "measured_speedup_4_over_1": end_to_end.unwrap_or(0.0),
            "ok": ok.unwrap_or(false),
        }),
    })
}
