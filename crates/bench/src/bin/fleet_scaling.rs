//! fleet_scaling — the sharding scaling curve of the scoring fleet
//! (`glp-serve`), the one serving claim the committed benchmark does not
//! make (its `serve_fleet` workload runs a fixed 4 shards).
//!
//! One regional stream is driven through a [`FleetCore`] at 1, 2, 4, and 8
//! shards with community-aware routing and full boundary exchanges at the
//! recluster cadence. Shard reclusters run concurrently, up to the core
//! count, so each wall is measured with up to one sibling per core running;
//! a deployment with a core per shard has a round cost of
//! `max(shard walls) + exchange wall`, giving a modeled tx/s per shard
//! count. The measured wall of each `exchange_now` call is reported beside
//! that modeled round cost, unasserted: it equals the model only when
//! there are as many cores as shards. The curve self-asserts the work
//! sharding actually divides, as a count rather than a time — Σ over rounds
//! of the largest shard snapshot's graph edges (the window the slowest
//! shard reclusters): at 4 shards it must be at least `MIN_WORK_SPLIT` (2×)
//! smaller than at 1 shard, or the bench exits non-zero. The slowest-shard
//! recluster wall is reported beside it, unasserted: a ratio of two timed
//! sides moves with the host (it read 2.2–4.2× on 2 vCPUs). The
//! routing/apply wall and the exchange wall are serial whatever the shard
//! count; they are reported too (and fold into the end-to-end
//! `speedup_vs_1shard`), unasserted — a ratio of wall sums that include
//! them *falls* whenever label propagation gets faster.
//!
//! Usage: `cargo run -p glp-bench --release --bin fleet_scaling
//!         [--shards 1,2,4,8] [--regions N] [--users-per-region N]
//!         [--items-per-region N] [--days N] [--tx-per-day N]
//!         [--window-days N] [--max-batch N] [--exchange-every N]
//!         [--json BENCH_scaling.json]`

use glp_bench::table::print_table;
use glp_bench::Args;
use glp_fraud::{RegionalStream, RegionalTxConfig, Transaction};
use glp_serve::{FleetConfig, FleetCore, Partitioner, ServeConfig};
use std::time::Instant;

/// Floor on (Σ largest-shard graph edges at 1 shard) / (same at 4).
const MIN_WORK_SPLIT: f64 = 2.0;

fn main() {
    let args = Args::parse();
    let shard_counts: Vec<usize> = args
        .get_str("shards")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|s| s.trim().parse().expect("--shards takes integers"))
        .collect();
    let window_days = args.get("window-days", 10);
    let max_batch: usize = args.get("max-batch", 512);
    let exchange_every: u64 = args.get("exchange-every", 8);
    let json_path = args.get_str("json").unwrap_or("BENCH_scaling.json");
    let r_cfg = RegionalTxConfig {
        regions: args.get("regions", 8),
        users_per_region: args.get("users-per-region", 400),
        items_per_region: args.get("items-per-region", 150),
        days: args.get("days", 12),
        tx_per_day: args.get("tx-per-day", 6_000),
        cross_rings: 8,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        ..Default::default()
    };
    args.finish();
    if !(shard_counts.contains(&1) && shard_counts.contains(&4)) {
        eprintln!("error: --shards must include 1 and 4 (the asserted ratio)");
        std::process::exit(2);
    }

    eprintln!(
        "... generating regional stream ({} regions, {} days)",
        r_cfg.regions, r_cfg.days
    );
    let stream = RegionalStream::generate(&r_cfg);
    let all: Vec<Transaction> = stream.window(0, r_cfg.days).copied().collect();
    eprintln!("... {} transactions", all.len());

    let mut rows = Vec::new();
    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    // Per shard count: (modeled tx/s, Σ over rounds of the slowest shard's
    // recluster wall, Σ over rounds of the largest shard's graph edges).
    let mut curve: Vec<(usize, f64, f64, u64)> = Vec::new();
    for &n in &shard_counts {
        eprintln!("... {n} shard(s)");
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
        let mut measured_round_wall = 0.0f64;
        let mut largest_edges = 0u64;
        let mut rounds = 0u64;
        let mut batches = 0u64;
        let mut boundary_users = 0usize;
        let mut spanning = 0usize;
        let mut exchange = |core: &FleetCore| {
            let t0 = Instant::now();
            let o = core.exchange_now();
            measured_round_wall += t0.elapsed().as_secs_f64();
            shard_max_wall += o
                .shard_runs
                .iter()
                .map(|r| r.wall_seconds)
                .fold(0.0, f64::max);
            exchange_wall += o.exchange_wall;
            let shards = core.shards().iter();
            largest_edges += shards.map(|s| s.snapshot().graph_edges).max().unwrap_or(0);
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
        curve.push((n, tx_per_s, shard_max_wall, largest_edges));
        let speedup = tx_per_s / curve[0].1;
        let recluster_speedup = curve[0].2 / shard_max_wall;
        let work_split = curve[0].3 as f64 / largest_edges.max(1) as f64;
        rows.push(vec![
            format!("{n}"),
            format!("{}", all.len()),
            format!("{rounds}"),
            format!("{:.3}s", apply_wall),
            format!("{:.3}s", shard_max_wall),
            format!("{:.3}s", exchange_wall),
            format!("{:.3}s", round_wall),
            format!("{:.3}s", measured_round_wall),
            format!("{recluster_speedup:.2}x"),
            format!("{largest_edges}"),
            format!("{work_split:.2}x"),
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
            "largest_shard_edges": largest_edges,
            "work_split_vs_1shard": work_split,
            "modeled_round_wall_s": round_wall,
            "measured_round_wall_s": measured_round_wall,
            "exchange_wall_s": exchange_wall,
            "modeled_wall_s": modeled_wall,
            "modeled_tx_per_s": tx_per_s,
            "speedup_vs_1shard": speedup,
            "boundary_users": boundary_users as u64,
            "spanning_components": spanning as u64,
        }));
    }

    // The measured round wall depends on how many shards run at once.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("fleet_scaling: sharding scaling curve (modeled-parallel rounds, {cores} cores)");
    print_table(
        &[
            "shards",
            "txs",
            "rounds",
            "apply",
            "Σmax shard",
            "exchange",
            "Σround model",
            "Σround measured",
            "shard speedup",
            "Σmax edges",
            "edge split",
            "modeled",
            "tx/s",
            "speedup",
            "boundary",
        ],
        &rows,
    );

    let at = |shards: usize| {
        *curve
            .iter()
            .find(|(n, ..)| *n == shards)
            .expect("checked after parsing")
    };
    let ((_, tx1, wall1, edges1), (_, tx4, wall4, edges4)) = (at(1), at(4));
    let (recluster_speedup, end_to_end) = (wall1 / wall4, tx4 / tx1);
    let work_split = edges1 as f64 / edges4.max(1) as f64;
    let doc = serde_json::json!({
        "bench": "fleet_scaling",
        "stream": serde_json::json!({
            "regions": r_cfg.regions as u64,
            "users_per_region": r_cfg.users_per_region as u64,
            "days": r_cfg.days,
            "tx_per_day": r_cfg.tx_per_day as u64,
            "transactions": all.len() as u64,
        }),
        "exchange_every_batches": exchange_every,
        "cores": cores as u64,
        "rows": json_rows,
        "min_work_split_4_over_1": MIN_WORK_SPLIT,
        "work_split_4_over_1": work_split,
        "recluster_speedup_4_over_1": recluster_speedup,
        "speedup_4_over_1": end_to_end,
    });
    std::fs::write(
        json_path,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    eprintln!(
        "... 4-shard largest-shard edge split over 1-shard: {work_split:.2}x \
         (floor {MIN_WORK_SPLIT:.1}x); slowest-shard recluster wall \
         {recluster_speedup:.2}x and end-to-end modeled throughput \
         {end_to_end:.2}x (not asserted)"
    );
    assert!(
        work_split >= MIN_WORK_SPLIT,
        "scaling regression: at 4 shards the largest shard's graph edges, summed over \
         rounds, are only {work_split:.2}x fewer than at 1 shard (floor {MIN_WORK_SPLIT:.1}x)"
    );
}
