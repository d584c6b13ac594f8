//! chaos_serve — fault-injection sweep against the supervised scoring
//! service (`glp-serve`, feature `fault-injection`).
//!
//! Runs one scenario per fault class the fault-tolerance layer claims to
//! survive — a lossless batcher panic, a panic inside the window lock, a
//! recluster-worker panic, a recluster stall, a corrupt
//! in-pipeline transaction, a failed checkpoint write, and a terminal
//! crash loop — each driven by a deterministic [`FaultPlan`] pinned to
//! logical batch/recluster indices. For every scenario it reports the
//! recovery latency (first fault firing → health back to `Healthy` with
//! fresh verdicts; for the stall, never less than the stall), caught
//! panics, supervisor restarts, shed counts, and the final health state,
//! as a table and as `BENCH_chaos.json`.
//!
//! A final fleet scenario kills one shard of a journaled fleet to Down,
//! repeatedly, and reports MTTR (kill → shard re-admitted after the
//! checkpoint + write-ahead-journal rebuild) — self-asserting that the
//! healed fleet is byte-identical to a fault-free run.
//!
//! Usage: `cargo run -p glp-bench --release --features fault-injection
//!         --bin chaos_serve [--json BENCH_chaos.json] [--users N]
//!         [--days N] [--tx-per-day N] [--seed N]`

use glp_bench::table::print_table;
use glp_bench::Args;
use glp_fraud::{Transaction, TxConfig, TxStream};
use glp_serve::{
    Fault, FaultPlan, FleetConfig, FleetCore, FraudService, HealthState, Partitioner, ServeConfig,
    ShedPolicy,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Outcome {
    scenario: &'static str,
    injected: String,
    recovery: Option<Duration>,
    panics: u64,
    restarts: u64,
    shed: u64,
    rejected_invalid: u64,
    shed_unhealthy: u64,
    checkpoint_failures: u64,
    final_state: HealthState,
}

fn base_cfg() -> ServeConfig {
    ServeConfig {
        queue_capacity: 1 << 15,
        max_batch: 256,
        batch_budget: Duration::from_millis(2),
        shed_policy: ShedPolicy::RejectNew,
        recluster_every_batches: 4,
        engine_shards: 2,
        restart_backoff: Duration::from_millis(2),
        restart_backoff_cap: Duration::from_millis(50),
        ..ServeConfig::default()
    }
    .with_window_days(10)
}

/// Drives one service under one fault plan: replays the stream once,
/// then waits (bounded) for every scheduled fault to fire and for health
/// to return to `Healthy` — or for the service to go `Down`.
fn run_scenario(
    scenario: &'static str,
    cfg: ServeConfig,
    plan: Arc<FaultPlan>,
    all: &[Transaction],
    blacklist: &[u32],
) -> Outcome {
    let injected = plan
        .scheduled()
        .iter()
        .map(|f| format!("{f:?}"))
        .collect::<Vec<_>>()
        .join(", ");
    let service = FraudService::start_with_faults(cfg, blacklist.to_vec(), Arc::clone(&plan));
    for &t in all {
        let _ = service.submit(t); // sheds are part of the experiment
    }
    // Post-traffic wait: the queue drains, faults pinned to late indices
    // fire, recovery (or Down) becomes observable.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut recovered_at = None;
    loop {
        let fired = plan.all_fired();
        // The tail of the stream may not land on the recluster cadence:
        // run one synchronously so staleness can reach 0. It queues behind
        // a recluster in flight, so a stall that has fired is waited out.
        service.recluster_now();
        let h = service.health();
        if h.state == HealthState::Down {
            // Terminal: prove the gate is closed (counted) on the way out.
            let _ = service.submit(all[0]);
            break;
        }
        if fired && h.state == HealthState::Healthy && h.staleness_batches == 0 {
            recovered_at = Some(Instant::now());
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let recovery = match (recovered_at, plan.fired().first()) {
        (Some(done), Some(first)) => Some(done.duration_since(first.at)),
        _ => None,
    };
    let report = service.shutdown();
    let t = report.core.telemetry();
    Outcome {
        scenario,
        injected,
        recovery,
        panics: t.worker_panics.load(Ordering::Relaxed),
        restarts: t.worker_restarts.load(Ordering::Relaxed),
        shed: t.shed_total(),
        rejected_invalid: t.rejected_invalid.load(Ordering::Relaxed),
        shed_unhealthy: t.shed_unhealthy.load(Ordering::Relaxed),
        checkpoint_failures: t.checkpoint_failures.load(Ordering::Relaxed),
        final_state: report.state,
    }
}

struct FailoverStats {
    shards: usize,
    victim: usize,
    runs: usize,
    mttr: Vec<Duration>,
    rebuild_wall: Vec<Duration>,
    replayed_total: u64,
    byte_identical: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// (min, mean, max) in milliseconds.
fn duration_stats(v: &[Duration]) -> (f64, f64, f64) {
    let min = v.iter().min().copied().unwrap_or_default();
    let max = v.iter().max().copied().unwrap_or_default();
    let mean = v.iter().sum::<Duration>().as_secs_f64() * 1e3 / v.len().max(1) as f64;
    (ms(min), mean, ms(max))
}

/// The fleet scenario: walk one shard of a journaled fleet to `Down`
/// with consecutive panics, let the router rebuild it from the
/// mid-stream checkpoint + journal replay, and measure MTTR — last kill
/// fired → shard re-admitted. Repeated `runs` times for a distribution;
/// every healed run must end byte-identical to the fault-free reference.
fn run_failover(all: &[Transaction], blacklist: &[u32], seed: u64, runs: usize) -> FailoverStats {
    let shards = 3usize;
    let victim = (seed as usize) % shards;
    let fleet_cfg = || {
        FleetConfig {
            shards,
            exchange_every_batches: 8,
            ..FleetConfig::default()
        }
        .with_window_days(20)
    };
    let chunk = all.len().div_ceil(24).max(1);
    let chunks: Vec<&[Transaction]> = all.chunks(chunk).collect();

    let reference = FleetCore::new(
        fleet_cfg(),
        Partitioner::hashed(shards, seed),
        blacklist.to_vec(),
    );
    for c in &chunks {
        reference.apply_transactions(c);
    }
    reference.exchange_now();
    let want = reference.fleet_snapshot().verdicts.canonical_bytes();

    let down_after = u64::from(fleet_cfg().shard.down_after_crashes);
    let kill_from = 10u64;
    let mut mttr = Vec::new();
    let mut rebuild_wall = Vec::new();
    let mut replayed_total = 0u64;
    let mut byte_identical = true;
    for run in 0..runs {
        let base =
            std::env::temp_dir().join(format!("glp_chaos_fo_{}_{run}.ckpt", std::process::id()));
        let wal =
            std::env::temp_dir().join(format!("glp_chaos_fo_{}_{run}.wal", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal);
        let mut cfg = fleet_cfg();
        cfg.shard.checkpoint_path = Some(base.clone());
        cfg.wal_dir = Some(wal.clone());
        let plan = Arc::new(FaultPlan::new((0..down_after).map(|j| Fault::ShardPanic {
            shard: victim,
            at_batch: kill_from + j,
        })));
        let fleet = FleetCore::new(cfg, Partitioner::hashed(shards, seed), blacklist.to_vec())
            .with_faults(Arc::clone(&plan));
        for (j, c) in chunks.iter().enumerate() {
            fleet.apply_transactions(c);
            if j as u64 == 5 {
                fleet.checkpoint_all().expect("mid-stream checkpoint");
            }
        }
        fleet.exchange_now();
        assert!(plan.all_fired(), "failover: kill schedule never completed");
        let event = fleet
            .failover_events()
            .into_iter()
            .next()
            .expect("failover: the dead shard was never rebuilt");
        let killed_at = plan.fired().last().expect("fired faults recorded").at;
        mttr.push(event.completed_at.duration_since(killed_at));
        rebuild_wall.push(event.wall);
        replayed_total += event.replayed_batches;
        byte_identical &= fleet.fleet_snapshot().verdicts.canonical_bytes() == want
            && fleet.health().state == HealthState::Healthy;
        for i in 0..shards {
            let mut p = base.as_os_str().to_owned();
            p.push(format!(".shard{i}"));
            let _ = std::fs::remove_file(std::path::PathBuf::from(p));
        }
        let _ = std::fs::remove_dir_all(&wal);
    }
    FailoverStats {
        shards,
        victim,
        runs,
        mttr,
        rebuild_wall,
        replayed_total,
        byte_identical,
    }
}

fn main() {
    let args = Args::parse();
    let json_path = args.get_str("json").unwrap_or("BENCH_chaos.json");
    let seed: u64 = args.get("seed", 42);
    let failover_runs: usize = args.get("failover-runs", 5);

    let tx_cfg = TxConfig {
        num_users: args.get("users", 1_500),
        num_items: args.get("items", 600),
        days: args.get("days", 20),
        tx_per_day: args.get("tx-per-day", 800),
        num_rings: 3,
        ring_size: 10,
        ring_tx_per_day: 30,
        blacklist_fraction: 0.25,
        ..Default::default()
    };
    args.finish();
    eprintln!("... generating transaction stream ({} days)", tx_cfg.days);
    let stream = TxStream::generate(&tx_cfg);
    let all: Vec<Transaction> = stream.window(0, tx_cfg.days).copied().collect();
    eprintln!(
        "... {} transactions, seed {seed}, one service per scenario",
        all.len()
    );

    let ckpt_path = std::env::temp_dir().join(format!("glp_chaos_{}.ckpt", std::process::id()));
    let mut ckpt_cfg = base_cfg();
    ckpt_cfg.checkpoint_path = Some(ckpt_path.clone());
    ckpt_cfg.checkpoint_every_batches = 4;
    let mut down_cfg = base_cfg();
    down_cfg.shedding_after_crashes = 2;
    down_cfg.down_after_crashes = 3;

    // SplitMix-free seeding: derive per-scenario indices from the seed
    // via FaultPlan::seeded where the class supports it, and pin the
    // structurally-constrained ones (crash loop) explicitly.
    let stall = Duration::from_millis(200);
    let scenarios: Vec<(&'static str, ServeConfig, Arc<FaultPlan>)> = vec![
        (
            "batcher-panic",
            base_cfg(),
            Arc::new(FaultPlan::seeded(
                seed,
                &glp_serve::FaultSpec {
                    batcher_panics: 1,
                    batch_horizon: 8,
                    ..glp_serve::FaultSpec::default()
                },
            )),
        ),
        (
            "panic-in-apply",
            base_cfg(),
            Arc::new(FaultPlan::new([Fault::PanicInApply { at_batch: 2 }])),
        ),
        (
            "recluster-panic",
            base_cfg(),
            Arc::new(FaultPlan::new([Fault::ReclusterPanic { at_recluster: 1 }])),
        ),
        (
            "recluster-stall",
            base_cfg(),
            Arc::new(FaultPlan::new([Fault::ReclusterStall {
                at_recluster: 1,
                millis: stall.as_millis() as u64,
            }])),
        ),
        (
            "corrupt-tx",
            base_cfg(),
            Arc::new(FaultPlan::new([Fault::CorruptTx { at_batch: 2 }])),
        ),
        (
            "checkpoint-fail",
            ckpt_cfg,
            Arc::new(FaultPlan::new([Fault::CheckpointFail { at_batch: 4 }])),
        ),
        (
            "crash-loop",
            down_cfg,
            Arc::new(FaultPlan::new([
                Fault::BatcherPanic { at_batch: 0 },
                Fault::BatcherPanic { at_batch: 0 },
                Fault::BatcherPanic { at_batch: 0 },
            ])),
        ),
    ];

    let mut outcomes = Vec::new();
    for (name, cfg, plan) in scenarios {
        eprintln!("... scenario {name}: {:?}", plan.scheduled());
        outcomes.push(run_scenario(name, cfg, plan, &all, &stream.blacklist));
    }
    std::fs::remove_file(&ckpt_path).ok();

    eprintln!("... scenario shard-failover: {failover_runs} killed-shard rebuilds");
    let failover = run_failover(&all, &stream.blacklist, seed, failover_runs);

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.scenario.to_string(),
                match o.recovery {
                    Some(d) => format!("{:.1} ms", d.as_secs_f64() * 1e3),
                    None => "-".to_string(),
                },
                o.panics.to_string(),
                o.restarts.to_string(),
                o.shed.to_string(),
                o.shed_unhealthy.to_string(),
                o.rejected_invalid.to_string(),
                o.checkpoint_failures.to_string(),
                o.final_state.as_str().to_string(),
            ]
        })
        .collect();
    println!("\nchaos_serve — recovery under injected faults (seed {seed})\n");
    print_table(
        &[
            "scenario",
            "recovery",
            "panics",
            "restarts",
            "shed",
            "shed-unhealthy",
            "rejected-invalid",
            "ckpt-fail",
            "final",
        ],
        &rows,
    );

    let (mttr_min, mttr_mean, mttr_max) = duration_stats(&failover.mttr);
    let (_, wall_mean, _) = duration_stats(&failover.rebuild_wall);
    println!(
        "\nshard-failover — kill one of {} shards to Down, rebuild from checkpoint + journal ({} runs, victim {})\n",
        failover.shards, failover.runs, failover.victim
    );
    print_table(
        &[
            "mttr-min",
            "mttr-mean",
            "mttr-max",
            "rebuild-wall-mean",
            "replayed-batches",
            "byte-identical",
        ],
        &[vec![
            format!("{mttr_min:.2} ms"),
            format!("{mttr_mean:.2} ms"),
            format!("{mttr_max:.2} ms"),
            format!("{wall_mean:.2} ms"),
            failover.replayed_total.to_string(),
            failover.byte_identical.to_string(),
        ]],
    );

    let mttr_json = serde_json::json!({
        "min": mttr_min,
        "mean": mttr_mean,
        "max": mttr_max,
    });
    let failover_json = serde_json::json!({
        "shards": failover.shards,
        "victim": failover.victim,
        "runs": failover.runs,
        "mttr_ms": mttr_json,
        "rebuild_wall_ms_mean": wall_mean,
        "replayed_batches_total": failover.replayed_total,
        "byte_identical": failover.byte_identical,
    });
    let json = serde_json::json!({
        "bench": "chaos_serve",
        "seed": seed,
        "transactions": all.len(),
        "scenarios": outcomes.iter().map(|o| serde_json::json!({
            "scenario": o.scenario,
            "injected": o.injected.clone(),
            "recovery_ms": o.recovery.map(|d| d.as_secs_f64() * 1e3),
            "worker_panics": o.panics,
            "worker_restarts": o.restarts,
            "shed": o.shed,
            "shed_unhealthy": o.shed_unhealthy,
            "rejected_invalid": o.rejected_invalid,
            "checkpoint_failures": o.checkpoint_failures,
            "final_state": o.final_state.as_str(),
        })).collect::<Vec<_>>(),
        "failover": failover_json,
    });
    std::fs::write(
        json_path,
        serde_json::to_string_pretty(&json).expect("serializable"),
    )
    .expect("write json");
    eprintln!("... wrote {json_path}");

    // The bin doubles as a smoke check in CI: fail loudly if any
    // recoverable scenario did not recover, the stall was not served, or
    // the crash loop did not reach Down.
    for o in &outcomes {
        if o.scenario == "crash-loop" {
            assert_eq!(o.final_state, HealthState::Down, "crash loop must go Down");
            continue;
        }
        let recovery = o
            .recovery
            .unwrap_or_else(|| panic!("scenario {} never recovered to Healthy", o.scenario));
        if o.scenario == "recluster-stall" {
            assert!(
                recovery >= stall,
                "the {stall:?} stall was not served: recovered in {recovery:?}"
            );
        }
    }
    assert!(
        failover.byte_identical,
        "a healed fleet diverged from the fault-free reference"
    );
    assert_eq!(failover.mttr.len(), failover.runs, "every run must heal");
    eprintln!("... all scenarios behaved as specified");
}
