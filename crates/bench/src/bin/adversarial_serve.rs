//! adversarial_serve — the serving stack against a workload that fights
//! back (`glp_fraud::adversary`).
//!
//! Three scenarios, one per hardening claim:
//!
//! * **evolving-rings** — fraud rings rotate members daily behind
//!   camouflage purchases. A live, reclustering service is scored by a
//!   [`DetectionProbe`] against per-day ground truth every published
//!   snapshot; a snapshot frozen on day 0 is scored against the same
//!   final truth. Self-asserts the live service's recall beats the
//!   static snapshot's — staleness, not availability, is what the
//!   rotation attack degrades.
//! * **burst-flood** — one day of the stream carries a flood of
//!   organic-shaped transactions sized far past the ingest queue. The
//!   burst detector must tighten batching and degrade (never `Down`),
//!   shed counted (the overflow roll-up equals the per-policy total),
//!   and return to `Healthy` within the run once the flood passes.
//! * **shard-identity** — the full adversarial schedule, including a
//!   mid-run label-noise retraction through `update_blacklist`, driven
//!   through 1-, 2-, and 4-shard fleets. Self-asserts every published
//!   snapshot sequence is byte-identical across shard counts.
//!
//! Reports a table per scenario and writes `BENCH_adversarial.json`
//! (re-checked by the CI `adversarial` job).
//!
//! Usage: `cargo run -p glp-bench --release --bin adversarial_serve
//!         [--json BENCH_adversarial.json] [--days N] [--tx-per-day N]
//!         [--burst-tx N]`

use glp_bench::table::print_table;
use glp_bench::Args;
use glp_fraud::{
    precision_recall, AdversarialStream, AdversaryConfig, RegionalTxConfig, Transaction,
};
use glp_serve::{
    DetectionProbe, FleetConfig, FleetCore, FraudService, HealthState, Partitioner, ProbePoint,
    ServeConfig, ServiceCore, ShedPolicy, Telemetry,
};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The serving window every scenario runs with: long enough that the
/// statically-seeded ring members stay inside the live window (seeded LP
/// keeps finding the evolving ring), short enough that day-0 members
/// rotate out of the current truth.
const WINDOW_DAYS: u32 = 10;

fn stream_config(args: &Args) -> AdversaryConfig {
    AdversaryConfig {
        base: RegionalTxConfig {
            regions: 4,
            users_per_region: 200,
            items_per_region: 80,
            days: args.get("days", 12),
            tx_per_day: args.get("tx-per-day", 800),
            cross_rings: 4,
            // Pools much larger than the active subset, so rotation
            // genuinely walks the rings away from old snapshots.
            ring_size: 30,
            ring_tx_per_day: 30,
            blacklist_fraction: 0.3,
            ..Default::default()
        },
        active_members: 6,
        rotate_per_day: 2,
        camouflage_per_day: 10,
        burst_day: Some(6),
        burst_tx: args.get("burst-tx", 8_000),
        label_noise: 6,
    }
}

// ---------------------------------------------------------------------
// Scenario 1: evolving rings vs detection quality.
// ---------------------------------------------------------------------

struct RingsOutcome {
    series: Vec<ProbePoint>,
    live_recall: f64,
    static_recall: f64,
    static_flagged: usize,
}

fn run_evolving_rings(s: &AdversarialStream) -> RingsOutcome {
    let cfg = ServeConfig::default().with_window_days(WINDOW_DAYS);
    let probe = DetectionProbe::from_adversarial(s, WINDOW_DAYS);
    let telemetry = Telemetry::new();
    let core = ServiceCore::new(cfg, s.blacklist.clone());
    let days = s.config.base.days;
    let mut series = Vec::new();
    let mut static_snapshot = None;
    for d in 0..days {
        let txs: Vec<Transaction> = s.window(d, d + 1).copied().collect();
        core.apply_transactions(&txs);
        core.recluster_now();
        series.push(probe.observe(&core.snapshot(), &telemetry));
        if d == 0 {
            // The frozen defender: day 0's verdicts, never updated.
            static_snapshot = Some(core.snapshot());
        }
    }
    let live = core.snapshot();
    let stale = static_snapshot.expect("at least one day");
    let truth_now = probe.truth_for_window(live.window_end);
    let stale_flagged: Vec<u32> = stale.flagged.iter().map(|&(u, _, _)| u).collect();
    let (_, static_recall) = precision_recall(&stale_flagged, &truth_now);
    RingsOutcome {
        live_recall: series.last().expect("non-empty").recall,
        static_recall,
        static_flagged: stale_flagged.len(),
        series,
    }
}

// ---------------------------------------------------------------------
// Scenario 2: burst flood vs the admission gate.
// ---------------------------------------------------------------------

struct BurstOutcome {
    never_down: bool,
    worst_state: HealthState,
    degraded_seen: bool,
    recovered_healthy: bool,
    recovery: Option<Duration>,
    bursts_detected: u64,
    shed_overflow: u64,
    shed_total: u64,
    submitted: usize,
}

fn run_burst(s: &AdversarialStream) -> BurstOutcome {
    let cfg = ServeConfig {
        // A queue small enough that the flood day overflows it hard, and
        // burst windows short enough to evaluate during the flood.
        queue_capacity: 1 << 10,
        max_batch: 128,
        batch_budget: Duration::from_millis(1),
        shed_policy: ShedPolicy::DropOldest,
        burst_window: 256,
        ..ServeConfig::default()
    }
    .with_window_days(WINDOW_DAYS);
    let days = s.config.base.days;
    let service = FraudService::start(cfg, s.blacklist.clone());
    let mut never_down = true;
    let mut worst = HealthState::Healthy;
    let mut submitted = 0usize;
    for d in 0..days {
        for tx in s.window(d, d + 1) {
            let _ = service.submit(*tx); // sheds are the experiment
            submitted += 1;
            if submitted.is_multiple_of(512) {
                let state = service.health().state;
                worst = worst.max(state);
                never_down &= state != HealthState::Down;
            }
        }
    }
    let flood_over = Instant::now();
    // The flood has passed; the queue drains and idle batcher ticks feed
    // calm evidence into the detector. The service must walk back to
    // Healthy on its own, while still running.
    let deadline = flood_over + Duration::from_secs(15);
    let mut recovered_at = None;
    loop {
        let state = service.health().state;
        worst = worst.max(state);
        never_down &= state != HealthState::Down;
        if state == HealthState::Healthy {
            recovered_at = Some(Instant::now());
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = service.shutdown();
    let t = report.core.telemetry();
    BurstOutcome {
        never_down,
        worst_state: worst,
        degraded_seen: worst >= HealthState::Degraded,
        recovered_healthy: recovered_at.is_some(),
        recovery: recovered_at.map(|at| at.duration_since(flood_over)),
        bursts_detected: t.bursts_detected.load(Ordering::Relaxed),
        shed_overflow: t.shed_overflow.load(Ordering::Relaxed),
        shed_total: t.shed_total(),
        submitted,
    }
}

// ---------------------------------------------------------------------
// Scenario 3: shard identity under the adversarial schedule.
// ---------------------------------------------------------------------

struct IdentityOutcome {
    identical: bool,
    snapshots: usize,
    blacklist_revisions: u64,
}

/// Every published snapshot of an N-shard fleet over the adversarial
/// schedule, with the label noise retracted through `update_blacklist`
/// halfway — the same churn at the same batch boundary on every fleet.
fn fleet_sequence(s: &AdversarialStream, shards: usize) -> (Vec<Vec<u8>>, u64) {
    let cfg = FleetConfig {
        shards,
        ..FleetConfig::default()
    }
    .with_window_days(WINDOW_DAYS);
    let partitioner = Partitioner::with_communities(shards, 7, s.community_map());
    let core = FleetCore::new(cfg, partitioner, s.blacklist.clone());
    let all: Vec<Transaction> = s.window(0, s.config.base.days).copied().collect();
    let chunks: Vec<&[Transaction]> = all.chunks(500).collect();
    let retract_at = chunks.len() / 2;
    let mut snapshots = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        core.apply_transactions(chunk);
        if i == retract_at {
            assert!(core.update_blacklist(&[], &s.noise), "retraction applies");
        }
        if (i + 1) % 4 == 0 {
            core.exchange_now();
            snapshots.push(core.fleet_snapshot().verdicts.canonical_bytes());
        }
    }
    core.exchange_now();
    snapshots.push(core.fleet_snapshot().verdicts.canonical_bytes());
    (
        snapshots,
        core.fleet_telemetry().counter("blacklist_revisions"),
    )
}

fn run_identity(s: &AdversarialStream) -> IdentityOutcome {
    let (one, revisions) = fleet_sequence(s, 1);
    let (two, _) = fleet_sequence(s, 2);
    let (four, _) = fleet_sequence(s, 4);
    IdentityOutcome {
        identical: one == two && one == four,
        snapshots: one.len(),
        blacklist_revisions: revisions,
    }
}

fn main() {
    let args = Args::parse();
    let json_path = args.get_str("json").unwrap_or("BENCH_adversarial.json");

    let config = stream_config(&args);
    args.finish();

    eprintln!("... generating adversarial stream");
    let s = AdversarialStream::generate(&config);
    let total = s.transactions.len();
    eprintln!(
        "... {total} transactions over {} days, {} pool accounts, {} noise entries",
        s.config.base.days,
        s.pool_members().len(),
        s.noise.len()
    );

    eprintln!("... scenario evolving-rings: live vs frozen day-0 snapshot");
    let rings = run_evolving_rings(&s);
    eprintln!("... scenario burst-flood: day-{} flood through the gate", 6);
    let burst = run_burst(&s);
    eprintln!("... scenario shard-identity: 1/2/4 shards with mid-run retraction");
    let identity = run_identity(&s);

    println!("\nadversarial_serve — evolving rings (window {WINDOW_DAYS} days)\n");
    print_table(
        &["day", "precision", "recall", "flagged", "truth"],
        &rings
            .series
            .iter()
            .map(|p| {
                vec![
                    p.day.to_string(),
                    format!("{:.3}", p.precision),
                    format!("{:.3}", p.recall),
                    p.flagged.to_string(),
                    p.truth.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nlive recall {:.3} vs static day-0 snapshot {:.3} (over {} frozen flags)\n",
        rings.live_recall, rings.static_recall, rings.static_flagged
    );

    println!(
        "burst-flood — {} submissions, DropOldest\n",
        burst.submitted
    );
    print_table(
        &[
            "never-down",
            "worst-state",
            "bursts",
            "shed-overflow",
            "recovered",
            "recovery",
        ],
        &[vec![
            burst.never_down.to_string(),
            burst.worst_state.as_str().to_string(),
            burst.bursts_detected.to_string(),
            burst.shed_overflow.to_string(),
            burst.recovered_healthy.to_string(),
            match burst.recovery {
                Some(d) => format!("{:.1} ms", d.as_secs_f64() * 1e3),
                None => "-".to_string(),
            },
        ]],
    );

    println!("\nshard-identity — adversarial schedule with mid-run retraction\n");
    print_table(
        &["shards", "snapshots", "identical", "blacklist-revisions"],
        &[vec![
            "1/2/4".to_string(),
            identity.snapshots.to_string(),
            identity.identical.to_string(),
            identity.blacklist_revisions.to_string(),
        ]],
    );

    let live_beats_static = rings.live_recall > rings.static_recall;
    let rings_json = serde_json::json!({
        "live_recall": rings.live_recall,
        "static_recall": rings.static_recall,
        "static_flagged": rings.static_flagged,
        "live_beats_static": live_beats_static,
        "series": rings.series.iter().map(|p| serde_json::json!({
            "day": p.day,
            "precision": p.precision,
            "recall": p.recall,
            "flagged": p.flagged,
            "truth": p.truth,
        })).collect::<Vec<_>>(),
    });
    let burst_json = serde_json::json!({
        "submitted": burst.submitted,
        "never_down": burst.never_down,
        "worst_state": burst.worst_state.as_str(),
        "degraded_seen": burst.degraded_seen,
        "recovered_healthy": burst.recovered_healthy,
        "recovery_ms": burst.recovery.map(|d| d.as_secs_f64() * 1e3),
        "bursts_detected": burst.bursts_detected,
        "shed_overflow": burst.shed_overflow,
        "shed_total": burst.shed_total,
    });
    let identity_json = serde_json::json!({
        "shards": vec![1, 2, 4],
        "snapshots": identity.snapshots,
        "identical": identity.identical,
        "blacklist_revisions": identity.blacklist_revisions,
    });
    let json = serde_json::json!({
        "bench": "adversarial_serve",
        "transactions": total,
        "window_days": WINDOW_DAYS,
        "evolving_rings": rings_json,
        "burst": burst_json,
        "identity": identity_json,
    });
    std::fs::write(
        json_path,
        serde_json::to_string_pretty(&json).expect("serializable"),
    )
    .expect("write json");
    eprintln!("... wrote {json_path}");

    // The bin doubles as a smoke check in CI: fail loudly if any
    // hardening claim did not hold.
    assert!(
        rings.live_recall > rings.static_recall,
        "live service must out-detect the frozen day-0 snapshot \
         ({:.3} vs {:.3})",
        rings.live_recall,
        rings.static_recall
    );
    assert!(burst.never_down, "the flood must never take the fleet Down");
    assert!(
        burst.recovered_healthy,
        "health must return to Healthy within the run (worst {})",
        burst.worst_state.as_str()
    );
    assert_eq!(
        burst.shed_overflow, burst.shed_total,
        "the overflow roll-up must cover every overflow shed"
    );
    assert!(
        identity.identical,
        "1/2/4-shard snapshots diverged under the adversarial schedule"
    );
    eprintln!("... all adversarial scenarios behaved as specified");
}
