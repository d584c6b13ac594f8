//! The three closed-loop serving workloads: a single generator thread
//! hands micro-batches to a synchronous core (`ServiceCore` or the
//! 4-shard `FleetCore`) and triggers reclusters at a fixed cadence; the
//! next batch is sent only after the previous call returned.

use crate::hostref::{HostRef, Timed};
use crate::layers::Layers;
use crate::report::{EndToEnd, RunArgs, RunResult, ENGINE_THREADS};
use crate::spans::{out_dir, Spans};
use crate::stats;
use crate::SETUP_REPS;
use glp_core::engine::GpuEngine;
use glp_core::{replay_delta, Engine, MemoRecorder, RunOptions, WeightedLp};
use glp_fraud::checkpoint::WindowCheckpoint;
use glp_fraud::{
    precision_recall, FraudPipeline, IncrementalWindow, RegionalStream, RegionalTxConfig,
    Transaction, TxConfig, TxStream,
};
use glp_graph::stats::degree_stats;
use glp_serve::{
    ExchangeOutcome, FleetConfig, FleetCore, FleetWal, Partitioner, ReclusterMode,
    ReclusterRequest, ServeConfig, ServiceCore, VerdictSnapshot,
};
use glp_trace::{KernelProfile, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sliding-window length of every serving workload, in days.
pub const WINDOW_DAYS: u32 = 10;
/// Warm-up transactions are applied in batches of this size.
const WARM_BATCH: usize = 512;
/// Fewest measured rounds, however short the measured phase.
const MIN_ROUNDS: u64 = 3;
/// Share of the planted ring members active in the final window that
/// the final snapshot must flag. Recall depends on where in the stream
/// the run happens to stop (measured 0.28 to 1.0 over 60 runs), so the
/// floor only separates "flags the rings" from a pipeline that flags
/// nothing; a seed must never be able to fail a run.
pub const RECALL_FLOOR: f64 = 0.1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    Delta,
    Slide,
    Fleet,
}

/// Shape of one closed loop.
struct Plan {
    /// Transactions per hand-off.
    batch: usize,
    /// Recluster (or exchange) after this many batches.
    recluster_every: usize,
    /// Fleet only: `checkpoint_all` after this many exchange rounds.
    checkpoint_every_rounds: Option<u64>,
}

impl ServeKind {
    fn plan(self) -> Plan {
        match self {
            ServeKind::Delta => Plan {
                batch: 64,
                recluster_every: 1,
                checkpoint_every_rounds: None,
            },
            ServeKind::Slide => Plan {
                batch: 512,
                recluster_every: 8,
                checkpoint_every_rounds: None,
            },
            ServeKind::Fleet => Plan {
                batch: 512,
                recluster_every: 8,
                checkpoint_every_rounds: Some(8),
            },
        }
    }
}

/// A generated input: what is applied before timing starts, what the
/// measured phase feeds, and the ground truth.
pub struct Input {
    pub warm: Vec<Transaction>,
    pub feed: Vec<Transaction>,
    pub blacklist: Vec<u32>,
    /// Members of the planted rings, ascending.
    pub fraud_users: Vec<u32>,
    /// `user -> community` for the fleet's partitioner (empty otherwise).
    pub communities: Vec<(u32, u32)>,
    pub generate_s: f64,
}

pub fn scaled(base: u32, scale: f64, floor: u32) -> u32 {
    ((f64::from(base) * scale).round() as u32).max(floor)
}

/// The flat-population stream of `serve_delta`, `serve_slide` and
/// `serve_live`: five planted rings of twelve, a quarter black-listed.
pub fn tx_stream(users: u32, tx_per_day: u32, days: u32, scale: f64, seed: u64) -> TxStream {
    TxStream::generate(&TxConfig {
        num_users: scaled(users, scale, 120),
        num_items: scaled(users * 3 / 8, scale, 40),
        days,
        tx_per_day: scaled(tx_per_day, scale, 64),
        num_rings: 5,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        seed,
        ..TxConfig::default()
    })
}

/// Splits a day-sorted stream at the first transaction of `day`.
pub fn split_at_day(all: Vec<Transaction>, day: u32) -> (Vec<Transaction>, Vec<Transaction>) {
    let cut = all.partition_point(|t| t.day < day);
    let feed = all[cut..].to_vec();
    let mut warm = all;
    warm.truncate(cut);
    (warm, feed)
}

fn input(kind: ServeKind, scale: f64, seed: u64) -> Input {
    let started = Instant::now();
    let mut out = match kind {
        ServeKind::Delta => {
            // An 8-day warm window, then a long tail re-dated onto the
            // last warm day: every 64-tx round extends the same window,
            // so no delta ever expires and the incremental path runs.
            let warm_days = 8;
            let s = tx_stream(4_000, 8_000, warm_days + 12, scale, seed);
            let fraud_users = s.fraudulent_users();
            let (warm, mut feed) = split_at_day(s.transactions, warm_days);
            for t in &mut feed {
                t.day = warm_days - 1;
            }
            Input {
                warm,
                feed,
                blacklist: s.blacklist,
                fraud_users,
                communities: Vec::new(),
                generate_s: 0.0,
            }
        }
        ServeKind::Slide => {
            // Days enough for twice what a 12 s phase applies today.
            let s = tx_stream(8_000, 8_000, 150, scale, seed);
            let fraud_users = s.fraudulent_users();
            let (warm, feed) = split_at_day(s.transactions, WINDOW_DAYS);
            Input {
                warm,
                feed,
                blacklist: s.blacklist,
                fraud_users,
                communities: Vec::new(),
                generate_s: 0.0,
            }
        }
        ServeKind::Fleet => {
            let s = RegionalStream::generate(&RegionalTxConfig {
                regions: 8,
                users_per_region: scaled(400, scale, 32),
                items_per_region: scaled(150, scale, 12),
                // Twice what a 12 s phase applies today.
                days: 220,
                tx_per_day: scaled(6_000, scale, 64),
                cross_rings: 8,
                ring_size: 12,
                ring_tx_per_day: 40,
                blacklist_fraction: 0.25,
                seed,
            });
            let communities = s.community_map().collect();
            let fraud_users = (0..s.num_users())
                .filter(|&u| s.ring_of[u as usize].is_some())
                .collect();
            let (warm, feed) = split_at_day(s.transactions, WINDOW_DAYS);
            Input {
                warm,
                feed,
                blacklist: s.blacklist,
                fraud_users,
                communities,
                generate_s: 0.0,
            }
        }
    };
    out.generate_s = started.elapsed().as_secs_f64();
    out
}

/// The per-core configuration every serving workload shares.
pub fn serve_config(engine_threads: usize) -> ServeConfig {
    ServeConfig {
        engine_shards: engine_threads,
        ..ServeConfig::default()
    }
    .with_window_days(WINDOW_DAYS)
}

/// A directory under `benchmark/out/` removed when dropped — journals and
/// checkpoints of one run live here.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

enum Core {
    Single(Box<ServiceCore>),
    /// The fleet plus the scratch directory holding its journal and
    /// checkpoints.
    Fleet(Box<FleetCore>, Scratch),
}

/// What one recluster trigger did.
struct Round {
    full: u64,
    incremental: u64,
    exchange: Option<ExchangeOutcome>,
}

impl Core {
    fn build(kind: ServeKind, input: &Input, tag: &str, tracer: Option<Tracer>) -> Self {
        let cfg = serve_config(ENGINE_THREADS);
        match kind {
            ServeKind::Delta | ServeKind::Slide => {
                let core = ServiceCore::new(cfg, input.blacklist.clone());
                Core::Single(Box::new(match tracer {
                    Some(t) => core.with_tracer(t),
                    None => core,
                }))
            }
            ServeKind::Fleet => {
                let scratch = Scratch::new(tag).expect("scratch directory under benchmark/out");
                let shards = 4;
                let cfg = FleetConfig {
                    shard: ServeConfig {
                        checkpoint_path: Some(scratch.path().join("fleet.ckpt")),
                        ..cfg
                    },
                    shards,
                    exchange_every_batches: 8,
                    wal_dir: Some(scratch.path().join("wal")),
                    ..FleetConfig::default()
                };
                let partitioner =
                    Partitioner::balanced(shards, 7, input.communities.iter().copied());
                let fleet = FleetCore::new(cfg, partitioner, input.blacklist.clone());
                Core::Fleet(Box::new(fleet), scratch)
            }
        }
    }

    fn apply(&self, txs: &[Transaction]) -> u64 {
        match self {
            Core::Single(c) => c.apply_transactions(txs),
            Core::Fleet(c, _) => c.apply_transactions(txs),
        }
    }

    fn recluster(&self) -> Round {
        let count = |modes: &mut dyn Iterator<Item = ReclusterMode>| {
            modes.fold((0, 0), |(f, i), m| match m {
                ReclusterMode::Full => (f + 1, i),
                ReclusterMode::Incremental => (f, i + 1),
            })
        };
        match self {
            Core::Single(c) => {
                let run = c.recluster_now();
                let (full, incremental) = count(&mut std::iter::once(run.mode));
                Round {
                    full,
                    incremental,
                    exchange: None,
                }
            }
            Core::Fleet(c, _) => {
                let o = c.exchange_now();
                let (full, incremental) = count(
                    &mut o
                        .shard_runs
                        .iter()
                        .chain(o.boundary_run.iter())
                        .map(|r| r.mode),
                );
                Round {
                    full,
                    incremental,
                    exchange: Some(o),
                }
            }
        }
    }

    fn snapshot(&self) -> Arc<VerdictSnapshot> {
        match self {
            Core::Single(c) => c.snapshot(),
            Core::Fleet(c, _) => Arc::clone(&c.fleet_snapshot().verdicts),
        }
    }

    fn kernel_profile(&self) -> KernelProfile {
        match self {
            Core::Single(c) => c
                .telemetry()
                .kernel_profile
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            Core::Fleet(c, _) => c.fleet_telemetry().merged.kernel_profile,
        }
    }

    fn staleness(&self) -> f64 {
        match self {
            Core::Single(c) => c.staleness_batches() as f64,
            Core::Fleet(c, _) => {
                c.batches_applied()
                    .saturating_sub(c.fleet_snapshot().verdicts.as_of_batch) as f64
            }
        }
    }
}

/// Builds the core, applies the warm window and runs the first full
/// recluster — everything `setup_s` covers after input generation.
fn warm_core(kind: ServeKind, input: &Input, tag: &str, tracer: Option<Tracer>) -> Core {
    let core = Core::build(kind, input, tag, tracer);
    for chunk in input.warm.chunks(WARM_BATCH) {
        core.apply(chunk);
    }
    core.recluster();
    core
}

/// Samples of one driven phase.
#[derive(Default)]
struct Phase {
    applied_tx: u64,
    elapsed_s: f64,
    rounds: u64,
    full: u64,
    incremental: u64,
    /// Batch hand-off to the return of the first trigger whose snapshot
    /// covers the batch, ms.
    latency_ms: Vec<f64>,
    /// The same samples in reference-host time (see `hostref`).
    latency_scaled_ms: Vec<f64>,
    /// Reference-host seconds the rounds (and checkpoints) took.
    busy_scaled_s: f64,
    /// Scale factor of each round's reference sample.
    scales: Vec<f64>,
    apply_us: Vec<f64>,
    trigger_full_ms: Vec<f64>,
    trigger_incremental_ms: Vec<f64>,
    staleness: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    exchange_merge_ms: Vec<f64>,
    shard_max_ms: Vec<f64>,
    last_exchange: Option<ExchangeOutcome>,
}

/// The closed loop: hand off a batch, and every `recluster_every` batches
/// trigger a recluster and wait for it, until `budget` has elapsed and a
/// round just completed (so every applied batch is covered by the final
/// snapshot) or the feed runs out.
fn drive(
    core: &Core,
    plan: &Plan,
    feed: &[Transaction],
    budget: Duration,
    spans: &Spans,
    host: &mut HostRef,
    result: &mut RunResult,
) -> Phase {
    let mut p = Phase::default();
    let mut pending: Vec<Instant> = Vec::with_capacity(plan.recluster_every);
    // Whole rounds only: the loop always ends right after a trigger.
    let round_tx = plan.batch * plan.recluster_every;
    let feed = &feed[..feed.len() / round_tx * round_tx];
    let started = Instant::now();
    for (i, chunk) in feed.chunks(plan.batch).enumerate() {
        if pending.is_empty() && p.rounds >= MIN_ROUNDS && started.elapsed() >= budget {
            break;
        }
        pending.push(Instant::now());
        let (batches, wall) = spans.time("bench.serve.apply", i as u64, || core.apply(chunk));
        p.apply_us.push(wall * 1e6);
        p.applied_tx += chunk.len() as u64;
        result.attempted += chunk.len() as u64;
        if (i + 1) % plan.recluster_every != 0 {
            continue;
        }
        p.staleness.push(core.staleness());
        let (round, wall) = spans.time("bench.serve.recluster", p.rounds, || core.recluster());
        let covered = core.snapshot().as_of_batch >= batches;
        result.check(covered, || {
            format!(
                "round {}: snapshot does not cover batch {batches}",
                p.rounds
            )
        });
        let first = p.latency_ms.len();
        p.latency_ms.extend(
            pending
                .drain(..)
                .map(|handed| handed.elapsed().as_secs_f64() * 1e3),
        );
        let mut busy_s = p.latency_ms[first] / 1e3;
        p.rounds += 1;
        p.full += round.full;
        p.incremental += round.incremental;
        if round.incremental > 0 && round.full == 0 {
            p.trigger_incremental_ms.push(wall * 1e3);
        } else {
            p.trigger_full_ms.push(wall * 1e3);
        }
        if let Some(o) = round.exchange {
            p.exchange_merge_ms.push(o.exchange_wall * 1e3);
            let slowest = o
                .shard_runs
                .iter()
                .map(|r| r.wall_seconds)
                .fold(0.0, f64::max);
            p.shard_max_ms.push(slowest * 1e3);
            p.last_exchange = Some(o);
        }
        if let (Some(every), Core::Fleet(fleet, _)) = (plan.checkpoint_every_rounds, core) {
            if p.rounds % every == 0 {
                let (outcome, wall) = spans.time("bench.fleet.checkpoint", p.rounds, || {
                    fleet.checkpoint_all()
                });
                p.checkpoint_ms.push(wall * 1e3);
                busy_s += wall;
                if let Err(e) = outcome {
                    result.fail(format!("checkpoint_all: {e}"));
                }
            }
        }
        p.elapsed_s = started.elapsed().as_secs_f64();
        // One reference sample per round, on this thread, right after it.
        let scale = HostRef::scale(host.sample());
        p.scales.push(scale);
        p.busy_scaled_s += busy_s * scale;
        let round = &p.latency_ms[first..];
        p.latency_scaled_ms
            .extend(round.iter().map(|ms| ms * scale));
    }
    p
}

/// The closed-loop oracle, DynLP's contract: the incrementally maintained
/// (or sharded) state must publish exactly what one fresh single core
/// with incremental reclustering off publishes for the same transactions.
fn replay_oracle(input: &Input, applied_tx: usize, got: &VerdictSnapshot, result: &mut RunResult) {
    let cfg = ServeConfig {
        delta_fraction_max: 0.0,
        ..serve_config(ENGINE_THREADS)
    };
    let fresh = ServiceCore::new(cfg, input.blacklist.clone());
    for chunk in input.warm.chunks(WARM_BATCH) {
        fresh.apply_transactions(chunk);
    }
    for chunk in input.feed[..applied_tx].chunks(4_096) {
        fresh.apply_transactions(chunk);
    }
    fresh.recluster_now();
    result.attempted += 1;
    result.check(
        fresh.snapshot().canonical_bytes() == got.canonical_bytes(),
        || "final snapshot differs from a fresh full-recluster replay".into(),
    );
}

/// Precision and recall of the final snapshot against the planted rings'
/// members active in the final window.
pub fn detection_quality(
    applied: impl Iterator<Item = Transaction>,
    fraud_users: &[u32],
    snapshot: &VerdictSnapshot,
) -> (f64, f64) {
    let first_day = snapshot.window_end.saturating_sub(WINDOW_DAYS);
    let mut truth: Vec<u32> = applied
        .filter(|t| t.day >= first_day && fraud_users.binary_search(&t.buyer).is_ok())
        .map(|t| t.buyer)
        .collect();
    truth.sort_unstable();
    truth.dedup();
    let flagged: Vec<u32> = snapshot.flagged.iter().map(|f| f.0).collect();
    precision_recall(&flagged, &truth)
}

pub fn run(kind: ServeKind, args: &RunArgs) -> RunResult {
    let mut result = RunResult::new(args);
    let plan = kind.plan();
    let budget = Duration::from_secs_f64(args.seconds);

    let mut host = HostRef::new();
    let setups = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_walls: Vec<f64> = Vec::with_capacity(setups);
    let mut state: Option<(Input, Core)> = None;
    for rep in 0..setups {
        drop(state.take());
        let started = Instant::now();
        let input = input(kind, args.scale, args.seed);
        let core = warm_core(kind, &input, &format!("setup{rep}"), None);
        setup_walls.push(Timed::new(started.elapsed().as_secs_f64(), &mut host).scaled_s());
        state = Some((input, core));
    }
    let (input, core) = state.expect("at least one set-up");
    // Modeled clock: kernel seconds of the warm window's first full
    // recluster (every shard's plus the boundary's for the fleet) — the
    // paper's per-window LP time, deterministic for a seed.
    let warm_profile = core.kernel_profile();
    let modeled_s = warm_profile.total_seconds();

    if !args.trace {
        let off = Spans::off();
        let p = drive(
            &core,
            &plan,
            &input.feed,
            budget,
            &off,
            &mut host,
            &mut result,
        );
        let snapshot = core.snapshot();
        replay_oracle(&input, p.applied_tx as usize, &snapshot, &mut result);
        let applied = input
            .warm
            .iter()
            .chain(&input.feed[..p.applied_tx as usize]);
        let (precision, recall) =
            detection_quality(applied.copied(), &input.fraud_users, &snapshot);
        if kind == ServeKind::Slide {
            result.attempted += 1;
            result.check(recall >= RECALL_FLOOR, || {
                format!("recall {recall} of the planted rings is below {RECALL_FLOOR}")
            });
        }
        // Wall metrics in reference-host time (see `hostref`).
        result.report_end_to_end(EndToEnd {
            setup_s: setup_walls,
            modeled_s,
            throughput_per_s: p.applied_tx as f64 / p.busy_scaled_s,
            throughput_samples: p.rounds,
            latency_ms: p.latency_scaled_ms.clone(),
        });
        result.note("raw_latency_p50_ms", stats::median(&p.latency_ms));
        result.note("raw_throughput_per_s", p.applied_tx as f64 / p.elapsed_s);
        result.note("host_scale_p50", stats::median(&p.scales));
        result.note("rounds", p.rounds);
        result.note("reclusters_full", p.full);
        result.note("reclusters_incremental", p.incremental);
        result.note("precision", precision);
        result.note("recall", recall);
        result.note("feed_exhausted", p.applied_tx as usize >= input.feed.len());
        return result;
    }

    // Traced pass: the same feed prefix through an untraced core, then
    // through a second core with the tracer attached (`ServiceCore::
    // with_tracer`; the fleet has no hook, so only the benchmark's own
    // spans are recorded there).
    let quarter = budget / 4;
    let off = Spans::off();
    let untraced = drive(
        &core,
        &plan,
        &input.feed,
        quarter,
        &off,
        &mut host,
        &mut result,
    );
    drop(core);
    let tracer = Tracer::new();
    let traced_core = warm_core(kind, &input, "traced", Some(tracer.clone()));
    let spans = Spans::on(tracer);
    let p = drive(
        &traced_core,
        &plan,
        &input.feed,
        quarter,
        &spans,
        &mut host,
        &mut result,
    );
    let snapshot = traced_core.snapshot();
    replay_oracle(&input, p.applied_tx as usize, &snapshot, &mut result);

    let mut layers = Layers::default();
    let applied = input
        .warm
        .iter()
        .chain(&input.feed[..p.applied_tx as usize]);
    let (precision, recall) = detection_quality(applied.copied(), &input.fraud_users, &snapshot);
    layers.set("fraud.pipeline.precision", precision, 1);
    layers.set("fraud.pipeline.recall", recall, 1);
    layers.set("graph.generate_s", input.generate_s, 1);
    let median_of = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let reclusters = p.full + p.incremental;
    layers.set("serve.recluster.count", reclusters as f64, 1);
    layers.set(
        "serve.recluster.incremental_share",
        p.incremental as f64 / reclusters.max(1) as f64,
        reclusters,
    );
    let mut latency = p.latency_ms.clone();
    stats::sort(&mut latency);
    layers.set(
        "serve.service.verdict_latency_p99_ms",
        stats::quantile_sorted(&latency, 0.99),
        latency.len() as u64,
    );
    layers.set(
        "serve.service.staleness_batches_p50",
        median_of(&p.staleness),
        p.staleness.len() as u64,
    );
    layers.set(
        "serve.service.achieved_tx_per_s",
        p.applied_tx as f64 / p.elapsed_s,
        p.rounds,
    );
    let profile = traced_core.kernel_profile();
    layers.set_kernels(&profile);
    layers.set(
        "serve.recluster.modeled_s",
        profile.total_seconds(),
        reclusters,
    );
    match &traced_core {
        Core::Single(c) => {
            layers.set(
                "serve.service.apply_us",
                median_of(&p.apply_us),
                p.apply_us.len() as u64,
            );
            layers.set(
                "serve.service.recluster_now_full_ms",
                median_of(&p.trigger_full_ms),
                p.trigger_full_ms.len() as u64,
            );
            layers.set(
                "serve.service.recluster_now_incremental_ms",
                median_of(&p.trigger_incremental_ms),
                p.trigger_incremental_ms.len() as u64,
            );
            let gpu = *c
                .telemetry()
                .gpu_totals
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            layers.set_counters(&gpu);
        }
        Core::Fleet(c, scratch) => {
            layers.set(
                "serve.router.apply_us",
                median_of(&p.apply_us),
                p.apply_us.len() as u64,
            );
            layers.set(
                "serve.exchange.round_ms",
                median_of(&p.trigger_full_ms),
                p.trigger_full_ms.len() as u64,
            );
            layers.set(
                "serve.exchange.merge_ms",
                median_of(&p.exchange_merge_ms),
                p.exchange_merge_ms.len() as u64,
            );
            layers.set(
                "serve.exchange.shard_recluster_max_ms",
                median_of(&p.shard_max_ms),
                p.shard_max_ms.len() as u64,
            );
            if let Some(o) = &p.last_exchange {
                layers.set(
                    "serve.exchange.boundary_users",
                    o.report.boundary_users as f64,
                    1,
                );
                layers.set(
                    "serve.exchange.spanning_components",
                    o.report.spanning_components as f64,
                    1,
                );
            }
            let mut per_shard = vec![0.0; c.shards().len()];
            for t in &input.feed[..p.applied_tx as usize] {
                per_shard[c.partitioner().shard_of(t.buyer)] += 1.0;
            }
            let mean = p.applied_tx as f64 / per_shard.len() as f64;
            let max = per_shard.iter().copied().fold(0.0, f64::max);
            layers.set("serve.router.shard_tx_skew", max / mean, p.applied_tx);
            layers.set_counters(&c.fleet_telemetry().merged.gpu_totals);
            layers.set(
                "fraud.checkpoint.write_ms",
                median_of(&p.checkpoint_ms),
                p.checkpoint_ms.len() as u64,
            );
            wal_probe(&input, &plan, scratch.path(), &mut layers, &mut result);
        }
    }
    window_probe(kind, &input, &plan, &mut layers, &mut result);
    // Same batches on both sides: the phases are timed, so one may have
    // got further into the (growing) window than the other.
    let common = p.latency_ms.len().min(untraced.latency_ms.len());
    let ratio = median_of(&p.latency_ms[..common]) / median_of(&untraced.latency_ms[..common]);
    layers.finish_trace(spans, ratio, common as u64, &mut result);
    if args.scale == 1.0 {
        let share = layers.get("serve.recluster.incremental_share");
        match kind {
            ServeKind::Delta => result.check(share > 0.9, || {
                format!("serve_delta incremental share {share}")
            }),
            ServeKind::Slide => result.check(share == 0.0, || {
                format!("serve_slide incremental share {share}")
            }),
            ServeKind::Fleet => {}
        }
    }
    layers.report(&mut result);
    result
}

/// `FleetWal::append` on a scratch journal, fed the workload's own
/// batches with the router's dense sequence stamps.
fn wal_probe(
    input: &Input,
    plan: &Plan,
    scratch: &Path,
    layers: &mut Layers,
    result: &mut RunResult,
) {
    let dir = scratch.join("wal-probe");
    let mut wal = match FleetWal::open(&dir, FleetConfig::default().wal_segment_bytes) {
        Ok(wal) => wal,
        Err(e) => return result.fail(format!("opening the probe journal: {e}")),
    };
    let mut walls = Vec::new();
    let (mut seq, mut txs) = (0u64, 0u64);
    for (batch, chunk) in input.feed.chunks(plan.batch).take(64).enumerate() {
        let stamped: Vec<(u64, Transaction)> = chunk
            .iter()
            .map(|&t| {
                seq += 1;
                (seq, t)
            })
            .collect();
        let watermark = chunk.last().map_or(0, |t| t.day + 1);
        let started = Instant::now();
        let outcome = wal.append(batch as u64, watermark, &stamped);
        walls.push(started.elapsed().as_secs_f64() * 1e6);
        txs += chunk.len() as u64;
        if let Err(e) = outcome {
            return result.fail(format!("journal append: {e}"));
        }
    }
    drop(wal);
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    layers.set(
        "serve.wal.append_us",
        stats::median(&walls),
        walls.len() as u64,
    );
    layers.set(
        "serve.wal.bytes_per_tx",
        bytes as f64 / txs.max(1) as f64,
        txs,
    );
}

/// Times the layers under the service directly, on a side window fed the
/// same warm transactions: window maintenance, both recluster modes
/// through `ReclusterRequest`, the delta replay, scoring and a
/// checkpoint write.
fn window_probe(
    kind: ServeKind,
    input: &Input,
    plan: &Plan,
    layers: &mut Layers,
    result: &mut RunResult,
) {
    let cfg = serve_config(ENGINE_THREADS);
    let mut window = IncrementalWindow::empty(WINDOW_DAYS);
    let mut apply_us = Vec::new();
    for chunk in input.warm.chunks(WARM_BATCH) {
        let started = Instant::now();
        window.apply_batch(chunk);
        apply_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    layers.set(
        "fraud.window.apply_batch_us",
        stats::median(&apply_us),
        apply_us.len() as u64,
    );
    layers.set("fraud.window.pairs", window.num_pairs() as f64, 1);
    let started = Instant::now();
    let workload = window.materialize();
    layers.set(
        "fraud.window.materialize_ms",
        started.elapsed().as_secs_f64() * 1e3,
        1,
    );
    let degrees = degree_stats(&workload.graph);
    layers.set("graph.vertices", workload.graph.num_vertices() as f64, 1);
    layers.set("graph.edges", workload.graph.num_edges() as f64, 1);
    layers.set("graph.csr_bytes", workload.graph.size_bytes() as f64, 1);
    layers.set("graph.frac_low_degree", degrees.frac_low_degree, 1);
    layers.set("graph.frac_high_degree", degrees.frac_high_degree, 1);

    // From-scratch recluster of the warm window, then a chain of
    // incremental ones, each after one more batch of the feed.
    let (mut workload, _) = window.materialize_delta();
    let started = Instant::now();
    let full = ReclusterRequest::full(&workload, &input.blacklist, &cfg).run();
    layers.set(
        "serve.recluster.full_ms",
        started.elapsed().as_secs_f64() * 1e3,
        1,
    );
    layers.set(
        "serve.recluster.lp_wall_ms",
        full.report.wall_seconds * 1e3,
        1,
    );
    let mut memo = full.memo;
    let mut materialize_ms = Vec::new();
    let mut incremental_ms = Vec::new();
    let mut frontiers = Vec::new();
    let mut last_touched = Vec::new();
    for chunk in input.feed.chunks(plan.batch).take(8) {
        window.apply_batch(chunk);
        let started = Instant::now();
        let (grown, delta) = window.materialize_delta();
        materialize_ms.push(started.elapsed().as_secs_f64() * 1e3);
        frontiers.push(delta.touched.len() as f64);
        let Some(prev) = memo.take() else { break };
        let started = Instant::now();
        let outcome =
            ReclusterRequest::incremental(&grown, &input.blacklist, &cfg, &prev, &delta).run();
        if outcome.mode == ReclusterMode::Incremental {
            incremental_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        memo = outcome.memo;
        last_touched = delta.touched;
        workload = grown;
    }
    if !materialize_ms.is_empty() {
        layers.set(
            "fraud.window.materialize_delta_ms",
            stats::median(&materialize_ms),
            materialize_ms.len() as u64,
        );
        layers.set(
            "fraud.window.delta_frontier_p50",
            stats::median(&frontiers),
            frontiers.len() as u64,
        );
    }
    if !incremental_ms.is_empty() {
        layers.set(
            "serve.recluster.incremental_ms",
            stats::median(&incremental_ms),
            incremental_ms.len() as u64,
        );
    }

    // `replay_delta` itself: capture a memo of the grown window with the
    // public recorder, then replay it over the last batch's frontier.
    let n = workload.graph.num_vertices();
    let iterations = cfg.pipeline.lp_iterations;
    let program = || {
        WeightedLp::from_graph(&workload.graph, iterations).with_retention(cfg.pipeline.retention)
    };
    let recorder = MemoRecorder::new();
    let opts = RunOptions::default()
        .with_max_iterations(iterations)
        .with_shards(ENGINE_THREADS)
        .with_barrier_hook(recorder.hook(n));
    let mut prog = program();
    result.attempted += 1;
    if let Err(e) = GpuEngine::titan_v().run(&workload.graph, &mut prog, &opts) {
        return result.fail(format!("memo capture run: {e}"));
    }
    let captured = recorder.into_memo();
    if !captured.is_empty() {
        let mut frontier = vec![false; n];
        for &v in &last_touched {
            frontier[v as usize] = true;
        }
        let mut replayed = program();
        let started = Instant::now();
        let replay = replay_delta(
            &workload.graph,
            &mut replayed,
            &captured,
            &frontier,
            iterations,
        );
        layers.set(
            "core.delta.replay_ms",
            started.elapsed().as_secs_f64() * 1e3,
            replay.initial_frontier as u64,
        );
    }
    let mut seeds: Vec<u32> = input
        .blacklist
        .iter()
        .filter_map(|u| workload.user_vertex.get(u).copied())
        .collect();
    seeds.sort_unstable();
    let pipeline = FraudPipeline::new(cfg.pipeline.clone());
    let started = Instant::now();
    let clusters = pipeline.score(&workload, &prog, &seeds);
    layers.set(
        "fraud.pipeline.score_ms",
        started.elapsed().as_secs_f64() * 1e3,
        clusters.len() as u64,
    );

    if kind == ServeKind::Fleet {
        // Checkpoint size of the whole window (the fleet writes one
        // image per shard; their sum is this plus per-image headers).
        let image = WindowCheckpoint::capture(&window, 0, 0, Vec::new()).encode();
        layers.set("fraud.checkpoint.bytes", image.len() as f64, 1);
    }
}
