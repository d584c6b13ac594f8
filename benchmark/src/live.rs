//! `serve_live`: the threaded `FraudService` under an open loop.
//!
//! One generator thread submits transactions on a fixed 1 ms schedule,
//! whatever the service does. Every tenth tick it also submits a *probe*
//! — a transaction from a user id the service has never seen — and polls
//! the query handle until that user stops scoring `Unknown`: the real
//! transaction-to-verdict path through queueing, batching, recluster
//! coalescing and the epoch swap. Latency counts from the probe's
//! *scheduled* send time, so a stalled generator cannot hide a stall.

use crate::hostref::{HostRef, Timed};
use crate::layers::Layers;
use crate::report::{EndToEnd, RunArgs, RunResult, ENGINE_THREADS};
use crate::serve::{
    detection_quality, scaled, serve_config, split_at_day, tx_stream, Scratch, RECALL_FLOOR,
    WINDOW_DAYS,
};
use crate::spans::Spans;
use crate::stats;
use crate::SETUP_REPS;
use glp_fraud::Transaction;
use glp_serve::{FraudScorer, FraudService, ServiceCore, Verdict};
use glp_trace::Tracer;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Offered load at `--scale 1`, transactions per second. Half of what a
/// 2-core host sustains, so the queue never grows and latency measures
/// the pipeline, not a backlog.
const RATE_TX_PER_S: u32 = 4_000;
const TICK: Duration = Duration::from_millis(1);
/// A probe goes out with every this-many-th tick.
const PROBE_EVERY_TICKS: u64 = 10;
/// Known-user lookups riding along with every tick.
const LOOKUPS_PER_TICK: u32 = 64;
/// A probe unanswered for this long is a failed operation.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);
/// Generator lateness (p90) above which the loop no longer counts as
/// open. Not p99, which is reported beside it: one 50 ms host stall makes
/// fifty consecutive ticks late, 1.7 % of a traced phase, and p99 read
/// 40-46 ms in one run of ten for that reason where it usually reads 3.
const MAX_LATE_P90_MS: f64 = 5.0;
/// Probe user ids start far above every generated user id.
const FIRST_PROBE_USER: u32 = 1 << 30;

struct Input {
    warm: Vec<Transaction>,
    feed: Vec<Transaction>,
    blacklist: Vec<u32>,
    fraud_users: Vec<u32>,
    num_users: u32,
    generate_s: f64,
}

fn input(args: &RunArgs, per_tick: usize) -> Input {
    let started = Instant::now();
    let tx_per_day = 4_000;
    // Enough days for the whole schedule plus slack for the drain.
    let ticks = (args.seconds * 1e3).ceil() as u64 + 2_000;
    let per_day = u64::from(scaled(tx_per_day, args.scale, 64));
    let days = WINDOW_DAYS + (ticks * per_tick as u64).div_ceil(per_day) as u32 + 1;
    let s = tx_stream(4_000, tx_per_day, days, args.scale, args.seed);
    let fraud_users = s.fraudulent_users();
    let num_users = s.config.num_users;
    let (warm, feed) = split_at_day(s.transactions, WINDOW_DAYS);
    Input {
        warm,
        feed,
        blacklist: s.blacklist,
        fraud_users,
        num_users,
        generate_s: started.elapsed().as_secs_f64(),
    }
}

/// What warming one service cost beyond its wall time.
struct Warmed {
    service: FraudService,
    checkpoint_write_ms: f64,
    checkpoint_bytes: u64,
}

/// Warm start: a synchronous core absorbs the warm window and writes a
/// checkpoint, and the threaded service recovers from it — which runs
/// the first full recluster before any worker starts, so the warm state
/// (and its modeled seconds) is deterministic for a seed.
fn warm_service(input: &Input, scratch: &Scratch) -> Result<Warmed, String> {
    let cfg = serve_config(ENGINE_THREADS);
    let core = ServiceCore::new(cfg.clone(), input.blacklist.clone());
    for chunk in input.warm.chunks(512) {
        core.apply_transactions(chunk);
    }
    let path = scratch.path().join("warm.ckpt");
    let started = Instant::now();
    core.checkpoint(&path)
        .map_err(|e| format!("writing the warm checkpoint: {e}"))?;
    let checkpoint_write_ms = started.elapsed().as_secs_f64() * 1e3;
    let checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let service = FraudService::recover(cfg, input.blacklist.clone(), &path)
        .map_err(|e| format!("recovering from the warm checkpoint: {e}"))?;
    Ok(Warmed {
        service,
        checkpoint_write_ms,
        checkpoint_bytes,
    })
}

#[derive(Default)]
struct Samples {
    /// Transactions submitted, drain included.
    submitted_tx: usize,
    /// Transactions submitted during the measured ticks.
    measured_tx: usize,
    probes_sent: u64,
    shed: u64,
    unanswered: u64,
    elapsed_s: f64,
    /// Scheduled probe send to first non-`Unknown` score, ms.
    latency_ms: Vec<f64>,
    /// How late each tick started, ms.
    late_ms: Vec<f64>,
    /// Generator work per tick (submits + lookups + polls), µs.
    tick_work_us: Vec<f64>,
    submit_ns: Vec<f64>,
    lookup_ns: Vec<f64>,
    staleness: Vec<f64>,
}

/// Polls outstanding probes once: answered ones yield a latency sample,
/// ones past the timeout count as unanswered.
fn poll_probes(
    handle: &impl FraudScorer,
    outstanding: &mut Vec<(u32, Instant)>,
    samples: &mut Samples,
) {
    outstanding.retain(|&(user, due)| {
        if handle.score(user) != Verdict::Unknown {
            samples.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
            false
        } else if due.elapsed() > PROBE_TIMEOUT {
            samples.unanswered += 1;
            false
        } else {
            true
        }
    });
}

/// Drives the open loop for `ticks` ticks starting at `feed[from..]`.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    service: &FraudService,
    input: &Input,
    from: usize,
    first_probe: u32,
    per_tick: usize,
    ticks: u64,
    spans: &Spans,
) -> Samples {
    let handle = service.handle();
    let core = service.core();
    let mut s = Samples::default();
    let mut outstanding: Vec<(u32, Instant)> = Vec::new();
    let mut next = from;
    let started = Instant::now();
    // Past `ticks` the schedule keeps running without new probes until
    // the outstanding ones are answered or time out: a verdict needs
    // later batches to trigger the recluster that publishes it.
    for tick in 0.. {
        let measuring = tick < ticks;
        if !measuring && (outstanding.is_empty() || s.elapsed_s == 0.0) {
            break;
        }
        if next + per_tick > input.feed.len() {
            break;
        }
        let due = started + TICK * tick as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if !measuring {
            let shed = input.feed[next..next + per_tick]
                .iter()
                .filter(|&&t| service.submit(t).is_err())
                .count();
            s.shed += shed as u64;
            next += per_tick;
            poll_probes(&handle, &mut outstanding, &mut s);
            continue;
        }
        s.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let (_, work) = spans.time("bench.live.tick", tick, || {
            let batch = &input.feed[next..next + per_tick];
            let (shed, wall) = spans.time("bench.live.submit", tick, || {
                batch
                    .iter()
                    .filter(|&&t| service.submit(t).is_err())
                    .count()
            });
            s.submit_ns.push(wall * 1e9 / per_tick as f64);
            s.shed += shed as u64;
            next += per_tick;
            if tick % PROBE_EVERY_TICKS == 0 {
                let user = first_probe + s.probes_sent as u32;
                let probe = Transaction {
                    buyer: user,
                    ..batch[per_tick - 1]
                };
                s.probes_sent += 1;
                if service.submit(probe).is_err() {
                    s.shed += 1;
                } else {
                    outstanding.push((user, due));
                }
            }
            let (_, wall) = spans.time("bench.live.lookup", tick, || {
                for k in 0..LOOKUPS_PER_TICK {
                    let user = (tick as u32 * LOOKUPS_PER_TICK + k) % input.num_users;
                    black_box(handle.score(user));
                }
            });
            s.lookup_ns.push(wall * 1e9 / f64::from(LOOKUPS_PER_TICK));
            poll_probes(&handle, &mut outstanding, &mut s);
        });
        s.tick_work_us.push(work * 1e6);
        s.staleness.push(core.staleness_batches() as f64);
        if tick + 1 == ticks {
            s.elapsed_s = started.elapsed().as_secs_f64();
            s.measured_tx = next - from;
        }
    }
    s.submitted_tx = next - from;
    s
}

pub fn run(args: &RunArgs) -> RunResult {
    let mut result = RunResult::new(args);
    let per_tick = (scaled(RATE_TX_PER_S, args.scale, 1_000) / 1_000) as usize;
    let scratch = match Scratch::new("live") {
        Ok(s) => s,
        Err(e) => {
            result.fail(format!("scratch directory: {e}"));
            return result;
        }
    };

    // Set-up is single-threaded CPU work, so it is scaled like the closed
    // loops' timings (see `hostref`); the open loop itself is not.
    let mut host = HostRef::new();
    let setups = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_walls: Vec<f64> = Vec::with_capacity(setups);
    let mut state: Option<(Input, Warmed)> = None;
    for _ in 0..setups {
        if let Some((_, previous)) = state.take() {
            previous.service.shutdown();
        }
        let started = Instant::now();
        let input = input(args, per_tick);
        let warmed = match warm_service(&input, &scratch) {
            Ok(w) => w,
            Err(e) => {
                result.fail(e);
                return result;
            }
        };
        setup_walls.push(Timed::new(started.elapsed().as_secs_f64(), &mut host).scaled_s());
        state = Some((input, warmed));
    }
    let (input, warmed) = state.expect("at least one set-up");
    let service = warmed.service;
    let telemetry = std::sync::Arc::clone(service.core().telemetry());
    // Kernel seconds of the one full recluster `recover` ran.
    let modeled_s = telemetry
        .kernel_profile
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .total_seconds();

    let ticks = (args.seconds * 1e3).round().max(10.0) as u64;
    let (s, traced) = if args.trace {
        // The service has no tracer hook; the traced pass records the
        // generator's own spans, half of the phase without, half with.
        let half = (ticks / 4).max(10);
        let plain = open_loop(
            &service,
            &input,
            0,
            FIRST_PROBE_USER,
            per_tick,
            half,
            &Spans::off(),
        );
        let spans = Spans::on(Tracer::new());
        let traced = open_loop(
            &service,
            &input,
            plain.submitted_tx,
            FIRST_PROBE_USER + plain.probes_sent as u32,
            per_tick,
            half,
            &spans,
        );
        (plain, Some((traced, spans)))
    } else {
        let s = open_loop(
            &service,
            &input,
            0,
            FIRST_PROBE_USER,
            per_tick,
            ticks,
            &Spans::off(),
        );
        (s, None)
    };

    let report = service.shutdown();
    result.check(report.clean(), || {
        format!(
            "workers did not exit cleanly: {:?} / {:?}",
            report.batcher, report.recluster
        )
    });
    let phases: Vec<&Samples> = std::iter::once(&s)
        .chain(traced.as_ref().map(|(t, _)| t))
        .collect();
    let submitted: usize = phases.iter().map(|p| p.submitted_tx).sum();
    let probes: u64 = phases.iter().map(|p| p.probes_sent).sum();
    let shed: u64 = phases.iter().map(|p| p.shed).sum();
    let unanswered: u64 = phases.iter().map(|p| p.unanswered).sum();
    let rejected = telemetry.rejected_invalid.load(Ordering::Relaxed);
    result.attempted += submitted as u64 + probes + 1;
    for (count, what) in [
        (shed, "submits refused at the gate"),
        (telemetry.shed_total(), "transactions shed (telemetry)"),
        (rejected, "transactions rejected as invalid"),
        (unanswered, "probes unanswered after 1 s"),
    ] {
        if count > 0 {
            result.failed += count;
            result.failures.push(format!("{count} {what}"));
        }
    }
    let snapshot = report.core.snapshot();
    let applied = input.warm.iter().chain(&input.feed[..submitted]);
    let (precision, recall) = detection_quality(applied.copied(), &input.fraud_users, &snapshot);
    result.check(recall >= RECALL_FLOOR, || {
        format!("recall {recall} of the planted rings is below {RECALL_FLOOR}")
    });

    let mut latency = s.latency_ms.clone();
    stats::sort(&mut latency);
    let mut late = s.late_ms.clone();
    stats::sort(&mut late);
    let late_p90 = stats::quantile_sorted(&late, 0.9);
    let late_p99 = stats::quantile_sorted(&late, 0.99);
    let achieved = (s.measured_tx as u64).saturating_sub(s.shed) as f64 / s.elapsed_s;

    let Some((t, spans)) = traced else {
        result.report_end_to_end(EndToEnd {
            setup_s: setup_walls,
            modeled_s,
            throughput_per_s: achieved,
            throughput_samples: s.late_ms.len() as u64,
            latency_ms: latency,
        });
        result.note("offered_tx_per_s", per_tick * 1_000);
        result.note("generator_late_p90_ms", late_p90);
        result.note("generator_late_p99_ms", late_p99);
        result.note("probes", probes);
        result.note("precision", precision);
        result.note("recall", recall);
        return result;
    };

    let mut layers = Layers::default();
    let n = |v: &[f64]| v.len() as u64;
    layers.set("graph.generate_s", input.generate_s, 1);
    layers.set("fraud.pipeline.precision", precision, 1);
    layers.set("fraud.pipeline.recall", recall, 1);
    layers.set("fraud.checkpoint.write_ms", warmed.checkpoint_write_ms, 1);
    layers.set("fraud.checkpoint.bytes", warmed.checkpoint_bytes as f64, 1);
    layers.set(
        "serve.ingest.submit_ns",
        stats::median(&s.submit_ns),
        n(&s.submit_ns),
    );
    layers.set(
        "serve.query.lookup_ns",
        stats::median(&s.lookup_ns),
        n(&s.lookup_ns),
    );
    layers.set(
        "serve.query.lookups",
        telemetry.queries.load(Ordering::Relaxed) as f64,
        1,
    );
    layers.set(
        "serve.ingest.lag_p95_us",
        telemetry.ingest_lag.quantile(0.95) as f64 / 1e3,
        telemetry.ingest_lag.count(),
    );
    layers.set(
        "serve.ingest.batch_size_p50",
        telemetry.batch_size.quantile(0.5) as f64,
        telemetry.batch_size.count(),
    );
    layers.set(
        "serve.ingest.shed",
        (shed + telemetry.shed_total()) as f64,
        1,
    );
    layers.set(
        "serve.service.verdict_latency_p99_ms",
        stats::quantile_sorted(&latency, 0.99),
        n(&latency),
    );
    layers.set("serve.service.generator_late_p99_ms", late_p99, n(&late));
    layers.set("serve.service.achieved_tx_per_s", achieved, n(&s.late_ms));
    layers.set(
        "serve.service.staleness_batches_p50",
        stats::median(&s.staleness),
        n(&s.staleness),
    );
    let full = telemetry.reclusters_full.load(Ordering::Relaxed);
    let incremental = telemetry.reclusters_incremental.load(Ordering::Relaxed);
    layers.set("serve.recluster.count", (full + incremental) as f64, 1);
    layers.set(
        "serve.recluster.incremental_share",
        incremental as f64 / (full + incremental).max(1) as f64,
        full + incremental,
    );
    let profile = telemetry
        .kernel_profile
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    layers.set("serve.recluster.modeled_s", profile.total_seconds(), full);
    layers.set_kernels(&profile);
    layers.set_counters(
        &telemetry
            .gpu_totals
            .lock()
            .unwrap_or_else(|e| e.into_inner()),
    );
    let ratio = stats::median(&t.tick_work_us) / stats::median(&s.tick_work_us);
    layers.finish_trace(spans, ratio, n(&t.tick_work_us), &mut result);
    if args.scale == 1.0 {
        result.check(late_p90 < MAX_LATE_P90_MS, || {
            format!("generator ran late: p90 {late_p90} ms")
        });
    }
    layers.report(&mut result);
    result
}
