//! The recluster stage: snapshot → weighted LP → seed-scored verdicts.
//!
//! Runs entirely on a private, immutable [`WindowWorkload`] materialized
//! from the live window (the only shared-state touch is the short lock
//! that materializes it — see [`service`](crate::service)). LP and
//! scoring reuse the offline pipeline's stages 2–3 verbatim via
//! [`FraudPipeline::score`], so a verdict served online is the same
//! verdict the nightly batch job would have produced for the same window.
//!
//! ## The request API
//!
//! Every recluster is described by a [`ReclusterRequest`] — built with
//! [`ReclusterRequest::full`] or [`ReclusterRequest::incremental`],
//! stamped with the serving clocks, and executed with
//! [`ReclusterRequest::run`] — and every recluster answers with a
//! [`ReclusterOutcome`]: the snapshot to publish, the LP run report, the
//! engine resilience report, which [`ReclusterMode`] actually ran, the
//! frontier it consumed, and the [`LpMemo`] a *later* incremental
//! request can warm-start from.
//!
//! ## Incremental reclustering
//!
//! An incremental request carries the previous recluster's [`LpMemo`]
//! (its per-iteration label trajectory plus the identity stamp of the
//! window it described) and the [`WindowDelta`] the live window
//! accumulated since. When the memo covers the delta — no expiry
//! invalidated the vertex mapping, the memo's stamp matches the delta's
//! `prev_*` identity, iteration caps agree, the touched frontier is
//! under [`ServeConfig::delta_fraction_max`] and the memo stacks fewer
//! than [`ServeConfig::full_recluster_every`] replays — the previous
//! trajectory is remapped into the grown graph's id space and
//! *replayed* through [`glp_core::replay_delta`], recomputing decisions
//! only on the delta frontier. LP is not confluent, so merely
//! warm-starting from the old fixpoint could settle elsewhere; the
//! replay re-executes the exact from-scratch trajectory instead, which
//! is why the published snapshot is **byte-identical** to a
//! from-scratch recluster of the same window (pinned in
//! `tests/delta_identity.rs`). An ineligible delta silently falls back
//! to a full recluster — the mode in the outcome says which path ran.

use crate::config::ServeConfig;
use crate::health::HealthMonitor;
use crate::query::VerdictSnapshot;
use crate::telemetry::Telemetry;
use glp_core::engine::ResilientEngine;
use glp_core::{
    replay_delta, Engine, LpRunReport, MemoRecorder, ResilienceReport, RunOptions, WeightedLp,
};
use glp_fraud::{FraudPipeline, WindowDelta, WindowWorkload};
use glp_graph::{Label, VertexId};
use glp_trace::Tracer;
use std::borrow::Cow;
use std::sync::atomic::Ordering;

/// Which recluster path actually executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReclusterMode {
    /// From-scratch weighted LP over the whole window graph.
    Full,
    /// Memoized delta replay seeded from the changed-vertex frontier.
    Incremental,
}

/// The memoized per-iteration label trajectory of one recluster, plus
/// the identity stamp of the window it described and how many replays
/// it stacks on the last full run. A later
/// [`ReclusterRequest::incremental`] presents this together with the
/// [`WindowDelta`] that grew the window; [`ReclusterRequest::run`]
/// replays it only when its `covers` rule holds — a memo can never
/// silently seed a replay over a window it does not describe.
///
/// The stamp leaves the blacklist out because the trajectory does not
/// depend on it: the serving LP ([`WeightedLp::from_graph`]) starts from
/// unique labels and never reads a seed, and seeds enter only the
/// scoring that every recluster reruns. If the serving LP ever reads
/// seeds, the seed set must join this stamp.
#[derive(Clone, Debug)]
pub struct LpMemo {
    /// Labels after each LP iteration, in the stamped window's vertex
    /// id space.
    per_iteration: Vec<Vec<Label>>,
    /// Iteration cap the memoized run executed under. A replay under a
    /// different cap could extend a non-converged trajectory, so caps
    /// must agree.
    max_iterations: u32,
    /// Transactions in the stamped window.
    transactions: u64,
    /// User-vertex count of the stamped window.
    num_users: usize,
    /// Total vertex count of the stamped window.
    num_vertices: usize,
    /// Replays since the last full run (0 for a full run's memo); the
    /// drift cap [`ServeConfig::full_recluster_every`] counts these.
    replays: u64,
}

impl LpMemo {
    /// The one warm-or-full rule: whether `delta` grew exactly the
    /// window this memo describes into `workload`, monotonically (no
    /// expiry renumbering), under the iteration cap `cfg` runs with,
    /// with a touched frontier under `delta_fraction_max` of the graph
    /// and the drift cap not yet reached.
    fn covers(&self, workload: &WindowWorkload, delta: &WindowDelta, cfg: &ServeConfig) -> bool {
        let n = workload.graph.num_vertices();
        let monotone = delta.prev_users <= workload.num_user_vertices
            && delta.prev_vertices <= n
            && delta.prev_transactions <= workload.num_transactions;
        // `> 0.0` and not just the product: a zero-touched delta (a
        // recluster with no new transactions) must still honor
        // `delta_fraction_max = 0.0` as "incremental off".
        let small_enough = cfg.delta_fraction_max > 0.0
            && (delta.touched.len() as f64) <= cfg.delta_fraction_max * n as f64;
        let capped = cfg.full_recluster_every > 0 && self.replays >= cfg.full_recluster_every;
        !delta.expired
            && !self.per_iteration.is_empty()
            && self.max_iterations == cfg.pipeline.lp_iterations
            && self.transactions == delta.prev_transactions
            && self.num_users == delta.prev_users
            && self.num_vertices == delta.prev_vertices
            && monotone
            && small_enough
            && !capped
    }
}

/// What one trigger entry point reports back — the shared return type
/// of [`ServiceCore::recluster_now`](crate::service::ServiceCore::recluster_now)
/// (one per shard from
/// [`FleetCore::recluster_now`](crate::router::FleetCore::recluster_now))
/// and their threaded wrappers.
#[derive(Clone, Copy, Debug)]
pub struct ReclusterRun {
    /// Which path ran.
    pub mode: ReclusterMode,
    /// Wall seconds of the whole recluster (materialize + LP + scoring
    /// + publish).
    pub wall_seconds: f64,
    /// Vertices the LP recomputed decisions for at iteration 0: the
    /// delta frontier for an incremental run, the whole graph for a
    /// full one, 0 when the window was empty (or a fleet shard was
    /// down).
    pub frontier: usize,
}

/// Everything one executed [`ReclusterRequest`] produced.
pub struct ReclusterOutcome {
    /// The verdict snapshot to publish.
    pub snapshot: VerdictSnapshot,
    /// The LP run report (host wall clock only for incremental runs —
    /// the replay involves no device).
    pub report: LpRunReport,
    /// What the engine's recovery machinery did. An incremental run
    /// reports tier `"DeltaReplay"` with no faults — the replay is
    /// host-side and deterministic.
    pub resilience: ResilienceReport,
    /// Which path actually ran (an ineligible incremental request falls
    /// back to [`ReclusterMode::Full`]).
    pub mode: ReclusterMode,
    /// Vertices whose decisions were recomputed at iteration 0 (see
    /// [`ReclusterRun::frontier`]).
    pub frontier: usize,
    /// The memo a later incremental request can warm-start from.
    /// `None` when the per-iteration capture was incomplete (a program
    /// that refuses mid-run saves); the caller then falls back to full
    /// next time.
    pub memo: Option<LpMemo>,
}

impl ReclusterOutcome {
    /// This outcome as a [`ReclusterRun`] with the given wall time.
    pub fn as_run(&self, wall_seconds: f64) -> ReclusterRun {
        ReclusterRun {
            mode: self.mode,
            wall_seconds,
            frontier: self.frontier,
        }
    }
}

/// One recluster, described before it runs: the materialized window,
/// the blacklist seeds, the configuration, the serving clocks to stamp
/// into the snapshot, an optional span recorder, and an optional warm
/// start. Build with [`Self::full`] or [`Self::incremental`], refine
/// with [`Self::stamped`] / [`Self::with_tracer`], execute with
/// [`Self::run`].
pub struct ReclusterRequest<'a> {
    workload: &'a WindowWorkload,
    blacklist: &'a [u32],
    cfg: &'a ServeConfig,
    as_of_batch: u64,
    window_end: u32,
    tracer: Option<&'a Tracer>,
    warm: Option<(&'a LpMemo, &'a WindowDelta)>,
}

impl<'a> ReclusterRequest<'a> {
    /// A from-scratch recluster of `workload`.
    pub fn full(workload: &'a WindowWorkload, blacklist: &'a [u32], cfg: &'a ServeConfig) -> Self {
        Self {
            workload,
            blacklist,
            cfg,
            as_of_batch: 0,
            window_end: 0,
            tracer: None,
            warm: None,
        }
    }

    /// An incremental recluster: replay `prev`'s trajectory over the
    /// grown `workload`, recomputing only the frontier `delta` touched.
    /// [`Self::run`] checks `LpMemo::covers` (stamp, expiry, frontier
    /// fraction, drift cap) and silently falls back to a full recluster
    /// when the warm start cannot be honored — the outcome's
    /// [`mode`](ReclusterOutcome::mode) says which path ran.
    pub fn incremental(
        workload: &'a WindowWorkload,
        blacklist: &'a [u32],
        cfg: &'a ServeConfig,
        prev: &'a LpMemo,
        delta: &'a WindowDelta,
    ) -> Self {
        Self::full(workload, blacklist, cfg).warm_from(Some(prev), delta)
    }

    /// Offers `memo` (if any) as this request's warm start over `delta`
    /// — how a trigger owner presents the memo it keeps.
    pub(crate) fn warm_from(mut self, memo: Option<&'a LpMemo>, delta: &'a WindowDelta) -> Self {
        self.warm = memo.map(|m| (m, delta));
        self
    }

    /// Stamps the serving clocks into the published snapshot:
    /// `as_of_batch` is how many micro-batches the window had absorbed
    /// when it was materialized, `window_end` its exclusive end day.
    pub fn stamped(mut self, as_of_batch: u64, window_end: u32) -> Self {
        self.as_of_batch = as_of_batch;
        self.window_end = window_end;
        self
    }

    /// Attaches (or detaches) a span recorder for the LP run. Only a
    /// full recluster records engine spans — the incremental replay is
    /// a host loop with no modeled kernels.
    pub fn with_tracer(mut self, tracer: Option<&'a Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Executes the recluster. LP runs on [`ResilientEngine::gpu_ladder`]
    /// on the full path (the driver re-drives an iteration a device fault
    /// interrupted, on the same tier or the next, so the window and the
    /// memo survive; labels are engine-independent, so a degraded snapshot
    /// is byte-identical to the GPU's) and through [`replay_delta`] on the
    /// incremental path.
    /// If every ladder tier fails the recluster panics and the
    /// supervisor's crash/restart machinery takes over (see
    /// [`crate::supervisor`]).
    pub fn run(self) -> ReclusterOutcome {
        let workload = self.workload;
        let cfg = self.cfg;
        let n = workload.graph.num_vertices();

        // Seeds: black-listed users actually present in this window.
        let mut seeds: Vec<VertexId> = self
            .blacklist
            .iter()
            .filter_map(|u| workload.user_vertex.get(u).copied())
            .collect();
        seeds.sort_unstable();

        let warm = self
            .warm
            .filter(|(memo, delta)| memo.covers(workload, delta, cfg));
        if let Some((memo, delta)) = warm {
            // Incremental: carry the previous trajectory into the grown
            // id space and replay it.
            let remapped = remap_memo(&memo.per_iteration, delta, workload.num_user_vertices, n);
            let mut frontier = vec![false; n];
            for &v in &delta.touched {
                frontier[v as usize] = true;
            }
            let mut prog = WeightedLp::from_graph(&workload.graph, cfg.pipeline.lp_iterations)
                .with_retention(cfg.pipeline.retention);
            let replay = replay_delta(
                &workload.graph,
                &mut prog,
                &remapped,
                &frontier,
                cfg.pipeline.lp_iterations,
            );
            let snapshot = assemble_snapshot(
                workload,
                cfg,
                &prog,
                &seeds,
                &replay.report,
                self.as_of_batch,
                self.window_end,
            );
            return ReclusterOutcome {
                snapshot,
                resilience: ResilienceReport {
                    tier: Some("DeltaReplay"),
                    ..ResilienceReport::default()
                },
                mode: ReclusterMode::Incremental,
                frontier: replay.initial_frontier,
                memo: Some(LpMemo {
                    per_iteration: replay.memo,
                    max_iterations: cfg.pipeline.lp_iterations,
                    transactions: workload.num_transactions,
                    num_users: workload.num_user_vertices,
                    num_vertices: n,
                    replays: memo.replays + 1,
                }),
                report: replay.report,
            };
        }

        // Full: from-scratch weighted LP, recording the per-iteration
        // memo so the next recluster can go incremental.
        let mut prog = WeightedLp::from_graph(&workload.graph, cfg.pipeline.lp_iterations)
            .with_retention(cfg.pipeline.retention);
        let mut engine = ResilientEngine::gpu_ladder();
        let recorder = MemoRecorder::new();
        let mut opts = RunOptions::default()
            .with_max_iterations(cfg.pipeline.lp_iterations)
            .with_frontier(cfg.frontier)
            .with_shards(cfg.engine_shards)
            .with_barrier_hook(recorder.hook(n));
        if let Some(t) = self.tracer {
            opts = opts.with_tracer(t.clone());
        }
        let report = engine
            .run(&workload.graph, &mut prog, &opts)
            .unwrap_or_else(|e| panic!("recluster LP failed on every engine tier: {e}"));
        let captured = recorder.into_memo();
        let memo = (!captured.is_empty()).then_some(LpMemo {
            per_iteration: captured,
            max_iterations: cfg.pipeline.lp_iterations,
            transactions: workload.num_transactions,
            num_users: workload.num_user_vertices,
            num_vertices: n,
            replays: 0,
        });
        let snapshot = assemble_snapshot(
            workload,
            cfg,
            &prog,
            &seeds,
            &report,
            self.as_of_batch,
            self.window_end,
        );
        ReclusterOutcome {
            snapshot,
            resilience: engine.resilience().clone(),
            mode: ReclusterMode::Full,
            frontier: n,
            memo,
            report,
        }
    }
}

/// Carries a memoized trajectory into the id space of the window `delta`
/// grew it into (`num_users` user vertices, `n` vertices). First-appearance
/// ids make growth an order-preserving insertion: old users keep their
/// ids, old items shift up by the number of new users, and new vertices
/// take the freed and appended positions. New positions get identity
/// placeholders; they are always in the seed frontier (all their edges
/// are new), so the placeholder never feeds a decision. A delta that
/// added no vertex needs no remap at all.
fn remap_memo<'m>(
    per_iteration: &'m [Vec<Label>],
    delta: &WindowDelta,
    num_users: usize,
    n: usize,
) -> Cow<'m, [Vec<Label>]> {
    if n == delta.prev_vertices {
        return Cow::Borrowed(per_iteration);
    }
    let prev_users = delta.prev_users as Label;
    let shift = num_users as Label - prev_users;
    let phi = |l: Label| if l < prev_users { l } else { l + shift };
    let remapped = per_iteration
        .iter()
        .map(|entry| {
            let (users, items) = entry.split_at(delta.prev_users);
            let mut m: Vec<Label> = Vec::with_capacity(n);
            m.extend(users.iter().map(|&l| phi(l)));
            m.extend(prev_users..num_users as Label);
            m.extend(items.iter().map(|&l| phi(l)));
            m.extend(m.len() as Label..n as Label);
            m
        })
        .collect();
    Cow::Owned(remapped)
}

/// Merges one outcome's engine-side reports into a telemetry block and
/// health monitor — the bookkeeping tail shared by every trigger owner.
pub(crate) fn absorb_outcome(
    telemetry: &Telemetry,
    health: &HealthMonitor,
    outcome: &ReclusterOutcome,
) {
    telemetry.merge_gpu(&outcome.report.gpu_counters);
    telemetry.merge_kernel_profile(&outcome.report.kernel_profile);
    telemetry
        .engine_retries
        .fetch_add(u64::from(outcome.resilience.retries), Ordering::Relaxed);
    telemetry.engine_degradations.fetch_add(
        u64::from(outcome.resilience.degradations),
        Ordering::Relaxed,
    );
    telemetry
        .iterations_salvaged
        .fetch_add(outcome.resilience.iterations_salvaged, Ordering::Relaxed);
    if let Some(tier) = outcome.resilience.tier {
        health.set_engine_tier(tier);
    }
    let path = match outcome.mode {
        ReclusterMode::Full => &telemetry.reclusters_full,
        ReclusterMode::Incremental => &telemetry.reclusters_incremental,
    };
    path.fetch_add(1, Ordering::Relaxed);
}

/// Scores the converged program and resolves everything to plain user
/// ids — the snapshot-assembly tail shared by both recluster paths.
fn assemble_snapshot(
    workload: &WindowWorkload,
    cfg: &ServeConfig,
    prog: &WeightedLp,
    seeds: &[VertexId],
    report: &LpRunReport,
    as_of_batch: u64,
    window_end: u32,
) -> VerdictSnapshot {
    let pipe = FraudPipeline::new(cfg.pipeline.clone());
    let clusters = pipe.score(workload, prog, seeds);

    let vertex_user = workload.users_by_vertex();
    // Publish each cluster under the *minimum member user id* rather
    // than the raw LP label: LP labels are vertex ids, which depend on
    // how the window mapped users to vertices, while the min member is a
    // property of the cluster's user set alone. This makes snapshots
    // canonical across any order-preserving re-indexing of the window —
    // in particular, a shard's sub-window and the whole window assign
    // the same published label to the same cluster, which is what lets
    // the sharded fleet's verdicts be compared byte-for-byte against the
    // single-core reference (see `crate::exchange`).
    let mut flagged: Vec<(u32, u32, f64)> = Vec::new();
    for c in &clusters {
        let users = c.users.iter().map(|&v| vertex_user[v as usize]);
        if let Some(canon) = users.clone().min() {
            flagged.extend(users.map(|u| (u, canon, c.score)));
        }
    }
    // Clusters partition users by label, so users are unique; sorting by
    // user id makes the snapshot canonical regardless of cluster
    // iteration order.
    flagged.sort_unstable_by_key(|a| a.0);
    let mut known_users = vertex_user;
    known_users.sort_unstable();

    VerdictSnapshot {
        window_end,
        as_of_batch,
        known_users,
        flagged,
        graph_vertices: workload.graph.num_vertices(),
        graph_edges: workload.graph.num_edges(),
        lp_iterations: report.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Verdict;
    use glp_fraud::{IncrementalWindow, Transaction, TxConfig, TxStream};

    fn stream() -> TxStream {
        TxStream::generate(&TxConfig {
            num_users: 1_500,
            num_items: 600,
            days: 30,
            tx_per_day: 900,
            num_rings: 3,
            ring_size: 12,
            ring_tx_per_day: 40,
            blacklist_fraction: 0.25,
            ..Default::default()
        })
    }

    #[test]
    fn recluster_flags_ring_members() {
        let s = stream();
        let cfg = ServeConfig::default().with_window_days(20);
        let workload = WindowWorkload::build(&s, 20);
        let outcome = ReclusterRequest::full(&workload, &s.blacklist, &cfg)
            .stamped(3, s.config.days)
            .run();
        let snap = &outcome.snapshot;
        assert_eq!(snap.as_of_batch, 3);
        assert_eq!(snap.window_end, s.config.days);
        assert!(outcome.report.iterations > 0);
        assert_eq!(outcome.mode, ReclusterMode::Full);
        assert_eq!(outcome.frontier, workload.graph.num_vertices());
        assert!(outcome.memo.is_some(), "full runs capture a memo");
        // No faults injected: the run stays on the GPU tier untouched.
        assert_eq!(outcome.resilience.tier, Some("GLP"));
        assert_eq!(outcome.resilience.retries, 0);
        assert_eq!(outcome.resilience.degradations, 0);
        assert!(snap.num_flagged() > 0, "rings should be flagged");
        // Flagged users are real ring members far more often than not.
        let hits = snap
            .flagged
            .iter()
            .filter(|&&(u, _, _)| s.ring_of[u as usize].is_some())
            .count();
        assert!(
            hits * 2 > snap.num_flagged(),
            "{hits}/{} flagged users in rings",
            snap.num_flagged()
        );
        // And every flagged user gets a Flagged verdict back.
        for &(u, _, _) in &snap.flagged {
            assert!(matches!(snap.verdict(u), Verdict::Flagged { .. }));
        }
    }

    #[test]
    fn snapshot_is_deterministic_for_a_fixed_window() {
        let s = stream();
        let cfg = ServeConfig::default().with_window_days(15);
        let workload = WindowWorkload::build(&s, 15);
        let a = ReclusterRequest::full(&workload, &s.blacklist, &cfg)
            .stamped(0, s.config.days)
            .run();
        let b = ReclusterRequest::full(&workload, &s.blacklist, &cfg)
            .stamped(7, s.config.days)
            .run();
        assert_eq!(a.snapshot.canonical_bytes(), b.snapshot.canonical_bytes());
    }

    #[test]
    fn incremental_replay_matches_full_byte_for_byte() {
        let s = stream();
        // Frontier cap wide open: this test pins byte-identity, and a
        // third-of-a-day chunk can touch more than the default fraction.
        let mut cfg = ServeConfig::default().with_window_days(10);
        cfg.delta_fraction_max = 1.0;
        let mut window = IncrementalWindow::empty(10);
        let day0: Vec<Transaction> = s.window(0, 1).copied().collect();
        window.apply_batch(&day0);
        let (w0, _) = window.materialize_delta();
        let first = ReclusterRequest::full(&w0, &s.blacklist, &cfg)
            .stamped(1, window.end())
            .run();
        let mut memo = first.memo.expect("full run captures a memo");

        // Grow the window batch by batch within the same day range and
        // recluster incrementally each time; a forced-full request over
        // the identical workload must publish identical bytes.
        let day1: Vec<Transaction> = s.window(1, 2).copied().collect();
        for (i, chunk) in day1.chunks(day1.len().div_ceil(3)).enumerate() {
            window.apply_batch(chunk);
            let (w, delta) = window.materialize_delta();
            let inc = ReclusterRequest::incremental(&w, &s.blacklist, &cfg, &memo, &delta)
                .stamped(2 + i as u64, window.end())
                .run();
            assert_eq!(inc.mode, ReclusterMode::Incremental, "chunk {i}");
            assert_eq!(inc.resilience.tier, Some("DeltaReplay"));
            assert!(inc.frontier > 0 && inc.frontier < w.graph.num_vertices());
            let full = ReclusterRequest::full(&w, &s.blacklist, &cfg)
                .stamped(2 + i as u64, window.end())
                .run();
            assert_eq!(
                inc.snapshot.canonical_bytes(),
                full.snapshot.canonical_bytes(),
                "incremental != full at chunk {i}"
            );
            assert_eq!(inc.report.iterations, full.report.iterations);
            memo = inc.memo.expect("replay always yields a memo");
        }
    }

    #[test]
    fn ineligible_warm_starts_fall_back_to_full() {
        let s = stream();
        let cfg = ServeConfig::default().with_window_days(10);
        let mut window = IncrementalWindow::empty(10);
        window.apply_batch(&s.window(0, 1).copied().collect::<Vec<_>>());
        let (w0, d0) = window.materialize_delta();
        assert!(d0.expired, "first delta has no baseline");
        // An expired delta must not seed a replay even with a memo.
        let full = ReclusterRequest::full(&w0, &s.blacklist, &cfg).run();
        let memo = full.memo.unwrap();
        let out = ReclusterRequest::incremental(&w0, &s.blacklist, &cfg, &memo, &d0).run();
        assert_eq!(out.mode, ReclusterMode::Full);

        // A frontier over delta_fraction_max forces full too.
        window.apply_batch(&s.window(1, 2).copied().collect::<Vec<_>>());
        let (w1, d1) = window.materialize_delta();
        assert!(!d1.expired);
        let mut strict = cfg.clone();
        strict.delta_fraction_max = 0.0;
        let out = ReclusterRequest::incremental(&w1, &s.blacklist, &strict, &memo, &d1).run();
        assert_eq!(out.mode, ReclusterMode::Full);

        // A memo that already carries `full_recluster_every` replays
        // runs full, presented to the public request too.
        let mut capped = cfg.clone();
        capped.delta_fraction_max = 1.0;
        capped.full_recluster_every = 1;
        let replay = ReclusterRequest::incremental(&w1, &s.blacklist, &capped, &memo, &d1).run();
        assert_eq!(replay.mode, ReclusterMode::Incremental);
        let memo = replay.memo.unwrap();
        window.apply_batch(&s.window(2, 3).copied().collect::<Vec<_>>());
        let (w2, d2) = window.materialize_delta();
        let out = ReclusterRequest::incremental(&w2, &s.blacklist, &capped, &memo, &d2).run();
        assert_eq!(out.mode, ReclusterMode::Full);
        assert_eq!(out.memo.unwrap().replays, 0);

        // A core whose window emptied and refilled runs full: its memo
        // is kept across the empty recluster, and nothing resets it —
        // the refill's delta is stamped against the empty window.
        let core = crate::ServiceCore::new(capped, s.blacklist.clone());
        core.apply_transactions(&s.window(0, 1).copied().collect::<Vec<_>>());
        assert_eq!(core.recluster_now().mode, ReclusterMode::Full);
        core.apply_stamped(&[], 40);
        let emptied = core.recluster_now();
        assert_eq!((emptied.mode, emptied.frontier), (ReclusterMode::Full, 0));
        assert!(core.memo().is_some(), "the empty recluster keeps the memo");
        let refill: Vec<Transaction> = s
            .window(0, 1)
            .map(|&t| Transaction { day: 40, ..t })
            .collect();
        core.apply_transactions(&refill);
        assert_eq!(core.recluster_now().mode, ReclusterMode::Full);
    }
}
