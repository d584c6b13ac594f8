//! The frontier and direction claims on the modeled clock. The clock is
//! deterministic, so these are exact facts about the cost model on fixed
//! graphs, not measurements — and the margins are thin (346.3 vs 373.3 µs,
//! 813.8 vs 833.5 µs), so the sizes below are part of each claim. That the
//! modes agree on labels and convergence is `tests/frontier_equivalence.rs`
//! and `tests/direction_equivalence.rs`. The delta-replay claim at the end
//! is a work count, exact for the same reason.

use glp_core::engine::GpuEngine;
use glp_core::{
    replay_delta, ClassicLp, Engine, FrontierMode, LpRunReport, MemoRecorder, RunOptions,
    SequentialEngine, WeightedLp,
};
use glp_fraud::{IncrementalWindow, Transaction, TxConfig, TxStream};
use glp_graph::Graph;
use glp_serve::ServeConfig;
use glp_test_support::convergence_workload;

fn run(g: &Graph, iters: u32, frontier: FrontierMode) -> LpRunReport {
    let opts = RunOptions::default()
        .with_max_iterations(iters)
        .with_frontier(frontier);
    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), iters);
    GpuEngine::titan_v()
        .run(g, &mut prog, &opts)
        .expect("healthy device")
}

/// §2.2's criticism of prior GPU LP — labels "repeatedly loaded" though
/// "only a subset of them" change — is what the active frontier removes:
/// on cliques that settle fast plus a path that keeps a thin frontier
/// alive, the active set only decays and the run is ≥ 2× cheaper than
/// dense end to end.
#[test]
fn frontier_halves_a_converging_run_and_its_active_set_only_decays() {
    let g = convergence_workload(800, 64, 500);
    let dense = run(&g, 20, FrontierMode::Dense);
    let auto = run(&g, 20, FrontierMode::Auto);

    let active = &auto.active_per_iteration;
    assert!(
        active.windows(2).all(|w| w[1] <= w[0]),
        "active set grew: {active:?}"
    );
    assert!(
        active.last() < active.first(),
        "active set never shrank: {active:?}"
    );
    let speedup = dense.modeled_seconds / auto.modeled_seconds;
    assert!(speedup >= 2.0, "frontier speedup only {speedup:.2}x");
}

/// Gunrock's direction-optimised crossover: pull's early-exit gather wins
/// while a high-degree frontier stays saturated, push's tiny touched
/// volume wins on a thin long-lived tail, and Auto — which pays a density
/// probe per iteration for the choice — lands within 5% of the better
/// static direction on both.
#[test]
fn each_direction_wins_its_workload_and_auto_tracks_the_winner() {
    // (name, graph, iterations, whether pull is the predicted winner)
    let cases = [
        (
            "dense_frontier_high_degree",
            convergence_workload(60, 96, 0),
            8,
            true,
        ),
        ("sparse_tail", convergence_workload(150, 32, 800), 36, false),
    ];
    for (name, g, iters, pull_wins) in cases {
        let push = run(&g, iters, FrontierMode::Push).modeled_seconds;
        let pull = run(&g, iters, FrontierMode::Pull).modeled_seconds;
        let auto = run(&g, iters, FrontierMode::Auto).modeled_seconds;
        let (won, lost) = if pull_wins {
            (pull, push)
        } else {
            (push, pull)
        };
        assert!(
            won < lost,
            "{name}: pull_wins={pull_wins}, yet winner {won} vs loser {lost}"
        );
        assert!(
            auto <= 1.05 * won,
            "{name}: auto ({auto}) worse than 1.05x the best forced mode ({won})"
        );
    }
}

/// DynLP's batch-update contract (incremental ≡ from scratch, at O(delta)
/// cost) as a deterministic work count. On the `serve_delta` window shape —
/// an 8-day window of 4 000 users and 8 000 tx/day, then one 64-tx batch
/// re-dated onto its last day — `replay_delta` over the batch's touched
/// vertices reads at most `|E| × iterations / 13` neighbour entries. It
/// reads 87 904 of 116 166 × 20 (1/26.4: 120 touched vertices, 8 computed
/// iterations, 12 taken from the record); a replay that computes the whole
/// of V on the same iterations reads 1/2.5.
#[test]
fn a_delta_replay_scans_a_sliver_of_the_window() {
    const K: u64 = 13;
    let warm_days = 8;
    let s = TxStream::generate(&TxConfig {
        num_users: 4_000,
        num_items: 1_500,
        days: warm_days + 1,
        tx_per_day: 8_000,
        num_rings: 5,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        seed: 1,
        ..TxConfig::default()
    });
    let cfg = ServeConfig::default();
    let mut window = IncrementalWindow::empty(cfg.window_days);
    let cut = s.transactions.partition_point(|t| t.day < warm_days);
    window.apply_batch(&s.transactions[..cut]);
    window.materialize_delta();
    let batch: Vec<Transaction> = s.transactions[cut..cut + 64]
        .iter()
        .map(|t| Transaction {
            day: warm_days - 1,
            ..*t
        })
        .collect();
    window.apply_batch(&batch);
    let (workload, delta) = window.materialize_delta();
    let g = &workload.graph;

    let iterations = cfg.pipeline.lp_iterations;
    let program = || WeightedLp::from_graph(g, iterations).with_retention(cfg.pipeline.retention);
    let recorder = MemoRecorder::new();
    let opts = RunOptions::default()
        .with_max_iterations(iterations)
        .with_barrier_hook(recorder.hook(g.num_vertices()));
    SequentialEngine::bsp()
        .run(g, &mut program(), &opts)
        .expect("host run");
    let mut seeds = vec![false; g.num_vertices()];
    for &v in &delta.touched {
        seeds[v as usize] = true;
    }
    let replay = replay_delta(g, &mut program(), &recorder.into_memo(), &seeds, iterations);

    let dense = g.num_edges() * u64::from(replay.report.iterations);
    assert!(
        K * replay.edges_scanned <= dense,
        "replay scanned {} of {dense} edge entries (|E| {} × {} iterations): more than 1/{K}",
        replay.edges_scanned,
        g.num_edges(),
        replay.report.iterations
    );
}
