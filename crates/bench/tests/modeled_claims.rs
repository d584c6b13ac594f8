//! The frontier and direction claims on the modeled clock. The clock is
//! deterministic, so these are exact facts about the cost model on fixed
//! graphs, not measurements — and the margins are thin (346.3 vs 373.3 µs,
//! 813.8 vs 833.5 µs), so the sizes below are part of each claim. That the
//! modes agree on labels and convergence is `tests/frontier_equivalence.rs`
//! and `tests/direction_equivalence.rs`.

use glp_core::engine::GpuEngine;
use glp_core::{ClassicLp, Engine, FrontierMode, LpRunReport, RunOptions};
use glp_graph::Graph;
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
