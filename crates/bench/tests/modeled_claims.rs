//! The frontier and direction claims on the modeled clock. The clock is
//! deterministic, so these are exact facts about the cost model on fixed
//! graphs, not measurements — and the margins are thin (346.3 vs 373.3 µs,
//! 813.8 vs 833.5 µs), so the sizes below are part of each claim. That the
//! modes agree on labels and convergence is `tests/frontier_equivalence.rs`
//! and `tests/direction_equivalence.rs`. The delta-replay, period-2 replay
//! and schedule ledger claims at the end are work counts, exact for the
//! same reason.

use glp_bench::workloads::{period2_lattice, period2_window};
use glp_core::engine::{Decision, GpuEngine};
use glp_core::{
    replay_delta, ClassicLp, Engine, FrontierMode, LpRunReport, MemoRecorder, MflStrategy,
    RunOptions, SequentialEngine, WeightedLp,
};
use glp_fraud::{IncrementalWindow, Transaction, TxConfig, TxStream};
use glp_graph::datasets::{by_name, GraphFamily};
use glp_graph::gen::{bipartite_interaction, road_network, BipartiteConfig, RoadConfig};
use glp_graph::{Graph, Label};
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

/// Where the first replay lands on the `period2` bench group's full-path
/// inputs (one 20-iteration `GpuEngine` run of `ClassicLp` each). The
/// window's replay records fit within its CSR, so the driver keeps them
/// from the first phase and replays from the first repeated input on: 15
/// of 20 (a memo armed by the repeated fingerprint replays 13). The
/// lattice's records (1.78 MB) outweigh its CSR (0.59 MB), so it waits for
/// a fingerprint that never repeats: 0 of 20, and nothing allocated.
#[test]
fn the_period2_inputs_replay_from_their_first_repeat() {
    use std::mem::size_of;
    let per_vertex = 2 * (size_of::<Label>() + size_of::<Decision>() + 1);
    for (name, g, fits, replayed) in [
        ("window", period2_window(), true, 15),
        ("lattice", period2_lattice(), false, 0),
    ] {
        let records = (g.num_vertices() * per_vertex) as u64;
        assert_eq!(records <= g.size_bytes(), fits, "{name}: {records} B");
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 20);
        let report = GpuEngine::titan_v()
            .run(&g, &mut prog, &RunOptions::default())
            .expect("healthy device");
        assert_eq!(report.iterations, 20, "{name}");
        assert_eq!(report.replayed_iterations, replayed, "{name}");
    }
}

/// The committed benchmark's `lp_lowdeg` (`roadNet`) or `lp_highdeg`
/// (`aligraph`) input at `--scale 1`: the dataset's generator at 1/24 of
/// the paper's size, its seed offset by `seed`.
fn benchmark_input(dataset: &str, seed: u64) -> Graph {
    let spec = by_name(dataset).expect("Table 2 dataset");
    let v = (spec.paper_vertices / 24).max(64) as usize;
    let e = (2 * spec.paper_edges / 24).max(256);
    let seed = 0x617 + spec.id as u64 + seed;
    match spec.family {
        GraphFamily::Road => {
            let side = ((v as f64).sqrt().round() as usize).max(2);
            road_network(&RoadConfig {
                width: side,
                height: side,
                keep: (e as f64 / v as f64 / 4.0).min(1.0),
                seed,
            })
        }
        GraphFamily::Interaction => {
            let users = v * 2 / 3;
            bipartite_interaction(&BipartiteConfig {
                num_users: users.max(8),
                num_items: (v - users).max(8),
                num_interactions: (e / 2) as usize,
                skew: 0.6,
                seed,
            })
        }
        _ => panic!("{dataset} is not an in-core LP workload"),
    }
}

/// A run prices each schedule once: on the benchmark's two in-core LP
/// inputs (seed 1), every iteration that schedules the vertex list an
/// earlier one priced is charged from the run's schedule ledger. The road
/// lattice schedules the same 81 177 vertices in all 20 iterations, the
/// interaction graph all 622 of its hubs in each computed iteration: one
/// propagation launch is priced in either run, the warp-packed one and the
/// CMS+HT one.
#[test]
fn each_benchmark_schedule_is_priced_once() {
    for (dataset, kernel, scheduled) in [
        ("roadNet", "lp_warp_packed", 81_177),
        ("aligraph", "lp_block_cms_ht", 622),
    ] {
        let g = benchmark_input(dataset, 1);
        let opts = RunOptions::default()
            .with_max_iterations(20)
            .with_frontier(FrontierMode::Auto)
            .with_strategy(MflStrategy::SmemWarp);
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 20);
        let report = GpuEngine::titan_v()
            .run(&g, &mut prog, &opts)
            .expect("healthy device");
        let propagations: Vec<(&str, u64)> = report
            .kernel_profile
            .rows()
            .filter(|(_, name, _)| name.starts_with("lp_"))
            .map(|(_, name, row)| (name, row.count))
            .collect();
        assert_eq!(report.active_per_iteration[1], scheduled, "{dataset}");
        assert_eq!(propagations, [(kernel, 20)], "{dataset}");
        assert_eq!(report.priced_launches, 1, "{dataset}");
    }
}
