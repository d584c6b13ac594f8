//! The engine oracle's pinned seeds.
//!
//! `glp_test_support::oracle` draws small LP runs over every engine (bare or
//! on a recovery ladder), program, frontier mode, MFL strategy, table
//! geometry, shard count, hook, tracer, warm start and device fault, and
//! holds each against the host BSP engine over the same program with no
//! frontier and no replay. Its sweeps
//! are the slices in `tests/{direction,engine,frontier}_equivalence.rs`
//! (the default one, with the coverage check, is
//! `random_graphs_are_direction_invariant`). A failure is shrunk and panics
//! with a `Case` literal. The named cases below are such repros: each is
//! what the default sweep shrank a one-line engine mutation to, pinned so
//! the mutation stays caught.

use glp_suite::core::{ClassicLp, Engine, GpuEngine, LpProgram, SequentialEngine};
use glp_test_support::oracle::*;

/// A pull rebuild marks `v` active when an in-neighbour `u` changed — not
/// when `v` itself did.
#[test]
fn a_pull_rebuild_reads_the_in_neighbours_change() {
    check(Case {
        n: 3,
        edges: vec![(0, 2), (1, 2)],
        program: Seeded,
        iters: 2,
        ..Case::default()
    });
}

/// Filtering the buckets by the frontier keeps the global-hash bucket,
/// the only non-empty one under `Global` and `Smem` on low degrees.
#[test]
fn the_frontier_filter_keeps_the_global_hash_bucket() {
    check(Case {
        n: 3,
        edges: vec![(1, 0), (2, 2)],
        strategy: Smem,
        iters: 2,
        ..Case::default()
    });
}

/// A device phase re-driven after a recovery does not begin its iteration
/// again: `SaltedLp` draws a fresh salt per `begin_iteration`.
#[test]
fn a_redriven_iteration_is_not_begun_again() {
    check(Case {
        edges: vec![(1, 0), (0, 0)],
        rigs: vec![Multi2],
        program: Salted,
        iters: 1,
        fault: Some((DeviceLost, 0)),
        ..Case::default()
    });
}

/// An overflowed label that ties the CMS+HT table's best at `s(HT) ==
/// s(CMS)` and wins the tie rule (here: the smaller label) must be
/// recounted, not lost.
#[test]
fn a_tie_with_an_overflowed_label_is_recounted() {
    let case = Case {
        n: 4,
        edges: vec![(1, 3), (0, 2), (2, 3), (1, 3), (2, 3), (0, 2), (0, 3)],
        small_tables: true,
        iters: 2,
        ..Case::default()
    };
    let (g, opts) = (case.graph(), case.options());
    let labels = |engine: &mut dyn Engine| {
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), case.iters);
        engine.run(&g, &mut prog, &opts).unwrap();
        prog.labels().to_vec()
    };
    let host = labels(&mut SequentialEngine::bsp());
    assert_eq!(labels(&mut GpuEngine::titan_v()), host);
}

/// A multi-GPU rung re-staged after a transient fault opens its run span
/// at the devices' latest clock, and its uploads start there too.
#[test]
fn a_retried_multi_gpu_attempt_uploads_inside_its_run_span() {
    check(Case {
        edges: vec![(1, 1)],
        rigs: vec![Multi2],
        ladder: true,
        iters: 1,
        tracer: true,
        fault: Some((Timeout, 1)),
        ..Case::default()
    });
}

/// A multi-GPU run that loses a device mid-dispatch closes the dispatch
/// span no earlier than the last kernel the lost card completed.
#[test]
fn a_repartitioned_dispatch_span_holds_its_kernels() {
    check(Case {
        n: 4,
        edges: vec![(1, 2), (0, 3), (1, 3), (2, 1)],
        rigs: vec![Multi3],
        frontier: Dense,
        small_tables: true,
        iters: 2,
        hook: true,
        tracer: true,
        fault: Some((DeviceLost, 7)),
        ..Case::default()
    });
}
