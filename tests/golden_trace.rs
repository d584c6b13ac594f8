//! Golden-trace regression suite.
//!
//! Pins the *structure* of an exported trace — span names, categories,
//! nesting, and kernel launch counts, with durations deliberately
//! excluded ([`Trace::structure`](glp_suite::trace::Trace::structure)) —
//! for a tiny pinned run, and checks that structure is byte-stable across
//! scheduling knobs that must not change what work happens: kernel shard
//! counts (1/2/4) and, for programs without sparse activation, Dense vs
//! Auto frontier modes. Direction-optimized execution gets its own
//! goldens: forced Push and Pull modes pin the `dispatch:push` /
//! `dispatch:pull` span tags and the `frontier_update` / `pull_gather`
//! kernel choice, and a dense-then-sparse synthetic graph pins a full
//! push→pull→push Auto switch sequence. Also pins the observability
//! contract's other half: with no tracer attached, behavior is
//! byte-identical — labels, convergence traces, modeled cost, and the
//! device kernel log do not move. And it pins that simulated time is one
//! timeline recorded once: on the GPU and hybrid tiers the span seconds
//! reconcile with what the cost model charged, one kernel span per launch.

use glp_suite::core::engine::{BarrierHook, GpuEngine};
use glp_suite::core::{
    ClassicLp, Direction, Engine, FrontierMode, Llp, LpProgram, LpRunReport, RunOptions,
};
use glp_suite::graph::gen::{community_powerlaw, two_cliques_bridge, CommunityPowerLawConfig};
use glp_suite::graph::{Graph, GraphBuilder};
use glp_suite::trace::{Category, Trace, Tracer};
use glp_test_support::oracle::Rig;

/// Iteration cap of every pinned run.
const ITERS: u32 = 12;

/// The pinned graph: two 9-cliques joined by one edge, settled in three
/// iterations.
fn tiny_graph() -> Graph {
    two_cliques_bridge(9)
}

/// The pinned structure of `ClassicLp` on [`tiny_graph`] under the Auto
/// frontier: three iterations to converge, one warp-packed bucket, the
/// frontier maintenance kernels live because classic LP has sparse
/// activation. Auto charges `frontier_density` for its per-iteration
/// decision, picks pull while the frontier is dense (iterations 0–1) and
/// push for the converged tail, and tags each dispatch with the
/// direction that built the frontier it consumes. Regenerate
/// (deliberately!) by printing `trace.structure()` if the kernel
/// schedule changes.
const GOLDEN_CLASSIC_AUTO: &str = "\
run:GLP
  transfer:upload
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:frontier_density
    kernel:pull_gather
    kernel:frontier_compact
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch:pull
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:frontier_density
    kernel:pull_gather
    kernel:frontier_compact
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch:pull
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:frontier_density
    kernel:frontier_update
    kernel:frontier_compact
  transfer:download
";

/// Forced-push structure on the same run: no `frontier_density` (there
/// is no decision to price), `frontier_update` every iteration, and
/// `dispatch:push` tags from iteration 1 on (iteration 0 consumes the
/// mode-independent initial frontier, so its dispatch stays untagged).
const GOLDEN_CLASSIC_PUSH: &str = "\
run:GLP
  transfer:upload
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:frontier_update
    kernel:frontier_compact
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch:push
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:frontier_update
    kernel:frontier_compact
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch:push
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:frontier_update
    kernel:frontier_compact
  transfer:download
";

/// Forced-pull mirror of [`GOLDEN_CLASSIC_PUSH`]: `pull_gather` every
/// iteration and `dispatch:pull` tags from iteration 1 on.
const GOLDEN_CLASSIC_PULL: &str = "\
run:GLP
  transfer:upload
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:pull_gather
    kernel:frontier_compact
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch:pull
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:pull_gather
    kernel:frontier_compact
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch:pull
      kernel:lp_warp_packed
    kernel:update_vertex
    kernel:pull_gather
    kernel:frontier_compact
  transfer:download
";

/// The pinned structure of LLP on the same graph: identical shape minus
/// the frontier kernels (LLP's global volumes force the dense fallback,
/// so no frontier is maintained).
const GOLDEN_LLP: &str = "\
run:GLP
  transfer:upload
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch
      kernel:lp_warp_packed
    kernel:update_vertex
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch
      kernel:lp_warp_packed
    kernel:update_vertex
  iteration:iteration
    kernel:pick_label
    dispatch:dispatch
      kernel:lp_warp_packed
    kernel:update_vertex
  transfer:download
";

fn classic(g: &Graph) -> Box<dyn LpProgram> {
    Box::new(ClassicLp::with_max_iterations(g.num_vertices(), ITERS))
}

fn llp(g: &Graph) -> Box<dyn LpProgram> {
    Box::new(Llp::with_max_iterations(g.num_vertices(), 2.0, ITERS))
}

/// Runs `prog` on `engine` with a tracer attached to `opts` and returns
/// the finished trace plus the run report, after checking the trace is
/// well-formed with nothing dropped and no span left open.
fn traced(
    engine: &mut dyn Engine,
    g: &Graph,
    prog: &mut dyn LpProgram,
    opts: RunOptions,
) -> (Trace, LpRunReport) {
    let tracer = Tracer::new();
    let report = engine
        .run(g, prog, &opts.with_tracer(tracer.clone()))
        .expect("pinned run succeeds");
    let trace = tracer.finish();
    trace.check_well_formed(1e-9).expect("trace is well-formed");
    assert_eq!(trace.dropped, 0, "run must not hit the sink bound");
    assert_eq!(tracer.open_spans(), 0, "spans left open after the run");
    (trace, report)
}

/// Runs `prog` traced on the single-GPU engine and returns the
/// durations-free structural export plus the run report.
fn traced_run(
    g: &Graph,
    mut prog: Box<dyn LpProgram>,
    shards: usize,
    frontier: FrontierMode,
) -> (String, LpRunReport) {
    let opts = RunOptions::default()
        .with_max_iterations(ITERS)
        .with_shards(shards)
        .with_frontier(frontier);
    let (trace, report) = traced(&mut GpuEngine::titan_v(), g, prog.as_mut(), opts);
    (trace.structure(), report)
}

fn traced_structure(
    g: &Graph,
    prog: Box<dyn LpProgram>,
    shards: usize,
    frontier: FrontierMode,
) -> String {
    traced_run(g, prog, shards, frontier).0
}

/// A dense-then-sparse graph built so Auto provably switches direction
/// mid-run. A change wave starts at one loose vertex and walks a chain
/// of vertex *pairs* toward a 16-clique "blob"; every vertex except the
/// wave seed carries a self-loop, so its own label scores 1 and — since
/// score ties keep the current label — the vertex only flips when two
/// in-neighbors *agree* on a label (strict 2 > 1 majority). Each chain
/// step flips exactly 2 low-degree vertices (tiny touched volume →
/// push), the blob flips all 16 high-degree members at once (touched ≈
/// k² ≫ |E|/9 → pull), and an exit chain off the blob resumes 2-vertex
/// waves (push again). A disconnected self-frozen ballast clique
/// inflates |E| so the chain steps sit clearly on the push side of the
/// crossover.
fn switch_graph() -> Graph {
    let mut b = GraphBuilder::new(38);
    // Wave seed: 0 (self-frozen) — 1 (free). Vertex 1 adopts label 0 at
    // iteration 0; nothing else moves.
    b.add_edge(0, 1);
    // Chain pairs {2,3} and the fuse pair {4,5}: each pair sees both
    // members of the previous stage, so it flips one iteration later.
    for p in [2u32, 3] {
        b.add_edge(0, p);
        b.add_edge(1, p);
    }
    for (f, p) in [(4u32, 2u32), (4, 3), (5, 2), (5, 3)] {
        b.add_edge(p, f);
    }
    // The blob: a 16-clique (vertices 6..=21), every member adjacent to
    // both fuse vertices.
    for v in 6u32..=21 {
        for u in (v + 1)..=21 {
            b.add_edge(v, u);
        }
        b.add_edge(4, v);
        b.add_edge(5, v);
    }
    // Exit chain: pair {22,23} hangs off blob members 6 and 7, pair
    // {24,25} off the first exit pair.
    for e in [22u32, 23] {
        b.add_edge(6, e);
        b.add_edge(7, e);
    }
    for (a, e) in [(22u32, 24u32), (22, 25), (23, 24), (23, 25)] {
        b.add_edge(a, e);
    }
    // Ballast: a frozen 6-clique (26..=31) plus spare frozen singletons
    // (32..=37) that only add |E| and n — they never change.
    for v in 26u32..=31 {
        for u in (v + 1)..=31 {
            b.add_edge(v, u);
        }
    }
    // Self-loops freeze every vertex except the seed's neighbor: with
    // the vertex's own label in the tally, a lone dissenting neighbor
    // only ties — and ties keep the current label — so flipping takes an
    // agreeing *pair* of in-neighbors.
    for v in (0u32..=37).filter(|&v| v != 1) {
        b.add_edge(v, v);
    }
    b.keep_self_loops(true);
    b.symmetrize(true);
    b.build()
}

/// The pinned Auto direction sequence on [`switch_graph`]: three
/// 2-vertex push waves walking the chain, one pull iteration when the
/// 16-clique flips en masse, then push again for the exit chain and the
/// converged tail.
const SWITCH_DIRECTIONS: [Direction; 7] = [
    Direction::Push,
    Direction::Push,
    Direction::Push,
    Direction::Pull,
    Direction::Push,
    Direction::Push,
    Direction::Push,
];

/// The embedded goldens hold for the pinned tiny run. A diff here means
/// the engine's kernel schedule (or span instrumentation) changed shape —
/// regenerate the constants only if that was intentional.
#[test]
fn tiny_run_structure_matches_embedded_golden() {
    let g = tiny_graph();
    assert_eq!(
        traced_structure(&g, classic(&g), 1, FrontierMode::Auto),
        GOLDEN_CLASSIC_AUTO,
        "classic/auto structure drifted from the golden"
    );
    assert_eq!(
        traced_structure(&g, llp(&g), 1, FrontierMode::Auto),
        GOLDEN_LLP,
        "llp structure drifted from the golden"
    );
}

/// Forced Push and Pull modes pin the direction-tagged structure: the
/// frontier kernel matches the mode, no decision kernel is charged, and
/// dispatch spans are tagged with the direction that built the frontier
/// they consume.
#[test]
fn forced_direction_structures_match_embedded_goldens() {
    let g = tiny_graph();
    assert_eq!(
        traced_structure(&g, classic(&g), 1, FrontierMode::Push),
        GOLDEN_CLASSIC_PUSH,
        "classic/push structure drifted from the golden"
    );
    assert_eq!(
        traced_structure(&g, classic(&g), 1, FrontierMode::Pull),
        GOLDEN_CLASSIC_PULL,
        "classic/pull structure drifted from the golden"
    );
}

/// Shard count is intra-launch parallelism only: one kernel span per
/// launch regardless, so the exported structure is byte-identical across
/// 1/2/4 shards for both a sparse-activation and a dense program, in
/// every direction mode.
#[test]
fn structure_is_byte_stable_across_shard_counts() {
    let g = tiny_graph();
    for shards in [1usize, 2, 4] {
        assert_eq!(
            traced_structure(&g, classic(&g), shards, FrontierMode::Auto),
            GOLDEN_CLASSIC_AUTO,
            "classic structure changed at {shards} shards"
        );
        assert_eq!(
            traced_structure(&g, classic(&g), shards, FrontierMode::Push),
            GOLDEN_CLASSIC_PUSH,
            "classic/push structure changed at {shards} shards"
        );
        assert_eq!(
            traced_structure(&g, classic(&g), shards, FrontierMode::Pull),
            GOLDEN_CLASSIC_PULL,
            "classic/pull structure changed at {shards} shards"
        );
        assert_eq!(
            traced_structure(&g, llp(&g), shards, FrontierMode::Auto),
            GOLDEN_LLP,
            "llp structure changed at {shards} shards"
        );
    }
}

/// The dense-then-sparse [`switch_graph`] makes Auto change direction
/// twice in one run: push for the 2-vertex chain waves, pull when the
/// 16-clique flips, push again for the exit chain. The sequence, the
/// labels, and the exported structure are pinned — and byte-stable
/// across 1/2/4 shards.
#[test]
fn auto_switches_push_pull_push_on_the_pinned_graph() {
    let g = switch_graph();
    let (reference_structure, reference) = traced_run(&g, classic(&g), 1, FrontierMode::Auto);
    assert_eq!(
        reference.direction_per_iteration, SWITCH_DIRECTIONS,
        "auto direction sequence drifted from the pinned switch"
    );
    // The switch must be observable in the trace: a pull_gather rebuild
    // in the pull iteration, a pull-tagged dispatch consuming it, and
    // push rebuilds elsewhere.
    assert_eq!(reference_structure.matches("kernel:pull_gather").count(), 1);
    assert_eq!(
        reference_structure
            .matches("dispatch:dispatch:pull")
            .count(),
        1
    );
    assert_eq!(
        reference_structure
            .matches("kernel:frontier_update")
            .count(),
        6
    );

    // Direction choice is driven by exact integer edge counts, so the
    // whole run — labels, per-iteration directions, structure — is
    // byte-stable across shard counts.
    for shards in [2usize, 4] {
        let (structure, report) = traced_run(&g, classic(&g), shards, FrontierMode::Auto);
        assert_eq!(
            report.direction_per_iteration, SWITCH_DIRECTIONS,
            "switch sequence changed at {shards} shards"
        );
        assert_eq!(
            structure, reference_structure,
            "switch structure changed at {shards} shards"
        );
    }

    // And the switch is purely a scheduling decision: dense execution of
    // the same run produces identical labels and convergence traces.
    let mut dense = ClassicLp::with_max_iterations(g.num_vertices(), ITERS);
    let dense_report = GpuEngine::titan_v()
        .run(
            &g,
            &mut dense,
            &RunOptions::default()
                .with_max_iterations(ITERS)
                .with_frontier(FrontierMode::Dense),
        )
        .expect("dense run succeeds");
    let mut auto = ClassicLp::with_max_iterations(g.num_vertices(), ITERS);
    GpuEngine::titan_v()
        .run(
            &g,
            &mut auto,
            &RunOptions::default()
                .with_max_iterations(ITERS)
                .with_frontier(FrontierMode::Auto),
        )
        .expect("auto run succeeds");
    assert_eq!(auto.labels(), dense.labels());
    assert_eq!(
        dense_report.changed_per_iteration,
        reference.changed_per_iteration
    );
}

/// For a program without sparse activation the Auto frontier silently
/// falls back to dense, so Dense and Auto must produce byte-identical
/// structure — at every shard count.
#[test]
fn dense_and_auto_structures_agree_for_non_sparse_programs() {
    let g = tiny_graph();
    assert!(
        !llp(&g).sparse_activation(),
        "golden axis requires a dense-fallback program"
    );
    for shards in [1usize, 2, 4] {
        for mode in [FrontierMode::Dense, FrontierMode::Auto] {
            assert_eq!(
                traced_structure(&g, llp(&g), shards, mode),
                GOLDEN_LLP,
                "llp structure changed under {mode:?} at {shards} shards"
            );
        }
    }
}

/// Tracing must only observe: running with no tracer attached is
/// byte-identical to a traced run — labels, both convergence traces,
/// modeled seconds, snapshot accounting, and the device's kernel log
/// (names and bit-exact charged seconds) all match.
#[test]
fn disabled_tracing_is_byte_identical() {
    let g = tiny_graph();
    let run = |tracer: Option<Tracer>| {
        let mut opts = RunOptions::default().with_max_iterations(ITERS);
        if let Some(t) = tracer {
            opts = opts.with_tracer(t);
        }
        let mut engine = GpuEngine::titan_v();
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), ITERS);
        let report = engine.run(&g, &mut prog, &opts).expect("run succeeds");
        let log: Vec<(&'static str, u64)> = engine
            .device()
            .kernel_log()
            .iter()
            .map(|r| (r.name, r.seconds.to_bits()))
            .collect();
        (prog.labels().to_vec(), report, log)
    };

    let tracer = Tracer::new();
    let (labels_t, report_t, log_t) = run(Some(tracer.clone()));
    let (labels_p, report_p, log_p) = run(None);

    assert!(
        !tracer.finish().events.is_empty(),
        "the traced run actually recorded"
    );
    assert_eq!(labels_t, labels_p, "tracing changed the labels");
    assert_eq!(
        report_t.changed_per_iteration,
        report_p.changed_per_iteration
    );
    assert_eq!(report_t.active_per_iteration, report_p.active_per_iteration);
    assert_eq!(report_t.iterations, report_p.iterations);
    assert_eq!(
        report_t.modeled_seconds.to_bits(),
        report_p.modeled_seconds.to_bits(),
        "tracing changed the modeled clock"
    );
    assert_eq!(report_t.snapshots_taken, report_p.snapshots_taken);
    assert_eq!(log_t, log_p, "tracing changed the kernel log");
    // The profile is filled from the kernel log either way.
    assert_eq!(report_t.kernel_profile.len(), report_p.kernel_profile.len());
    assert_eq!(
        report_t.kernel_profile.total_seconds().to_bits(),
        report_p.kernel_profile.total_seconds().to_bits()
    );
}

/// Simulated time is one timeline, recorded once: with checkpointing on
/// (so `barrier_snapshot` kernels appear), the kernel + transfer span
/// seconds sum to the modeled clock, snapshot spans to `snapshot_seconds`
/// and the kernel profile to the kernel spans — all to 1e-9, with exactly
/// one kernel span per launch — on the in-core GPU engine and on the
/// hybrid engine streaming a graph its device cannot hold. Transfer spans
/// are what extended the clock: all of `transfer_seconds` in core, only
/// the part of it compute did not hide when streaming.
#[test]
fn spans_reconcile_with_the_cost_model_on_gpu_and_hybrid() {
    let g = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 1_500,
        avg_degree: 8.0,
        ..Default::default()
    });
    for (tier, rig) in [("gpu", Rig::Gpu), ("hybrid", Rig::Hybrid)] {
        let mut engine = rig.engine(&g);
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), ITERS);
        let opts = RunOptions::default()
            .with_max_iterations(ITERS)
            .with_barrier_hook(BarrierHook::new(|_| {}));
        let (trace, report) = traced(engine.as_mut(), &g, &mut prog, opts);
        assert!(report.snapshots_taken > 0, "{tier}: no checkpoint taken");

        let kernel_s = trace.category_seconds(Category::Kernel);
        let transfer_s = trace.category_seconds(Category::Transfer);
        let snapshot_s = trace.total_seconds("barrier_snapshot");
        let reconcile = |what: &str, spans: f64, charged: f64| {
            assert!(
                (spans - charged).abs() < 1e-9,
                "{tier}: {what} spans {spans} != charged {charged}"
            );
        };
        reconcile("modeled", kernel_s + transfer_s, report.modeled_seconds);
        reconcile("snapshot", snapshot_s, report.snapshot_seconds);
        reconcile("profile", kernel_s, report.kernel_profile.total_seconds());
        if tier == "gpu" {
            reconcile("transfer", transfer_s, report.transfer_seconds);
        } else {
            assert!(
                transfer_s < report.transfer_seconds,
                "{tier}: streaming hid nothing behind compute"
            );
        }

        let kernel_spans = trace
            .events
            .iter()
            .filter(|e| e.cat == Category::Kernel)
            .count() as u64;
        let launches: u64 = report.kernel_profile.rows().map(|(_, _, r)| r.count).sum();
        assert_eq!(kernel_spans, launches, "{tier}: one kernel span per launch");
    }
}
