//! Criterion benches mirroring every paper experiment at reduced scale, so
//! `cargo bench --workspace` exercises each table/figure end to end. The
//! full tables are `paper_grid`'s (`cargo run -p glp-bench --release --bin
//! paper_grid`, written to `results/`); these track the harness's own
//! performance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glp_bench::workloads::{period2_lattice, period2_window, table4_stream};
use glp_bench::{run_algo, Algo, Approach};
use glp_core::engine::{GpuEngine, HybridEngine, MflStrategy, MultiGpuEngine};
use glp_core::{replay_delta, ClassicLp, Engine, MemoRecorder, RunOptions};
use glp_fraud::{
    FraudPipeline, InHouseLp, IncrementalWindow, PipelineConfig, Transaction, TxConfig, TxStream,
    WindowWorkload,
};
use glp_gpusim::{Device, DeviceConfig};
use glp_graph::datasets::by_name;
use glp_graph::{Graph, GraphBuilder, VertexId};

fn small_graph() -> Graph {
    by_name("dblp").expect("registry").generate_scaled(32)
}

fn bench_table2_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_generation");
    group.sample_size(10);
    for name in ["dblp", "roadNet", "aligraph", "uk-2002"] {
        let spec = by_name(name).expect("registry");
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, spec| {
            b.iter(|| spec.generate_scaled(spec.default_scale * 32));
        });
    }
    group.finish();
}

fn bench_fig4_approaches(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("fig4_classic");
    group.sample_size(10);
    for a in Approach::all() {
        group.bench_with_input(BenchmarkId::from_parameter(a.name()), &a, |b, &a| {
            b.iter(|| run_algo(a, &g, Algo::Classic, 5));
        });
    }
    group.finish();
}

fn bench_fig5_fig6_variants(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("fig5_fig6_variants");
    group.sample_size(10);
    group.bench_function("llp_glp", |b| {
        b.iter(|| run_algo(Approach::Glp, &g, Algo::Llp(16.0), 5))
    });
    group.bench_function("slp_glp", |b| {
        b.iter(|| run_algo(Approach::Glp, &g, Algo::Slp(9), 5))
    });
    group.finish();
}

fn bench_table3_strategies(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("table3_strategies");
    group.sample_size(10);
    for (name, s) in [
        ("global", MflStrategy::Global),
        ("smem", MflStrategy::Smem),
        ("smem_warp", MflStrategy::SmemWarp),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &s, |b, &s| {
            b.iter(|| {
                let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 5);
                let opts = RunOptions::default().with_strategy(s);
                GpuEngine::titan_v().run(&g, &mut prog, &opts)
            });
        });
    }
    group.finish();
}

fn bench_table4_fig7_windows(c: &mut Criterion) {
    let stream = table4_stream(64);
    let mut group = c.benchmark_group("table4_fig7");
    group.sample_size(10);
    group.bench_function("window_build_30d", |b| {
        b.iter(|| WindowWorkload::build(&stream, 30));
    });
    let w = WindowWorkload::build(&stream, 30);
    group.bench_function("glp_hybrid", |b| {
        b.iter(|| {
            let dev = Device::new(DeviceConfig::tiny(1 << 20));
            let mut e = HybridEngine::new(dev);
            let mut p = ClassicLp::with_max_iterations(w.graph.num_vertices(), 5);
            e.run(&w.graph, &mut p, &RunOptions::default())
        });
    });
    group.bench_function("glp_2gpu", |b| {
        b.iter(|| {
            let mut e = MultiGpuEngine::titan_v(2);
            let mut p = ClassicLp::with_max_iterations(w.graph.num_vertices(), 5);
            e.run(&w.graph, &mut p, &RunOptions::default())
        });
    });
    group.bench_function("inhouse", |b| {
        b.iter(|| {
            let mut p = ClassicLp::with_max_iterations(w.graph.num_vertices(), 5);
            InHouseLp::taobao().run(&w.graph, &mut p, &RunOptions::default())
        });
    });
    group.bench_function("full_pipeline", |b| {
        b.iter(|| {
            let pipe = FraudPipeline::new(PipelineConfig {
                window_days: 30,
                lp_iterations: 5,
                ..Default::default()
            });
            pipe.run(&stream, &mut GpuEngine::titan_v(), &RunOptions::default())
        });
    });
    group.finish();
}

/// Window materialization on the committed benchmark's `serve_delta` warm
/// shape (4 000 users, 8 days x 8 000 tx in one window): the full build
/// from the log, and `materialize_delta` after a 64-tx batch — of known
/// users (old ids keep their places) and of never-seen users (every old
/// item id shifts). The batched cases restart from the warm window every
/// 64 steps so the window stays within 6 % of its warm size; that clone
/// and the `apply_batch` are inside the timing (a few µs per step).
fn bench_window_materialize(c: &mut Criterion) {
    const WARM_DAYS: u32 = 8;
    let stream = TxStream::generate(&TxConfig {
        num_users: 4_000,
        num_items: 1_500,
        days: WARM_DAYS + 4,
        tx_per_day: 8_000,
        num_rings: 5,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        seed: 1,
        ..TxConfig::default()
    });
    let cut = stream.transactions.partition_point(|t| t.day < WARM_DAYS);
    let (warm, feed) = stream.transactions.split_at(cut);
    let mut base = IncrementalWindow::empty(WARM_DAYS + 2);
    for chunk in warm.chunks(512) {
        base.apply_batch(chunk);
    }
    base.materialize_delta();
    // The feed re-dated onto the last warm day, as `serve_delta` does.
    let known: Vec<Transaction> = feed
        .iter()
        .map(|t| Transaction {
            day: WARM_DAYS - 1,
            ..*t
        })
        .collect();
    let unseen: Vec<Transaction> = known
        .iter()
        .enumerate()
        .map(|(k, t)| Transaction {
            buyer: 1_000_000 + k as u32,
            ..*t
        })
        .collect();

    let mut group = c.benchmark_group("window_materialize");
    group.sample_size(10);
    group.bench_function("full_build_from_log", |b| b.iter(|| base.materialize()));
    for (name, feed) in [("patch_64tx", &known), ("patch_64tx_new_users", &unseen)] {
        group.bench_function(name, |b| {
            let mut window = base.clone();
            let mut step = 0usize;
            b.iter(|| {
                if step.is_multiple_of(64) {
                    window = base.clone();
                }
                let batch = feed.chunks(64).nth(step % 64).expect("feed of 64 batches");
                step += 1;
                window.apply_batch(batch);
                window.materialize_delta()
            });
        });
    }
    group.finish();
}

/// `g` plus `extra` undirected edges, parallel edges merged.
fn with_edges(g: &Graph, extra: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges() as usize);
    for v in 0..g.num_vertices() as VertexId {
        for &u in g.neighbors(v).iter().filter(|&&u| u < v) {
            b.add_edge(u, v);
        }
    }
    for &(u, v) in extra {
        b.add_edge(u, v);
    }
    b.symmetrize(true).dedup(true);
    b.build()
}

/// The period-2 records' mechanism beside its bypass, on both paths that
/// keep them (20 iterations of `ClassicLp` each). Full path, one
/// `GpuEngine` run: on a user–item window synchronous LP falls into a
/// 2-cycle, and since the window's records fit within its CSR the memo is
/// armed from the first phase, so every iteration from the first repeated
/// input on replays a recorded phase (15 of 20); on a road lattice labels
/// keep sliding, no input repeats and every phase is computed — its records
/// would outweigh its CSR, so that case pays the per-iteration fingerprint
/// and nothing else. Delta
/// path, one `replay_delta` of a 64-edge delta against the memo of the run
/// before it: the window's frontier takes its decisions from the record two
/// back once the labels cycle; the lattice's never can, and pays one
/// compare per iteration.
fn bench_period2(c: &mut Criterion) {
    let (window, lattice) = (period2_window(), period2_lattice());
    let mut group = c.benchmark_group("period2");
    group.sample_size(10);
    for (name, g) in [("bipartite_window", &window), ("road_lattice", &lattice)] {
        let run = || {
            let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 20);
            GpuEngine::titan_v()
                .run(g, &mut prog, &RunOptions::default())
                .expect("healthy device")
        };
        let report = run();
        println!(
            "period2/{name}: {} vertices, {} of {} iterations replayed",
            g.num_vertices(),
            report.replayed_iterations,
            report.iterations
        );
        group.bench_function(name, |b| b.iter(run));
    }
    // 64 "transactions": a user–item edge each on the window (users come
    // first in its id space), a shortcut between nearby vertices each on
    // the lattice.
    let window_delta: Vec<(VertexId, VertexId)> = (0..64)
        .map(|k| (k * 61 % 4_000, 4_000 + k * 23 % 1_500))
        .collect();
    let stride = lattice.num_vertices() as VertexId / 64;
    let lattice_delta: Vec<(VertexId, VertexId)> =
        (0..64).map(|k| (k * stride, k * stride + 2)).collect();
    for (name, g, delta) in [
        ("bipartite_window", &window, &window_delta),
        ("road_lattice", &lattice, &lattice_delta),
    ] {
        let (old, new) = (with_edges(g, &[]), with_edges(g, delta));
        let n = new.num_vertices();
        let recorder = MemoRecorder::new();
        GpuEngine::titan_v()
            .run(
                &old,
                &mut ClassicLp::with_max_iterations(n, 20),
                &RunOptions::default().with_barrier_hook(recorder.hook(n)),
            )
            .expect("healthy device");
        let memo = recorder.into_memo();
        let mut seeds = vec![false; n];
        for &(u, v) in delta {
            seeds[u as usize] = true;
            seeds[v as usize] = true;
        }
        let run = || {
            let mut prog = ClassicLp::with_max_iterations(n, 20);
            replay_delta(&new, &mut prog, &memo, &seeds, 20)
        };
        let replay = run();
        println!(
            "period2/delta_replay/{name}: frontier {} (peak {}), {} of {} iterations taken from the record",
            replay.initial_frontier,
            replay.peak_frontier,
            replay.report.replayed_iterations,
            replay.report.iterations
        );
        group.bench_function(format!("delta_replay/{name}"), |b| b.iter(run));
    }
    group.finish();
}

criterion_group!(
    experiments,
    bench_table2_generation,
    bench_fig4_approaches,
    bench_fig5_fig6_variants,
    bench_table3_strategies,
    bench_table4_fig7_windows,
    bench_window_materialize,
    bench_period2
);
criterion_main!(experiments);
