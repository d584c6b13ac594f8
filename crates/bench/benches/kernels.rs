//! Micro-benches of the substrate primitives behind the kernels: the
//! shared-memory structures of §4.1, the warp intrinsics of §4.2, the two
//! coalescers, the packed-warp kernel and the CMS+HT block kernel — the host cost of the
//! layer every propagation kernel stands on, readable without running the
//! full benchmark — and of the graph construction every input goes through
//! first. Each case is one of the input shapes a host fast path
//! keys on (see DESIGN.md, "Host path of the simulator").

use criterion::{criterion_group, criterion_main, Criterion};
use glp_core::engine::{Buckets, DegreeThresholds, GpuEngine};
use glp_core::{ClassicLp, Engine, LpProgram, MflStrategy, RunOptions, WeightedLp};
use glp_gpusim::warp::{ballot_sync, match_any_sync, popc, WARP_SIZE};
use glp_gpusim::{DeviceConfig, KernelCtx};
use glp_graph::gen::{
    bipartite_interaction, community_powerlaw, road_network, BipartiteConfig,
    CommunityPowerLawConfig, RoadConfig,
};
use glp_graph::{Graph, GraphBuilder, Label, VertexId};
use glp_sketch::{BoundedHashTable, CountMinSketch};
use std::hint::black_box;
use std::sync::Arc;

fn bench_sketches(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketches");
    group.bench_function("cms_add", |b| {
        let mut cms = CountMinSketch::new(4, 2048);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9e37);
            black_box(cms.add(k % 512, 1.0))
        });
    });
    group.bench_function("ht_insert_add", |b| {
        let mut ht = BoundedHashTable::new(1024, 32);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            let r = ht.insert_add(k % 700, 1.0);
            if k.is_multiple_of(700) {
                ht.clear();
            }
            black_box(r)
        });
    });
    group.bench_function("ht_clear_touched", |b| {
        let mut ht = BoundedHashTable::new(4096, 64);
        b.iter(|| {
            for k in 0..256u64 {
                ht.insert_add(k, 1.0);
            }
            ht.clear();
        });
    });
    // What a mid-degree vertex's final scan sees once its neighbours
    // agree: a handful of live keys in a table sized for the worst case.
    group.bench_function("ht_scan_sparse", |b| {
        let mut ht = BoundedHashTable::new(1024, 32);
        for k in [3u64, 141, 592, 653] {
            ht.insert_add(k, 1.0);
        }
        b.iter(|| black_box(black_box(&ht).max_entry()));
    });
    group.finish();
}

fn bench_warp_intrinsics(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_intrinsics");
    let mut vals = [0u64; WARP_SIZE];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = (i % 7) as u64;
    }
    let preds = [true; WARP_SIZE];
    group.bench_function("ballot_sync", |b| {
        b.iter(|| black_box(ballot_sync(u32::MAX, black_box(&preds))));
    });
    group.bench_function("match_any_sync", |b| {
        b.iter(|| black_box(match_any_sync(u32::MAX, black_box(&vals))));
    });
    group.bench_function("popc", |b| {
        b.iter(|| black_box(popc(black_box(0xdead_beef))));
    });
    group.finish();
}

/// Element index of lane `i` in one lane shape of a 4-byte array.
type LaneIndex = fn(u32) -> u32;

/// Lane shapes of one warp-wide access to a 4-byte array.
const LANE_SHAPES: [(&str, LaneIndex); 3] = [
    // A CSR target run: consecutive elements.
    ("monotone", |i| i),
    // Label gather of a packed warp on a lattice: unsorted lanes inside
    // a window of a few KiB.
    ("windowed", |i| (i * 37) % 29 + (i % 4) * 300),
    // Label gather of a power-law hub: lanes all over the array.
    ("scattered", |i| {
        ((u64::from(i) * 0x9e37_79b9) % 1_000_003) as u32
    }),
];

/// One warp-wide `global_read` (byte addresses) and one `global_gather`
/// (element indices) per iteration, by lane shape.
fn bench_coalescing(c: &mut Criterion) {
    let cfg = DeviceConfig::titan_v();
    let mut group = c.benchmark_group("global_read");
    for (name, index_of) in LANE_SHAPES {
        let addrs: Vec<u64> = (0..WARP_SIZE as u32)
            .map(|i| 0x1_0000_0000 + u64::from(index_of(i)) * 4)
            .collect();
        group.bench_function(name, |b| {
            let mut ctx = KernelCtx::shard(&cfg);
            b.iter(|| ctx.global_read(black_box(&addrs)));
            black_box(ctx.counters.global_read_sectors);
        });
    }
    group.finish();
    let mut group = c.benchmark_group("global_gather");
    for (name, index_of) in LANE_SHAPES {
        let indices: Vec<u32> = (0..WARP_SIZE as u32).map(index_of).collect();
        group.bench_function(name, |b| {
            let mut ctx = KernelCtx::shard(&cfg);
            b.iter(|| ctx.global_gather(black_box(&indices)));
            black_box(ctx.counters.global_read_sectors);
        });
    }
    // A sorted neighbour chunk of the block kernel: one block's worth of
    // ascending ids, counted in one call where the rows above take eight.
    let sorted_list: Vec<u32> = (0..256).map(|i| 400 + i * 3 / 2).collect();
    group.bench_function("sorted_list", |b| {
        let mut ctx = KernelCtx::shard(&cfg);
        b.iter(|| ctx.global_gather_list(black_box(&sorted_list)));
        black_box(ctx.counters.global_read_sectors);
    });
    group.finish();
}

/// One `GpuEngine` iteration with the degree thresholds at 0, so every
/// vertex is a block of the CMS+HT kernel, on two graphs of
/// `tests/host_path_identity.rs` and a denser power-law one, from the label
/// states its run walk tells apart: converged (long runs of equal neighbour
/// labels), mid-run on short lists and on hub-sized ones, and fresh (runs
/// only where an edge repeats). Prints each case's census — blocks,
/// lanes, label runs, share of lanes in runs of 16 or more — so the time
/// reads as ns per lane beside the shape that explains it.
fn bench_block_cms_ht(c: &mut Criterion) {
    let bipartite = bipartite_interaction(&BipartiteConfig {
        num_users: 60,
        num_items: 30,
        num_interactions: 6_000,
        skew: 0.6,
        seed: 11,
    });
    let powerlaw = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 2_500,
        avg_degree: 12.0,
        seed: 13,
        ..Default::default()
    });
    // Hub-sized lists (a hundred lanes and up) whose labels are half-way
    // to converged: where a wrong guess between the two insert loops costs
    // most, and what told a gate on the previous chunk from one on the
    // chunk's own first lanes.
    let hubs = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 1_500,
        avg_degree: 150.0,
        seed: 13,
        ..Default::default()
    });
    let opts = RunOptions::default()
        .with_strategy(MflStrategy::SmemWarp)
        .with_thresholds(DegreeThresholds { low: 0, high: 0 })
        .with_shards(1);
    let labels_after = |g: &Graph, iterations: u32| -> Vec<Label> {
        let mut prog = ClassicLp::new(g.num_vertices());
        GpuEngine::titan_v()
            .run(g, &mut prog, &opts.clone().with_max_iterations(iterations))
            .expect("healthy device");
        prog.labels().to_vec()
    };
    let cases: [(&str, &Graph, Vec<Label>); 4] = [
        ("concentrated", &bipartite, labels_after(&bipartite, 8)),
        ("mixed", &powerlaw, labels_after(&powerlaw, 2)),
        ("hubs", &hubs, labels_after(&hubs, 3)),
        ("diverse", &bipartite, labels_after(&bipartite, 0)),
    ];
    let block_threads = DeviceConfig::titan_v().threads_per_block as usize;
    let opts = opts.with_max_iterations(1);
    let mut group = c.benchmark_group("block_cms_ht");
    for (name, g, labels) in cases {
        let blocks = Buckets::build(g, opts.strategy, opts.thresholds).block_per_vertex;
        let (mut lanes, mut runs, mut long) = (0u64, 0u64, 0u64);
        for &v in &blocks {
            for chunk in g.incoming().neighbors(v).chunks(block_threads) {
                lanes += chunk.len() as u64;
                for run in chunk.chunk_by(|&a, &b| labels[a as usize] == labels[b as usize]) {
                    runs += 1;
                    long += if run.len() >= 16 { run.len() as u64 } else { 0 };
                }
            }
        }
        println!(
            "block_cms_ht/{name}: {} blocks, {lanes} lanes in {runs} runs per iteration, {:.0} % of lanes in runs >= 16",
            blocks.len(),
            100.0 * long as f64 / lanes.max(1) as f64
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut prog = ClassicLp::from_labels(labels.clone(), 1);
                let report = GpuEngine::titan_v().run(g, &mut prog, &opts);
                black_box(report.expect("healthy device").modeled_seconds)
            });
        });
    }
    group.finish();
}

/// `GpuEngine` runs under `MflStrategy::SmemWarp` on two graphs of
/// `tests/host_path_identity.rs`: runs of at most four lanes (lattice), runs
/// of up to 31 lanes beside mid- and high-degree vertices (power law), and
/// the non-uniform-weight branch. Each case runs one iteration, which prices
/// every schedule, and twenty (`_x20`), where an iteration that schedules
/// the vertex lists an earlier one priced is charged from the run's schedule
/// ledger. Prints each case's packed lane count, so the time reads as ns per
/// lane, how many of its packed runs have at most four lanes — the runs the
/// kernel decides in a fixed-width window rather than by a scan — and how
/// many of its propagation launches priced their schedule.
fn bench_packed_warp(c: &mut Criterion) {
    let lattice = road_network(&RoadConfig {
        width: 40,
        height: 40,
        keep: 0.7,
        seed: 7,
    });
    let powerlaw = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 2_500,
        avg_degree: 12.0,
        seed: 13,
        ..Default::default()
    });
    let weights: Arc<Vec<f32>> = Arc::new(
        (0..lattice.num_edges())
            .map(|e| 0.5 + (e % 7) as f32)
            .collect(),
    );
    type Program = Box<dyn Fn(u32) -> Box<dyn LpProgram>>;
    let classic = |n: usize| -> Program {
        Box::new(move |iterations| Box::new(ClassicLp::with_max_iterations(n, iterations)))
    };
    let n = lattice.num_vertices();
    let cases: [(&str, &Graph, Program); 3] = [
        ("lattice", &lattice, classic(n)),
        ("powerlaw", &powerlaw, classic(powerlaw.num_vertices())),
        (
            "weighted",
            &lattice,
            Box::new(move |iterations| Box::new(WeightedLp::new(n, weights.clone(), iterations))),
        ),
    ];
    let opts = RunOptions::default()
        .with_strategy(MflStrategy::SmemWarp)
        .with_shards(1);
    let mut group = c.benchmark_group("packed_warp");
    for (iterations, suffix) in [(1, ""), (20, "_x20")] {
        let opts = opts.clone().with_max_iterations(iterations);
        for (name, g, program) in &cases {
            let buckets = Buckets::build(g, opts.strategy, DegreeThresholds::default());
            let lanes: u64 = buckets
                .warp_packed
                .iter()
                .map(|&v| u64::from(g.degree(v)))
                .sum();
            let runs = buckets.warp_packed.len();
            let windowed = buckets
                .warp_packed
                .iter()
                .filter(|&&v| g.degree(v) <= 4)
                .count();
            let report = GpuEngine::titan_v()
                .run(g, program(iterations).as_mut(), &opts)
                .expect("healthy device");
            let launches: u64 = report
                .kernel_profile
                .rows()
                .filter(|(_, kernel, _)| kernel.starts_with("lp_"))
                .map(|(_, _, row)| row.count)
                .sum();
            println!(
                "packed_warp/{name}{suffix}: {lanes} packed lanes per iteration, {windowed} of {runs} runs windowed (at most 4 lanes), {} of {launches} propagation launches priced",
                report.priced_launches
            );
            group.bench_function(format!("{name}{suffix}"), |b| {
                b.iter(|| {
                    let mut prog = program(iterations);
                    let report = GpuEngine::titan_v().run(g, prog.as_mut(), &opts);
                    black_box(report.expect("healthy device").modeled_seconds)
                });
            });
        }
    }
    group.finish();
}

/// Graph construction: the two generators behind the benchmark's
/// power-law and interaction inputs (twitter's average degree at 5 000
/// vertices; aligraph's density at 300), and `GraphBuilder::build` alone on
/// a fixed, scrambled list of the power-law graph's pairs (each iteration
/// clones the staged list, then symmetrizes it into a CSR).
fn bench_graph_build(c: &mut Criterion) {
    let social = CommunityPowerLawConfig {
        num_vertices: 5_000,
        avg_degree: 35.0,
        gamma: 2.3,
        num_communities: 33,
        mixing: 0.08,
        seed: 17,
    };
    let interaction = BipartiteConfig {
        num_users: 200,
        num_items: 100,
        num_interactions: 60_000,
        skew: 0.6,
        seed: 17,
    };
    let g = community_powerlaw(&social);
    let mut pairs: Vec<(VertexId, VertexId)> = (0..g.num_vertices() as VertexId)
        .flat_map(|v| {
            g.neighbors(v)
                .iter()
                .filter(move |&&u| u < v)
                .map(move |&u| (u, v))
        })
        .collect();
    // A fixed scramble, so the list arrives in no particular order.
    let m = pairs.len();
    for i in 0..m {
        pairs.swap(i, (i * 7_919 + 13) % m);
    }
    let mut staged = GraphBuilder::with_capacity(g.num_vertices(), m);
    staged.extend_edges(pairs).symmetrize(true);
    println!(
        "graph_build/builder: {m} pairs into {} stored edges over {} vertices",
        g.num_edges(),
        g.num_vertices()
    );
    let mut group = c.benchmark_group("graph_build");
    group.bench_function("community_powerlaw", |b| {
        b.iter(|| black_box(community_powerlaw(&social).num_edges()));
    });
    group.bench_function("bipartite_interaction", |b| {
        b.iter(|| black_box(bipartite_interaction(&interaction).num_edges()));
    });
    group.bench_function("builder", |b| {
        b.iter(|| black_box(staged.clone().build().num_edges()));
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_graph_build,
    bench_sketches,
    bench_warp_intrinsics,
    bench_coalescing,
    bench_packed_warp,
    bench_block_cms_ht
);
criterion_main!(kernels);
