//! Host-path identity pin: the simulator's host execution may be made
//! faster, but it may never change a decision or a charged count.
//!
//! Every row of [`EXPECTED`] was captured at the commit *before* the
//! propagation kernels were rewritten for host speed (monomorphic
//! programs, O(occupied) table scans, O(n) warp intrinsics, sort-free
//! coalescing) and must keep passing unchanged after any further
//! host-side shortcut: labels, the per-iteration changed-trace, the bits
//! of the modeled clock and every field of the counter block.
//!
//! The matrix is `MflStrategy::{Global, Smem, SmemWarp}` ×
//! `FrontierMode::{Dense, Auto}` × three programs × three graphs × 1 and
//! 3 harness shards. `WeightedLp` carries non-uniform weights, so the
//! shuffle-reduction branch of the packed kernel runs; `MixLp` is a
//! program defined in `glp-test-support`, outside `glp-core`, that
//! implements only the documented Table 1 callbacks — it reaches the
//! kernels through the same default hook every out-of-crate program gets.

use glp_suite::core::engine::GpuEngine;
use glp_suite::core::{
    ClassicLp, Engine, FrontierMode, LpProgram, MflStrategy, RunOptions, WeightedLp,
};
use glp_suite::gpusim::KernelCounters;
use glp_suite::graph::gen::{
    bipartite_interaction, community_powerlaw, road_network, BipartiteConfig,
    CommunityPowerLawConfig, RoadConfig,
};
use glp_suite::graph::{Graph, Label};
use glp_test_support::MixLp;
use std::sync::Arc;

const ITERS: u32 = 8;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "road",
            road_network(&RoadConfig {
                width: 40,
                height: 40,
                keep: 0.7,
                seed: 7,
            }),
        ),
        (
            "bipartite",
            bipartite_interaction(&BipartiteConfig {
                num_users: 60,
                num_items: 30,
                num_interactions: 6_000,
                skew: 0.6,
                seed: 11,
            }),
        ),
        (
            "powerlaw",
            community_powerlaw(&CommunityPowerLawConfig {
                num_vertices: 2_500,
                avg_degree: 12.0,
                seed: 13,
                ..Default::default()
            }),
        ),
    ]
}

fn programs(g: &Graph) -> Vec<(&'static str, Box<dyn LpProgram>)> {
    let n = g.num_vertices();
    let weights: Arc<Vec<f32>> =
        Arc::new((0..g.num_edges()).map(|e| 0.5 + (e % 7) as f32).collect());
    vec![
        (
            "classic",
            Box::new(ClassicLp::with_max_iterations(n, ITERS)),
        ),
        (
            "weighted",
            Box::new(WeightedLp::new(n, weights, ITERS).with_retention(6.0)),
        ),
        (
            "mix",
            Box::new(MixLp {
                labels: (0..n as Label).collect(),
            }),
        ),
    ]
}

fn fnv(labels: &[Label]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| {
        (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every counter, in declaration order. The exhaustive destructuring makes
/// a new field a compile error here instead of a silently unpinned count.
fn counter_block(c: &KernelCounters) -> [u64; 13] {
    let KernelCounters {
        global_read_sectors,
        global_write_sectors,
        global_atomics,
        global_atomic_conflicts,
        shared_accesses,
        shared_bank_conflicts,
        shared_atomics,
        alu_instructions,
        warp_intrinsics,
        block_reductions,
        warps_launched,
        lanes_active,
        kernel_launches,
    } = *c;
    [
        global_read_sectors,
        global_write_sectors,
        global_atomics,
        global_atomic_conflicts,
        shared_accesses,
        shared_bank_conflicts,
        shared_atomics,
        alu_instructions,
        warp_intrinsics,
        block_reductions,
        warps_launched,
        lanes_active,
        kernel_launches,
    ]
}

/// One run, rendered as the source text of its [`EXPECTED`] row.
fn observe() -> Vec<String> {
    let mut rows = Vec::new();
    for (gname, g) in graphs() {
        for strategy in [
            MflStrategy::Global,
            MflStrategy::Smem,
            MflStrategy::SmemWarp,
        ] {
            for mode in [FrontierMode::Dense, FrontierMode::Auto] {
                for shards in [1usize, 3] {
                    for (pname, mut prog) in programs(&g) {
                        // A 16-slot HT with a 4-slot probe budget makes the
                        // high-degree vertices overflow into the CMS and
                        // take the global fallback.
                        let opts = RunOptions {
                            ht_slots: 16,
                            ht_probe_limit: 4,
                            cms_width: 64,
                            ..RunOptions::default()
                        }
                        .with_max_iterations(ITERS)
                        .with_strategy(strategy)
                        .with_frontier(mode)
                        .with_shards(shards);
                        let report = GpuEngine::titan_v()
                            .run(&g, prog.as_mut(), &opts)
                            .expect("fault-free run");
                        rows.push(render(
                            &format!("{gname}/{strategy:?}/{mode:?}/{shards}/{pname}"),
                            fnv(prog.labels()),
                            &report.changed_per_iteration,
                            report.modeled_seconds.to_bits(),
                            &counter_block(&report.gpu_counters),
                        ));
                    }
                }
            }
        }
    }
    rows
}

/// `(case, fnv(labels), changed_per_iteration, modeled_seconds bits,
/// counter block)`.
type Row = (&'static str, u64, &'static [u64], u64, [u64; 13]);

/// A row as the source text of its [`EXPECTED`] entry.
fn render(case: &str, labels: u64, changed: &[u64], modeled: u64, counters: &[u64; 13]) -> String {
    format!("(\"{case}\", {labels:#x}, &{changed:?}, {modeled:#x}, {counters:?}),")
}

#[test]
fn decisions_and_charges_match_the_parent_commit() {
    let got = observe();
    let want: Vec<String> = EXPECTED
        .iter()
        .map(|(case, labels, changed, modeled, counters)| {
            render(case, *labels, changed, *modeled, counters)
        })
        .collect();
    let moved: Vec<&str> = got
        .iter()
        .enumerate()
        .filter(|&(i, g)| want.get(i) != Some(g))
        .map(|(_, g)| g.as_str())
        .collect();
    assert!(
        moved.is_empty() && got.len() == want.len(),
        "{} of {} cases moved ({} pinned); observed rows:\n{}",
        moved.len(),
        got.len(),
        want.len(),
        moved.join("\n")
    );
}

#[test]
fn the_matrix_reaches_every_kernel_and_the_fallback() {
    // The pin is only worth its rows if the inputs drive every path: all
    // four kernels launch, the CMS overflows into the global fallback, and
    // the weighted programs differ from classic LP.
    let rows: Vec<&Row> = EXPECTED.iter().collect();
    let find = |case: &str| rows.iter().find(|r| r.0 == case).expect(case);
    // Counter block indices: 2 = global atomics (under SmemWarp only the
    // block kernel's fallback issues them), 6 = shared atomics (mid and
    // block kernels), 8 = warp intrinsics (packed kernel).
    assert!(
        find("powerlaw/SmemWarp/Dense/1/classic").4[2] > 0,
        "no fallback"
    );
    assert!(
        find("bipartite/SmemWarp/Dense/1/classic").4[6] > 0,
        "no CMS+HT"
    );
    assert!(find("road/SmemWarp/Dense/1/classic").4[8] > 0, "no packing");
    assert_ne!(
        find("powerlaw/SmemWarp/Auto/1/classic").1,
        find("powerlaw/SmemWarp/Auto/1/weighted").1
    );
    assert_ne!(
        find("powerlaw/SmemWarp/Auto/1/classic").1,
        find("powerlaw/SmemWarp/Auto/1/mix").1
    );
}

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("road/Global/Dense/1/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b270f4d39ae6, [109200, 73040, 34992, 11462, 0, 0, 0, 79286, 63320, 0, 13464, 60592, 24]),
    ("road/Global/Dense/1/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b0eddf57543b, [109200, 73040, 34992, 10846, 0, 0, 0, 81120, 63320, 0, 13464, 60592, 24]),
    ("road/Global/Dense/1/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20a59b4e6e6be2, [109200, 73040, 34992, 6555, 0, 0, 0, 91636, 63320, 0, 13464, 60592, 24]),
    ("road/Global/Dense/3/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b27e6e465b05, [109216, 73056, 34992, 11462, 0, 0, 0, 79302, 63320, 0, 13472, 60592, 24]),
    ("road/Global/Dense/3/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b0fb58ca145a, [109216, 73056, 34992, 10846, 0, 0, 0, 81136, 63320, 0, 13472, 60592, 24]),
    ("road/Global/Dense/3/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20a5a8c7e12c01, [109216, 73056, 34992, 6555, 0, 0, 0, 91652, 63320, 0, 13472, 60592, 24]),
    ("road/Global/Auto/1/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2923370edd0fbb, [115640, 74680, 34992, 11462, 0, 0, 0, 82870, 63320, 56, 14664, 98992, 40]),
    ("road/Global/Auto/1/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2921b3f960c910, [115640, 74680, 34992, 10846, 0, 0, 0, 84704, 63320, 56, 14664, 98992, 40]),
    ("road/Global/Auto/1/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2916616877e0b8, [115640, 74680, 34992, 6555, 0, 0, 0, 95220, 63320, 56, 14664, 98992, 40]),
    ("road/Global/Auto/3/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f292344884fcfd9, [115656, 74696, 34992, 11462, 0, 0, 0, 82886, 63320, 56, 14672, 98992, 40]),
    ("road/Global/Auto/3/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2921c172d3892f, [115656, 74696, 34992, 10846, 0, 0, 0, 84720, 63320, 56, 14672, 98992, 40]),
    ("road/Global/Auto/3/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f29166ee1eaa0d7, [115656, 74696, 34992, 6555, 0, 0, 0, 95236, 63320, 56, 14672, 98992, 40]),
    ("road/Smem/Dense/1/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b270f4d39ae6, [109200, 73040, 34992, 11462, 0, 0, 0, 79286, 63320, 0, 13464, 60592, 24]),
    ("road/Smem/Dense/1/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b0eddf57543b, [109200, 73040, 34992, 10846, 0, 0, 0, 81120, 63320, 0, 13464, 60592, 24]),
    ("road/Smem/Dense/1/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20a59b4e6e6be2, [109200, 73040, 34992, 6555, 0, 0, 0, 91636, 63320, 0, 13464, 60592, 24]),
    ("road/Smem/Dense/3/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b27e6e465b05, [109216, 73056, 34992, 11462, 0, 0, 0, 79302, 63320, 0, 13472, 60592, 24]),
    ("road/Smem/Dense/3/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20b0fb58ca145a, [109216, 73056, 34992, 10846, 0, 0, 0, 81136, 63320, 0, 13472, 60592, 24]),
    ("road/Smem/Dense/3/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f20a5a8c7e12c01, [109216, 73056, 34992, 6555, 0, 0, 0, 91652, 63320, 0, 13472, 60592, 24]),
    ("road/Smem/Auto/1/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2923370edd0fbb, [115640, 74680, 34992, 11462, 0, 0, 0, 82870, 63320, 56, 14664, 98992, 40]),
    ("road/Smem/Auto/1/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2921b3f960c910, [115640, 74680, 34992, 10846, 0, 0, 0, 84704, 63320, 56, 14664, 98992, 40]),
    ("road/Smem/Auto/1/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2916616877e0b8, [115640, 74680, 34992, 6555, 0, 0, 0, 95220, 63320, 56, 14664, 98992, 40]),
    ("road/Smem/Auto/3/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f292344884fcfd9, [115656, 74696, 34992, 11462, 0, 0, 0, 82886, 63320, 56, 14672, 98992, 40]),
    ("road/Smem/Auto/3/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f2921c172d3892f, [115656, 74696, 34992, 10846, 0, 0, 0, 84720, 63320, 56, 14672, 98992, 40]),
    ("road/Smem/Auto/3/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f29166ee1eaa0d7, [115656, 74696, 34992, 6555, 0, 0, 0, 95236, 63320, 56, 14672, 98992, 40]),
    ("road/SmemWarp/Dense/1/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f1b02707e4def5a, [19400, 7280, 0, 0, 0, 0, 0, 6144, 29872, 0, 1936, 60592, 24]),
    ("road/SmemWarp/Dense/1/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f1b02707e4def5a, [19400, 7280, 0, 0, 0, 0, 0, 6144, 34416, 0, 1936, 60592, 24]),
    ("road/SmemWarp/Dense/1/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f1b02707e4def5a, [19400, 7280, 0, 0, 0, 0, 0, 6144, 34416, 0, 1936, 60592, 24]),
    ("road/SmemWarp/Dense/3/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f1b027df7c0af78, [19416, 7280, 0, 0, 0, 0, 0, 6160, 29872, 0, 1944, 60592, 24]),
    ("road/SmemWarp/Dense/3/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f1b027df7c0af78, [19416, 7280, 0, 0, 0, 0, 0, 6160, 34416, 0, 1944, 60592, 24]),
    ("road/SmemWarp/Dense/3/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f1b027df7c0af78, [19416, 7280, 0, 0, 0, 0, 0, 6160, 34416, 0, 1944, 60592, 24]),
    ("road/SmemWarp/Auto/1/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f25f1fe59306c80, [25840, 8920, 0, 0, 0, 0, 0, 9728, 29872, 56, 3136, 98992, 40]),
    ("road/SmemWarp/Auto/1/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f25f1fe59306c80, [25840, 8920, 0, 0, 0, 0, 0, 9728, 34416, 56, 3136, 98992, 40]),
    ("road/SmemWarp/Auto/1/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f25f1fe59306c80, [25840, 8920, 0, 0, 0, 0, 0, 9728, 34416, 56, 3136, 98992, 40]),
    ("road/SmemWarp/Auto/3/classic", 0x802f7911a9c3713, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f25f20515e9cc91, [25856, 8920, 0, 0, 0, 0, 0, 9744, 29872, 56, 3144, 98992, 40]),
    ("road/SmemWarp/Auto/3/weighted", 0xcd78608c801d85d0, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f25f20515e9cc91, [25856, 8920, 0, 0, 0, 0, 0, 9744, 34416, 56, 3144, 98992, 40]),
    ("road/SmemWarp/Auto/3/mix", 0x26c54b1444b8906b, &[1583, 1583, 1583, 1583, 1583, 1583, 1583, 1583], 0x3f25f20515e9cc91, [25856, 8920, 0, 0, 0, 0, 0, 9744, 34416, 56, 3144, 98992, 40]),
    ("bipartite/Global/Dense/1/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f26415adebe5c65, [92448, 71624, 96000, 89276, 0, 0, 0, 14660, 3600, 0, 768, 24480, 24]),
    ("bipartite/Global/Dense/1/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f264138b076abd7, [92448, 71624, 96000, 89228, 0, 0, 0, 14758, 3600, 0, 768, 24480, 24]),
    ("bipartite/Global/Dense/1/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2638b587c05cd9, [92448, 71624, 96000, 86634, 0, 0, 0, 16344, 3600, 0, 768, 24480, 24]),
    ("bipartite/Global/Dense/3/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f26416858311c83, [92464, 71640, 96000, 89276, 0, 0, 0, 14660, 3600, 0, 768, 24480, 24]),
    ("bipartite/Global/Dense/3/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f26414629e96bf7, [92464, 71640, 96000, 89228, 0, 0, 0, 14758, 3600, 0, 768, 24480, 24]),
    ("bipartite/Global/Dense/3/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2638c301331cf8, [92464, 71640, 96000, 86634, 0, 0, 0, 16344, 3600, 0, 768, 24480, 24]),
    ("bipartite/Global/Auto/1/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2ea5a7898bf505, [92840, 71728, 96000, 89276, 0, 0, 0, 14860, 3600, 8, 840, 26640, 40]),
    ("bipartite/Global/Auto/1/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2ea5855b444477, [92840, 71728, 96000, 89228, 0, 0, 0, 14958, 3600, 8, 840, 26640, 40]),
    ("bipartite/Global/Auto/1/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2e9d02328df579, [92840, 71728, 96000, 86634, 0, 0, 0, 16544, 3600, 8, 840, 26640, 40]),
    ("bipartite/Global/Auto/3/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2ea5b502feb523, [92856, 71744, 96000, 89276, 0, 0, 0, 14860, 3600, 8, 840, 26640, 40]),
    ("bipartite/Global/Auto/3/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2ea592d4b70495, [92856, 71744, 96000, 89228, 0, 0, 0, 14958, 3600, 8, 840, 26640, 40]),
    ("bipartite/Global/Auto/3/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2e9d0fac00b598, [92856, 71744, 96000, 86634, 0, 0, 0, 16544, 3600, 8, 840, 26640, 40]),
    ("bipartite/Smem/Dense/1/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f25216e12b10b7e, [45224, 25472, 35688, 32562, 0, 12058, 69441, 9482, 2360, 496, 2504, 65616, 32]),
    ("bipartite/Smem/Dense/1/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f252168867d3331, [45224, 25472, 35688, 32546, 0, 12058, 69441, 9580, 2360, 496, 2504, 65616, 32]),
    ("bipartite/Smem/Dense/1/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f251e4f1e9f508f, [45224, 25472, 35688, 31267, 0, 14395, 69441, 11166, 2360, 496, 2504, 65616, 32]),
    ("bipartite/Smem/Dense/3/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f25217b8c23cb9c, [45240, 25488, 35688, 32562, 0, 12058, 69441, 9482, 2360, 496, 2504, 65616, 32]),
    ("bipartite/Smem/Dense/3/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f252175ffeff34f, [45240, 25488, 35688, 32546, 0, 12058, 69441, 9580, 2360, 496, 2504, 65616, 32]),
    ("bipartite/Smem/Dense/3/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f251e5c981210ae, [45240, 25488, 35688, 31267, 0, 14395, 69441, 11166, 2360, 496, 2504, 65616, 32]),
    ("bipartite/Smem/Auto/1/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2d85babd7ea41c, [45616, 25576, 35688, 32562, 0, 12058, 69441, 9682, 2360, 504, 2576, 67776, 48]),
    ("bipartite/Smem/Auto/1/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2d85b5314acbcf, [45616, 25576, 35688, 32546, 0, 12058, 69441, 9780, 2360, 504, 2576, 67776, 48]),
    ("bipartite/Smem/Auto/1/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2d829bc96ce92f, [45616, 25576, 35688, 31267, 0, 14395, 69441, 11366, 2360, 504, 2576, 67776, 48]),
    ("bipartite/Smem/Auto/3/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2d85c836f1643a, [45632, 25592, 35688, 32562, 0, 12058, 69441, 9682, 2360, 504, 2576, 67776, 48]),
    ("bipartite/Smem/Auto/3/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2d85c2aabd8bee, [45632, 25592, 35688, 32546, 0, 12058, 69441, 9780, 2360, 504, 2576, 67776, 48]),
    ("bipartite/Smem/Auto/3/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2d82a942dfa94e, [45632, 25592, 35688, 31267, 0, 14395, 69441, 11366, 2360, 504, 2576, 67776, 48]),
    ("bipartite/SmemWarp/Dense/1/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f21f666b377a085, [20664, 912, 0, 0, 3776, 12058, 105129, 9482, 2360, 496, 2504, 65616, 32]),
    ("bipartite/SmemWarp/Dense/1/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f21f66f784db459, [20664, 912, 0, 0, 3776, 12058, 105129, 9580, 2360, 496, 2504, 65616, 32]),
    ("bipartite/SmemWarp/Dense/1/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f21f7ce7e78fd11, [20664, 912, 0, 0, 3776, 14395, 105129, 11166, 2360, 496, 2504, 65616, 32]),
    ("bipartite/SmemWarp/Dense/3/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f21f6742cea60a2, [20680, 928, 0, 0, 3776, 12058, 105129, 9482, 2360, 496, 2504, 65616, 32]),
    ("bipartite/SmemWarp/Dense/3/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f21f67cf1c07476, [20680, 928, 0, 0, 3776, 12058, 105129, 9580, 2360, 496, 2504, 65616, 32]),
    ("bipartite/SmemWarp/Dense/3/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f21f7dbf7ebbd30, [20680, 928, 0, 0, 3776, 14395, 105129, 11166, 2360, 496, 2504, 65616, 32]),
    ("bipartite/SmemWarp/Auto/1/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2a5ab35e453924, [21056, 1016, 0, 0, 3776, 12058, 105129, 9682, 2360, 504, 2576, 67776, 48]),
    ("bipartite/SmemWarp/Auto/1/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2a5abc231b4cf8, [21056, 1016, 0, 0, 3776, 12058, 105129, 9780, 2360, 504, 2576, 67776, 48]),
    ("bipartite/SmemWarp/Auto/1/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2a5c1b294695b0, [21056, 1016, 0, 0, 3776, 14395, 105129, 11366, 2360, 504, 2576, 67776, 48]),
    ("bipartite/SmemWarp/Auto/3/classic", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2a5ac0d7b7f943, [21072, 1032, 0, 0, 3776, 12058, 105129, 9682, 2360, 504, 2576, 67776, 48]),
    ("bipartite/SmemWarp/Auto/3/weighted", 0xbc6f4779e46756d5, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2a5ac99c8e0d17, [21072, 1032, 0, 0, 3776, 12058, 105129, 9780, 2360, 504, 2576, 67776, 48]),
    ("bipartite/SmemWarp/Auto/3/mix", 0x88542a6e1b0eb8f7, &[90, 90, 90, 90, 90, 90, 90, 90], 0x3f2a5c28a2b955d0, [21072, 1032, 0, 0, 3776, 14395, 105129, 11366, 2360, 504, 2576, 67776, 48]),
    ("powerlaw/Global/Dense/1/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f326661809b3daa, [466792, 207656, 236672, 144648, 0, 0, 0, 235408, 99960, 0, 21256, 245048, 24]),
    ("powerlaw/Global/Dense/1/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f323c8d9cadeddc, [466792, 207656, 236672, 114394, 0, 0, 0, 298608, 99960, 0, 21256, 245048, 24]),
    ("powerlaw/Global/Dense/1/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f32460663b677e5, [466792, 207656, 236672, 120967, 0, 0, 0, 287076, 99960, 0, 21256, 245048, 24]),
    ("powerlaw/Global/Dense/3/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f3266683d549dba, [466808, 207672, 236672, 144648, 0, 0, 0, 235424, 99960, 0, 21264, 245048, 24]),
    ("powerlaw/Global/Dense/3/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f323c9459674deb, [466808, 207672, 236672, 114394, 0, 0, 0, 298624, 99960, 0, 21264, 245048, 24]),
    ("powerlaw/Global/Dense/3/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f32460d206fd7f4, [466808, 207672, 236672, 120967, 0, 0, 0, 287092, 99960, 0, 21264, 245048, 24]),
    ("powerlaw/Global/Auto/1/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f33216c5fce1a54, [331681, 146465, 162614, 86862, 0, 0, 0, 191977, 61500, 80, 15460, 234377, 40]),
    ("powerlaw/Global/Auto/1/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f34f5ad68ab6216, [412645, 186025, 204127, 91160, 0, 0, 0, 276962, 79300, 80, 19020, 272914, 40]),
    ("powerlaw/Global/Auto/1/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f35b34fec9ae6eb, [446997, 193808, 219434, 107060, 0, 0, 0, 282825, 89285, 80, 21017, 287955, 40]),
    ("powerlaw/Global/Auto/3/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f3321731c877a63, [331697, 146481, 162614, 86862, 0, 0, 0, 191993, 61500, 80, 15468, 234377, 40]),
    ("powerlaw/Global/Auto/3/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f34f5b42564c225, [412661, 186041, 204127, 91160, 0, 0, 0, 276978, 79300, 80, 19028, 272914, 40]),
    ("powerlaw/Global/Auto/3/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f35b356a95446fa, [447013, 193824, 219434, 107060, 0, 0, 0, 282841, 89285, 80, 21025, 287955, 40]),
    ("powerlaw/Smem/Dense/1/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f33e77792d376a9, [451928, 193272, 221581, 134609, 0, 15775, 30930, 231324, 99560, 170, 21816, 256928, 32]),
    ("powerlaw/Smem/Dense/1/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f33ce0d19ca06a4, [451928, 193272, 222162, 107007, 0, 23028, 37893, 291900, 99560, 173, 21816, 256928, 32]),
    ("powerlaw/Smem/Dense/1/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f33d50afbce8a01, [451928, 193272, 222364, 112200, 0, 20837, 34968, 281716, 99560, 175, 21816, 256928, 32]),
    ("powerlaw/Smem/Dense/3/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f33e77f349d757a, [451944, 193288, 221581, 134611, 0, 15775, 30930, 231340, 99560, 170, 21824, 256928, 32]),
    ("powerlaw/Smem/Dense/3/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f33ce1685b542f9, [451944, 193288, 222162, 107013, 0, 23028, 37893, 291916, 99560, 173, 21824, 256928, 32]),
    ("powerlaw/Smem/Dense/3/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f33d515bf52b47a, [451944, 193288, 222364, 112209, 0, 20837, 34968, 281732, 99560, 175, 21824, 256928, 32]),
    ("powerlaw/Smem/Auto/1/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f34aadf88063f2a, [317483, 132725, 148279, 77436, 0, 15596, 30072, 187981, 61125, 240, 15985, 245661, 48]),
    ("powerlaw/Smem/Auto/1/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f36872ce5c77adf, [397781, 171641, 189617, 83773, 0, 23028, 37893, 270254, 78900, 253, 19580, 284794, 48]),
    ("powerlaw/Smem/Auto/1/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f37425484b2f906, [432133, 179424, 205126, 98293, 0, 20837, 34968, 277465, 88885, 255, 21577, 299835, 48]),
    ("powerlaw/Smem/Auto/3/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f34aae729d03dfc, [317499, 132741, 148279, 77438, 0, 15596, 30072, 187997, 61125, 240, 15993, 245661, 48]),
    ("powerlaw/Smem/Auto/3/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f36873651b2b734, [397797, 171657, 189617, 83779, 0, 23028, 37893, 270270, 78900, 253, 19588, 284794, 48]),
    ("powerlaw/Smem/Auto/3/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f37425f4837237f, [432149, 179440, 205126, 98302, 0, 20837, 34968, 277481, 88885, 255, 21585, 299835, 48]),
    ("powerlaw/SmemWarp/Dense/1/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f293ed0d4f8f4fc, [267944, 15656, 1973, 0, 6912, 16987, 75698, 69526, 68784, 170, 9360, 256928, 40]),
    ("powerlaw/SmemWarp/Dense/1/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f2959b9261e1911, [267944, 15656, 2554, 114, 6912, 24831, 82661, 81026, 95152, 173, 9360, 256928, 40]),
    ("powerlaw/SmemWarp/Dense/1/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f2958c8011ef7cf, [267944, 15656, 2756, 118, 6912, 22686, 79736, 78236, 95152, 175, 9360, 256928, 40]),
    ("powerlaw/SmemWarp/Dense/3/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f293ee6d54652ad, [267960, 15688, 1973, 2, 6912, 16987, 75698, 69542, 68784, 170, 9368, 256928, 40]),
    ("powerlaw/SmemWarp/Dense/3/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f2959d2baadf1c9, [267960, 15688, 2554, 120, 6912, 24831, 82661, 81042, 95152, 173, 9368, 256928, 40]),
    ("powerlaw/SmemWarp/Dense/3/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f2958e444e0accd, [267960, 15688, 2756, 127, 6912, 22686, 79736, 78252, 95152, 175, 9368, 256928, 40]),
    ("powerlaw/SmemWarp/Auto/1/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f309832e3534823, [197740, 16683, 1973, 0, 5392, 16804, 65969, 62169, 43224, 240, 8622, 245661, 56]),
    ("powerlaw/SmemWarp/Auto/1/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f30d16e82d03a25, [244354, 23230, 2554, 114, 6592, 24827, 80970, 81824, 77880, 253, 10105, 284794, 56]),
    ("powerlaw/SmemWarp/Auto/1/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f30dca3fe7081eb, [264597, 17189, 2756, 118, 6800, 22686, 79143, 82467, 85936, 255, 10629, 299835, 56]),
    ("powerlaw/SmemWarp/Auto/3/classic", 0x8d94072022776251, &[2499, 1956, 1149, 433, 195, 88, 69, 53], 0x3f30983c6a3169f9, [197760, 16704, 1973, 2, 5392, 16804, 65969, 62197, 43236, 240, 8633, 245661, 56]),
    ("powerlaw/SmemWarp/Auto/3/weighted", 0x9d75985fce6697a8, &[2499, 2202, 1631, 1043, 514, 273, 176, 155], 0x3f30d17b17325b82, [244376, 23255, 2554, 120, 6592, 24827, 80970, 81848, 77896, 253, 10115, 284794, 56]),
    ("powerlaw/SmemWarp/Auto/3/mix", 0x4fa7755e266d2521, &[2499, 2470, 2278, 1830, 1370, 963, 727, 579], 0x3f30dcb071230467, [264610, 17216, 2756, 127, 6800, 22686, 79143, 82483, 85936, 255, 10637, 299835, 56]),
];
