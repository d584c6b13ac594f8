//! Determinism guarantees: results must not depend on harness thread
//! counts, repeated runs, or engine choice — only on the seeds.

use glp_suite::core::engine::{DegreeThresholds, GpuEngine};
use glp_suite::core::{ClassicLp, Engine, LpProgram, MflStrategy, RunOptions, Slp};
use glp_suite::fraud::{TxConfig, TxStream};
use glp_suite::graph::datasets::table2;
use glp_suite::graph::gen::{community_powerlaw, CommunityPowerLawConfig};
use glp_test_support::oracle::Rig;

/// A launch is split over harness threads on the host only: the split must
/// not reach a label, the changed trace, a counter or the modeled clock.
/// Low thresholds and small tables put the vertices of every degree from 17
/// up (176 of 1 500) in the CMS+HT kernel, and send over a quarter of its
/// vertex visits through the global fallback, whose table parts would size
/// differently.
#[test]
fn shard_count_does_not_change_results_or_modeled_time() {
    let g = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 1_500,
        avg_degree: 10.0,
        ..Default::default()
    });
    // The GPU, a hybrid that streams, two GPUs and G-Sort.
    for rig in [Rig::Gpu, Rig::Hybrid, Rig::Multi2, Rig::GSort] {
        for strategy in [
            MflStrategy::SmemWarp,
            MflStrategy::Smem,
            MflStrategy::Global,
        ] {
            let run = |shards: usize| {
                let opts = RunOptions {
                    thresholds: DegreeThresholds { low: 8, high: 16 },
                    ht_slots: 4,
                    ht_probe_limit: 2,
                    cms_depth: 2,
                    cms_width: 16,
                    ..RunOptions::default()
                }
                .with_strategy(strategy)
                .with_shards(shards);
                let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 8);
                let report = rig.engine(&g).run(&g, &mut prog, &opts).unwrap();
                let clock = report.modeled_seconds.to_bits();
                let trace = report.changed_per_iteration;
                (prog.labels().to_vec(), trace, clock, report.gpu_counters)
            };
            let one = run(1);
            for shards in [2, 3, 7] {
                let case = format!("{rig:?}, {strategy:?}: {shards} threads against 1");
                assert_eq!(run(shards), one, "{case}");
            }
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let g = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 2_000,
        avg_degree: 8.0,
        ..Default::default()
    });
    let run = || {
        let mut engine = GpuEngine::titan_v();
        let mut prog = Slp::new(g.num_vertices(), 0xABCD);
        let report = engine.run(&g, &mut prog, &RunOptions::default()).unwrap();
        (prog.labels().to_vec(), report.modeled_seconds)
    };
    let (l1, t1) = run();
    let (l2, t2) = run();
    assert_eq!(l1, l2);
    assert_eq!(t1, t2);
}

#[test]
fn generators_are_seed_stable() {
    for spec in table2() {
        let a = spec.generate_scaled(spec.default_scale * 64);
        let b = spec.generate_scaled(spec.default_scale * 64);
        assert_eq!(
            a.incoming().targets(),
            b.incoming().targets(),
            "{} generation is nondeterministic",
            spec.name
        );
    }
}

#[test]
fn transaction_stream_is_seed_stable() {
    let cfg = TxConfig {
        num_users: 2_000,
        num_items: 500,
        days: 20,
        tx_per_day: 800,
        ..Default::default()
    };
    let a = TxStream::generate(&cfg);
    let b = TxStream::generate(&cfg);
    assert_eq!(a.transactions, b.transactions);
    assert_eq!(a.blacklist, b.blacklist);
}
