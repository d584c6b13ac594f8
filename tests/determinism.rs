//! Determinism guarantees: results must not depend on harness thread
//! counts, repeated runs, or engine choice — only on the seeds.

use glp_suite::baselines::{GHashLp, GSortLp};
use glp_suite::core::engine::{DegreeThresholds, GpuEngine};
use glp_suite::core::{
    BspEngine, ClassicLp, Engine, HybridEngine, LpProgram, MflStrategy, MultiGpuEngine,
    ResilientEngine, RunOptions, SequentialEngine, Slp,
};
use glp_suite::fraud::{TxConfig, TxStream};
use glp_suite::gpusim::{Device, DeviceConfig};
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

/// A run's labels and report do not depend on what its engine ran before:
/// a second run on one engine equals the first bit for bit — labels, the
/// changed trace, the modeled and transfer clocks, the counters, the kernel
/// profile and each device's log length — on every device tier and on a
/// GPU → host-BSP ladder.
#[test]
fn repeated_runs_are_bit_identical() {
    let g = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 2_000,
        avg_degree: 8.0,
        ..Default::default()
    });
    let opts = RunOptions::default();
    // The labels, then the rest of what the run reports.
    let run = |engine: &mut dyn Engine| {
        let mut prog = Slp::new(g.num_vertices(), 0xABCD);
        let r = engine.run(&g, &mut prog, &opts).unwrap();
        let clocks = [r.modeled_seconds.to_bits(), r.transfer_seconds.to_bits()];
        let report = (
            r.changed_per_iteration,
            clocks,
            r.gpu_counters,
            r.kernel_profile,
        );
        (prog.labels().to_vec(), report)
    };
    // Every device's kernel-log length, rung by rung.
    let logs = |rungs: &mut [Box<dyn BspEngine>]| {
        let mut lens = Vec::new();
        for rung in rungs {
            rung.backend(&g, &opts)
                .each_device(&mut |d| lens.push(d.kernel_log().len()));
        }
        lens
    };
    let same = |what: &str, first: (Vec<u32>, _, Vec<usize>), second: (Vec<u32>, _, _)| {
        assert!(second.0 == first.0, "{what}: labels of a second run");
        assert_eq!(second.1, first.1, "{what}: report of a second run");
        assert_eq!(second.2, first.2, "{what}: log lengths after a second run");
    };
    // Room for the label state and a third of the CSR: the hybrid streams.
    let streamed = g.num_vertices() as u64 * 20 + g.size_bytes() / 3;
    let tiers: [Box<dyn BspEngine>; 5] = [
        Box::new(GpuEngine::titan_v()),
        Box::new(HybridEngine::new(Device::new(DeviceConfig::tiny(streamed)))),
        Box::new(MultiGpuEngine::titan_v(2)),
        Box::new(GSortLp::titan_v()),
        Box::new(GHashLp::titan_v()),
    ];
    for mut engine in tiers {
        let [first, second] = [(); 2].map(|()| {
            let (labels, report) = run(&mut *engine);
            (labels, report, logs(std::slice::from_mut(&mut engine)))
        });
        same(engine.name(), first, second);
    }
    let mut ladder = ResilientEngine::new(vec![
        Box::new(GpuEngine::titan_v()),
        Box::new(SequentialEngine::bsp()),
    ]);
    let [first, second] = [(); 2].map(|()| {
        let (labels, report) = run(&mut ladder);
        (labels, report, logs(ladder.tiers_mut()))
    });
    same("a GPU → host-BSP ladder", first, second);
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
