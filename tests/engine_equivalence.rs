//! Cross-engine equivalence: every execution engine in the workspace must
//! produce bit-identical labels for the same program on the same graph —
//! the property that makes the benchmark comparisons meaningful.

use glp_suite::baselines::{CpuLp, CpuLpConfig, GHashLp, GSortLp};
use glp_suite::core::engine::{
    BarrierHook, GpuEngine, HybridEngine, MflStrategy, MultiGpuEngine, SequentialEngine,
};
use glp_suite::core::{ClassicLp, Engine, Llp, LpProgram, RunOptions, SeededLp, Slp};
use glp_suite::fraud::InHouseLp;
use glp_suite::gpusim::{Device, DeviceConfig};
use glp_suite::graph::datasets::by_name;
use glp_suite::graph::gen::{caveman, community_powerlaw, CommunityPowerLawConfig};
use glp_suite::graph::Graph;
use glp_suite::trace::{Category, Kind, Tracer};
use std::sync::{Arc, Mutex};

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("caveman", caveman(9, 7)),
        (
            "powerlaw",
            community_powerlaw(&CommunityPowerLawConfig {
                num_vertices: 2_500,
                avg_degree: 11.0,
                ..Default::default()
            }),
        ),
        ("dblp_small", by_name("dblp").unwrap().generate_scaled(64)),
    ]
}

/// The ten synchronous engines of the workspace.
fn bsp_engines(g: &Graph) -> Vec<Box<dyn Engine>> {
    // A device too small for the graph: the hybrid engine streams.
    let streamed = (g.num_vertices() as u64) * 20 + g.size_bytes() / 3;
    vec![
        Box::new(GpuEngine::titan_v()),
        Box::new(HybridEngine::new(Device::new(DeviceConfig::tiny(streamed)))),
        Box::new(MultiGpuEngine::titan_v(2)),
        Box::new(SequentialEngine::bsp()),
        Box::new(CpuLp::omp(CpuLpConfig::default())),
        Box::new(CpuLp::ligra(CpuLpConfig::default())),
        Box::new(CpuLp::tigergraph(CpuLpConfig::default())),
        Box::new(GSortLp::titan_v()),
        Box::new(GHashLp::titan_v()),
        Box::new(InHouseLp::taobao()),
    ]
}

/// Runs `proto` through every engine (TG, which is classic-only like the
/// original, has a test of its own), the other MFL strategies and a third
/// device, and asserts identical labels.
fn assert_all_engines_agree<P: LpProgram + Clone>(name: &str, g: &Graph, proto: &P) {
    let opts = RunOptions::default();
    let mut runs: Vec<(Box<dyn Engine>, RunOptions)> = bsp_engines(g)
        .into_iter()
        .filter(|engine| engine.name() != "TG")
        .map(|engine| (engine, opts.clone()))
        .collect();
    for strategy in [MflStrategy::Global, MflStrategy::Smem] {
        let engine: Box<dyn Engine> = Box::new(GpuEngine::titan_v());
        runs.push((engine, opts.clone().with_strategy(strategy)));
    }
    let three_devices: Box<dyn Engine> = Box::new(MultiGpuEngine::titan_v(3));
    runs.push((three_devices, opts));
    let mut reference: Option<Vec<u32>> = None;
    for (i, (engine, opts)) in runs.iter_mut().enumerate() {
        let mut p = proto.clone();
        engine.run(g, &mut p, opts).unwrap();
        let want = reference.get_or_insert_with(|| p.labels().to_vec());
        assert_eq!(
            p.labels(),
            &want[..],
            "run {i} ({}) disagrees with GLP on {name}",
            engine.name()
        );
    }
}

#[test]
fn classic_lp_agrees_everywhere() {
    for (name, g) in graphs() {
        let proto = ClassicLp::with_max_iterations(g.num_vertices(), 15);
        assert_all_engines_agree(name, &g, &proto);
    }
}

#[test]
fn llp_agrees_everywhere() {
    for (name, g) in graphs() {
        for gamma in [1.0, 16.0] {
            let proto = Llp::with_max_iterations(g.num_vertices(), gamma, 10);
            assert_all_engines_agree(name, &g, &proto);
        }
    }
}

#[test]
fn slp_agrees_everywhere() {
    for (name, g) in graphs() {
        let proto = Slp::with_params(g.num_vertices(), 5, 0.2, 10, 0x5EED);
        assert_all_engines_agree(name, &g, &proto);
    }
}

#[test]
fn seeded_lp_agrees_everywhere() {
    for (name, g) in graphs() {
        let seeds: Vec<u32> = (0..g.num_vertices() as u32).step_by(97).collect();
        let proto = SeededLp::with_max_iterations(g.num_vertices(), &seeds, 10);
        assert_all_engines_agree(name, &g, &proto);
    }
}

#[test]
fn tigergraph_agrees_on_classic() {
    for (name, g) in graphs() {
        let mut reference = ClassicLp::with_max_iterations(g.num_vertices(), 15);
        GpuEngine::titan_v()
            .run(&g, &mut reference, &RunOptions::default())
            .unwrap();
        let mut p = ClassicLp::with_max_iterations(g.num_vertices(), 15);
        CpuLp::tigergraph(CpuLpConfig::default())
            .run(&g, &mut p, &RunOptions::default())
            .unwrap();
        assert_eq!(p.labels(), reference.labels(), "TG disagrees on {name}");
    }
}

/// What the one driver gives every engine, the CPU baselines and the
/// in-house cluster included (both ignored hook and tracer, and left
/// per-iteration vectors empty, while they owned a loop): a report whose
/// per-iteration vectors all have `iterations` entries, a barrier hook
/// fired once per iteration in order, and a well-formed trace with one
/// iteration span per iteration under one run span.
#[test]
fn every_engine_reports_hooks_and_traces_every_iteration() {
    let g = caveman(9, 7);
    let mut engines = bsp_engines(&g);
    assert_eq!(engines.len(), 10);
    for engine in &mut engines {
        let name = engine.name();
        let fired = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&fired);
        let tracer = Tracer::new();
        let opts = RunOptions::default()
            .with_barrier_hook(BarrierHook::new(move |ev| {
                sink.lock().unwrap().push((ev.iteration, ev.changed));
            }))
            .with_tracer(tracer.clone());
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 15);
        let report = engine.run(&g, &mut prog, &opts).unwrap();

        let iterations = report.iterations as usize;
        assert!(iterations >= 2, "{name} ran {iterations} iteration(s)");
        assert_eq!(report.changed_per_iteration.len(), iterations, "{name}");
        assert_eq!(report.active_per_iteration.len(), iterations, "{name}");
        assert_eq!(report.iteration_seconds.len(), iterations, "{name}");
        assert_eq!(report.direction_per_iteration.len(), iterations, "{name}");

        let want: Vec<(u32, u64)> = (0..).zip(report.changed_per_iteration.clone()).collect();
        assert_eq!(*fired.lock().unwrap(), want, "{name}: barrier hook");

        let trace = tracer.finish();
        trace
            .check_well_formed(1e-9)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let spans = |cat| {
            let of_cat = trace.events.iter().filter(move |e| e.cat == cat);
            of_cat.filter(|e| e.kind == Kind::Span && !e.err)
        };
        let numbered: Vec<Option<u64>> = spans(Category::Iteration).map(|e| e.arg).collect();
        let want: Vec<Option<u64>> = (0..iterations as u64).map(Some).collect();
        assert_eq!(numbered, want, "{name}: iteration spans");
        assert_eq!(spans(Category::Run).count(), 1, "{name}: run span");
    }
}
