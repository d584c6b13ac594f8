//! Device-fault acceptance suite.
//!
//! Exercises the whole recovery path end to end: a deterministic
//! `glp_gpusim::faults::FaultPlan` is attached to specific simulated
//! devices, and the assertions pin the contract that **no injected fault may change the
//! computed labels or the per-iteration traces** — recovery resumes, it
//! never silently recomputes differently.
//!
//! Scenarios, matching the issue's acceptance list:
//!   (a) a transient launch failure mid-run is retried on the same tier,
//!       resuming at the failed iteration (salvaged iterations > 0);
//!   (b) a persistent device loss walks the degradation ladder down to the
//!       host BSP engine;
//!   (c) losing one of four GPUs mid-run makes `MultiGpuEngine` finish on
//!       the three survivors;
//!   (d) a plan with no fault due is no plan: on every rig that owns a
//!       simulated device, labels, traces, modeled cost and kernel logs
//!       are bit-identical to the plan-free run.
//! Plus the observability side of recovery: a mid-run device loss must
//! leave `degrade` / `repartition` events in the span trace, parented to
//! the exact iteration the fault interrupted. Recovery being the driver's
//! policy, not a program capability, has its own cases: a program with a
//! non-idempotent `begin_iteration` and no way to checkpoint survives three
//! recoveries with its barrier hook firing once per iteration, a recovered
//! run's report covers the whole run, and a rung without a frontier
//! continues all-active. A fault that lands on a *replayed* launch — the
//! driver re-commits the launches of a phase whose exact input it saw two
//! iterations ago — is a fault like any other: retried, degraded or
//! repartitioned around, with the replay records rebuilt from scratch on the
//! new attempt. Arbitrary device faults across every backend, ladder,
//! frontier mode and program are the engine oracle's fault draws (the
//! `tests/*_equivalence.rs` sweeps): a ladder, or a multi-GPU engine losing
//! a device, must recover; any other run that fails must hold the last
//! barrier's labels.
//!
//! Fixture builders (`reference`, `launches_per_iteration`, `SaltedLp`)
//! live in `glp-test-support`.

use glp_suite::baselines::{CpuLp, CpuLpConfig, GSortLp};
use glp_suite::core::engine::{
    BarrierHook, GpuEngine, HybridEngine, MultiGpuEngine, SequentialEngine,
};
use glp_suite::core::{ClassicLp, Engine, FrontierMode, LpProgram, ResilientEngine, RunOptions};
use glp_suite::gpusim::faults::{Fault, FaultKind, FaultPlan};
use glp_suite::gpusim::{Device, DeviceConfig};
use glp_suite::graph::gen::{
    bipartite_interaction, caveman, path, two_cliques_bridge, BipartiteConfig,
};
use glp_suite::graph::{Graph, Label};
use glp_suite::trace::{Category, Kind, Tracer};
use glp_test_support::{launches_per_iteration, reference, SaltedLp};
use std::sync::{Arc, Mutex};

/// A plan of device faults: each fires at the `at`-th launch (upload, for
/// `Oom`) of the device the plan is attached to.
fn plan(faults: &[(FaultKind, u32)]) -> Arc<FaultPlan> {
    let device = |&(kind, at): &(FaultKind, u32)| Fault::Device {
        kind,
        at: at.into(),
    };
    Arc::new(FaultPlan::new(faults.iter().map(device)))
}

/// A Titan V reading `faults`.
fn titan_v(faults: &Arc<FaultPlan>) -> Device {
    let mut device = Device::titan_v();
    device.set_faults(Some(Arc::clone(faults)));
    device
}

/// Acceptance (a): a transient launch failure is retried on the same tier
/// and the retry resumes at the failed iteration — completed iterations
/// are salvaged, and labels plus both traces are byte-identical to the
/// fault-free run.
#[test]
fn transient_launch_failure_resumes_at_failed_iteration() {
    let g = caveman(6, 8);
    let opts = RunOptions::default();
    let (want_labels, want_changed, want_active) = reference(&g, &opts);
    let per_iter = launches_per_iteration(&g, &opts);

    // Fire inside iteration 1: iteration 0's barrier has committed, so the
    // retry must resume rather than restart.
    let faults = plan(&[(FaultKind::LaunchFail, per_iter + 1)]);
    let gpu = GpuEngine::new(titan_v(&faults));
    let mut engine = ResilientEngine::new(vec![Box::new(gpu), Box::new(SequentialEngine::bsp())]);

    let mut prog = ClassicLp::new(g.num_vertices());
    let report = engine.run(&g, &mut prog, &opts).expect("retry recovers");

    assert_eq!(faults.fired().len(), 1, "fault not fired");
    let stats = engine.resilience();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.degradations, 0);
    assert!(stats.iterations_salvaged >= 1, "resume must not restart");
    assert_eq!(stats.tier, Some("GLP"));
    assert_eq!(prog.labels(), &want_labels[..]);
    assert_eq!(report.changed_per_iteration, want_changed);
    assert_eq!(report.active_per_iteration, want_active);
    assert_report_covers_the_whole_run(&report);
}

/// A recovered run's report is not truncated to its final attempt: every
/// per-iteration vector has one entry per iteration, and every barrier —
/// before and after the recovery — took its snapshot.
fn assert_report_covers_the_whole_run(report: &glp_suite::core::LpRunReport) {
    let iterations = report.iterations as usize;
    assert_eq!(report.changed_per_iteration.len(), iterations);
    assert_eq!(report.iteration_seconds.len(), iterations);
    assert_eq!(report.snapshots_taken, u64::from(report.iterations));
}

/// Acceptance (b): persistent device loss on the GPU tier (and then on the
/// hybrid tier) walks the ladder to the host BSP engine, which finishes
/// the run with byte-identical labels.
#[test]
fn persistent_device_loss_degrades_to_sequential() {
    let g = caveman(6, 8);
    let opts = RunOptions::default();
    let (want_labels, want_changed, want_active) = reference(&g, &opts);
    let per_iter = launches_per_iteration(&g, &opts);

    // Lose the GPU after one completed iteration and the hybrid card on
    // its very first kernel: only the host tier can finish.
    let gpu = GpuEngine::new(titan_v(&plan(&[(FaultKind::DeviceLost, per_iter + 1)])));
    let hybrid = HybridEngine::new(titan_v(&plan(&[(FaultKind::DeviceLost, 0)])));
    let mut engine = ResilientEngine::new(vec![
        Box::new(gpu),
        Box::new(hybrid),
        Box::new(SequentialEngine::bsp()),
    ]);

    let mut prog = ClassicLp::new(g.num_vertices());
    let report = engine.run(&g, &mut prog, &opts).expect("ladder recovers");

    let stats = engine.resilience();
    assert_eq!(stats.degradations, 2, "GPU -> hybrid -> host");
    assert_eq!(stats.tier, Some("Sequential-BSP"));
    assert!(stats.iterations_salvaged >= 1);
    assert_eq!(stats.faults.len(), 2);
    assert_eq!(prog.labels(), &want_labels[..]);
    assert_eq!(report.changed_per_iteration, want_changed);
    assert_eq!(report.active_per_iteration, want_active);
    assert_report_covers_the_whole_run(&report);
}

/// Recovery is a driver policy, not a program capability: a program with a
/// non-idempotent `begin_iteration` and no checkpoint support survives a
/// transient retry *and* a GPU → hybrid → host degrade with labels and the
/// `changed` trace equal to the fault-free run, every iteration begun
/// exactly once — and the caller's barrier hook fires exactly once per
/// iteration, in order, across all three recoveries.
#[test]
fn a_program_without_checkpoints_survives_retry_and_degrade() {
    // A path keeps relabelling for many iterations.
    let g = path(200);
    let n = g.num_vertices();
    let dense = RunOptions::default().with_frontier(FrontierMode::Dense);
    let per_iter = launches_per_iteration(&g, &dense);
    let mut want = SaltedLp::new(n);
    let want_report = GpuEngine::titan_v().run(&g, &mut want, &dense).unwrap();
    assert_eq!(want_report.iterations, SaltedLp::ITERS);
    assert!(
        want_report.changed_per_iteration[3] > 0,
        "the salted run must still be moving when the faults land"
    );

    // A rejected launch inside iteration 1 (retried on the GPU), the GPU
    // lost inside iteration 2 — two launches further than a fault-free run
    // would be: the rejected one and the one before it — and the hybrid
    // card lost on its first kernel: only the host can finish.
    let gpu = GpuEngine::new(titan_v(&plan(&[
        (FaultKind::LaunchFail, per_iter + 1),
        (FaultKind::DeviceLost, 2 * per_iter + 3),
    ])));
    let hybrid = HybridEngine::new(titan_v(&plan(&[(FaultKind::DeviceLost, 0)])));
    let mut engine = ResilientEngine::new(vec![
        Box::new(gpu),
        Box::new(hybrid),
        Box::new(SequentialEngine::bsp()),
    ]);

    let barriers: Arc<Mutex<Vec<Vec<Label>>>> = Arc::default();
    let sink = Arc::clone(&barriers);
    let opts = RunOptions::default().with_barrier_hook(BarrierHook::new(move |ev| {
        let mut fired = sink.lock().unwrap();
        assert_eq!(ev.iteration as usize, fired.len(), "once each, in order");
        fired.push(ev.program.labels().to_vec());
    }));
    let mut prog = SaltedLp::new(n);
    let report = engine.run(&g, &mut prog, &opts).expect("ladder recovers");

    let stats = engine.resilience();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.degradations, 2, "GPU -> hybrid -> host");
    assert_eq!(stats.faults.len(), 3);
    assert_eq!(stats.iterations_salvaged, 1 + 2 + 2);
    assert_eq!(stats.tier, Some("Sequential-BSP"));
    assert_eq!(prog.labels(), want.labels());
    assert_eq!(
        report.changed_per_iteration,
        want_report.changed_per_iteration
    );
    assert_eq!(prog.begun, (0..SaltedLp::ITERS).collect::<Vec<_>>());
    assert_report_covers_the_whole_run(&report);
    let barriers = barriers.lock().unwrap();
    assert_eq!(barriers.len(), SaltedLp::ITERS as usize);
    assert_eq!(barriers.last().unwrap(), prog.labels());
}

/// Acceptance (c): losing one of four GPUs mid-run does not abort the
/// multi-GPU engine — it repartitions over the three survivors and
/// produces byte-identical labels.
#[test]
fn multi_gpu_survives_single_device_loss() {
    let g = caveman(6, 8);
    let opts = RunOptions::default();
    let (want_labels, want_changed, _) = reference(&g, &opts);

    let mut engine = MultiGpuEngine::titan_v(4);
    // Let the victim serve a couple of kernels first so the loss lands
    // mid-run, between barriers.
    let victim = plan(&[(FaultKind::DeviceLost, 2)]);
    engine.gpus_mut().device_mut(1).set_faults(Some(victim));

    let mut prog = ClassicLp::new(g.num_vertices());
    let report = engine
        .run(&g, &mut prog, &opts)
        .expect("survivors finish the run");

    assert!(engine.gpus().device(1).is_lost());
    assert_eq!(engine.gpus().survivors(), vec![0, 2, 3]);
    assert_eq!(prog.labels(), &want_labels[..]);
    assert_eq!(report.changed_per_iteration, want_changed);
}

/// A repartition whose re-upload fails: device 0 of two is lost inside
/// iteration 1, and the survivor's re-upload of the whole graph runs out
/// of memory. Nothing was uploaded in the new partitioning, so cleanup
/// must free nothing — `run` returns the error instead of tripping
/// `Device::free`'s assert — and the program holds barrier 0's labels.
#[test]
fn multi_gpu_failed_reupload_returns_the_error_without_freeing_phantoms() {
    let g = path(64);
    let barriers: Arc<Mutex<Vec<Vec<u32>>>> = Arc::default();
    let sink = Arc::clone(&barriers);
    let opts = RunOptions::default().with_barrier_hook(BarrierHook::new(move |ev| {
        sink.lock().unwrap().push(ev.program.labels().to_vec());
    }));

    // Fault-free probe: device 0's first launch after barrier 0.
    let mut probe = MultiGpuEngine::titan_v(2);
    let mut prog = ClassicLp::new(g.num_vertices());
    probe.run(&g, &mut prog, &opts).unwrap();
    let first_of_iteration_1 = probe
        .gpus()
        .device(0)
        .kernel_log()
        .iter()
        .position(|rec| rec.name == "barrier_snapshot")
        .expect("one snapshot per barrier")
        + 1;
    barriers.lock().unwrap().clear();

    let mut engine = MultiGpuEngine::titan_v(2);
    let lost = plan(&[(FaultKind::DeviceLost, first_of_iteration_1 as u32)]);
    // The survivor's upload 0 is the initial staging; upload 1 the re-upload.
    let survivor = plan(&[(FaultKind::Oom, 1)]);
    engine
        .gpus_mut()
        .device_mut(0)
        .set_faults(Some(Arc::clone(&lost)));
    engine
        .gpus_mut()
        .device_mut(1)
        .set_faults(Some(Arc::clone(&survivor)));
    let mut prog = ClassicLp::new(g.num_vertices());
    let outcome = engine.run(&g, &mut prog, &opts);

    let fired = lost.fired().len() + survivor.fired().len();
    assert_eq!(fired, 2, "both faults fire");
    assert!(outcome.is_err(), "the failed re-upload must surface");
    assert!(engine.gpus().device(0).is_lost());
    assert_eq!(engine.gpus().device(1).resident_bytes(), 0, "nothing leaks");
    let barriers = barriers.lock().unwrap();
    assert_eq!(barriers.len(), 1, "iteration 1 never reaches its barrier");
    assert_eq!(prog.labels(), &barriers[0][..]);
}

/// The initial-upload twin of the test above: device 1's *first* upload
/// runs out of memory after device 0's share is already resident. A
/// failed `stage` is followed by no `teardown`, so it must release its
/// uploaded prefix itself — otherwise a retry (a `ResilientEngine`'s, or
/// here a plain second run) uploads on top of the leaked share.
#[test]
fn multi_gpu_failed_initial_upload_leaves_nothing_resident() {
    let g = path(64);
    let opts = RunOptions::default();
    let (reference_labels, _, _) = reference(&g, &opts);

    let mut engine = MultiGpuEngine::titan_v(2);
    let second = plan(&[(FaultKind::Oom, 0)]);
    engine
        .gpus_mut()
        .device_mut(1)
        .set_faults(Some(Arc::clone(&second)));
    let mut prog = ClassicLp::new(g.num_vertices());
    let outcome = engine.run(&g, &mut prog, &opts);

    assert_eq!(second.fired().len(), 1, "the fault fires");
    assert!(outcome.is_err(), "the failed upload must surface");
    for d in 0..2 {
        assert_eq!(
            engine.gpus().device(d).resident_bytes(),
            0,
            "device {d} leaks its share"
        );
    }

    // The same engine, fault-free: a clean run from clean devices.
    let mut prog = ClassicLp::new(g.num_vertices());
    engine.run(&g, &mut prog, &opts).unwrap();
    assert_eq!(prog.labels(), &reference_labels[..]);
    for d in 0..2 {
        assert_eq!(engine.gpus().device(d).resident_bytes(), 0);
    }
}

/// Acceptance (d): fault plans are always compiled, so this is the guard
/// that a plan with nothing due charges nothing. On every rig that owns a
/// simulated device — the GPU, the streamed hybrid, two GPUs and G-Sort —
/// a plan read at every launch and upload whose fault is never due serves
/// no fault and leaves the labels, the changed-trace, the modeled seconds
/// and every device's kernel log bit-identical to the plan-free run.
#[test]
fn unarmed_injectors_change_nothing() {
    let g = two_cliques_bridge(9);
    let (want_labels, want_changed, _) = reference(&g, &RunOptions::default());
    let streamed = DeviceConfig::tiny(g.num_vertices() as u64 * 20 + g.size_bytes() / 3);
    let on = |cfg: &DeviceConfig, plan| {
        let mut device = Device::new(cfg.clone());
        device.set_faults(plan);
        device
    };
    let titan = DeviceConfig::titan_v();
    let runs = [
        assert_inert(&g, |p| GpuEngine::new(on(&titan, p)), |e| vec![e.device()]),
        assert_inert(
            &g,
            |p| HybridEngine::new(on(&streamed, p)),
            |e| vec![e.device()],
        ),
        assert_inert(
            &g,
            |p| {
                let mut e = MultiGpuEngine::titan_v(2);
                for d in 0..2 {
                    e.gpus_mut().device_mut(d).set_faults(p.clone());
                }
                e
            },
            |e| vec![e.gpus().device(0), e.gpus().device(1)],
        ),
        assert_inert(&g, |p| GSortLp::new(on(&titan, p)), |e| vec![e.device()]),
    ];
    for (labels, changed) in runs {
        assert_eq!(labels, want_labels);
        assert_eq!(changed, want_changed);
    }
}

/// Runs `ClassicLp` on `g` twice — on `make(None)` and on `make` with a
/// never-due plan attached — asserts the two runs bit-identical, down to
/// each of `devices`' kernel logs, and returns the labels and the
/// changed-trace.
fn assert_inert<E: Engine>(
    g: &Graph,
    make: impl Fn(Option<Arc<FaultPlan>>) -> E,
    devices: impl Fn(&E) -> Vec<&Device>,
) -> (Vec<Label>, Vec<u64>) {
    let never = plan(&[(FaultKind::LaunchFail, u32::MAX)]);
    let run = |plan| {
        let mut engine = make(plan);
        let mut prog = ClassicLp::new(g.num_vertices());
        let report = engine.run(g, &mut prog, &RunOptions::default()).unwrap();
        let logs: Vec<Vec<_>> = devices(&engine)
            .iter()
            .map(|d| {
                let log = d.kernel_log().iter();
                log.map(|k| (k.name, k.seconds.to_bits(), k.counters))
                    .collect()
            })
            .collect();
        let modeled = report.modeled_seconds.to_bits();
        let out = (prog.labels().to_vec(), report.changed_per_iteration);
        (engine.name(), out, modeled, logs)
    };
    let bare = run(None);
    let armed = run(Some(Arc::clone(&never)));
    assert!(never.fired().is_empty(), "{}: stray fault served", bare.0);
    assert!(
        !bare.3.iter().any(Vec::is_empty),
        "{}: a device ran nothing",
        bare.0
    );
    assert_eq!(armed, bare, "{}: a never-due plan changed the run", bare.0);
    bare.1
}

/// Recovery observability (ladder): a mid-run `DeviceLost` on the GPU
/// tier must leave a `degrade` instant in the trace whose parent is the
/// iteration span the fault interrupted — closed as an error span, so
/// the breadcrumb points at exactly where recovery kicked in.
#[test]
fn device_loss_emits_degrade_span_under_failed_iteration() {
    let g = caveman(6, 8);
    let base = RunOptions::default();
    let per_iter = launches_per_iteration(&g, &base);

    // Persistent loss inside iteration 1: the ladder must degrade, and
    // the interrupted iteration is identifiable in the trace.
    let gpu = GpuEngine::new(titan_v(&plan(&[(FaultKind::DeviceLost, per_iter + 1)])));
    let mut engine = ResilientEngine::new(vec![Box::new(gpu), Box::new(SequentialEngine::bsp())]);

    let tracer = Tracer::new();
    let opts = base.with_tracer(tracer.clone());
    let mut prog = ClassicLp::new(g.num_vertices());
    engine.run(&g, &mut prog, &opts).expect("ladder recovers");
    assert_eq!(engine.resilience().degradations, 1);

    let trace = tracer.finish();
    trace.check_well_formed(1e-9).unwrap();
    let degrade = trace
        .named("degrade")
        .next()
        .expect("degradation must leave a trace event");
    assert_eq!(degrade.cat, Category::Resilience);
    assert_eq!(degrade.kind, Kind::Instant);
    let parent = trace
        .event(degrade.parent)
        .expect("degrade is parented to a recorded span");
    assert_eq!(
        parent.cat,
        Category::Iteration,
        "degrade must hang off the iteration the fault interrupted"
    );
    assert!(parent.err, "the interrupted iteration closes as an error");
    assert_eq!(parent.arg, Some(1), "the fault fired inside iteration 1");
    // The failed GPU run span is flagged too, and the host tier's clean
    // run follows it in the same trace.
    assert!(trace.named("GLP").any(|e| e.err));
    assert!(trace.named("Sequential-BSP").any(|e| !e.err));
}

/// Recovery observability (multi-GPU): losing a device mid-run must leave
/// a `repartition` instant inside the iteration that absorbed the loss,
/// alongside the dispatch attempt that died on the victim.
#[test]
fn multi_gpu_repartition_emits_resilience_span_mid_iteration() {
    let g = caveman(6, 8);
    let base = RunOptions::default();
    let (want_labels, _, _) = reference(&g, &base);

    let mut engine = MultiGpuEngine::titan_v(4);
    // Launch 0 is the victim's pick_label; launch 1 is its first
    // propagate kernel, so the loss fires inside the dispatch span.
    let victim = plan(&[(FaultKind::DeviceLost, 1)]);
    engine.gpus_mut().device_mut(1).set_faults(Some(victim));

    let tracer = Tracer::new();
    let opts = base.with_tracer(tracer.clone());
    let mut prog = ClassicLp::new(g.num_vertices());
    engine.run(&g, &mut prog, &opts).expect("survivors finish");
    assert_eq!(prog.labels(), &want_labels[..], "recovery stays exact");

    let trace = tracer.finish();
    trace.check_well_formed(1e-9).unwrap();
    let repartition = trace
        .named("repartition")
        .next()
        .expect("repartition must leave a trace event");
    assert_eq!(repartition.cat, Category::Resilience);
    assert_eq!(repartition.kind, Kind::Instant);
    let parent = trace
        .event(repartition.parent)
        .expect("repartition is parented to a recorded span");
    assert_eq!(
        parent.cat,
        Category::Iteration,
        "repartition lands inside the iteration that absorbed the loss"
    );
    // The dispatch attempt that died on the victim closes as an error
    // span under the same iteration; the run itself still succeeds.
    assert!(trace
        .named("dispatch")
        .any(|e| e.err && e.parent == parent.id));
    assert!(trace.named("GLP-multi").all(|e| !e.err));
}

/// Every backend of the BSP driver can sit on a lower rung of the ladder:
/// the GPU is lost inside iteration 2 of 6, G-Sort re-drives iteration 2
/// from the live program, and the run is byte-identical to the fault-free
/// GPU run — same labels, same traces, six iterations (not two salvaged
/// plus a fresh six).
#[test]
fn lower_tier_resumes_at_the_failed_iteration_not_at_zero() {
    let g = path(200);
    let n = g.num_vertices();
    let opts = RunOptions::default().with_frontier(FrontierMode::Dense);
    let mut want = ClassicLp::with_max_iterations(n, 6);
    let want_report = GpuEngine::titan_v().run(&g, &mut want, &opts).unwrap();
    assert_eq!(
        want_report.iterations, 6,
        "path(200) is not settled by then"
    );
    let per_iter = launches_per_iteration(&g, &opts);

    let gpu = GpuEngine::new(titan_v(&plan(&[(FaultKind::DeviceLost, 2 * per_iter + 1)])));
    let mut engine = ResilientEngine::new(vec![Box::new(gpu), Box::new(GSortLp::titan_v())]);

    let mut prog = ClassicLp::with_max_iterations(n, 6);
    let report = engine.run(&g, &mut prog, &opts).expect("ladder recovers");

    let stats = engine.resilience();
    assert_eq!(stats.degradations, 1);
    assert_eq!(stats.tier, Some("G-Sort"));
    assert_eq!(stats.iterations_salvaged, 2);
    assert_eq!(report.iterations, 6);
    assert_eq!(prog.labels(), want.labels());
    assert_eq!(
        report.changed_per_iteration,
        want_report.changed_per_iteration
    );
    assert_eq!(
        report.active_per_iteration,
        want_report.active_per_iteration
    );
}

/// The CPU baselines are rungs like any other since they became backends
/// of the one driver: a GPU lost inside iteration 1 leaves OMP to re-drive
/// iteration 1 from the live program and finish the run — same labels,
/// same traces, on a frontier (unlike G-Sort, OMP can schedule over one),
/// and the report's clock is the two tiers' own clocks added up.
#[test]
fn a_lost_gpu_finishes_on_the_omp_baseline() {
    let g = caveman(6, 8);
    let opts = RunOptions::default();
    let (want_labels, want_changed, want_active) = reference(&g, &opts);
    let per_iter = launches_per_iteration(&g, &opts);

    let gpu = GpuEngine::new(titan_v(&plan(&[(FaultKind::DeviceLost, per_iter + 1)])));
    let omp = CpuLp::omp(CpuLpConfig::default());
    let mut engine = ResilientEngine::new(vec![Box::new(gpu), Box::new(omp)]);

    let mut prog = ClassicLp::new(g.num_vertices());
    let report = engine.run(&g, &mut prog, &opts).expect("ladder recovers");

    let stats = engine.resilience();
    assert_eq!(stats.degradations, 1);
    assert_eq!(stats.tier, Some("OMP"));
    assert_eq!(stats.iterations_salvaged, 1);
    assert_eq!(prog.labels(), &want_labels[..]);
    assert_eq!(report.changed_per_iteration, want_changed);
    assert_eq!(report.active_per_iteration, want_active);
    assert_report_covers_the_whole_run(&report);
    // OMP's share alone is a fork/join per superstep it ran.
    let omp_supersteps = f64::from(report.iterations - 1);
    assert!(report.modeled_seconds > omp_supersteps * 1e-4);
}

/// Frontier capability is per rung: a sparse run that degrades to a
/// backend which cannot schedule over a frontier (G-Sort) continues
/// all-active — same labels, same `changed` trace, the salvaged iterations'
/// frontier sizes followed by full sweeps.
#[test]
fn degrading_to_a_rung_without_a_frontier_continues_all_active() {
    let g = caveman(6, 8);
    let n = g.num_vertices();
    let run = |mode| {
        let opts = RunOptions::default().with_frontier(mode);
        let mut prog = ClassicLp::new(n);
        let report = GpuEngine::titan_v().run(&g, &mut prog, &opts).unwrap();
        (prog.labels().to_vec(), report)
    };
    let (want_labels, sparse) = run(FrontierMode::Auto);
    let (_, dense) = run(FrontierMode::Dense);
    assert!(
        sparse.active_per_iteration[1..] != dense.active_per_iteration[1..],
        "the frontier must shrink after the fault lands"
    );
    let opts = RunOptions::default();
    let per_iter = launches_per_iteration(&g, &opts);

    let gpu = GpuEngine::new(titan_v(&plan(&[(FaultKind::DeviceLost, per_iter + 1)])));
    let mut engine = ResilientEngine::new(vec![Box::new(gpu), Box::new(GSortLp::titan_v())]);
    let mut prog = ClassicLp::new(n);
    let report = engine.run(&g, &mut prog, &opts).expect("ladder recovers");

    assert_eq!(engine.resilience().tier, Some("G-Sort"));
    assert_eq!(engine.resilience().iterations_salvaged, 1);
    assert_eq!(prog.labels(), &want_labels[..]);
    assert_eq!(report.changed_per_iteration, sparse.changed_per_iteration);
    let mut want_active = sparse.active_per_iteration[..1].to_vec();
    want_active.extend(&dense.active_per_iteration[1..]);
    assert_eq!(report.active_per_iteration, want_active);
}

/// The `Engine` contract without any recovery layer above it: when the
/// *last* kernel of iteration `K` (the barrier snapshot) is rejected, `run`
/// returns `Err` and the program still holds the labels of barrier `K - 1`
/// — the failed iteration was not partially applied.
#[test]
fn a_fault_in_the_last_kernel_leaves_the_previous_barriers_labels() {
    const K: usize = 2;
    fn check<E: Engine>(make: impl Fn(Device) -> E, device: impl Fn(&E) -> &Device) {
        // A path keeps relabelling for many iterations, so iteration K has
        // updates to (not) apply.
        let g = path(64);
        let barriers: Arc<Mutex<Vec<Vec<u32>>>> = Arc::default();
        let sink = Arc::clone(&barriers);
        let opts = RunOptions::default().with_barrier_hook(BarrierHook::new(move |ev| {
            sink.lock().unwrap().push(ev.program.labels().to_vec());
        }));

        // Fault-free probe: where in the launch sequence iteration K ends.
        let mut probe = make(Device::titan_v());
        let mut prog = ClassicLp::new(g.num_vertices());
        let report = probe.run(&g, &mut prog, &opts).unwrap();
        assert!(
            report.changed_per_iteration[K] > 0,
            "iteration {K} must have something to apply"
        );
        let last_of_k = device(&probe)
            .kernel_log()
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.name == "barrier_snapshot")
            .nth(K)
            .expect("one snapshot per barrier")
            .0;
        barriers.lock().unwrap().clear();

        let mut engine = make(titan_v(&plan(&[(FaultKind::LaunchFail, last_of_k as u32)])));
        let mut prog = ClassicLp::new(g.num_vertices());
        let outcome = engine.run(&g, &mut prog, &opts);

        let tier = engine.name();
        assert!(outcome.is_err(), "{tier}: the armed fault must surface");
        let barriers = barriers.lock().unwrap();
        assert_eq!(barriers.len(), K, "{tier}: barrier {K} must not fire");
        assert_eq!(
            prog.labels(),
            &barriers[K - 1][..],
            "{tier}: iteration {K} was partially applied"
        );
    }
    check(GpuEngine::new, GpuEngine::device);
    check(HybridEngine::new, HybridEngine::device);
    let multi = |device| {
        let mut e = MultiGpuEngine::titan_v(1);
        *e.gpus_mut().device_mut(0) = device;
        e
    };
    check(multi, |e| e.gpus().device(0));
}

/// A user–item window: synchronous LP falls into a 2-cycle on it within a
/// few iterations and the driver replays every phase from then on. Its
/// replay records (4.9 KB) do not fit within its CSR (3.9 KB), so the memo
/// arms lazily, on a repeated input fingerprint — the path whose recovery
/// [`assert_memo_was_rebuilt`] counts. (The driver's own bipartite window
/// fits and arms before its first phase.)
fn cycling_window() -> Graph {
    bipartite_interaction(&BipartiteConfig {
        num_users: 60,
        num_items: 25,
        num_interactions: 400,
        skew: 0.8,
        seed: 7,
    })
}

const CYCLE_ITERS: u32 = 20;

/// Fault-free run of `engine` over [`cycling_window`]: the program, the
/// report, and — in `device`'s launch sequence — the index of the first
/// LabelPropagation launch of an iteration whose phase is a replay, two
/// iterations into the replayed stretch (replays run to the end of a run
/// once they begin, so the stretch is the last `replayed_iterations`).
fn cycling_probe<E: Engine>(
    mut engine: E,
    device: impl Fn(&E) -> &Device,
    opts: &RunOptions,
) -> (ClassicLp, glp_suite::core::LpRunReport, u32) {
    let g = cycling_window();
    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), CYCLE_ITERS);
    let report = engine.run(&g, &mut prog, opts).unwrap();
    assert_eq!(
        report.iterations, CYCLE_ITERS,
        "the window must keep cycling"
    );
    assert!(
        report.replayed_iterations >= 8,
        "too few replays to land a fault on: {}",
        report.replayed_iterations
    );
    let target = (CYCLE_ITERS - report.replayed_iterations + 2) as usize;
    let pick = device(&engine)
        .kernel_log()
        .iter()
        .enumerate()
        .filter(|(_, rec)| rec.name == "pick_label")
        .nth(target)
        .expect("one PickLabel per iteration")
        .0;
    (prog, report, pick as u32 + 1)
}

/// After a recovery the driver holds no record, and [`cycling_window`]'s
/// memo arms lazily again: two iterations until the fingerprint repeats,
/// two more recorded, then replays resume — four computed iterations a
/// fault-free run replays.
fn assert_memo_was_rebuilt(
    report: &glp_suite::core::LpRunReport,
    fault_free: &glp_suite::core::LpRunReport,
) {
    assert_eq!(
        report.replayed_iterations,
        fault_free.replayed_iterations - 4,
        "the records must be dropped at the fault and rebuilt from scratch"
    );
    assert_eq!(
        report.changed_per_iteration,
        fault_free.changed_per_iteration
    );
    assert_eq!(report.active_per_iteration, fault_free.active_per_iteration);
    assert_eq!(
        report.direction_per_iteration,
        fault_free.direction_per_iteration
    );
}

/// A launch the driver *replays* passes the launch boundary like one it
/// computes: a `LaunchFail` armed on it fires there and is retried on the
/// same tier, and a `DeviceLost` armed on it walks the ladder.
#[test]
fn faults_on_a_replayed_launch_are_retried_and_degraded_around() {
    let g = cycling_window();
    let hooked = RunOptions::default().with_barrier_hook(BarrierHook::new(|_| {}));
    let (want, want_report, launch) =
        cycling_probe(GpuEngine::titan_v(), GpuEngine::device, &hooked);

    for kind in [FaultKind::LaunchFail, FaultKind::DeviceLost] {
        let faults = plan(&[(kind, launch)]);
        let mut engine = ResilientEngine::new(vec![
            Box::new(GpuEngine::new(titan_v(&faults))),
            Box::new(HybridEngine::titan_v()),
            Box::new(SequentialEngine::bsp()),
        ]);
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), CYCLE_ITERS);
        let report = engine
            .run(&g, &mut prog, &RunOptions::default())
            .expect("recovers");

        assert_eq!(faults.fired().len(), 1, "{kind:?} not fired");
        let stats = engine.resilience();
        let retried = kind == FaultKind::LaunchFail;
        assert_eq!(
            (stats.retries, stats.degradations),
            (u32::from(retried), u32::from(!retried))
        );
        assert_eq!(stats.tier, Some(if retried { "GLP" } else { "GLP-hybrid" }));
        assert_eq!(prog.labels(), want.labels(), "{kind:?}");
        assert_memo_was_rebuilt(&report, &want_report);
        assert_report_covers_the_whole_run(&report);
    }
}

/// The multi-GPU twin: the second of two devices is lost on a replayed
/// launch, the backend repartitions onto the survivor, and the phase is
/// computed afresh there — the records described the old partitioning.
#[test]
fn device_loss_on_a_replayed_launch_repartitions() {
    let g = cycling_window();
    let opts = RunOptions::default();
    let (want, want_report, launch) =
        cycling_probe(MultiGpuEngine::titan_v(2), |e| e.gpus().device(1), &opts);

    let mut engine = MultiGpuEngine::titan_v(2);
    let victim = plan(&[(FaultKind::DeviceLost, launch)]);
    engine.gpus_mut().device_mut(1).set_faults(Some(victim));
    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), CYCLE_ITERS);
    let report = engine
        .run(&g, &mut prog, &opts)
        .expect("the survivor finishes");

    assert_eq!(engine.gpus().survivors(), vec![0]);
    assert_eq!(prog.labels(), want.labels());
    assert_memo_was_rebuilt(&report, &want_report);
}
