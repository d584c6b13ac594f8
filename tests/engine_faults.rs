//! Device-fault pins. `glp_test_support::oracle` checks the recovery
//! contract on every draw: no fault moves a label or a trace, no live device
//! keeps memory, each iteration is begun once, a fired fault is recorded
//! once and a plan never due charges nothing. The first tests pin named
//! scenarios as its one-fault cases; three stay hand-built: three recoveries
//! in one run, two faults on two cards, and faults on a replayed launch.

use glp_suite::baselines::{CpuLp, CpuLpConfig};
use glp_suite::core::engine::{BarrierHook, GpuEngine, HybridEngine, MultiGpuEngine};
use glp_suite::core::{ClassicLp, Engine, FrontierMode, LpProgram, LpRunReport};
use glp_suite::core::{ResilientEngine, RunOptions, SequentialEngine};
use glp_suite::gpusim::faults::{Fault, FaultPlan};
use glp_suite::gpusim::Device;
use glp_suite::graph::gen::{bipartite_interaction, path, BipartiteConfig};
use glp_suite::graph::Label;
use glp_test_support::oracle::*;
use glp_test_support::SaltedLp;
use std::sync::{Arc, Mutex};

/// A 4-clique with a 9-edge tail: labels slide for 8 iterations while the
/// frontier shrinks from iteration 2. Iteration k is launches 7k..7k+7 on a
/// card (`Auto`; 6k.. without snapshots), 4k..4k+4 under `Dense`.
fn lollipop(rigs: &[Rig], fault: (FaultKind, u32)) -> Case {
    let mut edges = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    edges.extend((3..12).map(|v| (v, v + 1)));
    Case {
        n: 13,
        edges,
        rigs: rigs.to_vec(),
        ladder: rigs.len() > 1,
        fault: Some(fault),
        ..Case::default()
    }
}

/// Checks `case` and that its fault fired after the first barrier, so the
/// run recovers mid-way however long the kernel schedule grows.
fn check_mid_run(case: Case) -> Vec<&'static str> {
    let ran = check(case);
    assert!(ran.contains(&"fault after a barrier"));
    ran
}

/// A rejected launch inside iteration 1 is retried on the same rung.
#[test]
fn transient_launch_failure_resumes_at_failed_iteration() {
    check_mid_run(lollipop(&[Gpu, HostBsp], (LaunchFail, 8)));
}

/// A lost streaming card leaves the host tier to finish.
#[test]
fn persistent_device_loss_degrades_to_sequential() {
    check_mid_run(lollipop(&[Hybrid, HostBsp], (DeviceLost, 5)));
}

#[test]
fn multi_gpu_survives_single_device_loss() {
    check_mid_run(lollipop(&[Multi3], (DeviceLost, 9)));
}

/// The last card's first upload runs out of memory after the others'
/// shares are resident: the failed stage releases them itself.
#[test]
fn multi_gpu_failed_initial_upload_leaves_nothing_resident() {
    check(lollipop(&[Multi2], (Oom, 0)));
}

/// Plans are always compiled: one whose fault is never due charges nothing.
#[test]
fn unarmed_injectors_change_nothing() {
    for (rig, frontier) in [(Gpu, Auto), (Hybrid, Auto), (Multi2, Auto), (GSort, Dense)] {
        let mut case = lollipop(&[rig], (LaunchFail, u32::MAX));
        case.frontier = frontier;
        check(case);
    }
}

#[test]
fn device_loss_emits_degrade_span_under_failed_iteration() {
    let mut case = lollipop(&[Gpu, HostBsp], (DeviceLost, 8));
    case.tracer = true;
    check_mid_run(case);
}

#[test]
fn multi_gpu_repartition_emits_resilience_span_mid_iteration() {
    let mut case = lollipop(&[Multi3], (DeviceLost, 8));
    case.tracer = true;
    check_mid_run(case);
}

/// G-Sort re-drives iteration 2 from the live program.
#[test]
fn lower_tier_resumes_at_the_failed_iteration_not_at_zero() {
    let mut case = lollipop(&[Gpu, GSort], (DeviceLost, 9));
    case.frontier = Dense;
    check_mid_run(case);
}

/// The ladder's clock holds OMP's share: a fork/join per superstep it ran.
#[test]
fn a_lost_gpu_finishes_on_the_omp_baseline() {
    let case = lollipop(&[Gpu, Omp], (DeviceLost, 8));
    check_mid_run(case.clone());
    let gpu = GpuEngine::new(titan_v(&[(DeviceLost, 8)]));
    let omp = CpuLp::omp(CpuLpConfig::default());
    let mut engine = ResilientEngine::new(vec![Box::new(gpu), Box::new(omp)]);
    let (g, mut prog) = (case.graph(), ClassicLp::new(13));
    let report = engine.run(&g, &mut prog, &case.options()).unwrap();
    assert!(report.modeled_seconds > f64::from(report.iterations - 1) * 1e-4);
}

/// G-Sort cannot schedule over a frontier: from iteration 1 on it sweeps
/// every vertex, where the GPU's frontier would have shrunk.
#[test]
fn degrading_to_a_rung_without_a_frontier_continues_all_active() {
    let ran = check_mid_run(lollipop(&[Gpu, GSort], (DeviceLost, 8)));
    assert!(ran.contains(&"all-active after a degrade"));
}

/// A bare engine whose barrier-2 snapshot is rejected returns `Err` holding
/// barrier 1's labels.
#[test]
fn a_fault_in_the_last_kernel_leaves_the_previous_barriers_labels() {
    for (rig, snapshot) in [(Gpu, 20), (Hybrid, 11), (Multi2, 20)] {
        let mut case = lollipop(&[rig], (LaunchFail, snapshot));
        case.hook = true;
        check_mid_run(case);
    }
}

/// A plan of device faults, each at its launch (upload, for `Oom`) index.
fn plan(faults: &[(FaultKind, u64)]) -> Arc<FaultPlan> {
    let device = |&(kind, at): &(FaultKind, u64)| Fault::Device { kind, at };
    Arc::new(FaultPlan::new(faults.iter().map(device)))
}

/// A Titan V reading a plan of `faults`.
fn titan_v(faults: &[(FaultKind, u64)]) -> Device {
    let mut device = Device::titan_v();
    device.set_faults(Some(plan(faults)));
    device
}

/// Recovery is the driver's policy: a program with a non-idempotent
/// `begin_iteration` and no checkpoint survives a retry and a GPU → hybrid →
/// host walk, every iteration begun once and its barrier hook fired once.
#[test]
fn a_program_without_checkpoints_survives_retry_and_degrade() {
    let (g, n, mut want) = (path(200), 200, SaltedLp::new(200));
    let dense = RunOptions::default().with_frontier(FrontierMode::Dense);
    let want_report = GpuEngine::titan_v().run(&g, &mut want, &dense).unwrap();
    // Four launches an iteration (pick, propagate, update, snapshot): a
    // rejected launch in iteration 1, the GPU lost in iteration 2 — two
    // launches on, the rejected one being re-driven — and the hybrid card
    // lost on its first kernel.
    let gpu = titan_v(&[(LaunchFail, 5), (DeviceLost, 11)]);
    let mut engine = ResilientEngine::new(vec![
        Box::new(GpuEngine::new(gpu)),
        Box::new(HybridEngine::new(titan_v(&[(DeviceLost, 0)]))),
        Box::new(SequentialEngine::bsp()),
    ]);
    let barriers = Arc::new(Mutex::new(Vec::<(u32, Vec<Label>)>::new()));
    let sink = Arc::clone(&barriers);
    let hook = BarrierHook::new(move |ev| {
        let barrier = (ev.iteration, ev.program.labels().to_vec());
        sink.lock().unwrap().push(barrier);
    });
    let mut prog = SaltedLp::new(n);
    let report = engine.run(&g, &mut prog, &dense.with_barrier_hook(hook));
    let (stats, report) = (engine.resilience(), report.unwrap());
    let counts = (stats.retries, stats.degradations, stats.faults.len());
    assert_eq!((counts, stats.iterations_salvaged), ((1, 2, 3), 1 + 2 + 2));
    assert_eq!(stats.tier, Some("Sequential-BSP"));
    assert_eq!(prog.labels(), want.labels());
    let (changed, want_changed) = (report.changed_per_iteration.clone(), want_report);
    assert_eq!(changed, want_changed.changed_per_iteration);
    assert_report_covers_the_whole_run(&report);
    let barriers = barriers.lock().unwrap();
    let hooked: Vec<u32> = barriers.iter().map(|b| b.0).collect();
    let each: Vec<u32> = (0..SaltedLp::ITERS).collect();
    assert_eq!((&prog.begun, &hooked), (&each, &each));
    assert_eq!(barriers.last().unwrap().1, prog.labels());
}

/// A recovered run's report is not truncated to its final attempt: one
/// entry per iteration, and a snapshot at every barrier, before and after.
fn assert_report_covers_the_whole_run(r: &LpRunReport) {
    let n = r.iterations as usize;
    let lens = (r.changed_per_iteration.len(), r.iteration_seconds.len());
    assert_eq!((lens, r.snapshots_taken), ((n, n), n as u64));
}

/// Two faults on two cards: card 0 is lost in iteration 1 and the survivor's
/// re-upload runs out of memory. `run` returns the error without freeing
/// shares never uploaded, and the program holds barrier 0's labels.
#[test]
fn multi_gpu_failed_reupload_returns_the_error_without_freeing_phantoms() {
    let (g, opts) = (path(64), RunOptions::default());
    let mut barrier_0 = ClassicLp::with_max_iterations(64, 1);
    GpuEngine::titan_v().run(&g, &mut barrier_0, &opts).unwrap();
    // Card 0's launch 7 begins iteration 1; card 1's upload 1 re-uploads.
    let (lost, survivor) = (plan(&[(DeviceLost, 7)]), plan(&[(Oom, 1)]));
    let mut engine = MultiGpuEngine::titan_v(2);
    let gpus = engine.gpus_mut();
    gpus.device_mut(0).set_faults(Some(Arc::clone(&lost)));
    gpus.device_mut(1).set_faults(Some(Arc::clone(&survivor)));
    let mut prog = ClassicLp::new(64);
    let hooked = opts.with_barrier_hook(BarrierHook::new(|_| {}));
    let outcome = engine.run(&g, &mut prog, &hooked);
    assert!(lost.all_fired() && survivor.all_fired());
    assert!(outcome.is_err(), "the failed re-upload must surface");
    assert!(engine.gpus().device(0).is_lost());
    assert_eq!(engine.gpus().device(1).resident_bytes(), 0, "nothing leaks");
    assert_eq!(prog.labels(), barrier_0.labels());
}

/// `ClassicLp` over a user–item window LP 2-cycles on: a fault-free run
/// replays 13 of 20 phases. The records (4.9 KB) exceed its CSR (3.9 KB),
/// so the memo arms lazily, on a repeated input fingerprint.
fn cycle(engine: &mut dyn Engine, opts: &RunOptions) -> (Vec<u32>, LpRunReport) {
    let g = bipartite_interaction(&BipartiteConfig {
        num_users: 60,
        num_items: 25,
        num_interactions: 400,
        skew: 0.8,
        seed: 7,
    });
    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 20);
    let report = engine.run(&g, &mut prog, opts).unwrap();
    (prog.labels().to_vec(), report)
}

/// After a recovery the driver holds no record, and the memo arms lazily
/// again: two iterations until the fingerprint repeats, two more recorded,
/// then replays resume — four computed iterations a fault-free run replays.
fn assert_memo_was_rebuilt(report: &LpRunReport, fault_free: &LpRunReport) {
    let replayed = [fault_free, report].map(|r| r.replayed_iterations);
    assert_eq!(replayed, [13, 9]);
    let (r, f) = (report, fault_free);
    assert_eq!(r.changed_per_iteration, f.changed_per_iteration);
    assert_eq!(r.active_per_iteration, f.active_per_iteration);
    assert_eq!(r.direction_per_iteration, f.direction_per_iteration);
}

/// A replayed launch passes the launch boundary like a computed one: a
/// `LaunchFail` on it is retried on the same rung, a `DeviceLost` walks the
/// ladder.
#[test]
fn faults_on_a_replayed_launch_are_retried_and_degraded_around() {
    // A hook charges the barrier snapshots a ladder does: eight launches an
    // iteration, so launch 73 follows iteration 9's pick, a replay.
    let hooked = RunOptions::default().with_barrier_hook(BarrierHook::new(|_| {}));
    let (want, want_report) = cycle(&mut GpuEngine::titan_v(), &hooked);
    for kind in [LaunchFail, DeviceLost] {
        let mut engine = ResilientEngine::new(vec![
            Box::new(GpuEngine::new(titan_v(&[(kind, 73)]))),
            Box::new(HybridEngine::titan_v()),
            Box::new(SequentialEngine::bsp()),
        ]);
        let (labels, report) = cycle(&mut engine, &RunOptions::default());
        let stats = engine.resilience();
        let retried = u32::from(kind == LaunchFail);
        let tier = [Some("GLP-hybrid"), Some("GLP")][retried as usize];
        let got = (stats.retries, stats.degradations, stats.tier);
        assert_eq!(got, (retried, 1 - retried, tier));
        assert_eq!(labels, want, "{kind:?}");
        assert_memo_was_rebuilt(&report, &want_report);
        assert_report_covers_the_whole_run(&report);
    }
}

/// The multi-GPU twin: the second of two cards is lost on a replayed
/// launch, and the phase is computed afresh on the survivor — the records
/// described the old partitioning.
#[test]
fn device_loss_on_a_replayed_launch_repartitions() {
    let opts = RunOptions::default();
    let (want, want_report) = cycle(&mut MultiGpuEngine::titan_v(2), &opts);
    let mut engine = MultiGpuEngine::titan_v(2);
    // Seven launches an iteration: launch 64 follows iteration 9's pick.
    let victim = plan(&[(DeviceLost, 64)]);
    engine.gpus_mut().device_mut(1).set_faults(Some(victim));
    let (labels, report) = cycle(&mut engine, &opts);
    assert_eq!(engine.gpus().survivors(), vec![0]);
    assert_eq!(labels, want);
    assert_memo_was_rebuilt(&report, &want_report);
}
