//! Memoized delta replay: re-running a BSP LP to the *exact* labels a
//! from-scratch run would produce, while recomputing decisions only on a
//! small frontier seeded by the vertices a graph delta touched.
//!
//! ## Why warm-starting alone is not enough
//!
//! LP is not confluent: restoring a previous converged state and
//! propagating "until quiescent" lands on *a* fixpoint, but not
//! necessarily the fixpoint a from-scratch run over the updated graph
//! reaches — retention scoring and the deterministic tie rule both depend
//! on the label a vertex held in earlier iterations, so the trajectory
//! matters, not just the endpoint. A serving system that pins
//! "incremental ≡ from-scratch, byte for byte" therefore has to replay
//! the from-scratch *trajectory*, not merely resume its final state.
//!
//! ## The replay
//!
//! [`replay_delta`] does exactly that, cheaply. The caller supplies a
//! **memo** — the per-iteration label arrays of the previous from-scratch
//! run, remapped into the updated graph's vertex id space — and a **seed
//! set** `S`: every vertex whose neighborhood the delta changed (both
//! endpoints of every added/updated edge; new vertices are automatically
//! in `S` because their edges are new).
//!
//! Each replayed iteration `t` maintains the invariant *labels ==
//! from-scratch labels after iteration `t`*:
//!
//! * **Frontier vertices** recompute their decision exactly as
//!   [`run_bsp`-style engines](super::SequentialEngine) do — frozen
//!   spoken labels, exact per-label aggregation, the shared
//!   [`BestLabel`](super::BestLabel) tie rule.
//! * **Non-frontier vertices** take the memo's prediction for iteration
//!   `t` as their decision. This is sound by induction: such a vertex is
//!   not in `S` (its neighborhood is unchanged), none of its in-neighbors
//!   diverged from the memo at `t-1` (a divergent in-neighbor would have
//!   pushed it into the frontier), and its own label matched the memo at
//!   `t-1` — so its from-scratch decision at `t` *is* the memo value.
//! * The next frontier is `S ∪ D ∪ out-neighbors(D)` where `D` is the
//!   set of vertices whose post-update label diverges from the memo —
//!   divergence spreads at most one hop per iteration, and a divergent
//!   vertex stays hot itself (its own label feeds retention and the tie
//!   rule next round).
//!
//! Per-vertex `changed` contributions equal the from-scratch run's
//! (prediction decisions change a vertex exactly when consecutive memo
//! entries differ), so the per-iteration `changed` counts — and therefore
//! the program's termination decision and iteration count — are
//! identical, which makes the final labels identical.
//!
//! ## What an iteration costs
//!
//! A vertex off the frontier adopts the memo label by construction, so it
//! can never diverge: the exact decisions, the divergence check and the
//! next frontier are computed by walking the frontier list and the
//! out-neighbors of its divergent members only, and the labels after the
//! iteration — the new memo entry — are the old entry copied and patched
//! on the frontier. What remains per iteration beside that
//! frontier-proportional work is four branch-free `memcpy`-class passes
//! over a label-sized array (spoken labels, the dense decision array in
//! and out of `apply_decisions`, the entry copy).
//!
//! Past the memo's end the last entry extends as a fixpoint, which is
//! valid when the memoized run converged (`changed == 0` implies the
//! decision map fixes the final labels); under equal iteration caps a
//! non-converged memo is never extended because the replay hits the same
//! cap.

use super::{exact_mfl, mfl_scratch, Decision};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_graph::{Graph, Label, VertexId};
use std::time::Instant;

/// What one [`replay_delta`] produced: the run report (host wall clock
/// only — no device is involved), the *new* memo for the next delta, and
/// the frontier trajectory.
#[derive(Clone, Debug, Default)]
pub struct DeltaReplay {
    /// Iterations, per-iteration `changed` (identical to the from-scratch
    /// run's) and per-iteration frontier sizes (as `active_per_iteration`).
    pub report: LpRunReport,
    /// Labels after each replayed iteration — the memo a subsequent
    /// replay over this run's graph consumes.
    pub memo: Vec<Vec<Label>>,
    /// Whether the replay reached a fixpoint (last iteration changed
    /// nothing) rather than the iteration cap.
    pub converged: bool,
    /// Seed-frontier size (`|S|`).
    pub initial_frontier: usize,
    /// Largest frontier any iteration consumed.
    pub peak_frontier: usize,
}

/// Replays `prog` over `g` against a remapped `memo` of the previous
/// from-scratch run, recomputing only the frontier grown from `seeds`
/// (see the module docs for the contract). `memo` must be non-empty and
/// each entry sized to the graph; `seeds` is the changed-neighborhood
/// bitmap. The program must start from its initial (pre-run) state —
/// the replay executes the whole trajectory, not a suffix.
pub fn replay_delta(
    g: &Graph,
    prog: &mut dyn LpProgram,
    memo: &[Vec<Label>],
    seeds: &[bool],
    max_iterations: u32,
) -> DeltaReplay {
    let wall_start = Instant::now();
    let n = g.num_vertices();
    assert_eq!(
        prog.num_vertices(),
        n,
        "program sized for a different graph"
    );
    assert_eq!(seeds.len(), n, "seed bitmap sized for a different graph");
    assert!(!memo.is_empty(), "replay needs at least one memo iteration");
    for m in memo {
        assert_eq!(m.len(), n, "memo entry sized for a different graph");
    }
    let csr = g.incoming();
    let out = g.outgoing();
    let mut ht = mfl_scratch(g);
    // The frontier as a list plus a membership bitmap, so an iteration
    // walks the frontier and its out-neighbors, never the graph.
    let seed_list: Vec<VertexId> = (0..n as VertexId).filter(|&v| seeds[v as usize]).collect();
    let isolated: Vec<VertexId> = (0..n as VertexId).filter(|&v| g.degree(v) == 0).collect();
    let mut frontier = seed_list.clone();
    let mut on_frontier: Vec<bool> = seeds.to_vec();
    let mut next: Vec<VertexId> = Vec::new();
    let mut spoken: Vec<Label> = vec![0; n];
    let mut decisions: Vec<Decision> = vec![None; n];
    let mut result = DeltaReplay {
        initial_frontier: seed_list.len(),
        peak_frontier: seed_list.len(),
        ..Default::default()
    };
    let report = &mut result.report;

    for iteration in 0..max_iterations {
        prog.begin_iteration(iteration);
        prog.pick_labels_into(0, &mut spoken);
        let pred = &memo[(iteration as usize).min(memo.len() - 1)];
        // Off the frontier the memo's label *is* the vertex's
        // from-scratch decision; the score slot is ignored by
        // `update_vertex` (only the label lands in program state).
        for (d, &p) in decisions.iter_mut().zip(pred) {
            *d = Some((p, 0.0));
        }
        for &v in &isolated {
            decisions[v as usize] = None;
        }
        let mut scheduled = 0u64;
        for &v in &frontier {
            if g.degree(v) > 0 {
                scheduled += 1;
                decisions[v as usize] = exact_mfl(&*prog, csr, &mut ht, v, |u| spoken[u as usize]);
            }
        }
        let changed = prog.apply_decisions(&decisions);
        prog.end_iteration(iteration);
        // Only a frontier vertex can leave the memoized trajectory (the
        // others adopted it just now), so the labels after this
        // iteration are the memo entry patched on the frontier, and the
        // next frontier is the seeds plus every divergent vertex plus
        // its out-neighbors.
        let labels = prog.labels();
        let mut entry = pred.clone();
        for &v in &frontier {
            on_frontier[v as usize] = false;
        }
        let mut admit = |v: VertexId| {
            if !std::mem::replace(&mut on_frontier[v as usize], true) {
                next.push(v);
            }
        };
        seed_list.iter().for_each(|&v| admit(v));
        for &v in &frontier {
            let l = labels[v as usize];
            if l != pred[v as usize] {
                entry[v as usize] = l;
                admit(v);
                out.neighbors(v).iter().for_each(|&w| admit(w));
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
        result.peak_frontier = result.peak_frontier.max(frontier.len());
        result.memo.push(entry);
        report.changed_per_iteration.push(changed);
        report.active_per_iteration.push(scheduled);
        report.iterations = iteration + 1;
        if prog.finished(iteration, changed) {
            result.converged = changed == 0;
            break;
        }
    }
    report.wall_seconds = wall_start.elapsed().as_secs_f64();
    result
}

/// Captures a from-scratch run's per-iteration label memo as the run
/// executes, via a [`BarrierHook`](super::BarrierHook): a barrier fires
/// exactly once per iteration, under a
/// [`ResilientEngine`](super::ResilientEngine) ladder and its recoveries
/// too, so the memo has one entry per iteration, in order.
#[derive(Clone, Default)]
pub struct MemoRecorder {
    captured: std::sync::Arc<std::sync::Mutex<Vec<Vec<Label>>>>,
}

impl MemoRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The hook to install with
    /// [`RunOptions::with_barrier_hook`](super::RunOptions::with_barrier_hook).
    /// (`_n` is unused, kept for existing callers.)
    pub fn hook(&self, _n: usize) -> super::BarrierHook {
        let captured = std::sync::Arc::clone(&self.captured);
        super::BarrierHook::new(move |ev| {
            let mut c = captured.lock().unwrap_or_else(|e| e.into_inner());
            c.push(ev.program.labels().to_vec());
        })
    }

    /// The captured per-iteration label arrays: one entry per iteration
    /// the run committed.
    pub fn into_memo(self) -> Vec<Vec<Label>> {
        std::mem::take(&mut *self.captured.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        Engine, FrontierMode, GpuEngine, HybridEngine, MultiGpuEngine, ResilientEngine, RunOptions,
        SequentialEngine,
    };
    use super::*;
    use crate::variants::WeightedLp;
    use glp_gpusim::{Device, DeviceConfig};
    use glp_graph::GraphBuilder;

    /// Two weighted communities bridged by growing edges; `extra` edges
    /// are appended to the base graph to form the delta.
    fn graph_with(extra: &[(u32, u32, f32)]) -> Graph {
        let n = 24;
        let mut b = GraphBuilder::new(n);
        for c in 0..2u32 {
            let base = c * 12;
            for i in 0..12u32 {
                for j in (i + 1)..12u32 {
                    if (i + j) % 3 != 0 {
                        b.add_weighted_edge(base + i, base + j, 1.0 + f32::from((i % 4) as u8));
                    }
                }
            }
        }
        for &(u, v, w) in extra {
            b.add_weighted_edge(u, v, w);
        }
        b.symmetrize(true).dedup(true);
        b.build()
    }

    fn scratch(g: &Graph) -> (Vec<Label>, LpRunReport, Vec<Vec<Label>>) {
        let mut prog = WeightedLp::from_graph(g, 30).with_retention(2.0);
        let recorder = MemoRecorder::new();
        let report = SequentialEngine::bsp()
            .run(
                g,
                &mut prog,
                &RunOptions::default()
                    .with_max_iterations(30)
                    .with_barrier_hook(recorder.hook(g.num_vertices())),
            )
            .unwrap();
        (prog.labels().to_vec(), report, recorder.into_memo())
    }

    #[test]
    fn replay_matches_from_scratch_byte_for_byte() {
        let old = graph_with(&[]);
        let (_, old_report, memo) = scratch(&old);
        assert_eq!(memo.len(), old_report.iterations as usize);

        // Delta: bridge the communities and thicken one edge.
        let extra = [(3, 15, 4.0f32), (5, 5 + 12, 2.0), (0, 1, 9.0)];
        let new = graph_with(&extra);
        let (want_labels, want_report, _) = scratch(&new);

        let mut seeds = vec![false; new.num_vertices()];
        for &(u, v, _) in &extra {
            seeds[u as usize] = true;
            seeds[v as usize] = true;
        }
        let mut prog = WeightedLp::from_graph(&new, 30).with_retention(2.0);
        let replay = replay_delta(&new, &mut prog, &memo, &seeds, 30);

        assert_eq!(prog.labels(), &want_labels[..]);
        assert_eq!(
            replay.report.changed_per_iteration,
            want_report.changed_per_iteration
        );
        assert_eq!(replay.report.iterations, want_report.iterations);
        assert_eq!(replay.memo.len(), replay.report.iterations as usize);
        assert!(replay.converged);
        assert_eq!(replay.initial_frontier, 6);
        // The replay recomputed strictly less than dense work would.
        assert!(replay
            .report
            .active_per_iteration
            .iter()
            .all(|&a| a <= new.num_vertices() as u64));
    }

    #[test]
    fn empty_delta_replays_the_memo_with_zero_recomputation() {
        let g = graph_with(&[]);
        let (want_labels, want_report, memo) = scratch(&g);
        let seeds = vec![false; g.num_vertices()];
        let mut prog = WeightedLp::from_graph(&g, 30).with_retention(2.0);
        let replay = replay_delta(&g, &mut prog, &memo, &seeds, 30);
        assert_eq!(prog.labels(), &want_labels[..]);
        assert_eq!(
            replay.report.changed_per_iteration,
            want_report.changed_per_iteration
        );
        assert_eq!(replay.report.active_per_iteration.iter().sum::<u64>(), 0);
        assert_eq!(replay.initial_frontier, 0);
    }

    #[test]
    fn recorder_chains_through_the_resilient_ladder() {
        // The caller's hook is the only hook a ladder run fires.
        let g = graph_with(&[]);
        let mut prog = WeightedLp::from_graph(&g, 30).with_retention(2.0);
        let recorder = MemoRecorder::new();
        let report = ResilientEngine::gpu_ladder()
            .run(
                &g,
                &mut prog,
                &RunOptions::default()
                    .with_max_iterations(30)
                    .with_frontier(FrontierMode::Auto)
                    .with_barrier_hook(recorder.hook(g.num_vertices())),
            )
            .unwrap();
        let memo = recorder.into_memo();
        assert_eq!(memo.len(), report.iterations as usize);
        assert_eq!(memo.last().map(Vec::as_slice), Some(prog.labels()));
    }

    #[test]
    fn warm_start_frontier_honored_at_iteration_zero() {
        // A converged program rerun with an all-false warm-start frontier
        // schedules nothing and changes nothing. One rule for every
        // backend of the BSP driver: the hybrid tier (on a device small
        // enough to force streaming) used to saturate iteration 0
        // regardless.
        let g = graph_with(&[]);
        let n = g.num_vertices();
        let streaming = DeviceConfig::tiny(n as u64 * 20 + g.size_bytes() / 3);
        let hybrid = HybridEngine::new(Device::new(streaming));
        assert!(hybrid.plan_chunks(&g) > 1, "graph should need streaming");
        let backends: Vec<Box<dyn Engine>> = vec![
            Box::new(SequentialEngine::bsp()),
            Box::new(GpuEngine::titan_v()),
            Box::new(hybrid),
            Box::new(MultiGpuEngine::titan_v(2)),
        ];
        for mut engine in backends {
            let mut prog = WeightedLp::from_graph(&g, 30).with_retention(2.0);
            let opts = RunOptions::default().with_max_iterations(30);
            engine.run(&g, &mut prog, &opts).unwrap();
            let settled = prog.labels().to_vec();
            let report = engine
                .run(
                    &g,
                    &mut prog,
                    &RunOptions {
                        initial_frontier: Some(vec![false; n]),
                        ..opts
                    },
                )
                .unwrap();
            let tier = engine.name();
            assert_eq!(prog.labels(), &settled[..], "{tier}");
            assert_eq!(report.active_per_iteration, vec![0], "{tier}");
            assert_eq!(report.changed_per_iteration, vec![0], "{tier}");
        }
    }
}
