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
//! and out of `apply_decisions`, the entry copy) — and, while the frontier
//! list repeats two apart, one compare of the spoken labels against the
//! phase two back plus, on a miss, one copy of them into the record.
//!
//! ## A 2-cycle computes each half once
//!
//! Synchronous LP on a user–item window falls into a period-2 orbit, and
//! the vertices a delta touches (popular items) sit in the middle of it:
//! the engines' lag-1 rule "no in-neighbor changed, keep the decision"
//! never fires for them, yet from some iteration on everything they read
//! is what they read two iterations earlier. So the replay keeps the last
//! three *frontier phases* — the frontier list, the spoken labels, one
//! exact decision per frontier vertex — and when iteration `t`'s frontier
//! list and spoken labels equal those of `t − 2`, element by element (no
//! fingerprint), it writes the recorded decisions instead of computing
//! them. This is [the driver's phase replay](super::bsp) at the replay's
//! own granularity, under the same licence: only for a program declaring
//! [`sparse_activation`](LpProgram::sparse_activation) — a frontier
//! vertex's exact decision is then a function of the spoken labels and
//! the program's pure callbacks — and only from a phase this call
//! recorded (computed, or taken over in turn).
//!
//! What a hit does *not* reuse: off the frontier the **current** memo
//! entry supplies the decision, as on every other iteration, so nothing
//! requires the memo to be periodic; `apply_decisions`, the divergence
//! check against the current entry and the next frontier run unchanged.
//! The frontier list is compared first and a phase is recorded only when
//! its list equals the one two back: a replay whose frontier keeps
//! growing (a road lattice, where the delta's divergence spreads a hop an
//! iteration) compares two lengths per iteration and keeps nothing
//! label-sized.
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
///
/// `report.replayed_iterations` counts the iterations whose frontier
/// decisions were taken from the phase two back instead of computed (see
/// the module docs). A hit reuses exactly that — one exact decision per
/// frontier vertex and their `scheduled` count. It never reuses a memo
/// entry (off the frontier the current one decides), and
/// `apply_decisions`, the divergence check and the next frontier run on
/// every iteration: every field below is what a replay that computed
/// every frontier leaves.
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
    /// Neighbour entries the exact decisions read, summed over the
    /// iterations that computed them (iterations taken from a record read
    /// none) — the replay's work, which an O(delta) replay keeps far under
    /// `|E| × iterations`.
    pub edges_scanned: u64,
}

/// One iteration's frontier phase: the frontier list and, when the phase
/// was recorded, the spoken labels its exact decisions read and what they
/// were.
#[derive(Default)]
struct FrontierPhase {
    frontier: Vec<VertexId>,
    /// Empty unless recorded (so nothing equals it).
    spoken: Vec<Label>,
    /// One decision per frontier vertex, in list order.
    decided: Vec<Decision>,
    /// Frontier vertices with a neighbor list (what the report counts).
    scheduled: u64,
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
    let mut on_frontier: Vec<bool> = seeds.to_vec();
    let mut next: Vec<VertexId> = Vec::new();
    let mut decisions: Vec<Decision> = vec![None; n];
    // A frontier vertex's exact decision is a function of the spoken
    // labels only for a `sparse_activation` program: only then may a
    // recorded phase stand in for a computed one.
    let memoize = prog.sparse_activation();
    #[cfg(test)]
    let memoize = memoize && !tests::ALWAYS_COMPUTE.get();
    // `ring[0]` is the frontier phase being driven, `ring[1]` and `ring[2]`
    // the ones one and two iterations back.
    let mut ring: [FrontierPhase; 3] = Default::default();
    ring[0].frontier = seed_list.clone();
    let mut spoken: Vec<Label> = vec![0; n];
    let mut result = DeltaReplay {
        initial_frontier: seed_list.len(),
        peak_frontier: seed_list.len(),
        ..Default::default()
    };
    let report = &mut result.report;

    for iteration in 0..max_iterations {
        prog.begin_iteration(iteration);
        let [cur, _, old] = &mut ring;
        prog.pick_labels_into(0, &mut spoken);
        let pred = &memo[(iteration as usize).min(memo.len() - 1)];
        // Off the frontier the memo's label *is* the vertex's
        // from-scratch decision. Only the label lands in program state;
        // the score is one no adoption floor (`SeededLp`) turns away.
        for (d, &p) in decisions.iter_mut().zip(pred) {
            *d = Some((p, f64::INFINITY));
        }
        for &v in &isolated {
            decisions[v as usize] = None;
        }
        // Same frontier, same spoken labels as two iterations back: the
        // exact decisions are the ones recorded then. Compared element by
        // element, and the frontier — the short list — first: while it
        // does not repeat, nothing label-sized is compared or kept.
        let periodic = memoize && old.frontier == cur.frontier;
        let hit = periodic && old.spoken == spoken;
        if hit {
            std::mem::swap(&mut cur.spoken, &mut old.spoken);
            std::mem::swap(&mut cur.decided, &mut old.decided);
            cur.scheduled = old.scheduled;
            report.replayed_iterations += 1;
            for (&v, &d) in cur.frontier.iter().zip(&cur.decided) {
                decisions[v as usize] = d;
            }
        } else {
            cur.decided.clear();
            cur.scheduled = 0;
            for &v in &cur.frontier {
                if g.degree(v) > 0 {
                    cur.scheduled += 1;
                    result.edges_scanned += u64::from(csr.degree(v));
                    decisions[v as usize] =
                        exact_mfl(&*prog, csr, &mut ht, v, |u| spoken[u as usize]);
                }
                cur.decided.push(decisions[v as usize]);
            }
            cur.spoken.clear();
            if periodic {
                cur.spoken.extend_from_slice(&spoken);
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
        for &v in &cur.frontier {
            on_frontier[v as usize] = false;
        }
        let mut admit = |v: VertexId| {
            if !std::mem::replace(&mut on_frontier[v as usize], true) {
                next.push(v);
            }
        };
        seed_list.iter().for_each(|&v| admit(v));
        for &v in &cur.frontier {
            let l = labels[v as usize];
            if l != pred[v as usize] {
                entry[v as usize] = l;
                admit(v);
                out.neighbors(v).iter().for_each(|&w| admit(w));
            }
        }
        result.peak_frontier = result.peak_frontier.max(next.len());
        result.memo.push(entry);
        report.changed_per_iteration.push(changed);
        report.active_per_iteration.push(cur.scheduled);
        report.iterations = iteration + 1;
        // The phase two back, which nothing compares against any more,
        // becomes the one the next iteration drives.
        ring.rotate_right(1);
        std::mem::swap(&mut ring[0].frontier, &mut next);
        next.clear();
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
    use super::super::{Engine, FrontierMode, ResilientEngine, RunOptions, SequentialEngine};
    use super::*;
    use crate::variants::{ClassicLp, Llp, SeededLp, WeightedLp};
    use glp_graph::gen::{
        bipartite_interaction, caveman, community_powerlaw, road_network, BipartiteConfig,
        CommunityPowerLawConfig, RoadConfig,
    };
    use glp_graph::GraphBuilder;
    use proptest::prelude::*;

    thread_local! {
        /// The pin that proves record ≡ recompute: while set, the calling
        /// thread's replays compute every frontier. Absent from non-test
        /// builds.
        pub(super) static ALWAYS_COMPUTE: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

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

    const ITERS: u32 = 20;

    /// The user–item window shape (synchronous LP 2-cycles on it), a
    /// caveman ring, a power-law community graph, a road lattice.
    fn family(family: usize, seed: u64) -> Graph {
        match family {
            0 => bipartite_interaction(&BipartiteConfig {
                num_users: 60,
                num_items: 25,
                num_interactions: 600,
                skew: 0.8,
                seed,
            }),
            1 => caveman(6, 5),
            2 => community_powerlaw(&CommunityPowerLawConfig {
                num_vertices: 200,
                avg_degree: 6.0,
                num_communities: 6,
                seed,
                ..Default::default()
            }),
            _ => road_network(&RoadConfig {
                width: 12,
                height: 9,
                keep: 0.7,
                seed,
            }),
        }
    }

    /// `base` over `extra_vertices` more vertices plus the `extra` edges.
    /// An edge keeps the weight it has in `base` (an unweighted base is
    /// weighted by endpoints, parallel edges summed); an extra edge that
    /// repeats one thickens it.
    fn grown(base: &Graph, extra_vertices: usize, extra: &[(VertexId, VertexId)]) -> Graph {
        let by_endpoints = |u: VertexId, v: VertexId| 1.0 + ((u + v) % 3) as f32;
        let mut b = GraphBuilder::new(base.num_vertices() + extra_vertices);
        for v in 0..base.num_vertices() as VertexId {
            let weights = base.incoming().neighbor_weights(v);
            for (j, &u) in base.neighbors(v).iter().enumerate() {
                if u < v {
                    b.add_weighted_edge(u, v, weights.map_or(by_endpoints(u, v), |w| w[j]));
                }
            }
        }
        for &(u, v) in extra {
            b.add_weighted_edge(u, v, by_endpoints(u, v));
        }
        b.symmetrize(true).dedup(true);
        b.build()
    }

    /// `ClassicLp`, `WeightedLp` without and with retention, `SeededLp`;
    /// `Llp` past them.
    fn program(variant: usize, g: &Graph) -> Box<dyn LpProgram> {
        let n = g.num_vertices();
        match variant {
            0 => Box::new(ClassicLp::with_max_iterations(n, ITERS)),
            1 => Box::new(WeightedLp::from_graph(g, ITERS)),
            2 => Box::new(WeightedLp::from_graph(g, ITERS).with_retention(0.5)),
            3 => {
                let seeds: Vec<VertexId> = (0..n as VertexId).step_by(7).collect();
                Box::new(SeededLp::with_max_iterations(n, &seeds, ITERS))
            }
            // Not `sparse_activation`: scores read per-round global volumes.
            _ => Box::new(Llp::with_max_iterations(n, 1.0, ITERS)),
        }
    }

    /// What a replay leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        labels: Vec<Label>,
        changed: Vec<u64>,
        active: Vec<u64>,
        memo: Vec<Vec<Label>>,
        converged: bool,
        frontiers: (usize, usize),
    }

    /// Replays with the records live (`reuse`) or pinned off; returns the
    /// outcome and how many iterations were taken from a record.
    fn replay(
        g: &Graph,
        prog: &mut dyn LpProgram,
        memo: &[Vec<Label>],
        seeds: &[bool],
        reuse: bool,
    ) -> (Outcome, u32) {
        ALWAYS_COMPUTE.set(!reuse);
        let r = replay_delta(g, prog, memo, seeds, ITERS);
        ALWAYS_COMPUTE.set(false);
        let outcome = Outcome {
            labels: prog.labels().to_vec(),
            changed: r.report.changed_per_iteration,
            active: r.report.active_per_iteration,
            memo: r.memo,
            converged: r.converged,
            frontiers: (r.initial_frontier, r.peak_frontier),
        };
        (outcome, r.report.replayed_iterations)
    }

    /// The from-scratch run of `variant` over `g`: labels, `changed`
    /// trace, memo.
    fn from_scratch(variant: usize, g: &Graph) -> (Vec<Label>, Vec<u64>, Vec<Vec<Label>>) {
        let mut prog = program(variant, g);
        let recorder = MemoRecorder::new();
        let opts = RunOptions::default()
            .with_max_iterations(ITERS)
            .with_barrier_hook(recorder.hook(g.num_vertices()));
        let report = SequentialEngine::bsp().run(g, &mut *prog, &opts).unwrap();
        (
            prog.labels().to_vec(),
            report.changed_per_iteration,
            recorder.into_memo(),
        )
    }

    /// A delta over `old`: the `picks` as edges between existing vertices,
    /// one edge to a new vertex, and a second new vertex that is seeded
    /// but isolated. Returns the grown graph, the old run's memo carried
    /// into its id space (identity placeholders on the new vertices) and
    /// the seed bitmap.
    fn delta_case(
        variant: usize,
        old: &Graph,
        picks: &[(u32, u32)],
    ) -> (Graph, Vec<Vec<Label>>, Vec<bool>) {
        let n_old = old.num_vertices() as VertexId;
        let mut extra: Vec<(VertexId, VertexId)> = picks
            .iter()
            .map(|&(a, b)| (a % n_old, b % n_old))
            .filter(|(u, v)| u != v)
            .collect();
        extra.push((picks[0].0 % n_old, n_old));
        let new = grown(old, 2, &extra);
        let mut seeds = vec![false; new.num_vertices()];
        for &(u, v) in &extra {
            seeds[u as usize] = true;
            seeds[v as usize] = true;
        }
        seeds[n_old as usize + 1] = true;
        let (_, _, mut memo) = from_scratch(variant, old);
        for entry in &mut memo {
            entry.extend([n_old, n_old + 1]);
        }
        (new, memo, seeds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A replay that takes frontier decisions from its records leaves
        /// exactly what the replay that computes every frontier leaves —
        /// which is what the from-scratch run leaves.
        #[test]
        fn taking_the_record_equals_recomputing(
            fam in 0usize..4,
            seed in 0u64..1000,
            variant in 0usize..4,
            picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..12),
        ) {
            let old = grown(&family(fam, seed), 0, &[]);
            let (new, memo, seeds) = delta_case(variant, &old, &picks);
            let mut computed = program(variant, &new);
            let (want, none) = replay(&new, &mut *computed, &memo, &seeds, false);
            prop_assert_eq!(none, 0);
            let mut reused = program(variant, &new);
            let (got, hits) = replay(&new, &mut *reused, &memo, &seeds, true);
            prop_assert_eq!(&got, &want);
            let (labels, changed, _) = from_scratch(variant, &new);
            prop_assert_eq!(&got.labels, &labels);
            prop_assert_eq!(&got.changed, &changed);
            // A window still cycles at the cap: it has repeated itself.
            prop_assert!(fam != 0 || hits > 0, "bipartite window replayed nothing");
        }
    }

    /// The licence is the program's: on a window where `ClassicLp` takes
    /// most of its frontiers from the records, a program that does not
    /// declare `sparse_activation` computes every one.
    #[test]
    fn a_program_without_sparse_activation_takes_no_record() {
        let old = grown(&family(0, 7), 0, &[]);
        for (variant, licensed) in [(0, true), (4, false)] {
            let (new, memo, seeds) = delta_case(variant, &old, &[(3, 70), (11, 64)]);
            let mut prog = program(variant, &new);
            let (outcome, hits) = replay(&new, &mut *prog, &memo, &seeds, true);
            assert_eq!(outcome.changed.len(), ITERS as usize, "still cycling");
            let want = if licensed { ITERS / 2..ITERS } else { 0..1 };
            assert!(want.contains(&hits), "variant {variant} took {hits}");
        }
    }
}
