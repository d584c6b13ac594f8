//! Sequential (asynchronous) reference engine.
//!
//! Raghavan et al.'s original LPA updates vertices **asynchronously** — a
//! vertex's new label is visible to later vertices in the same sweep —
//! precisely because synchronous updates can oscillate (on bipartite
//! graphs they provably 2-cycle; see the tie-rule discussion in
//! [`super::BestLabel`]). The GPU engines are synchronous (BSP is what a
//! GPU can do); this engine is the asynchronous gold standard used to
//! study the difference, and a convenient single-threaded oracle for
//! debugging programs.
//!
//! Frontier scheduling composes with the asynchronous sweep: a vertex is
//! revisited only while some in-neighbor changed since its last visit.
//! Marks are set *during* the sweep, so a vertex downstream of a change is
//! picked up in the same pass — exactly the set of visits on which a dense
//! sweep could make progress, hence bit-identical labels.
//!
//! Not part of the paper's evaluation — no cost model is attached; only
//! wall-clock is reported.

use super::bsp::{drive, Backend, Phase};
use super::kernels::ShardStats;
use super::{
    exact_mfl, mfl_scratch, BspEngine, Decision, Direction, Engine, EngineError, FrontierMode,
    RunOptions,
};
use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_gpusim::DeviceError;
use glp_graph::{Graph, Label, VertexId};
use glp_sketch::BoundedHashTable;
use glp_trace::{Category, Clock};
use std::time::Instant;

/// The sequential host engine: the **asynchronous** gold standard
/// described above. Stateless — sweep order and iteration cap come from
/// [`RunOptions`]. Its synchronous sibling is [`SequentialEngine::bsp`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialEngine;

/// The **synchronous** (BSP) host engine ([`SequentialEngine::bsp`]): a
/// host sweep that reproduces the GPU engines' labels *and* per-iteration
/// traces byte-for-byte — the bottom rung of
/// [`ResilientEngine`](super::ResilientEngine)'s degradation ladder, where
/// a run stranded by dead devices finishes on the host without changing its
/// answer. No cost model is attached — only wall-clock is reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialBsp;

impl SequentialEngine {
    /// The asynchronous engine (no resources to own).
    pub fn new() -> Self {
        Self
    }

    /// The synchronous (BSP) host engine: bit-identical to the GPU
    /// engines, iteration for iteration.
    pub fn bsp() -> SequentialBsp {
        SequentialBsp
    }
}

impl Engine for SequentialBsp {
    fn name(&self) -> &'static str {
        "Sequential-BSP"
    }

    /// Runs `prog` on `g` with the spoken labels frozen per iteration, like
    /// the GPU engines. Host execution cannot fault: never returns `Err`.
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        drive(&mut HostBackend::default(), g, prog, opts)
    }
}

impl BspEngine for SequentialBsp {
    fn backend<'a>(&'a mut self, _g: &Graph, _opts: &RunOptions) -> Box<dyn Backend + 'a> {
        Box::new(HostBackend::default())
    }
}

impl Engine for SequentialEngine {
    fn name(&self) -> &'static str {
        "Sequential"
    }

    /// Runs `prog` on `g`, re-reading `pick_label` per edge, so updates
    /// from earlier vertices in the sweep are visible immediately. Host
    /// execution cannot fault, so this engine never returns `Err`.
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        assert_eq!(
            prog.num_vertices(),
            g.num_vertices(),
            "program sized for a different graph"
        );
        let wall_start = Instant::now();
        let n = g.num_vertices();
        let csr = g.incoming();
        let out = g.outgoing();
        let mut ht = mfl_scratch(g);
        let sparse = opts.frontier.sparse(prog.sparse_activation());
        let mut active = vec![true; n];
        // Pull-mode asynchronous scheduling: instead of changed vertices
        // scattering marks, each vertex gathers over its in-neighbors'
        // change stamps. Every visit takes a unique clock tick;
        // `visited_at[v]` is v's last visit, `stamp[u]` is u's last
        // *changing* visit, and v is armed iff `stamp[u] >= visited_at[v]`
        // for some in-neighbor u — `>=` (not `>`) because equality occurs
        // only when u == v via a self-loop, whose push analog is a vertex
        // re-marking itself in the same visit. `active` then carries only
        // the initial seed, consumed at first visit. This visits exactly
        // the set of vertices the scatter path visits, hence bit-identical
        // labels AND visit counts. There is no modeled cost on the host, so
        // `Auto` has no crossover to price and keeps the scatter path.
        let pull = sparse && opts.frontier == FrontierMode::Pull;
        let mut clock: u64 = 0;
        let mut visited_at: Vec<u64> = vec![0; if pull { n } else { 0 }];
        let mut stamp: Vec<u64> = vec![0; if pull { n } else { 0 }];
        let mut report = LpRunReport::default();
        // Host engines have no modeled clock: spans use the tracer's
        // wall seconds.
        if let Some(t) = &opts.tracer {
            t.begin(Category::Run, self.name(), Clock::Wall, t.wall_now());
        }

        for iteration in 0..opts.max_iterations {
            if let Some(t) = &opts.tracer {
                t.begin_arg(
                    Category::Iteration,
                    "iteration",
                    Clock::Wall,
                    t.wall_now(),
                    u64::from(iteration),
                );
            }
            prog.begin_iteration(iteration);
            let mut changed = 0u64;
            let mut visited = 0u64;
            for v in 0..n as VertexId {
                if csr.degree(v) == 0 {
                    continue;
                }
                if sparse {
                    let armed = active[v as usize]
                        || (pull
                            && csr.neighbors(v).iter().any(|&u| {
                                let s = stamp[u as usize];
                                s != 0 && s >= visited_at[v as usize]
                            }));
                    if !armed {
                        continue;
                    }
                }
                // Consume the mark before recomputing: a same-sweep change
                // in an in-neighbor re-arms it (via scatter marks when
                // pushing, via the stamp comparison when pulling).
                active[v as usize] = false;
                clock += 1;
                if pull {
                    visited_at[v as usize] = clock;
                }
                visited += 1;
                // Asynchronous: read each neighbor's *current* spoken label.
                let d = exact_mfl(&*prog, csr, &mut ht, v, |u| prog.pick_label(u));
                let did_change = prog.update_vertex(v, d);
                if did_change && sparse {
                    if pull {
                        stamp[v as usize] = clock;
                    } else {
                        for &w in out.neighbors(v) {
                            active[w as usize] = true;
                        }
                    }
                }
                changed += u64::from(did_change);
            }
            prog.end_iteration(iteration);
            report.changed_per_iteration.push(changed);
            report.active_per_iteration.push(visited);
            report.direction_per_iteration.push(if !sparse {
                Direction::Dense
            } else if pull {
                Direction::Pull
            } else {
                Direction::Push
            });
            report.iterations = iteration + 1;
            if let Some(t) = &opts.tracer {
                t.end(t.wall_now());
            }
            if prog.finished(iteration, changed) {
                break;
            }
        }
        report.wall_seconds = wall_start.elapsed().as_secs_f64();
        if let Some(t) = &opts.tracer {
            t.end(t.wall_now());
        }
        Ok(report)
    }
}

/// The synchronous host tier: the driver's BSP protocol with the exact
/// host MFL and no device — so its labels, `changed` trace, and `active`
/// trace are byte-identical to the device tiers'. Checkpoints cost nothing
/// here (`snapshots_taken` counts, `snapshot_seconds` stays 0 — host memory
/// is already addressable).
#[derive(Default)]
struct HostBackend {
    /// The MFL scratch, sized on first use: a ladder's host rung that never
    /// runs allocates nothing.
    ht: Option<BoundedHashTable>,
}

impl Backend for HostBackend {
    fn name(&self) -> &'static str {
        "Sequential-BSP"
    }

    fn propagate(
        &mut self,
        p: &Phase<'_>,
        spoken: &[Label],
        decisions: &mut [Decision],
    ) -> Result<ShardStats, DeviceError> {
        let csr = p.g.incoming();
        let ht = self.ht.get_or_insert_with(|| mfl_scratch(p.g));
        for v in p.work.scheduled_vertices() {
            decisions[v as usize] = exact_mfl(p.prog, csr, ht, v, |u| spoken[u as usize]);
        }
        Ok(ShardStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::super::FrontierMode;
    use super::*;
    use crate::variants::ClassicLp;
    use glp_graph::gen::{path, two_cliques_bridge};
    use glp_graph::GraphBuilder;

    fn run(g: &Graph, prog: &mut ClassicLp, opts: &RunOptions) -> LpRunReport {
        SequentialEngine::new().run(g, prog, opts).unwrap()
    }

    #[test]
    fn finds_communities_like_sync_engine() {
        let g = two_cliques_bridge(8);
        let mut prog = ClassicLp::new(g.num_vertices());
        run(&g, &mut prog, &RunOptions::default());
        let labels = prog.labels();
        assert!(labels[..8].iter().all(|&l| l == labels[0]));
        assert!(labels[8..].iter().all(|&l| l == labels[8]));
    }

    #[test]
    fn converges_on_bipartite_pair_where_sync_oscillates() {
        // A single edge: synchronous LP swaps the two labels forever; the
        // asynchronous sweep settles in one pass.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).symmetrize(true);
        let g = b.build();
        let mut prog = ClassicLp::with_max_iterations(2, 50);
        let report = run(&g, &mut prog, &RunOptions::default());
        assert!(
            report.iterations < 50,
            "async LPA should converge, ran {} iterations",
            report.iterations
        );
        assert_eq!(prog.labels()[0], prog.labels()[1]);
    }

    #[test]
    fn async_propagates_faster_than_one_hop_per_sweep() {
        // On a path, an ascending sweep carries low labels all the way to
        // the right end within a single iteration.
        let g = path(64);
        let mut prog = ClassicLp::with_max_iterations(64, 100);
        let report = run(&g, &mut prog, &RunOptions::default());
        assert!(
            report.iterations < 30,
            "async sweeps should converge quickly, took {}",
            report.iterations
        );
    }

    #[test]
    fn pull_sweep_matches_push_visit_for_visit() {
        // Self-loops exercise the `>=` stamp comparison (a changing vertex
        // must re-arm itself), the bridge exercises cross-sweep arming.
        let mut b = GraphBuilder::new(12);
        for v in 0..6u32 {
            for u in (v + 1)..6 {
                b.add_edge(v, u);
                b.add_edge(v + 6, u + 6);
            }
        }
        b.add_edge(5, 6);
        b.add_edge(0, 0);
        b.add_edge(7, 7);
        b.symmetrize(true);
        let g = b.build();
        let mut labels = Vec::new();
        let mut traces = Vec::new();
        for mode in [FrontierMode::Push, FrontierMode::Pull, FrontierMode::Auto] {
            let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 50);
            let report = run(&g, &mut prog, &RunOptions::default().with_frontier(mode));
            labels.push(prog.labels().to_vec());
            traces.push((
                report.changed_per_iteration.clone(),
                report.active_per_iteration.clone(),
            ));
            let expect = if mode == FrontierMode::Pull {
                Direction::Pull
            } else {
                Direction::Push
            };
            assert!(
                report.direction_per_iteration.iter().all(|&d| d == expect),
                "{mode:?} recorded {:?}",
                report.direction_per_iteration
            );
        }
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(traces[0], traces[1], "pull must visit exactly push's set");
        assert_eq!(traces[1], traces[2]);
    }

    #[test]
    fn frontier_sweep_matches_dense_and_visits_less() {
        let g = two_cliques_bridge(9);
        let mut dense_prog = ClassicLp::with_max_iterations(g.num_vertices(), 50);
        let dense = run(
            &g,
            &mut dense_prog,
            &RunOptions::default().with_frontier(FrontierMode::Dense),
        );
        let mut frontier_prog = ClassicLp::with_max_iterations(g.num_vertices(), 50);
        let frontier = run(&g, &mut frontier_prog, &RunOptions::default());
        assert_eq!(dense_prog.labels(), frontier_prog.labels());
        assert_eq!(dense.changed_per_iteration, frontier.changed_per_iteration);
        assert!(
            frontier.active_per_iteration.iter().sum::<u64>()
                < dense.active_per_iteration.iter().sum::<u64>(),
            "frontier {:?} dense {:?}",
            frontier.active_per_iteration,
            dense.active_per_iteration
        );
    }
}
