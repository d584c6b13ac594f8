//! Multicore-CPU baselines: OMP, Ligra, TigerGraph.
//!
//! One engine with three presets — they share the per-vertex aggregation
//! (exact, same tie rule as the GPU kernels) and differ in the cost
//! structure the paper attributes to each system:
//!
//! * **OMP** — dense parallel-for every iteration.
//! * **Ligra** — frontier-based: after iteration `t`, only vertices with an
//!   in-neighbor that changed at `t` recompute at `t+1`.
//! * **TigerGraph** — accumulator-style: messages (src label per edge) are
//!   materialized to a buffer before aggregation, and every instruction
//!   pays an interpreter overhead factor; classic LP only, like the
//!   original (§5.1: "TG only supports the classic LP").
//!
//! Scheduling is controlled by [`RunOptions::frontier`] like everywhere
//! else: [`FrontierMode::Auto`](glp_core::FrontierMode) engages the
//! frontier for sparse-activation programs (dense fallback otherwise,
//! which matches how Ligra LP handles LLP/SLP); the benchmark harness
//! pins OMP and TigerGraph to `Dense` — their historical personalities.
//!
//! Modeled time comes from [`CpuConfig`]'s roofline so it is comparable
//! with the GPU engines' modeled time.

use glp_core::engine::{
    initial_active, BestLabel, Decision, Direction, Engine, EngineError, RunOptions,
};
use glp_core::{FrontierMode, LpProgram, LpRunReport};
use glp_gpusim::host::{CpuConfig, CpuCounters};
use glp_graph::{Graph, Label, VertexId};
use glp_sketch::{BoundedHashTable, InsertOutcome};
use std::time::Instant;

/// Which baseline personality a [`CpuLp`] runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavor {
    Omp,
    Ligra,
    TigerGraph,
}

/// Configuration of a CPU baseline's *machine* (run-level knobs like the
/// iteration cap and frontier mode live in [`RunOptions`]).
#[derive(Clone, Debug)]
pub struct CpuLpConfig {
    /// The machine (defaults to the paper's Xeon W-2133).
    pub cpu: CpuConfig,
    /// Software threads (capped at physical cores by the cost model).
    pub threads: u32,
}

impl Default for CpuLpConfig {
    fn default() -> Self {
        Self {
            cpu: CpuConfig::xeon_w2133(),
            threads: 12,
        }
    }
}

/// A CPU label-propagation engine (OMP / Ligra / TigerGraph preset).
#[derive(Clone, Debug)]
pub struct CpuLp {
    cfg: CpuLpConfig,
    flavor: Flavor,
    /// Interpreter/runtime overhead multiplier on instruction and
    /// random-access counts (accumulator indirection).
    instr_factor: f64,
    /// Whether messages are materialized to memory before aggregation.
    materialize_messages: bool,
    /// Fixed per-iteration coordination overhead (fork/join for OMP/Ligra,
    /// query scheduling for TigerGraph).
    superstep_overhead_s: f64,
    totals: CpuCounters,
}

impl CpuLp {
    /// The OpenMP baseline.
    pub fn omp(cfg: CpuLpConfig) -> Self {
        Self {
            cfg,
            flavor: Flavor::Omp,
            instr_factor: 1.0,
            materialize_messages: false,
            superstep_overhead_s: 1e-4,
            totals: CpuCounters::default(),
        }
    }

    /// The Ligra baseline (frontier-based).
    pub fn ligra(cfg: CpuLpConfig) -> Self {
        Self {
            cfg,
            flavor: Flavor::Ligra,
            instr_factor: 1.05, // frontier bookkeeping
            materialize_messages: false,
            superstep_overhead_s: 1e-4,
            totals: CpuCounters::default(),
        }
    }

    /// The TigerGraph baseline. Classic LP only, like the original: callers
    /// must not hand it LLP/SLP programs (the benches don't).
    pub fn tigergraph(cfg: CpuLpConfig) -> Self {
        Self {
            cfg,
            flavor: Flavor::TigerGraph,
            instr_factor: 3.0, // interpreted accumulator engine
            materialize_messages: true,
            superstep_overhead_s: 2e-3, // query scheduling per superstep
            totals: CpuCounters::default(),
        }
    }

    /// Aggregate CPU work counters of the last run.
    pub fn totals(&self) -> &CpuCounters {
        &self.totals
    }
}

impl Engine for CpuLp {
    fn name(&self) -> &'static str {
        match self.flavor {
            Flavor::Omp => "OMP",
            Flavor::Ligra => "Ligra",
            // "TG", as the paper's figure legends abbreviate it.
            Flavor::TigerGraph => "TG",
        }
    }

    /// Runs `prog` on `g`; modeled seconds come from the CPU roofline.
    /// A shard thread that panics surfaces as
    /// [`EngineError::ShardPanicked`] instead of poisoning the caller.
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
        let threads = self.cfg.threads.max(1);
        let shards = (threads as usize).clamp(1, 16);
        let use_frontier = opts.frontier.sparse(prog.sparse_activation());
        // Direction handling mirrors the asynchronous sequential engine:
        // forced `Pull` rebuilds by gathering over in-neighbors, everything
        // else scatters (`Auto` has no device cost model to price a
        // crossover against, so it keeps Ligra's native scatter).
        let pull = use_frontier && opts.frontier == FrontierMode::Pull;

        let mut spoken: Vec<Label> = vec![0; n];
        let mut decisions: Vec<Decision> = vec![None; n];
        // Frontier state: `active[v]` = must recompute v this iteration.
        let mut active = initial_active(n, use_frontier, opts);
        let mut report = LpRunReport::default();
        let mut totals = CpuCounters::default();

        for iteration in 0..opts.max_iterations {
            prog.begin_iteration(iteration);
            // PickLabel: sequential streaming pass.
            for (v, slot) in spoken.iter_mut().enumerate() {
                *slot = prog.pick_label(v as VertexId);
            }
            totals.instructions += 2 * n as u64;
            totals.seq_bytes += 8 * n as u64;

            // Aggregate per active vertex, sharded across OS threads.
            let ranges: Vec<(usize, usize)> = {
                let per = n.div_ceil(shards).max(1);
                (0..shards)
                    .map(|i| ((i * per).min(n), ((i + 1) * per).min(n)))
                    .collect()
            };
            let prog_ref: &dyn LpProgram = prog;
            let active_ref: &[bool] = &active;
            let spoken_ref: &[Label] = &spoken;
            type ShardOutput = (Vec<(VertexId, Decision)>, CpuCounters);
            let shard_results: Result<Vec<ShardOutput>, EngineError> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = ranges
                        .iter()
                        .map(|&(lo, hi)| {
                            scope.spawn(move || {
                                let mut out = Vec::new();
                                let mut c = CpuCounters::default();
                                let max_deg = (lo..hi)
                                    .map(|v| csr.degree(v as VertexId) as usize)
                                    .max()
                                    .unwrap_or(0);
                                let mut ht = BoundedHashTable::new((2 * max_deg).max(16), u32::MAX);
                                for v in lo..hi {
                                    let v = v as VertexId;
                                    if !active_ref[v as usize] || csr.degree(v) == 0 {
                                        continue;
                                    }
                                    out.push((
                                        v,
                                        decide(prog_ref, csr, spoken_ref, v, &mut ht, &mut c),
                                    ));
                                }
                                (out, c)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .enumerate()
                        .map(|(shard, h)| {
                            h.join().map_err(|_| EngineError::ShardPanicked { shard })
                        })
                        .collect()
                });
            let shard_results = shard_results?;

            decisions.iter_mut().for_each(|d| *d = None);
            let mut scheduled = 0u64;
            for (out, c) in shard_results {
                totals.merge(&c);
                scheduled += out.len() as u64;
                for (v, d) in out {
                    decisions[v as usize] = d;
                }
            }
            report.active_per_iteration.push(scheduled);
            if self.materialize_messages {
                // TigerGraph materializes (dst, label) messages per edge:
                // one write + one read of 8 bytes each before aggregation.
                totals.seq_bytes += 16 * csr.num_edges();
            }

            // UpdateVertex + frontier maintenance.
            let mut changed_vertices: Vec<VertexId> = Vec::new();
            let mut changed = 0u64;
            for v in 0..n {
                // A frontier-skipped vertex keeps its previous state.
                if use_frontier && !active[v] {
                    continue;
                }
                if prog.update_vertex(v as VertexId, decisions[v]) {
                    changed += 1;
                    changed_vertices.push(v as VertexId);
                }
            }
            totals.instructions += 2 * n as u64;
            totals.seq_bytes += 16 * n as u64;
            if use_frontier {
                if pull {
                    // Gather: every vertex scans its in-neighbors for a
                    // changed one (early exit). Marks exactly the vertices
                    // the scatter path marks — see
                    // `recompute_active_pull` in glp-core.
                    let mut changed_flag = vec![false; n];
                    for &v in &changed_vertices {
                        changed_flag[v as usize] = true;
                    }
                    let inc = g.incoming();
                    let mut scanned = 0u64;
                    for (v, a) in active.iter_mut().enumerate() {
                        *a = false;
                        for &u in inc.neighbors(v as VertexId) {
                            scanned += 1;
                            if changed_flag[u as usize] {
                                *a = true;
                                break;
                            }
                        }
                    }
                    totals.instructions += 2 * scanned + n as u64;
                    totals.seq_bytes += 4 * scanned;
                } else {
                    // Frontier maintenance is streaming work: scan the
                    // changed vertices' out-lists and set bitmap bits.
                    active.iter_mut().for_each(|a| *a = false);
                    let out = g.outgoing();
                    let mut touched = 0u64;
                    for &v in &changed_vertices {
                        for &u in out.neighbors(v) {
                            active[u as usize] = true;
                        }
                        touched += u64::from(out.degree(v));
                    }
                    totals.instructions += 2 * touched + 4 * changed_vertices.len() as u64;
                    totals.seq_bytes += 4 * touched;
                }
            }

            prog.end_iteration(iteration);
            report.changed_per_iteration.push(changed);
            report.direction_per_iteration.push(if !use_frontier {
                Direction::Dense
            } else if pull {
                Direction::Pull
            } else {
                Direction::Push
            });
            report.iterations = iteration + 1;
            if prog.finished(iteration, changed) {
                break;
            }
        }

        totals.instructions = (totals.instructions as f64 * self.instr_factor) as u64;
        totals.random_accesses = (totals.random_accesses as f64 * self.instr_factor) as u64;
        self.totals = totals;
        report.modeled_seconds = self.cfg.cpu.seconds(&totals, threads)
            + f64::from(report.iterations) * self.superstep_overhead_s;
        report.wall_seconds = wall_start.elapsed().as_secs_f64();
        Ok(report)
    }
}

/// Exact per-vertex aggregation with the workspace tie rule, charging CPU
/// work: one random access per neighbor label, hash-scratch instructions,
/// streaming bytes for the CSR slice.
fn decide<P: LpProgram + ?Sized>(
    prog: &P,
    csr: &glp_graph::Csr,
    spoken: &[Label],
    v: VertexId,
    ht: &mut BoundedHashTable,
    c: &mut CpuCounters,
) -> Decision {
    ht.clear();
    let off = csr.offset(v);
    let nbrs = csr.neighbors(v);
    for (j, &u) in nbrs.iter().enumerate() {
        let contrib = prog.load_neighbor(v, u, off + j as u64, spoken[u as usize]);
        match ht.insert_add(u64::from(contrib.label), contrib.weight) {
            InsertOutcome::Added { .. } => {}
            InsertOutcome::Full { .. } => unreachable!("scratch sized to 2x degree"),
        }
    }
    c.random_accesses += nbrs.len() as u64;
    c.instructions += 8 * nbrs.len() as u64 + 20;
    c.seq_bytes += 4 * nbrs.len() as u64;
    let mut best: Option<BestLabel> = None;
    let current = spoken[v as usize];
    for (l, freq) in ht.iter() {
        let label = l as Label;
        BestLabel::offer(&mut best, label, prog.label_score(v, label, freq), current);
    }
    c.instructions += 3 * ht.occupied() as u64;
    BestLabel::into_decision(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glp_core::engine::GpuEngine;
    use glp_core::FrontierMode;
    use glp_core::{ClassicLp, Llp, Slp};
    use glp_graph::gen::{caveman, community_powerlaw, CommunityPowerLawConfig};

    fn sample() -> Graph {
        community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 2_000,
            avg_degree: 10.0,
            ..Default::default()
        })
    }

    fn dense() -> RunOptions {
        RunOptions::default().with_frontier(FrontierMode::Dense)
    }

    fn gpu_reference<P: LpProgram + Clone>(g: &Graph, prog: &P) -> Vec<Label> {
        let mut p = prog.clone();
        GpuEngine::titan_v()
            .run(g, &mut p, &RunOptions::default())
            .unwrap();
        p.labels().to_vec()
    }

    #[test]
    fn omp_matches_gpu_classic() {
        let g = sample();
        let proto = ClassicLp::new(g.num_vertices());
        let want = gpu_reference(&g, &proto);
        let mut p = proto.clone();
        let report = CpuLp::omp(CpuLpConfig::default())
            .run(&g, &mut p, &dense())
            .unwrap();
        assert_eq!(p.labels(), &want[..]);
        assert!(report.modeled_seconds > 0.0);
    }

    #[test]
    fn ligra_frontier_matches_dense() {
        let g = caveman(12, 8);
        let proto = ClassicLp::new(g.num_vertices());
        let want = gpu_reference(&g, &proto);
        let mut p = proto.clone();
        let report = CpuLp::ligra(CpuLpConfig::default())
            .run(&g, &mut p, &RunOptions::default())
            .unwrap();
        assert_eq!(p.labels(), &want[..]);
        assert_eq!(report.changed_per_iteration.last(), Some(&0));
    }

    #[test]
    fn ligra_llp_uses_dense_fallback_and_matches() {
        let g = sample();
        let proto = Llp::new(g.num_vertices(), 2.0);
        let want = gpu_reference(&g, &proto);
        let mut p = proto.clone();
        CpuLp::ligra(CpuLpConfig::default())
            .run(&g, &mut p, &RunOptions::default())
            .unwrap();
        assert_eq!(p.labels(), &want[..]);
    }

    #[test]
    fn slp_deterministic_across_engines() {
        let g = caveman(6, 6);
        let proto = Slp::new(g.num_vertices(), 77);
        let want = gpu_reference(&g, &proto);
        let mut p = proto.clone();
        CpuLp::omp(CpuLpConfig::default())
            .run(&g, &mut p, &dense())
            .unwrap();
        assert_eq!(p.labels(), &want[..]);
    }

    #[test]
    fn tigergraph_models_slower_than_omp() {
        let g = sample();
        let mut p1 = ClassicLp::new(g.num_vertices());
        let r_omp = CpuLp::omp(CpuLpConfig::default())
            .run(&g, &mut p1, &dense())
            .unwrap();
        let mut p2 = ClassicLp::new(g.num_vertices());
        let r_tg = CpuLp::tigergraph(CpuLpConfig::default())
            .run(&g, &mut p2, &dense())
            .unwrap();
        assert_eq!(p1.labels(), p2.labels());
        assert!(
            r_tg.modeled_seconds > r_omp.modeled_seconds,
            "TG {} !> OMP {}",
            r_tg.modeled_seconds,
            r_omp.modeled_seconds
        );
    }

    #[test]
    fn ligra_does_less_work_than_omp_on_unevenly_converging_graph() {
        // Cliques converge in a couple of iterations; the attached path
        // keeps churning for many more. The frontier lets Ligra skip the
        // settled cliques while OMP rescans everything every iteration.
        let cliques = 30usize;
        let k = 8usize;
        let path_len = 300usize;
        let n = cliques * k + path_len;
        let mut b = glp_graph::GraphBuilder::new(n);
        for c in 0..cliques {
            let base = c * k;
            for a in 0..k {
                for z in (a + 1)..k {
                    b.add_edge((base + a) as VertexId, (base + z) as VertexId);
                }
            }
        }
        for i in 0..path_len {
            let v = (cliques * k + i) as VertexId;
            b.add_edge(v - 1, v); // attaches the path to the last clique
        }
        b.symmetrize(true);
        let g = b.build();

        let opts = RunOptions::default().with_max_iterations(40);
        let mut p1 = ClassicLp::with_max_iterations(n, 40);
        let mut omp = CpuLp::omp(CpuLpConfig::default());
        omp.run(
            &g,
            &mut p1,
            &opts.clone().with_frontier(FrontierMode::Dense),
        )
        .unwrap();
        let mut p2 = ClassicLp::with_max_iterations(n, 40);
        let mut ligra = CpuLp::ligra(CpuLpConfig::default());
        ligra.run(&g, &mut p2, &opts).unwrap();
        assert_eq!(p1.labels(), p2.labels());
        assert!(
            2 * ligra.totals().random_accesses < omp.totals().random_accesses,
            "frontier should cut work: ligra {} vs omp {}",
            ligra.totals().random_accesses,
            omp.totals().random_accesses
        );
    }
}
