//! Multicore-CPU baselines: OMP, Ligra, TigerGraph.
//!
//! One [`Backend`] of the workspace's BSP driver with three presets. They
//! share everything that computes — the driver's loop, frontier and report,
//! and the exact host MFL ([`exact_mfl`], same tie rule as the GPU kernels)
//! — so a personality is three constants of the cost structure the paper
//! attributes to each system:
//!
//! * **OMP** — a parallel-for over the scheduled vertices.
//! * **Ligra** — the same with frontier bookkeeping on every instruction
//!   (a 1.05 factor); it is the CPU system one runs with a frontier.
//! * **TigerGraph** — accumulator-style: messages (src label per edge) are
//!   materialized to a buffer before aggregation, every instruction pays
//!   an interpreter overhead factor, and a superstep costs a query
//!   scheduling round; classic LP only, like the original (§5.1: "TG only
//!   supports the classic LP").
//!
//! Scheduling is [`RunOptions::frontier`]'s like everywhere else, with one
//! preset: there is no CPU cost model to price a push/pull crossover
//! against, so [`FrontierMode::Auto`] keeps Ligra's native scatter
//! (`Push`). Programs without sparse activation get the driver's dense
//! fallback, which matches how Ligra LP handles LLP/SLP; the benchmark
//! harness pins OMP and TigerGraph to `Dense` — their historical
//! personalities.
//!
//! Modeled time comes from [`CpuConfig`]'s roofline over the work the
//! backend counts, so it is comparable with the GPU engines' modeled time.

use glp_core::engine::{
    drive, exact_mfl, mfl_scratch, Backend, BspEngine, Decision, Direction, Engine, EngineError,
    Phase, RunOptions, ShardStats,
};
use glp_core::{FrontierMode, LpProgram, LpRunReport};
use glp_gpusim::host::{CpuConfig, CpuCounters};
use glp_gpusim::DeviceError;
use glp_graph::{Graph, Label, VertexId};
use glp_sketch::BoundedHashTable;

/// Configuration of a CPU baseline's *machine* (run-level knobs like the
/// iteration cap and frontier mode live in [`RunOptions`]).
#[derive(Clone, Debug)]
pub struct CpuLpConfig {
    /// The machine (defaults to the paper's Xeon W-2133).
    pub cpu: CpuConfig,
    /// Software threads of the *modeled* machine: an input of the cost
    /// model (capped at physical cores there). How a run splits its work
    /// on the host is [`RunOptions::shards`]'s business.
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
    name: &'static str,
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
            name: "OMP",
            instr_factor: 1.0,
            materialize_messages: false,
            superstep_overhead_s: 1e-4,
            totals: CpuCounters::default(),
        }
    }

    /// The Ligra baseline (frontier-based).
    pub fn ligra(cfg: CpuLpConfig) -> Self {
        Self {
            name: "Ligra",
            instr_factor: 1.05, // frontier bookkeeping
            ..Self::omp(cfg)
        }
    }

    /// The TigerGraph baseline. Classic LP only, like the original: callers
    /// must not hand it LLP/SLP programs (the benches don't).
    pub fn tigergraph(cfg: CpuLpConfig) -> Self {
        Self {
            // "TG", as the paper's figure legends abbreviate it.
            name: "TG",
            instr_factor: 3.0, // interpreted accumulator engine
            materialize_messages: true,
            superstep_overhead_s: 2e-3, // query scheduling per superstep
            ..Self::omp(cfg)
        }
    }

    /// Aggregate CPU work counters of the last run.
    pub fn totals(&self) -> &CpuCounters {
        &self.totals
    }
}

impl Engine for CpuLp {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Runs `prog` on `g`; modeled seconds come from the CPU roofline.
    /// A part that panics surfaces as [`EngineError::ShardPanicked`]
    /// instead of poisoning the caller.
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        let frontier = match opts.frontier {
            FrontierMode::Auto => FrontierMode::Push,
            forced => forced,
        };
        let opts = RunOptions {
            frontier,
            ..opts.clone()
        };
        drive(&mut *self.backend(g, &opts), g, prog, &opts)
    }
}

impl BspEngine for CpuLp {
    fn backend<'a>(&'a mut self, _g: &Graph, opts: &RunOptions) -> Box<dyn Backend + 'a> {
        Box::new(CpuBackend {
            lp: self,
            shards: opts.resolve_shards(),
            tables: Vec::new(),
            work: CpuCounters::default(),
            supersteps: 0,
        })
    }
}

/// One run on the modeled CPU: the work counted so far and the supersteps
/// begun are the tier's clock.
struct CpuBackend<'a> {
    lp: &'a mut CpuLp,
    /// Parts of the LabelPropagation fan-out.
    shards: usize,
    /// One MFL scratch per part, built on first use: a ladder's CPU
    /// rung that never runs allocates nothing.
    tables: Vec<BoundedHashTable>,
    /// Work counted so far, before the personality's overhead factor.
    work: CpuCounters,
    supersteps: u32,
}

impl CpuBackend<'_> {
    /// The work counted so far as the personality's runtime executes it.
    fn scaled(&self) -> CpuCounters {
        let scale = |count: u64| (count as f64 * self.lp.instr_factor) as u64;
        CpuCounters {
            instructions: scale(self.work.instructions),
            random_accesses: scale(self.work.random_accesses),
            seq_bytes: self.work.seq_bytes,
        }
    }
}

impl Backend for CpuBackend<'_> {
    fn name(&self) -> &'static str {
        self.lp.name
    }

    fn modeled_now(&self) -> Option<f64> {
        let lp = &*self.lp;
        let compute = lp.cfg.cpu.seconds(&self.scaled(), lp.cfg.threads);
        Some(compute + f64::from(self.supersteps) * lp.superstep_overhead_s)
    }

    /// PickLabel: a sequential streaming pass. It opens the superstep.
    fn pick(&mut self, p: &Phase<'_>, spoken: &mut [Label]) -> Result<(), DeviceError> {
        p.prog.pick_labels_into(0, spoken);
        let n = spoken.len() as u64;
        self.work.instructions += 2 * n;
        self.work.seq_bytes += 8 * n;
        self.supersteps += 1;
        Ok(())
    }

    /// Exact per-vertex aggregation over contiguous slices of the scheduled
    /// list, fanned out over at most the host's cores, charging CPU work
    /// per vertex: one random access per neighbor label, hash-scratch
    /// instructions, streaming bytes for the CSR slice. Counters are sums over vertices, so the
    /// split cannot move a modeled number.
    fn propagate(
        &mut self,
        p: &Phase<'_>,
        spoken: &[Label],
        decisions: &mut [Decision],
    ) -> Result<ShardStats, DeviceError> {
        let csr = p.g.incoming();
        if self.tables.is_empty() {
            self.tables = vec![mfl_scratch(p.g); self.shards];
        }
        let scheduled: Vec<VertexId> = p.work.scheduled_vertices().collect();
        let per = scheduled.len().div_ceil(self.shards).max(1);
        let aggregate = |slice: &[VertexId], ht: &mut BoundedHashTable| {
            let mut c = CpuCounters::default();
            let decide = |&v: &VertexId| {
                let d = exact_mfl(p.prog, csr, ht, v, |u| spoken[u as usize]);
                let deg = u64::from(csr.degree(v));
                c.random_accesses += deg;
                c.instructions += 8 * deg + 20 + 3 * ht.occupied() as u64;
                c.seq_bytes += 4 * deg;
                d
            };
            (slice.iter().map(decide).collect::<Vec<Decision>>(), c)
        };
        let parts: Vec<_> = scheduled.chunks(per).zip(&mut self.tables).collect();
        let joined = glp_gpusim::fan_out(parts, glp_gpusim::host_cores(), |_, (slice, ht)| {
            aggregate(slice, ht)
        });
        // There is no device here; the panicked part is what matters.
        let joined =
            joined.map_err(|(shard, _)| DeviceError::ShardPanicked { device: 0, shard })?;
        for (slice, (decided, c)) in scheduled.chunks(per).zip(joined) {
            self.work.merge(&c);
            for (&v, d) in slice.iter().zip(decided) {
                decisions[v as usize] = d;
            }
        }
        if self.lp.materialize_messages {
            // TigerGraph materializes (dst, label) messages per edge:
            // one write + one read of 8 bytes each before aggregation.
            self.work.seq_bytes += 16 * csr.num_edges();
        }
        Ok(ShardStats::default())
    }

    fn charge_update(&mut self, n: u64) -> Result<(), DeviceError> {
        self.work.instructions += 2 * n;
        self.work.seq_bytes += 16 * n;
        Ok(())
    }

    /// Frontier maintenance is streaming work. Push scans the changed
    /// vertices' out-lists and sets bitmap bits; pull has every vertex scan
    /// its in-neighbors for a changed one (early exit).
    fn charge_frontier(
        &mut self,
        _priced: bool,
        dir: Direction,
        changed: u64,
        volume: u64,
        next_active: &[bool],
    ) -> Result<(), DeviceError> {
        let per_vertex = match dir {
            Direction::Pull => next_active.len() as u64,
            _ => 4 * changed,
        };
        self.work.instructions += 2 * volume + per_vertex;
        self.work.seq_bytes += 4 * volume;
        Ok(())
    }

    fn teardown(&mut self, _completed: bool) -> f64 {
        self.lp.totals = self.scaled();
        0.0
    }
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

    /// Classic LP whose scoring callback panics at one vertex.
    struct Bomb(ClassicLp, VertexId);

    impl LpProgram for Bomb {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn pick_label(&self, v: VertexId) -> Label {
            self.0.pick_label(v)
        }
        fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64 {
            assert_ne!(v, self.1, "boom");
            self.0.label_score(v, l, freq)
        }
        fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
            self.0.update_vertex(v, winner)
        }
        fn finished(&self, iteration: u32, changed: u64) -> bool {
            self.0.finished(iteration, changed)
        }
        fn labels(&self) -> &[Label] {
            self.0.labels()
        }
    }

    #[test]
    fn a_panicking_shard_is_an_error_and_nothing_is_applied() {
        // 16 scheduled vertices over 3 shards: vertex 7 is in the second.
        let g = caveman(4, 4);
        let mut prog = Bomb(ClassicLp::new(g.num_vertices()), 7);
        let before = prog.labels().to_vec();
        let err = CpuLp::omp(CpuLpConfig::default())
            .run(&g, &mut prog, &RunOptions::default().with_shards(3))
            .unwrap_err();
        assert_eq!(err, EngineError::ShardPanicked { shard: 1 });
        assert_eq!(prog.labels(), &before[..]);
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
