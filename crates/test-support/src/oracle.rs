//! The engine oracle: one generator of small LP runs and one reference.
//!
//! Every engine, frontier mode, MFL strategy, shard count and recovery path
//! must compute what a textbook synchronous LP computes over the program's
//! Table 1 callbacks. A [`Case`] is an edge list plus one draw of every axis
//! a run has, and `verify` holds it against the plainest run there is: the
//! host BSP engine over the same program behind a wrapper that hides
//! `sparse_activation`, so it never builds a frontier and never replays.
//! [`sweep`] draws cases from a seed; a failing case is shrunk greedily
//! (`Case::smaller`) and reported as a `Case` literal that compiles after
//! `use glp_test_support::oracle::*;` (which brings every axis's variants).
//!
//! Each backend's restrictions are encoded once, in `Case::normalized`:
//! TigerGraph runs classic LP only, a ladder whose first rung has no
//! frontier (G-Sort, G-Hash, the in-house cluster) runs dense (one lower
//! down continues all-active after a degrade), the asynchronous sweep never
//! sits on a ladder, and the sweep is checked against its own dense run.

pub use self::{Program::*, Rig::*};
use crate::{MixLp, SaltedLp};
use glp_baselines::{CpuLp, CpuLpConfig, GHashLp, GSortLp};
use glp_core::engine::DegreeThresholds;
use glp_core::{
    BarrierHook, BspEngine, CapacityLp, ClassicLp, Direction, Engine, EngineError, GpuEngine,
    HybridEngine, LpProgram, LpRunReport, MultiGpuEngine, NeighborContribution, ResilientEngine,
    RiskWeightedLp, RunOptions, SeededLp, SequentialEngine, WeightedLp,
};
pub use glp_core::{FrontierMode, FrontierMode::*, MflStrategy, MflStrategy::*};
use glp_fraud::InHouseLp;
use glp_gpusim::faults::{Fault, FaultPlan};
pub use glp_gpusim::faults::{FaultKind, FaultKind::*};
use glp_gpusim::{Device, DeviceConfig};
use glp_graph::{EdgeId, Graph, GraphBuilder, Label, VertexId};
use glp_trace::{Category, Event, Kind, Tracer};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Cases per default sweep.
pub const CASES: u64 = 1024;

/// The default sweep's seed.
pub const SEED: u64 = 0x0E4A_C1E5;

/// One engine: the GPU, the hybrid on a device too small for the graph (it
/// streams), two and three GPUs, the host BSP tier, the OMP / Ligra /
/// TigerGraph baselines, G-Sort, G-Hash, the in-house cluster and the
/// asynchronous sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rig {
    Gpu,
    Hybrid,
    Multi2,
    Multi3,
    HostBsp,
    Omp,
    Ligra,
    Tg,
    GSort,
    GHash,
    InHouse,
    Async,
}

impl Rig {
    /// Every engine.
    #[rustfmt::skip]
    pub const ALL: [Rig; 12] =
        [Gpu, Hybrid, Multi2, Multi3, HostBsp, Omp, Ligra, Tg, GSort, GHash, InHouse, Async];

    fn on_ladder(self) -> bool {
        self != Async
    }

    fn has_device(self) -> bool {
        matches!(self, Gpu | Hybrid | Multi2 | Multi3 | GSort | GHash)
    }

    fn dense_only(self) -> bool {
        matches!(self, GSort | GHash | InHouse)
    }

    /// A fresh, fault-free engine of this tier sized for `g`.
    pub fn engine(self, g: &Graph) -> Box<dyn Engine> {
        match self {
            Async => Box::new(SequentialEngine::new()),
            rung => rung.rung(g, None),
        }
    }

    fn rung(self, g: &Graph, plan: Option<&Arc<FaultPlan>>) -> Box<dyn BspEngine> {
        let (cpu, titan_v) = (CpuLpConfig::default(), DeviceConfig::titan_v());
        let streamed = g.num_vertices() as u64 * 20 + g.size_bytes() / 3;
        match self {
            Gpu => Box::new(GpuEngine::new(device(titan_v, plan))),
            Hybrid => Box::new(HybridEngine::new(device(
                DeviceConfig::tiny(streamed),
                plan,
            ))),
            Multi2 | Multi3 => {
                let cards = if self == Multi2 { 2 } else { 3 };
                let mut e = MultiGpuEngine::titan_v(cards);
                // An `Oom` hits the last card to upload, any other the first.
                let oom = plan.is_some_and(|p| {
                    matches!(p.scheduled()[..], [Fault::Device { kind: Oom, .. }])
                });
                let card = if oom { cards - 1 } else { 0 };
                e.gpus_mut().device_mut(card).set_faults(plan.cloned());
                Box::new(e)
            }
            HostBsp => Box::new(SequentialEngine::bsp()),
            Omp => Box::new(CpuLp::omp(cpu)),
            Ligra => Box::new(CpuLp::ligra(cpu)),
            Tg => Box::new(CpuLp::tigergraph(cpu)),
            GSort => Box::new(GSortLp::new(device(titan_v, plan))),
            GHash => Box::new(GHashLp::new(device(titan_v, plan))),
            InHouse => Box::new(InHouseLp::taobao()),
            Async => unreachable!("the asynchronous sweep is not a ladder rung"),
        }
    }
}

/// A case's engine, built so that every rung's devices stay reachable after
/// the run: a lone rung, a ladder, or the asynchronous sweep (no rung).
enum Built {
    Rung(Box<dyn BspEngine>),
    Ladder(ResilientEngine),
    Sweep(SequentialEngine),
}

impl Built {
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        match self {
            Built::Rung(e) => e.run(g, prog, opts),
            Built::Ladder(e) => e.run(g, prog, opts),
            Built::Sweep(e) => e.run(g, prog, opts),
        }
    }

    /// Visits the rungs' devices, rung by rung, device by device. The sweep
    /// is no rung: it has none here.
    fn each_device(&mut self, g: &Graph, opts: &RunOptions, f: &mut dyn FnMut(&Device)) {
        let rungs = match self {
            Built::Rung(e) => std::slice::from_mut(e),
            Built::Ladder(e) => e.tiers_mut(),
            Built::Sweep(_) => &mut [],
        };
        for rung in rungs {
            rung.backend(g, opts).each_device(&mut |d| f(d));
        }
    }
}

fn device(cfg: DeviceConfig, plan: Option<&Arc<FaultPlan>>) -> Device {
    let mut d = Device::new(cfg);
    d.set_faults(plan.cloned());
    d
}

/// Every device fault kind, in draw order. The first three are transient.
const FAULTS: [FaultKind; 5] = [LaunchFail, Timeout, ShardPanic, DeviceLost, Oom];

/// The LP program: the seven variants of `glp-core` ([`Program::build`] has
/// their parameters; LLP's γ is drawn from 0, 1, 2 and 16), then [`MixLp`]
/// and [`SaltedLp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    Classic,
    Llp(u8),
    Slp,
    Seeded,
    Weighted,
    Risk,
    Capacity,
    Mix,
    Salted,
}

impl Program {
    /// Every program.
    #[rustfmt::skip]
    const ALL: [Program; 9] =
        [Classic, Llp(2), Slp, Seeded, Weighted, Risk, Capacity, Mix, Salted];

    /// A fresh instance sized for `g`, capped at `iters` iterations (the two
    /// out-of-crate programs keep their own caps).
    pub fn build(self, g: &Graph, iters: u32) -> Box<dyn LpProgram> {
        let n = g.num_vertices();
        let seeds: Vec<VertexId> = (0..n as VertexId).step_by(3).collect();
        let risks: Vec<_> = seeds.iter().map(|&v| (v, 1.0 + (v % 5) as f32)).collect();
        let weights = (0..g.num_edges()).map(|e| 0.5 + (e % 7) as f32).collect();
        match self {
            Classic => Box::new(ClassicLp::with_max_iterations(n, iters)),
            Llp(gamma) => Box::new(glp_core::Llp::with_max_iterations(n, gamma.into(), iters)),
            Slp => Box::new(glp_core::Slp::with_params(n, 5, 0.2, iters, 0x5EED)),
            Seeded => Box::new(SeededLp::with_max_iterations(n, &seeds, iters)),
            Weighted => Box::new(WeightedLp::new(n, Arc::new(weights), iters).with_retention(0.3)),
            Risk => Box::new(RiskWeightedLp::new(n, &risks, iters)),
            Capacity => Box::new(CapacityLp::with_max_iterations(n, 3, iters)),
            Mix => Box::new(MixLp {
                labels: (0..n as Label).collect(),
            }),
            Salted => Box::new(SaltedLp::new(n)),
        }
    }
}

/// One generated run: a graph plus one draw of every axis.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    pub n: u32,
    /// Undirected edges; self-loops are kept, repeats add weight.
    pub edges: Vec<(u32, u32)>,
    /// One engine, or the rungs of a ladder, fastest first.
    pub rigs: Vec<Rig>,
    /// Whether `rigs` run as a [`ResilientEngine`] ladder.
    pub ladder: bool,
    pub program: Program,
    pub frontier: FrontierMode,
    pub strategy: MflStrategy,
    /// Degree thresholds 3 / 4, a 2-slot HT with a 1-slot probe budget and
    /// a 2 × 8 CMS: a 10-vertex graph reaches every kernel bucket and the
    /// CMS+HT global fallback.
    pub small_tables: bool,
    /// Harness threads per launch; above 1, a run must charge what 1 does.
    pub shards: usize,
    /// The program's and the run's iteration cap.
    pub iters: u32,
    pub hook: bool,
    pub tracer: bool,
    /// Start `ClassicLp` from the labels a host run reaches at this barrier,
    /// on a saturated frontier.
    pub warm: Option<u32>,
    /// A fault on the first rung's first device (the last card for an
    /// [`Oom`]) at this launch (upload, for [`Oom`]) index.
    pub fault: Option<(FaultKind, u32)>,
}

impl Default for Case {
    /// Two vertices, no edge, every axis at its default.
    fn default() -> Self {
        Case {
            n: 2,
            edges: Vec::new(),
            rigs: vec![Gpu],
            ladder: false,
            program: Classic,
            frontier: Auto,
            strategy: SmemWarp,
            small_tables: false,
            shards: 1,
            iters: 8,
            hook: false,
            tracer: false,
            warm: None,
            fault: None,
        }
    }
}

/// SplitMix64, drawing below `bound`.
fn below(state: &mut u64, bound: u32) -> u32 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((u128::from(z ^ (z >> 31)) * u128::from(bound)) >> 64) as u32
}

fn pick<T: Copy>(s: &mut u64, of: &[T]) -> T {
    of[below(s, of.len() as u32) as usize]
}

impl Case {
    /// Draws case `index` of the sweep seeded `seed`.
    fn draw(seed: u64, index: u64) -> Case {
        let s = &mut (seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let n = 2 + below(s, 11);
        let edge = |s: &mut u64| match below(s, 4) {
            // User–item shaped: synchronous LP 2-cycles, phases replay.
            0 => (below(s, n / 2), n / 2 + below(s, n - n / 2)),
            _ => (below(s, n), below(s, n)),
        };
        let mut edges: Vec<_> = (0..below(s, 3 * n + 1)).map(|_| edge(s)).collect();
        if below(s, 4) == 0 {
            // A hub: the CMS+HT kernel and its fallback.
            edges.extend((1..n).map(|v| (0, v)));
        }
        if below(s, 8) == 0 {
            // Repeated edges: a hub over one block of lanes, mid-degree
            // warps and runs of equal neighbour labels at the paper's sizes.
            edges.extend((0..below(s, 600)).map(|_| (0, below(s, n))));
        }
        let ladder = below(s, 3) == 0;
        let rungs: Vec<Rig> = Rig::ALL.into_iter().filter(|r| r.on_ladder()).collect();
        let rigs = match ladder {
            true => (0..=below(s, 3)).map(|_| pick(s, &rungs)).collect(),
            false => vec![pick(s, &Rig::ALL)],
        };
        let (program, fault) = (pick(s, &Program::ALL), (pick(s, &FAULTS), below(s, 40)));
        let faulty = below(s, 2) == 0;
        let mut case = Case {
            n,
            edges,
            rigs,
            ladder,
            program,
            frontier: pick(s, &[Dense, Push, Pull, Auto]),
            strategy: pick(s, &[Global, Smem, SmemWarp]),
            small_tables: below(s, 2) == 0,
            shards: pick(s, &[1, 3]),
            iters: 1 + below(s, 10),
            hook: below(s, 2) == 0,
            tracer: below(s, 2) == 0,
            warm: (below(s, 3) == 0).then(|| below(s, 4)),
            fault: faulty.then_some(fault),
        };
        if let Llp(gamma) = &mut case.program {
            *gamma = pick(s, &[0, 1, 2, 16]);
        }
        case.normalized()
    }

    /// The case with every backend restriction applied.
    fn normalized(mut self) -> Case {
        self.ladder &= self.rigs.iter().all(|r| r.on_ladder());
        if !self.ladder {
            self.rigs.truncate(1);
        }
        if self.rigs.contains(&Tg) {
            self.program = Classic;
        }
        if self.rigs[0].dense_only() {
            self.frontier = Dense;
        }
        if self.program != Classic {
            self.warm = None;
        }
        if !self.rigs[0].has_device() {
            self.fault = None;
        }
        self
    }

    /// The graph.
    pub fn graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n as usize);
        b.extend_edges(self.edges.iter().copied());
        b.symmetrize(true).keep_self_loops(true);
        b.build()
    }

    /// The run's options, hook and tracer aside.
    pub fn options(&self) -> RunOptions {
        let mut o = RunOptions::default()
            .with_max_iterations(self.iters)
            .with_frontier(self.frontier)
            .with_strategy(self.strategy)
            .with_shards(self.shards);
        if self.small_tables {
            o.thresholds = DegreeThresholds { low: 3, high: 4 };
            (o.mid_ht_slots, o.ht_slots, o.ht_probe_limit) = (4, 2, 1);
            (o.cms_depth, o.cms_width) = (2, 8);
        }
        o
    }

    /// The program, fresh, from `start`'s labels if given (`ClassicLp`).
    fn program(&self, g: &Graph, start: Option<&[Label]>, plain: bool) -> Watch {
        let inner: Box<dyn LpProgram> = match start {
            Some(labels) => Box::new(ClassicLp::from_labels(labels.to_vec(), self.iters)),
            None => self.program.build(g, self.iters),
        };
        let barriers = vec![inner.labels().to_vec()];
        Watch {
            inner,
            plain,
            barriers,
            begun: Vec::new(),
            plan: None,
            fired: None,
        }
    }

    /// The labels a host run holds at barrier `warm` (or at its last, if it
    /// settles first).
    fn warm_start(&self, g: &Graph) -> Option<Vec<Label>> {
        let iters = self.warm? + 1;
        let mut prog = Case {
            iters,
            ..self.clone()
        }
        .program(g, None, true);
        let opts = RunOptions::default();
        SequentialEngine::bsp().run(g, &mut prog, &opts).unwrap();
        prog.barriers.pop()
    }

    /// How the run must survive its fault, should it fire — the name of the
    /// trace instant it leaves — or `None` if the fault is the run's. A
    /// multi-GPU engine repartitions over the survivors of a lost card; a
    /// fault fires once, so a ladder retries a transient one on the same
    /// rung and degrades past any other onto the healthy rung below.
    fn recovery(&self) -> Option<&'static str> {
        let (kind, _) = self.fault?;
        let transient = matches!(kind, LaunchFail | Timeout | ShardPanic);
        let multi = matches!(self.rigs[0], Multi2 | Multi3);
        if multi && kind == DeviceLost {
            Some("repartition")
        } else if self.ladder && (transient || self.rigs.len() > 1) {
            Some(if transient { "retry" } else { "degrade" })
        } else {
            None
        }
    }

    /// The case's engine, its first rung reading `plan`.
    fn engine(&self, g: &Graph, plan: Option<&Arc<FaultPlan>>) -> Built {
        let rig = self.rigs[0];
        if !self.ladder {
            return match rig {
                Async => Built::Sweep(SequentialEngine::new()),
                rung => Built::Rung(rung.rung(g, plan)),
            };
        }
        let first = |i: usize| plan.filter(|_| i == 0);
        let rungs = self
            .rigs
            .iter()
            .enumerate()
            .map(|(i, r)| r.rung(g, first(i)));
        let ladder = ResilientEngine::new(rungs.collect());
        Built::Ladder(ladder)
    }

    /// The fault plan the case attaches to its first device.
    fn plan(&self) -> Option<Arc<FaultPlan>> {
        let (kind, at) = self.fault?;
        let fault = Fault::Device {
            kind,
            at: at.into(),
        };
        Some(Arc::new(FaultPlan::new([fault])))
    }

    /// Every case one shrinking step away: fewer vertices, a lower cap, no
    /// or an earlier fault, fewer rungs, each axis at its default, then
    /// halves, quarters, … and single edges removed.
    fn smaller(&self) -> Vec<Case> {
        let mut out = Vec::new();
        let mut step = |edit: &dyn Fn(&mut Case)| {
            let mut c = self.clone();
            edit(&mut c);
            out.push(c.normalized());
        };
        for v in (0..self.n).rev().filter(|_| self.n > 2) {
            step(&|c| {
                c.n -= 1;
                c.edges.retain(|&(a, b)| a != v && b != v);
                let shift = |x: u32| x - u32::from(x > v);
                c.edges
                    .iter_mut()
                    .for_each(|(a, b)| (*a, *b) = (shift(*a), shift(*b)));
            });
        }
        step(&|c| c.iters = (c.iters / 2).max(1));
        step(&|c| c.iters -= u32::from(c.iters > 1));
        if let Some((kind, at)) = self.fault {
            step(&|c| c.fault = None);
            step(&|c| c.fault = Some((kind, at / 2)));
            step(&|c| c.fault = Some((kind, at.saturating_sub(1))));
        }
        for i in (0..self.rigs.len()).filter(|_| self.rigs.len() > 1) {
            step(&|c| _ = c.rigs.remove(i));
        }
        let plain = Case::default();
        step(&|c| (c.rigs, c.ladder) = (plain.rigs.clone(), plain.ladder));
        step(&|c| c.ladder = false);
        step(&|c| c.program = plain.program);
        step(&|c| c.frontier = plain.frontier);
        step(&|c| c.strategy = plain.strategy);
        step(&|c| c.small_tables = false);
        step(&|c| c.shards = 1);
        step(&|c| c.hook = false);
        step(&|c| c.tracer = false);
        step(&|c| c.warm = c.warm.and_then(|w| (w > 0).then_some(w / 2)));
        let mut run = self.edges.len() / 2;
        while run > 0 {
            for i in (0..self.edges.len()).step_by(run) {
                step(&|c| _ = c.edges.drain(i..(i + run).min(c.edges.len())));
            }
            run /= 2;
        }
        out.retain(|c| c != self);
        out
    }
}

/// Forwards the Table 1 callbacks to the program and keeps its labels at
/// every barrier, the starting labels first, and every iteration begun.
/// `plain` hides `sparse_activation`, so a run over it schedules densely and
/// never replays. `fired` is where `plan`'s fault was first seen spent: the
/// iteration it interrupted, and whether that was at its `begin_iteration`
/// (the fault fired while staging, before any iteration began).
struct Watch {
    inner: Box<dyn LpProgram>,
    plain: bool,
    barriers: Vec<Vec<Label>>,
    begun: Vec<u32>,
    plan: Option<Arc<FaultPlan>>,
    fired: Option<(u32, bool)>,
}

impl Watch {
    fn note(&mut self, iteration: u32, staging: bool) {
        if self.fired.is_none() && self.plan.as_ref().is_some_and(|p| p.all_fired()) {
            self.fired = Some((iteration, staging));
        }
    }
}

impl LpProgram for Watch {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }
    fn pick_label(&self, v: VertexId) -> Label {
        self.inner.pick_label(v)
    }
    fn load_neighbor(&self, v: VertexId, u: VertexId, e: EdgeId, l: Label) -> NeighborContribution {
        self.inner.load_neighbor(v, u, e, l)
    }
    fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64 {
        self.inner.label_score(v, l, freq)
    }
    fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
        self.inner.update_vertex(v, winner)
    }
    fn begin_iteration(&mut self, iteration: u32) {
        self.note(iteration, true);
        self.begun.push(iteration);
        self.inner.begin_iteration(iteration);
    }
    fn end_iteration(&mut self, iteration: u32) {
        self.inner.end_iteration(iteration);
        self.note(iteration, false);
        self.barriers.push(self.inner.labels().to_vec());
    }
    fn finished(&self, iteration: u32, changed: u64) -> bool {
        self.inner.finished(iteration, changed)
    }
    fn sparse_activation(&self) -> bool {
        !self.plain && self.inner.sparse_activation()
    }
    fn labels(&self) -> &[Label] {
        self.inner.labels()
    }
}

/// Runs `case` and holds it against the plain host run: labels, the
/// `changed` trace and the iteration count — or, when `run` fails on a
/// fault it cannot recover from ([`Case::recovery`]), the labels of the
/// last barrier the run reached; every per-iteration vector, hook call and
/// iteration span once per iteration under one root run span, and every
/// iteration begun once; the direction record consistent with the mode; the
/// `active` trace that of a host BSP run in the same mode; a finite,
/// positive modeled clock on modeled tiers. After the run, Ok or not, no
/// device that is not lost holds memory and only a card the fault lost is
/// lost; a fired fault is recorded once — in a ladder's report, with the
/// iterations it interrupted as salvaged, and by one trace instant under the
/// iteration it interrupted. A run on more harness threads, or reading a
/// plan whose fault never came due, charges what one thread with no plan
/// does. Returns the propagation kernels the run launched, `"fallback"`,
/// `"2+ iterations"`, `"all-active after a degrade"` (a frontier-less rung
/// took over a shrunk frontier), `"fault fired"` and `"fault after a
/// barrier"` for what happened.
fn verify(case: &Case) -> Result<Vec<&'static str>, String> {
    let g = case.graph();
    let start = case.warm_start(&g);
    let (start, sweep) = (start.as_deref(), case.rigs == [Async]);
    let host = |engine: &mut dyn Engine, plain, opts: &RunOptions| {
        let mut prog = case.program(&g, start, plain);
        let report = engine.run(&g, &mut prog, opts).unwrap();
        (prog.barriers, report)
    };
    let plain = RunOptions::default().with_max_iterations(case.iters);
    let (want, want_report) = match sweep {
        true => host(&mut SequentialEngine::new(), true, &plain),
        false => host(&mut SequentialEngine::bsp(), true, &plain),
    };
    let sparse = case.options();
    let mut opts = sparse.clone();
    let fired = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&fired);
    let hook = BarrierHook::new(move |ev| sink.lock().unwrap().push((ev.iteration, ev.changed)));
    opts.barrier_hook = case.hook.then_some(hook);
    opts.tracer = case.tracer.then(Tracer::new);
    let plan = case.plan();
    let mut got = case.program(&g, start, false);
    got.plan = plan.clone();
    // What a run charged: the clock, the counter totals, every launch's
    // seconds kernel by kernel, and every launch each rung's devices
    // logged, with its counters, in order.
    let charged = |engine: &mut Built, outcome: &Result<LpRunReport, _>| {
        let r = outcome.as_ref().ok()?;
        let clock = r.modeled_seconds.to_bits();
        let mut launches = Vec::new();
        engine.each_device(&g, &sparse, &mut |d| {
            launches.extend_from_slice(d.kernel_log())
        });
        Some((clock, r.gpu_counters, r.kernel_profile.clone(), launches))
    };
    let mut engine = case.engine(&g, plan.as_ref());
    let outcome = engine.run(&g, &mut got, &opts);
    let spent = plan.as_ref().is_some_and(|p| p.all_fired());
    // Harness threads split launches on the host only, and a plan is read
    // at the launch boundary only: one thread, and no plan where the case's
    // never came due, charge the same (a hook still takes its snapshots; a
    // tracer only observes).
    let twin = (case.shards > 1 || plan.is_some() && !spent).then(|| {
        let mut opts = sparse.clone().with_shards(1);
        opts.barrier_hook = case.hook.then(|| BarrierHook::new(|_| ()));
        let mut twin = case.program(&g, start, false);
        let mut twin_engine = case.engine(&g, case.plan().filter(|_| spent).as_ref());
        let twin_outcome = twin_engine.run(&g, &mut twin, &opts);
        charged(&mut twin_engine, &twin_outcome)
    });

    let (want_changed, done) = (&want_report.changed_per_iteration, got.barriers.len() - 1);
    let (interrupted, staging) = got.fired.unwrap_or((done as u32, false));
    let recovered = case.recovery().filter(|_| spent);
    let mut failed: Vec<String> = Vec::new();
    let mut expect = |ok: bool, what: &str| (!ok).then(|| failed.push(what.to_string()));
    if let Some(twin) = twin {
        expect(
            charged(&mut engine, &outcome) == twin,
            "charges at one shard, no plan",
        );
    }
    expect(
        want.get(done) == Some(&got.barriers[done]),
        "labels at the last barrier",
    );
    let begun = got.begun.len();
    expect(
        got.begun.iter().copied().eq(0..begun as u32)
            && (done..=done + usize::from(outcome.is_err())).contains(&begun),
        "each iteration begun once",
    );
    let (mut resident, mut lost) = (0, 0);
    engine.each_device(&g, &sparse, &mut |d| match d.is_lost() {
        true => lost += 1,
        false => resident += d.resident_bytes(),
    });
    expect(resident == 0, "no memory left resident");
    let lost_card = spent && case.fault.is_some_and(|(kind, _)| kind == DeviceLost);
    expect(lost == u32::from(lost_card), "only the lost card lost");
    // A ladder's report holds what its policy did: one retry or one degrade
    // (a repartition heals inside the rung), the interrupted iteration
    // salvaged, and the rung that finished.
    if let Built::Ladder(e) = &engine {
        let r = e.resilience();
        let policy = recovered.filter(|&how| how != "repartition");
        let count = |how| u32::from(policy == Some(how));
        let salvaged = u64::from(if policy.is_some() { interrupted } else { 0 });
        let faults = usize::from(spent && recovered != Some("repartition"));
        let tier = Some(e.tier_names()[count("degrade") as usize]);
        let counts = (r.retries, r.degradations, r.faults.len());
        expect(
            counts == (count("retry"), count("degrade"), faults)
                && (r.iterations_salvaged, r.tier) == (salvaged, tier),
            "resilience report",
        );
    }
    // A rung without a frontier below a sparse one runs all-active from the
    // iteration it took over.
    let dense_from = match recovered {
        Some("degrade") if case.rigs[1].dense_only() => interrupted as usize,
        _ => done,
    };
    let mut ran = Vec::new();
    match &outcome {
        Err(_) => {
            _ = expect(
                spent && recovered.is_none(),
                "an error the run must recover from",
            )
        }
        Ok(r) => {
            let n = r.iterations as usize;
            expect(
                r.changed_per_iteration == *want_changed && n == done,
                "changed trace",
            );
            let timed = if sweep { n } else { r.iteration_seconds.len() };
            let lens = [
                r.active_per_iteration.len(),
                timed,
                r.direction_per_iteration.len(),
            ];
            expect(lens == [n; 3], "one entry per iteration");
            let snapshots = !sweep && (case.hook || case.ladder);
            expect(
                !snapshots || r.snapshots_taken == n as u64,
                "one snapshot per iteration",
            );
            let sparse_run = case.frontier.sparse(got.sparse_activation());
            let consistent = |(i, &d)| match (sparse_run && i < dense_from, d) {
                (false, d) => d == Direction::Dense,
                (true, Direction::Push) => case.frontier != Pull,
                (true, Direction::Pull) => case.frontier != Push,
                (true, Direction::Dense) => false,
            };
            let dirs = &r.direction_per_iteration;
            expect(dirs.iter().enumerate().all(consistent), "direction record");
            if !sweep {
                let (_, same_mode) = host(&mut SequentialEngine::bsp(), false, &sparse);
                let mut active = same_mode.active_per_iteration[..dense_from].to_vec();
                active.extend(&want_report.active_per_iteration[dense_from..]);
                let all_active = active != same_mode.active_per_iteration;
                ran.extend(all_active.then_some("all-active after a degrade"));
                expect(r.active_per_iteration == active, "active trace");
            }
            let s = r.modeled_seconds;
            let host_tier = case.rigs.iter().any(|r| matches!(r, HostBsp | Async));
            expect(host_tier || (s.is_finite() && s > 0.0), "modeled clock");
            ran.extend(r.kernel_profile.rows().map(|(_, kernel, _)| kernel));
            ran.extend((r.smem_fallbacks > 0).then_some("fallback"));
            ran.extend((n >= 2).then_some("2+ iterations"));
        }
    }
    ran.extend(spent.then_some("fault fired"));
    ran.extend((spent && interrupted > 0).then_some("fault after a barrier"));
    let want_fired: Vec<(u32, u64)> = (0..).zip(want_changed.iter().copied()).collect();
    let want_fired = if sweep { &[][..] } else { &want_fired[..done] };
    expect(
        !case.hook || *fired.lock().unwrap() == want_fired,
        "hook calls",
    );
    if let Some(trace) = opts.tracer.map(|t| t.finish()) {
        let iterations = trace.events.iter().filter(|e| e.cat == Category::Iteration);
        let spans = iterations
            .clone()
            .filter(|e| e.kind == Kind::Span && !e.err);
        expect(
            spans.map(|e| e.arg).eq((0..done as u64).map(Some)),
            "one iteration span per iteration",
        );
        // A ladder's attempts nest under its own run span.
        let runs = trace.events.iter().filter(|e| e.cat == Category::Run);
        let one = runs.clone().filter(|e| e.parent == 0).count() == 1;
        expect(one && (case.ladder || runs.count() == 1), "one run span");
        // Recovery leaves one instant, under the iteration the fault
        // interrupted (the failed run span, if it fired while staging); the
        // policy closes that iteration as an error.
        let at = Some(u64::from(interrupted));
        let mut errs = iterations.filter(|e| e.err);
        expect(errs.all(|e| e.arg == at), "error-closed iteration");
        let under = |e: &&Event| match (trace.event(e.parent), staging) {
            (Some(p), true) => p.cat == Category::Run && p.err,
            (Some(p), false) => p.cat == Category::Iteration && p.arg == at,
            (None, _) => false,
        };
        let is_mark = |e: &&Event| e.cat == Category::Resilience && e.name != "snapshot";
        let marks: Vec<_> = trace.events.iter().filter(is_mark).collect();
        expect(
            marks.iter().map(|e| e.name).eq(recovered) && marks.iter().all(under),
            "one recovery instant under the interrupted iteration",
        );
        failed.extend(trace.check_well_formed(1e-9).err());
    }
    match failed.is_empty() {
        true => Ok(ran),
        false => Err(format!(
            "{} ({:?}; the oracle's labels {:?}, changed {want_changed:?})",
            failed.join(", "),
            outcome.map(|r| (got.barriers.pop(), r.changed_per_iteration)),
            want.last()
        )),
    }
}

/// [`verify`], with a panic as a failure.
fn outcome(case: &Case) -> Result<Vec<&'static str>, String> {
    catch_unwind(AssertUnwindSafe(|| verify(case))).unwrap_or_else(|payload| {
        let message = (payload.downcast_ref::<String>().cloned())
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", message.unwrap_or_default()))
    })
}

/// Shrinks a failing case: takes the first smaller case that still fails
/// until none does. Returns it, why it fails and how many steps it took.
fn shrink(mut case: Case, mut why: String) -> (Case, String, usize) {
    let mut steps = 0;
    while let Some((smaller, reason)) =
        (case.smaller().into_iter()).find_map(|c| outcome(&c).err().map(|reason| (c, reason)))
    {
        (case, why, steps) = (smaller, reason, steps + 1);
    }
    (case, why, steps)
}

fn fail(what: &str, case: Case, why: String) -> ! {
    let (small, small_why, steps) = shrink(case.clone(), why.clone());
    let literal = |c: &Case| format!("{c:?}").replace(": [", ": vec![");
    panic!(
        "engine oracle: {what} fails: {why}\n  {}\nshrunk in {steps} steps to\n  {}\n\
         which fails: {small_why}",
        literal(&case),
        literal(&small)
    );
}

/// Checks one case as it is, and that its fault fires unless it sits at
/// `u32::MAX`; a failure is shrunk and panics with the repro. Returns what
/// the run ran, as [`verify`] names it.
pub fn check(case: Case) -> Vec<&'static str> {
    let ran = outcome(&case).unwrap_or_else(|why| fail("pinned case", case.clone(), why));
    let due = case.fault.is_some_and(|(_, at)| at < u32::MAX);
    assert!(
        !due || ran.contains(&"fault fired"),
        "fault never fired: {case:?}"
    );
    ran
}

/// Draws `cases` cases from `seed`, passes each through `shape` (a slice
/// forcing an axis), normalizes and checks it. Returns the tokens of what
/// the cases drew and ran, for [`coverage_gaps`]; the first failure is
/// shrunk and panics with the repro.
pub fn sweep(cases: u64, seed: u64, shape: impl Fn(&mut Case)) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    for index in 0..cases {
        let mut case = Case::draw(seed, index);
        shape(&mut case);
        let case = case.normalized();
        let ran = outcome(&case).unwrap_or_else(|why| {
            fail(
                &format!("case {index} of seed {seed:#x}"),
                case.clone(),
                why,
            )
        });
        let literal = format!("{case:?}");
        let tokens = literal.split([',', '[', ']', '(', ')']).map(str::trim);
        seen.extend(tokens.chain(ran).map(String::from));
        seen.insert(format!("ladder: {} of {}", case.ladder, case.rigs.len()));
        seen.insert(format!("{:?}", case.program));
    }
    seen
}

/// What a sweep should have drawn and run but did not: every engine, ladder
/// shape, program (LLP at every γ), frontier mode, strategy, shard count,
/// hook / tracer / warm-start / table flag and fault kind, all four
/// propagation kernels, the CMS+HT global fallback, a run of two
/// iterations or more and a fault that fired after the first barrier.
pub fn coverage_gaps(seen: &BTreeSet<String>) -> Vec<String> {
    let mut want: Vec<String> = Rig::ALL.iter().map(|r| format!("{r:?}")).collect();
    want.extend((0..=3).map(|k| format!("ladder: {} of {}", k > 0, k.max(1))));
    let programs = Program::ALL.into_iter().chain([0, 1, 16].map(Llp));
    want.extend(programs.map(|p| format!("{p:?}")));
    want.extend([Dense, Push, Pull, Auto].map(|m| format!("frontier: {m:?}")));
    want.extend([Global, Smem, SmemWarp].map(|s| format!("strategy: {s:?}")));
    for axis in ["hook", "tracer", "small_tables"] {
        want.extend([format!("{axis}: true"), format!("{axis}: false")]);
    }
    let fixed = "shards: 1,shards: 3,warm: None,warm: Some,lp_warp_packed,lp_warp_per_vertex,\
                 lp_block_cms_ht,lp_global_hash,fallback,2+ iterations,fault after a barrier";
    want.extend(fixed.split(',').map(String::from));
    want.extend(FAULTS.iter().map(|f| format!("{f:?}")));
    want.retain(|w| !seen.contains(w));
    want
}
