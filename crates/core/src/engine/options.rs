//! The unified run-configuration API: [`RunOptions`] + [`FrontierMode`].
//!
//! Every engine in the workspace — the four GLP engines here, the CPU and
//! GPU baselines in `glp-baselines`, and the simulated in-house cluster in
//! `glp-fraud` — consumes the same options struct through the
//! [`Engine`](super::Engine) trait. Engine constructors own only
//! *resources* (a device, a device set, a cluster model); everything that
//! describes *one run* lives here, so a caller sets each knob once for
//! every engine instead of reaching into per-engine config structs.

use super::dispatch::DegreeThresholds;
use super::kernels::SmemGeometry;
use super::MflStrategy;
use crate::api::LpProgram;
use glp_gpusim::WARP_SIZE;
use glp_trace::Tracer;
use std::fmt;
use std::sync::Arc;

/// How an engine schedules vertices across iterations.
///
/// The three sparse modes compute the **same frontier** — a vertex is
/// active at `t + 1` iff some in-neighbor's spoken label changed at `t` —
/// they differ only in *how* it is rebuilt, and therefore in modeled
/// cost. Labels, `changed` traces, and `active` traces are bit-identical
/// across all four modes (the contract `tests/direction_equivalence.rs`
/// pins).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierMode {
    /// Recompute every vertex every iteration — the waste §2.2 attributes
    /// to prior GPU LP systems ("label values ... are repeatedly loaded
    /// ... but only a subset of them have their labels updated").
    Dense,
    /// Always rebuild by **scatter**: every changed vertex walks its
    /// out-adjacency and marks the neighbors' bitmap bits. Cheap on
    /// sparse tails, but each mark is an uncoalesced sector write, so a
    /// saturated frontier pays ~a sector per touched edge.
    Push,
    /// Always rebuild by **gather**: every vertex scans its in-neighbors
    /// (the reverse-adjacency view the graph already materializes) until
    /// it finds a changed one. Fully coalesced and bounded by one sweep
    /// of the edge set, so it wins when the frontier is dense or the
    /// graph is high-degree — the Gunrock/GraphBLAST pull regime.
    Pull,
    /// Direction-optimized: per iteration, choose push or pull by
    /// comparing their modeled byte volumes (frontier density × average
    /// degree against the cost model's coalescing crossover,
    /// [`cost::prefer_pull`](glp_gpusim::cost::prefer_pull)).
    /// The measurement itself is charged (`frontier_density` kernel).
    /// The default.
    #[default]
    Auto,
}

impl FrontierMode {
    /// Whether a run over a program with the given `sparse_activation`
    /// declaration actually schedules sparsely. Every non-dense mode —
    /// `Push`, `Pull`, and `Auto` — is sparse-capable; programs without
    /// sparse activation get the dense schedule under all of them, the
    /// same fallback rule the Ligra baseline applies to LLP/SLP.
    #[inline]
    pub fn sparse(self, program_sparse: bool) -> bool {
        match self {
            FrontierMode::Dense => false,
            FrontierMode::Push | FrontierMode::Pull | FrontierMode::Auto => program_sparse,
        }
    }
}

/// Which way one iteration's frontier was rebuilt — recorded per
/// iteration in
/// [`LpRunReport::direction_per_iteration`](crate::LpRunReport::direction_per_iteration)
/// and tagged onto the following iteration's Dispatch span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// No frontier was maintained (dense schedule).
    Dense,
    /// Scatter from changed vertices over out-edges.
    Push,
    /// Gather at every vertex from in-neighbors.
    Pull,
}

/// What the driver saw at one completed BSP barrier, handed to the
/// [`BarrierHook`] after `end_iteration` ran: the iteration that just
/// committed, its trace values, the frontier that iteration `iteration + 1`
/// will consume, and the program at the barrier. A barrier fires exactly
/// once per iteration, in order, whatever recoveries happened in between.
pub struct BarrierEvent<'a> {
    /// The 0-based iteration that just completed.
    pub iteration: u32,
    /// Labels changed during it.
    pub changed: u64,
    /// Vertices it scheduled (the `active_per_iteration` value).
    pub scheduled: u64,
    /// The next iteration's activation bitmap, when the run schedules
    /// sparsely; `None` under the dense schedule.
    pub active: Option<&'a [bool]>,
    /// How this barrier's frontier rebuild ran ([`Direction::Dense`]
    /// under the dense schedule).
    pub direction: Direction,
    /// The program at the barrier — its [`labels`](crate::LpProgram::labels)
    /// are this iteration's result (what [`MemoRecorder`](super::MemoRecorder)
    /// captures).
    pub program: &'a dyn LpProgram,
}

impl fmt::Debug for BarrierEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BarrierEvent")
            .field("iteration", &self.iteration)
            .field("changed", &self.changed)
            .field("scheduled", &self.scheduled)
            .field("active", &self.active.map(<[bool]>::len))
            .field("direction", &self.direction)
            .finish_non_exhaustive()
    }
}

/// A callback fired by the BSP driver after every completed barrier.
///
/// Installing one makes the run charge a `barrier_snapshot` kernel per
/// barrier (observing the labels is not free — they have to be read back),
/// with the modeled cost surfaced in
/// [`LpRunReport::snapshot_seconds`](crate::LpRunReport::snapshot_seconds).
#[derive(Clone)]
pub struct BarrierHook(Arc<dyn Fn(&BarrierEvent<'_>) + Send + Sync>);

impl BarrierHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&BarrierEvent<'_>) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Invokes the callback.
    #[inline]
    pub fn fire(&self, ev: &BarrierEvent<'_>) {
        (self.0)(ev)
    }
}

impl fmt::Debug for BarrierHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BarrierHook(..)")
    }
}

/// Per-run configuration consumed by every [`Engine`](super::Engine).
///
/// Construct with [`RunOptions::default`] and chain the `with_*` builders,
/// or use struct-update syntax — all fields are public. Fields an engine
/// has no use for are ignored (e.g. the CPU baselines never read the
/// shared-memory geometry).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Hard iteration cap regardless of the program's own termination.
    pub max_iterations: u32,
    /// Vertex scheduling across iterations (dense vs. active frontier).
    pub frontier: FrontierMode,
    /// MFL strategy of the GPU kernels (the Table 3 ablation axis).
    pub strategy: MflStrategy,
    /// Degree thresholds for kernel dispatch (§5.3: low 32, high 128).
    pub thresholds: DegreeThresholds,
    /// Shared HT slots of the one-warp-one-vertex kernel. Must be at least
    /// `thresholds.high` so mid-degree tables never overflow.
    pub mid_ht_slots: usize,
    /// Shared HT slots `h` of the CMS+HT kernel (§4.1).
    pub ht_slots: usize,
    /// HT probe budget before a label overflows to the CMS.
    pub ht_probe_limit: u32,
    /// CMS rows `d`.
    pub cms_depth: usize,
    /// CMS buckets per row `w`.
    pub cms_width: usize,
    /// Parts per kernel (0 = the host's cores, capped at 16) — for every
    /// engine: the device tiers split a launch into them, the CPU baselines
    /// their per-vertex aggregation (whose `CpuLpConfig::threads` is the
    /// *modeled* machine's, a cost-model input). The parts run through
    /// [`glp_gpusim::fan_out`] on as many threads as the smaller of
    /// `shards` and the host's core count. Neither
    /// labels, the changed / active traces, modeled counters nor the
    /// modeled clock depend on it: a launch is cut only where its kernel's
    /// charges are, and charges its one-pass events once
    /// (`tests/determinism.rs` pins 1, 2, 3 and 7 parts bit for bit). The
    /// threads are spawned per launch, so on small graphs 1 is the fast
    /// setting: a CI-sized serving recluster measured 11.6 ms pinned to 1
    /// against 12–39 ms with auto on two cores.
    pub shards: usize,
    /// Callback fired after each completed barrier (BSP engines only; the
    /// asynchronous sequential sweep has no barrier).
    pub barrier_hook: Option<BarrierHook>,
    /// Span recorder threaded through the whole run: engines emit
    /// run/iteration/dispatch spans, the device emits kernel and transfer
    /// spans on the modeled clock, and the resilience layers emit
    /// retry/degrade/repartition events. `None` (the default) records
    /// nothing and changes nothing — results and modeled time are
    /// byte-identical either way.
    pub tracer: Option<Tracer>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            max_iterations: 10_000,
            frontier: FrontierMode::Auto,
            strategy: MflStrategy::SmemWarp,
            thresholds: DegreeThresholds::default(),
            mid_ht_slots: 256,
            ht_slots: 1024,
            ht_probe_limit: 32,
            cms_depth: 4,
            cms_width: 2048,
            shards: 0,
            barrier_hook: None,
            tracer: None,
        }
    }
}

impl RunOptions {
    /// Caps the iteration count.
    pub fn with_max_iterations(mut self, max_iterations: u32) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Chooses the scheduling mode.
    pub fn with_frontier(mut self, frontier: FrontierMode) -> Self {
        self.frontier = frontier;
        self
    }

    /// Chooses the MFL strategy.
    pub fn with_strategy(mut self, strategy: MflStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Chooses the dispatch thresholds.
    pub fn with_thresholds(mut self, thresholds: DegreeThresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Sets the part count (0 = auto).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Installs a per-barrier callback.
    pub fn with_barrier_hook(mut self, hook: BarrierHook) -> Self {
        self.barrier_hook = Some(hook);
        self
    }

    /// Attaches a span recorder to the run.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    pub(crate) fn smem_geometry(&self) -> SmemGeometry {
        SmemGeometry {
            ht_slots: self.ht_slots,
            ht_probe_limit: self.ht_probe_limit,
            cms_depth: self.cms_depth,
            cms_width: self.cms_width,
        }
    }

    /// Effective part count: `shards` if set, otherwise the host's cores
    /// ([`glp_gpusim::host_cores`]) capped at 16. Used by every engine and
    /// baseline.
    pub fn resolve_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            glp_gpusim::host_cores().min(16)
        }
    }

    /// Checks the GPU-facing invariants against a device's shared-memory
    /// budget. Every GPU engine calls this at the top of `run`.
    pub(crate) fn validate_for_device(&self, shared_mem_per_block: usize) {
        assert!(
            self.mid_ht_slots >= self.thresholds.high as usize,
            "mid HT ({}) must hold every distinct label of a mid-degree vertex (<= {})",
            self.mid_ht_slots,
            self.thresholds.high
        );
        assert!(
            self.thresholds.low as usize <= WARP_SIZE + 1,
            "thresholds.low ({}) must not exceed {}: a warp-packed vertex's neighbor list has to fit in one warp",
            self.thresholds.low,
            WARP_SIZE + 1
        );
        self.smem_geometry().validate(shared_mem_per_block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_modes_respect_program_declaration() {
        // Every non-dense mode is sparse-capable; none may override a
        // program that did not declare sparse activation.
        for mode in [FrontierMode::Auto, FrontierMode::Push, FrontierMode::Pull] {
            assert!(mode.sparse(true), "{mode:?} must schedule sparsely");
            assert!(!mode.sparse(false), "{mode:?} must fall back to dense");
        }
        assert!(!FrontierMode::Dense.sparse(true));
        assert!(!FrontierMode::Dense.sparse(false));
    }

    #[test]
    fn builders_compose() {
        let o = RunOptions::default()
            .with_max_iterations(7)
            .with_frontier(FrontierMode::Dense)
            .with_strategy(MflStrategy::Global)
            .with_shards(3);
        assert_eq!(o.max_iterations, 7);
        assert_eq!(o.frontier, FrontierMode::Dense);
        assert_eq!(o.strategy, MflStrategy::Global);
        assert_eq!(o.shards, 3);
    }

    #[test]
    fn hook_and_tracer_builders() {
        let o = RunOptions::default()
            .with_barrier_hook(BarrierHook::new(|_| {}))
            .with_tracer(Tracer::new());
        assert!(o.barrier_hook.is_some());
        // RunOptions stays Clone with a hook and tracer installed (both
        // Arc-backed handles).
        let o2 = o.clone();
        assert!(o2.barrier_hook.is_some());
        assert!(o2.tracer.is_some());
    }

    #[test]
    #[should_panic(expected = "thresholds.low (40)")]
    fn low_threshold_must_fit_a_warp() {
        // Degrees 33..=39 would land in the warp-packed bucket.
        let o = RunOptions {
            thresholds: DegreeThresholds { low: 40, high: 128 },
            ..Default::default()
        };
        o.validate_for_device(48 * 1024);
    }

    // Sketch dimensions `BoundedHashTable::new` / `CountMinSketch::new`
    // reject must not reach a kernel shard, where the panic would read as a
    // retryable device fault — and `0usize.next_power_of_two() == 1` lets
    // them pass the shared-memory budget.
    #[test]
    #[should_panic(expected = "ht_slots (0)")]
    fn ht_slots_must_be_positive() {
        let o = RunOptions {
            ht_slots: 0,
            ..Default::default()
        };
        o.validate_for_device(48 * 1024);
    }

    #[test]
    #[should_panic(expected = "ht_probe_limit (0)")]
    fn ht_probe_limit_must_be_positive() {
        let o = RunOptions {
            ht_probe_limit: 0,
            ..Default::default()
        };
        o.validate_for_device(48 * 1024);
    }

    #[test]
    #[should_panic(expected = "cms_depth (9)")]
    fn cms_depth_must_have_a_row_multiplier() {
        let o = RunOptions {
            cms_depth: 9,
            ..Default::default()
        };
        o.validate_for_device(48 * 1024);
    }

    #[test]
    #[should_panic(expected = "cms_width (0)")]
    fn cms_width_must_be_positive() {
        let o = RunOptions {
            cms_width: 0,
            ..Default::default()
        };
        o.validate_for_device(48 * 1024);
    }

    #[test]
    #[should_panic(expected = "mid HT")]
    fn mid_ht_must_cover_high_threshold() {
        let o = RunOptions {
            mid_ht_slots: 8,
            ..Default::default()
        };
        o.validate_for_device(48 * 1024);
    }
}
