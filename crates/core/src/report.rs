//! Run reports: what an engine hands back besides the labels themselves.

use crate::engine::Direction;
use glp_gpusim::KernelCounters;
use glp_trace::KernelProfile;

/// Summary of one LP run on any engine.
///
/// A run is one report, however many attempts the recovery policy needed
/// ([`ResilientEngine`](crate::ResilientEngine)): the per-iteration vectors
/// always have `iterations` entries, each on the clock of the tier that
/// committed it; `modeled_seconds` / `transfer_seconds` sum the attempts'
/// own device clocks (so a single attempt reads as ever); `wall_seconds`
/// spans the whole ladder; counters and the kernel profile merge every tier
/// that ran.
#[derive(Clone, Debug, Default)]
pub struct LpRunReport {
    /// Iterations executed.
    pub iterations: u32,
    /// Modeled elapsed seconds (cost-model time; comparable across all
    /// engines in this workspace).
    pub modeled_seconds: f64,
    /// Modeled seconds spent on host↔device transfers (hybrid/multi-GPU).
    pub transfer_seconds: f64,
    /// Host wall-clock seconds the simulation itself took (secondary
    /// metric; not comparable to `modeled_seconds`).
    pub wall_seconds: f64,
    /// Label changes per iteration (convergence trace).
    pub changed_per_iteration: Vec<u64>,
    /// Vertices recomputed per iteration: the non-isolated vertex count
    /// when dense, the shrinking frontier under
    /// [`FrontierMode::Auto`](crate::FrontierMode) with a
    /// sparse-activation program (active-set decay trace).
    pub active_per_iteration: Vec<u64>,
    /// Modeled seconds spent in each iteration (cost-decay trace: under
    /// the frontier optimization, converging runs get cheaper per round).
    /// Wall seconds on the host BSP tier, which has no modeled clock.
    pub iteration_seconds: Vec<f64>,
    /// How each iteration's frontier was rebuilt:
    /// [`Direction::Dense`](crate::Direction) when no frontier is
    /// maintained, otherwise the push/pull choice — forced by
    /// [`FrontierMode::Push`](crate::FrontierMode)/`Pull`, or made
    /// per-iteration by `Auto`'s cost-model crossover. Entry `t` is the
    /// direction that built the frontier iteration `t + 1` consumes.
    pub direction_per_iteration: Vec<Direction>,
    /// GPU event totals (zeroed for CPU engines).
    pub gpu_counters: KernelCounters,
    /// High-degree vertices that needed the global-memory fallback
    /// (the quantity Theorem 1 bounds), summed over iterations.
    pub smem_fallbacks: u64,
    /// High-degree vertices processed by the CMS+HT kernel, summed over
    /// iterations (denominator for the fallback rate).
    pub smem_vertices: u64,
    /// Modeled seconds spent on per-barrier label snapshots (only non-zero
    /// when a [`BarrierHook`](crate::BarrierHook) is installed or the run
    /// can recover — included in `modeled_seconds`, broken out so the
    /// overhead of fault tolerance is visible).
    pub snapshot_seconds: f64,
    /// Barrier snapshots taken (one per completed iteration of such a run).
    pub snapshots_taken: u64,
    /// Iterations whose LabelPropagation phase the driver replayed from the
    /// record of the identical phase two iterations earlier instead of
    /// computing it (a run in a 2-cycle). Modeled time, counters and traces
    /// do not tell such an iteration from a computed one. In the report of
    /// a [`replay_delta`](crate::replay_delta) it counts the iterations
    /// whose frontier decisions were taken from such a record — the same
    /// rule at the replay's granularity — so a serving recluster carries
    /// the count on its full and its incremental runs alike. Always 0 for
    /// programs without `sparse_activation`.
    pub replayed_iterations: u32,
    /// Propagation-kernel launches that priced their schedule (counted the
    /// events the CSR and the vertex list alone fix) instead of taking it
    /// from the run's schedule ledger, which keeps the last vertex list each
    /// device, kernel and harness part priced. A host-side work count: the
    /// modeled clock charges every launch alike. Replayed iterations price
    /// nothing; host tiers report 0.
    pub priced_launches: u64,
    /// Per-kernel aggregation (count and total modeled seconds, keyed by
    /// engine tier and kernel name) over this run's launches. Filled from
    /// the devices' kernel logs whether or not a tracer is attached; empty
    /// for the host-only engines.
    pub kernel_profile: KernelProfile,
}

impl LpRunReport {
    /// Modeled seconds per iteration (what Figure 7 reports).
    pub fn seconds_per_iteration(&self) -> f64 {
        self.modeled_seconds / f64::from(self.iterations.max(1))
    }

    /// Fraction of high-degree vertices that fell back to global memory.
    pub fn fallback_rate(&self) -> f64 {
        if self.smem_vertices == 0 {
            0.0
        } else {
            self.smem_fallbacks as f64 / self.smem_vertices as f64
        }
    }

    /// Transfer share of total modeled time (the paper's "<10%" claim).
    pub fn transfer_fraction(&self) -> f64 {
        if self.modeled_seconds == 0.0 {
            0.0
        } else {
            self.transfer_seconds / self.modeled_seconds
        }
    }

    /// Iterations whose frontier rebuild ran in `direction` — the bench
    /// tables summarize `Auto` runs as push/pull counts with this.
    pub fn direction_count(&self, direction: Direction) -> usize {
        self.direction_per_iteration
            .iter()
            .filter(|&&d| d == direction)
            .count()
    }

    /// Share of modeled time spent on barrier snapshots — the price of
    /// iteration-granular recovery.
    pub fn snapshot_fraction(&self) -> f64 {
        if self.modeled_seconds == 0.0 {
            0.0
        } else {
            self.snapshot_seconds / self.modeled_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_trace_roundtrip() {
        let r = LpRunReport {
            iterations: 2,
            iteration_seconds: vec![0.5, 0.25],
            ..Default::default()
        };
        assert_eq!(r.iteration_seconds.len(), r.iterations as usize);
        assert!(r.iteration_seconds[1] < r.iteration_seconds[0]);
    }

    #[test]
    fn derived_rates() {
        let r = LpRunReport {
            iterations: 4,
            modeled_seconds: 2.0,
            transfer_seconds: 0.1,
            smem_fallbacks: 5,
            smem_vertices: 100,
            ..Default::default()
        };
        assert_eq!(r.seconds_per_iteration(), 0.5);
        assert_eq!(r.fallback_rate(), 0.05);
        assert_eq!(r.transfer_fraction(), 0.05);
    }

    #[test]
    fn snapshot_overhead_is_a_fraction_of_modeled_time() {
        let r = LpRunReport {
            modeled_seconds: 2.0,
            snapshot_seconds: 0.2,
            snapshots_taken: 4,
            ..Default::default()
        };
        assert_eq!(r.snapshot_fraction(), 0.1);
        assert_eq!(LpRunReport::default().snapshot_fraction(), 0.0);
    }

    #[test]
    fn direction_counts_summarize_the_trace() {
        let r = LpRunReport {
            iterations: 4,
            direction_per_iteration: vec![
                Direction::Pull,
                Direction::Pull,
                Direction::Push,
                Direction::Push,
            ],
            ..Default::default()
        };
        assert_eq!(r.direction_count(Direction::Pull), 2);
        assert_eq!(r.direction_count(Direction::Push), 2);
        assert_eq!(r.direction_count(Direction::Dense), 0);
        assert_eq!(
            r.direction_per_iteration.len(),
            r.iterations as usize,
            "one direction recorded per iteration"
        );
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = LpRunReport::default();
        assert_eq!(r.seconds_per_iteration(), 0.0);
        assert_eq!(r.fallback_rate(), 0.0);
        assert_eq!(r.transfer_fraction(), 0.0);
    }
}
