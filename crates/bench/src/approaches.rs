//! Unified dispatch over the six compared approaches and three LP
//! algorithms of §5.1–5.2, all driven through the [`Engine`] trait.

use glp_baselines::{CpuLp, CpuLpConfig, GHashLp, GSortLp};
use glp_core::engine::GpuEngine;
use glp_core::{ClassicLp, Engine, FrontierMode, Llp, LpRunReport, RunOptions, Slp};
use glp_graph::Graph;

/// The compared approaches of §5.1 in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    /// TigerGraph on multicore CPUs (classic LP only).
    Tg,
    /// Ligra on multicore CPUs.
    Ligra,
    /// OpenMP parallel-for LP (the speedup baseline of Figures 4–6).
    Omp,
    /// Segmented-sort GPU LP.
    GSort,
    /// Per-vertex global-hash GPU LP.
    GHash,
    /// This paper's system.
    Glp,
}

impl Approach {
    /// All six, in the paper's presentation order.
    pub fn all() -> [Approach; 6] {
        [
            Approach::Tg,
            Approach::Ligra,
            Approach::Omp,
            Approach::GSort,
            Approach::GHash,
            Approach::Glp,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::Tg => "TG",
            Approach::Ligra => "Ligra",
            Approach::Omp => "OMP",
            Approach::GSort => "G-Sort",
            Approach::GHash => "G-Hash",
            Approach::Glp => "GLP",
        }
    }

    /// Whether the approach supports non-classic variants (§5.1: "TG only
    /// supports the classic LP").
    pub fn supports(&self, algo: Algo) -> bool {
        !matches!((self, algo), (Approach::Tg, Algo::Llp(_) | Algo::Slp(_)))
    }

    /// A freshly constructed engine for this approach — the only place in
    /// the benchmark suite that names a concrete engine type.
    fn engine(&self) -> Box<dyn Engine> {
        match self {
            Approach::Tg => Box::new(CpuLp::tigergraph(CpuLpConfig::default())),
            Approach::Ligra => Box::new(CpuLp::ligra(CpuLpConfig::default())),
            Approach::Omp => Box::new(CpuLp::omp(CpuLpConfig::default())),
            Approach::GSort => Box::new(GSortLp::titan_v()),
            Approach::GHash => Box::new(GHashLp::titan_v()),
            Approach::Glp => Box::new(GpuEngine::titan_v()),
        }
    }

    /// The approach's historical scheduling personality: only Ligra and
    /// GLP are frontier systems; everyone else rescans every vertex every
    /// iteration (§2.2).
    fn frontier(&self) -> FrontierMode {
        match self {
            Approach::Ligra | Approach::Glp => FrontierMode::Auto,
            _ => FrontierMode::Dense,
        }
    }

    /// Run options matching the approach's personality with the given
    /// iteration cap.
    fn options(&self, iterations: u32) -> RunOptions {
        RunOptions::default()
            .with_max_iterations(iterations)
            .with_frontier(self.frontier())
    }
}

/// The evaluated LP algorithms with their benchmark parameters (§5.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// Classic LP, 20 iterations.
    Classic,
    /// LLP with resolution γ, 20 iterations per γ.
    Llp(f64),
    /// SLP, ≤5 labels per vertex, 20 iterations, given draw seed.
    Slp(u64),
}

/// Runs `algo` on `g` with `approach` for up to `iterations` rounds.
///
/// # Panics
/// Panics if the approach does not support the algorithm (TG + LLP/SLP).
pub fn run_algo(approach: Approach, g: &Graph, algo: Algo, iterations: u32) -> LpRunReport {
    assert!(
        approach.supports(algo),
        "{} does not support {algo:?}",
        approach.name()
    );
    let n = g.num_vertices();
    let mut engine = approach.engine();
    let opts = approach.options(iterations);
    let outcome = match algo {
        Algo::Classic => engine.run(g, &mut ClassicLp::with_max_iterations(n, iterations), &opts),
        Algo::Llp(gamma) => engine.run(
            g,
            &mut Llp::with_max_iterations(n, gamma, iterations),
            &opts,
        ),
        Algo::Slp(seed) => engine.run(g, &mut Slp::with_params(n, 5, 0.2, iterations, seed), &opts),
    };
    // The benchmark devices are healthy (no fault injection): a fault here
    // is a harness bug, not a measurement.
    outcome.unwrap_or_else(|e| panic!("{} faulted on {algo:?}: {e}", approach.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use glp_graph::gen::caveman;

    #[test]
    fn every_supported_pair_runs() {
        let g = caveman(4, 6);
        for a in Approach::all() {
            for algo in [Algo::Classic, Algo::Llp(2.0), Algo::Slp(7)] {
                if a.supports(algo) {
                    let r = run_algo(a, &g, algo, 3);
                    assert!(r.iterations >= 1, "{} {algo:?}", a.name());
                    assert!(r.modeled_seconds > 0.0);
                }
            }
        }
    }

    #[test]
    fn tg_rejects_variants() {
        assert!(!Approach::Tg.supports(Algo::Llp(1.0)));
        assert!(!Approach::Tg.supports(Algo::Slp(1)));
        assert!(Approach::Tg.supports(Algo::Classic));
    }

    #[test]
    fn engine_names_match_legend_names() {
        for a in Approach::all() {
            assert_eq!(a.engine().name(), a.name());
        }
    }
}
