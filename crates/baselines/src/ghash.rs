//! G-Hash: the per-vertex global-memory hash-table GPU baseline.
//!
//! §5.3 describes the `global` strategy — "a hash table in the global
//! memory is employed for each vertex to count the neighborhood label
//! frequency with the help of GPU caching mechanism, which is used in
//! G-Hash [2]" — so G-Hash is exactly the GLP engine with
//! [`MflStrategy::Global`]: every insert is a scattered global atomic.
//! Unlike G-Sort it needs no |E|-sized auxiliary array and no sort passes,
//! which is why it catches up on the largest graphs (§5.2).

use glp_core::engine::{drive, Backend, BspEngine, Engine, EngineError, GpuEngine, RunOptions};
use glp_core::{LpProgram, LpRunReport};
use glp_gpusim::Device;
use glp_graph::Graph;

/// The G-Hash engine: a preset backend of the GLP engine that pins the
/// global-memory strategy and runs all-active (G-Hash recomputes every
/// vertex every iteration — exactly the waste §2.2 attributes to the
/// existing approaches). It cannot schedule over a frontier, so under any
/// [`FrontierMode`](glp_core::FrontierMode) its reports record only
/// [`Direction::Dense`](glp_core::Direction). All other [`RunOptions`]
/// fields pass through.
#[derive(Debug)]
pub struct GHashLp {
    inner: GpuEngine,
}

impl GHashLp {
    /// G-Hash on the given device.
    pub fn new(device: Device) -> Self {
        Self {
            inner: GpuEngine::new(device),
        }
    }

    /// G-Hash on a modeled Titan V.
    pub fn titan_v() -> Self {
        Self::new(Device::titan_v())
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        self.inner.device()
    }
}

impl Engine for GHashLp {
    fn name(&self) -> &'static str {
        "G-Hash"
    }

    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError> {
        drive(&mut *self.backend(g, opts), g, prog, opts)
    }
}

impl BspEngine for GHashLp {
    fn backend<'a>(&'a mut self, g: &Graph, opts: &RunOptions) -> Box<dyn Backend + 'a> {
        let name = self.name();
        self.inner.global_hash_backend(name, g, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsort::GSortLp;
    use glp_core::engine::GpuEngine;
    use glp_core::ClassicLp;
    use glp_graph::gen::{community_powerlaw, CommunityPowerLawConfig};

    #[test]
    fn glp_beats_both_gpu_baselines() {
        let g = community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 8_000,
            avg_degree: 16.0,
            ..Default::default()
        });
        let opts = RunOptions::default();
        let mut p = ClassicLp::new(g.num_vertices());
        let glp = GpuEngine::titan_v().run(&g, &mut p, &opts).unwrap();
        let mut p = ClassicLp::new(g.num_vertices());
        let gsort = GSortLp::titan_v().run(&g, &mut p, &opts).unwrap();
        let mut p = ClassicLp::new(g.num_vertices());
        let ghash = GHashLp::titan_v().run(&g, &mut p, &opts).unwrap();
        assert!(
            glp.modeled_seconds < gsort.modeled_seconds,
            "GLP {} !< G-Sort {}",
            glp.modeled_seconds,
            gsort.modeled_seconds
        );
        assert!(
            glp.modeled_seconds < ghash.modeled_seconds,
            "GLP {} !< G-Hash {}",
            glp.modeled_seconds,
            ghash.modeled_seconds
        );
    }
}
