//! One log, two per-kernel tables: `glp profile`'s device table
//! (`glp_gpusim::DeviceProfile`, which adds the counter columns) and the
//! run report's `glp_trace::KernelProfile`, which the driver fills from the
//! same kernel log. They must name the same kernels with the same launch
//! counts and seconds, bit for bit.

use glp_core::engine::{Engine, GpuEngine, HybridEngine, RunOptions};
use glp_core::ClassicLp;
use glp_gpusim::{Device, DeviceConfig, DeviceProfile};
use glp_graph::gen::{community_powerlaw, CommunityPowerLawConfig};
use glp_graph::Graph;
use std::collections::BTreeMap;

/// Runs `ClassicLp` for 10 iterations on `engine` and compares the two
/// tables of its one device; returns how many kernels they hold.
fn tables_agree<E: Engine>(g: &Graph, mut engine: E, device: impl Fn(&E) -> &Device) -> usize {
    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 10);
    let opts = RunOptions::default().with_max_iterations(10);
    let report = engine.run(g, &mut prog, &opts).unwrap();
    let rows = report.kernel_profile.rows();
    let reported: BTreeMap<_, _> = rows
        .map(|(_, k, r)| (k, (r.count, r.total_s.to_bits())))
        .collect();
    let table = DeviceProfile::of(device(&engine)).kernels.into_iter();
    let profiled: BTreeMap<_, _> = table
        .map(|k| (k.name, (k.launches, k.seconds.to_bits())))
        .collect();
    assert_eq!(profiled, reported, "{}", engine.name());
    reported.len()
}

#[test]
fn the_device_table_and_the_report_table_agree() {
    let g = community_powerlaw(&CommunityPowerLawConfig {
        num_vertices: 3_000,
        ..Default::default()
    });
    assert_eq!(tables_agree(&g, GpuEngine::titan_v(), GpuEngine::device), 9);
    // A card holding a third of the graph streams its adjacency.
    let streamed = DeviceConfig::tiny(g.num_vertices() as u64 * 20 + g.size_bytes() / 3);
    let hybrid = HybridEngine::new(Device::new(streamed));
    assert!(tables_agree(&g, hybrid, HybridEngine::device) > 1);
}
