//! Extra ablation: hardware sensitivity.
//!
//! Runs the same GLP workload across modeled GPU generations to show how
//! the modeled time tracks memory bandwidth (LP is bandwidth-bound once
//! the §4 optimizations remove the atomic/sort overheads) — the
//! forward-looking question a deployment team asks after reading §5.4.
//!
//! Usage: `cargo run -p glp-bench --release --bin ablation_hardware
//!         [--scale-mul K] [--iters N]`

use glp_bench::table::{fmt_seconds, print_table};
use glp_bench::Args;
use glp_core::engine::GpuEngine;
use glp_core::{ClassicLp, Engine, RunOptions};
use glp_gpusim::{Device, DeviceConfig};
use glp_graph::datasets::by_name;

fn main() {
    let args = Args::parse();
    let iters: u32 = args.get("iters", 20);
    let scale_mul: u64 = args.get("scale-mul", 4);
    args.finish();
    let spec = by_name("twitter").expect("registry");
    let g = spec.generate_scaled(spec.default_scale * scale_mul);
    eprintln!(
        "twitter substitute: |V|={} |E|={}",
        g.num_vertices(),
        g.num_edges()
    );

    let mut rows = Vec::new();
    let mut baseline = None;
    for cfg in [
        DeviceConfig::rtx2080ti(),
        DeviceConfig::titan_v(),
        DeviceConfig::v100(),
        DeviceConfig::a100(),
    ] {
        let name = cfg.name.clone();
        let bw = cfg.mem_bandwidth_gbps;
        let mut engine = GpuEngine::new(Device::new(cfg));
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), iters);
        let r = engine
            .run(
                &g,
                &mut prog,
                &RunOptions::default().with_max_iterations(iters),
            )
            .expect("healthy device");
        let base = *baseline.get_or_insert(r.modeled_seconds);
        rows.push(vec![
            name,
            format!("{bw:.0} GB/s"),
            fmt_seconds(r.modeled_seconds),
            format!("{:.2}x", base / r.modeled_seconds),
        ]);
    }
    println!("Hardware sweep (classic LP, twitter substitute, {iters} iterations)");
    print_table(
        &["device", "bandwidth", "modeled time", "vs 2080 Ti"],
        &rows,
    );
}
