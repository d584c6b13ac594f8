//! Extra ablation: degree-dispatch threshold sweep.
//!
//! §5.3 fixes low < 32 and high > 128. This sweep moves both cut-offs and
//! shows the paper's choices sitting at (or near) the modeled optimum on a
//! representative power-law graph.
//!
//! Usage: `cargo run -p glp-bench --release --bin ablation_thresholds
//!         [--scale-mul K] [--iters N]`

use glp_bench::table::{fmt_seconds, print_table};
use glp_bench::Args;
use glp_core::engine::{DegreeThresholds, GpuEngine, MflStrategy};
use glp_core::{ClassicLp, Engine, RunOptions};
use glp_graph::datasets::by_name;

fn main() {
    let args = Args::parse();
    let iters: u32 = args.get("iters", 20);
    let scale_mul: u64 = args.get("scale-mul", 4);
    args.finish();
    let spec = by_name("ljournal").expect("registry");
    let g = spec.generate_scaled(spec.default_scale * scale_mul);
    eprintln!(
        "ljournal substitute: |V|={} |E|={}",
        g.num_vertices(),
        g.num_edges()
    );

    let mut rows = Vec::new();
    for (low, high) in [
        (4, 128),
        (8, 128),
        (16, 128),
        (32, 128), // the paper's setting
        (32, 64),
        (32, 256),
        (32, 512),
        (8, 512),
    ] {
        let opts = RunOptions {
            max_iterations: iters,
            strategy: MflStrategy::SmemWarp,
            thresholds: DegreeThresholds { low, high },
            mid_ht_slots: (high as usize).next_power_of_two().max(256),
            ..Default::default()
        };
        let mut engine = GpuEngine::titan_v();
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), iters);
        let report = engine.run(&g, &mut prog, &opts).expect("healthy device");
        let marker = if (low, high) == (32, 128) {
            " <- paper"
        } else {
            ""
        };
        rows.push(vec![
            format!("{low}"),
            format!("{high}"),
            fmt_seconds(report.modeled_seconds),
            format!("{:.3}%{marker}", 100.0 * report.fallback_rate()),
        ]);
    }
    println!("Degree-threshold ablation (classic LP, ljournal substitute)");
    print_table(
        &["low (<)", "high (>)", "modeled time", "fallback rate"],
        &rows,
    );
}
