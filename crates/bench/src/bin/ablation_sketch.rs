//! Extra ablation: CMS+HT geometry sweep (the `h`, `d`, `w` of §4.1).
//!
//! Theorem 1 bounds the global-fallback probability by `m·2^-d + e^-h`;
//! this sweep shows the engine's *measured* fallback rate and modeled time
//! tracking the bound as the shared-memory structures shrink — the
//! design-choice evidence behind the paper's defaults (h=1024, d=4).
//!
//! Usage: `cargo run -p glp-bench --release --bin ablation_sketch
//!         [--scale-mul K] [--iters N]`

use glp_bench::table::{fmt_seconds, print_table};
use glp_bench::Args;
use glp_core::engine::{GpuEngine, MflStrategy};
use glp_core::{ClassicLp, Engine, RunOptions};
use glp_graph::datasets::by_name;

fn main() {
    let args = Args::parse();
    let iters: u32 = args.get("iters", 20);
    let scale_mul: u64 = args.get("scale-mul", 4);
    args.finish();
    let spec = by_name("aligraph").expect("registry");
    let g = spec.generate_scaled(spec.default_scale * scale_mul);
    eprintln!(
        "aligraph substitute: |V|={} |E|={} (every vertex is high-degree)",
        g.num_vertices(),
        g.num_edges()
    );

    let mut rows = Vec::new();
    for (ht_slots, cms_depth, cms_width) in [
        (2048, 4, 2048),
        (1024, 4, 2048), // the paper-default geometry
        (256, 4, 2048),
        (64, 4, 2048),
        (1024, 2, 2048),
        (1024, 1, 2048),
        (64, 1, 256),
    ] {
        let opts = RunOptions {
            max_iterations: iters,
            strategy: MflStrategy::SmemWarp,
            ht_slots,
            cms_depth,
            cms_width,
            ..Default::default()
        };
        let mut engine = GpuEngine::titan_v();
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), iters);
        let report = engine.run(&g, &mut prog, &opts).expect("healthy device");
        rows.push(vec![
            format!("{ht_slots}"),
            format!("{cms_depth}"),
            format!("{cms_width}"),
            format!("{:.3}%", 100.0 * report.fallback_rate()),
            fmt_seconds(report.modeled_seconds),
        ]);
    }
    println!("Sketch-geometry ablation (classic LP on the aligraph substitute)");
    print_table(
        &[
            "HT slots h",
            "CMS depth d",
            "CMS width w",
            "fallback rate",
            "modeled time",
        ],
        &rows,
    );
    println!("\n(Theorem 1: P[global access] <= m*2^-d + e^-h; shrinking h or d");
    println!("raises the measured fallback rate, which drags modeled time with it)");
}
