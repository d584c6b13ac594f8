//! Regenerates **Table 3** — effectiveness of the proposed optimizations.
//!
//! Runs classic LP under the three MFL strategies of §5.3 on every dataset
//! and reports speedups over `global`:
//!
//! * `global` — per-vertex global-memory hash tables;
//! * `smem` — shared-memory CMS+HT for degree > 128 (§4.1);
//! * `smem+warp` — plus one-warp-multi-vertices for degree < 32 (§4.2).
//!
//! Also prints the CMS+HT global-fallback rate, the quantity Theorem 1
//! bounds.
//!
//! Usage: `cargo run -p glp-bench --release --bin table3_ablation
//!         [--scale-mul K] [--datasets a,b] [--iters N]`

use glp_bench::figures::selected_datasets;
use glp_bench::table::{fmt_seconds, print_table};
use glp_bench::Args;
use glp_core::engine::{GpuEngine, MflStrategy};
use glp_core::{ClassicLp, Engine, LpRunReport, RunOptions};
use glp_graph::Graph;

fn run(strategy: MflStrategy, g: &Graph, iters: u32) -> LpRunReport {
    let opts = RunOptions::default()
        .with_max_iterations(iters)
        .with_strategy(strategy);
    let mut engine = GpuEngine::titan_v();
    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), iters);
    engine.run(g, &mut prog, &opts).expect("healthy device")
}

fn main() {
    let args = Args::parse();
    let iters: u32 = args.get("iters", 20);
    let datasets = selected_datasets(&args);
    args.finish();
    let mut rows = Vec::new();
    for (spec, scale) in datasets {
        eprintln!("... {} (scale 1/{scale})", spec.name);
        let g = spec.generate_scaled(scale);
        let global = run(MflStrategy::Global, &g, iters);
        let smem = run(MflStrategy::Smem, &g, iters);
        let both = run(MflStrategy::SmemWarp, &g, iters);
        rows.push(vec![
            spec.name.to_string(),
            fmt_seconds(global.modeled_seconds),
            format!("{:.1}x", global.modeled_seconds / smem.modeled_seconds),
            format!("{:.1}x", global.modeled_seconds / both.modeled_seconds),
            format!("{:.2}%", 100.0 * both.fallback_rate()),
        ]);
    }
    println!("Table 3: effectiveness of the proposed optimizations");
    println!("(speedup over the `global` strategy, classic LP, {iters} iterations)");
    print_table(
        &[
            "dataset",
            "global time",
            "smem",
            "smem+warp",
            "CMS+HT fallback rate",
        ],
        &rows,
    );
    println!("\n(paper: smem 1.2x-7.4x, smem+warp 3.3x-13.2x; biggest smem win on");
    println!("aligraph — densest graph; biggest warp win on roadNet — constant low degree)");
}
