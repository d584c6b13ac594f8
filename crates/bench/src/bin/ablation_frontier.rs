//! Extra ablation: the frontier optimization (skip settled vertices).
//!
//! §2.2 criticizes prior GPU LP for reloading "label values ... repeatedly
//! but only a subset of them have their labels updated". This sweep
//! quantifies what skipping settled vertices buys GLP on each dataset —
//! big on fast-converging graphs, nothing on graphs that keep churning.
//!
//! Usage: `cargo run -p glp-bench --release --bin ablation_frontier
//!         [--scale-mul K] [--iters N] [--datasets a,b]`

use glp_bench::figures::selected_datasets;
use glp_bench::table::{fmt_seconds, print_table};
use glp_bench::Args;
use glp_core::engine::GpuEngine;
use glp_core::{ClassicLp, Engine, FrontierMode, RunOptions};

fn main() {
    let args = Args::parse();
    let iters: u32 = args.get("iters", 20);
    let datasets = selected_datasets(&args);
    args.finish();
    let mut rows = Vec::new();
    for (spec, scale) in datasets {
        eprintln!("... {} (scale 1/{scale})", spec.name);
        let g = spec.generate_scaled(scale);
        let run = |frontier: FrontierMode| {
            let opts = RunOptions::default()
                .with_max_iterations(iters)
                .with_frontier(frontier);
            let mut engine = GpuEngine::titan_v();
            let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), iters);
            engine.run(&g, &mut prog, &opts).expect("healthy device")
        };
        let dense = run(FrontierMode::Dense);
        let frontier = run(FrontierMode::Auto);
        let last_changed = *frontier.changed_per_iteration.last().unwrap_or(&0);
        rows.push(vec![
            spec.name.to_string(),
            fmt_seconds(dense.modeled_seconds),
            fmt_seconds(frontier.modeled_seconds),
            format!("{:.1}x", dense.modeled_seconds / frontier.modeled_seconds),
            format!("{}", frontier.iterations),
            format!(
                "{:.1}%",
                100.0 * last_changed as f64 / g.num_vertices() as f64
            ),
        ]);
    }
    println!("Frontier-optimization ablation (classic LP, {iters} iterations)");
    print_table(
        &[
            "dataset",
            "dense",
            "frontier",
            "speedup",
            "iters",
            "still churning",
        ],
        &rows,
    );
    println!("\n(converging graphs settle and the frontier collapses; graphs with");
    println!("synchronous-LP oscillation keep their frontier full and gain nothing)");
}
