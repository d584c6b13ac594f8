//! Extra experiment: detection quality vs community mixing.
//!
//! The paper evaluates *performance* only; a library user also needs to
//! know the algorithms find the right communities. This sweep generates
//! planted-partition graphs at increasing mixing (intra-community edges
//! get rarer) and reports NMI / purity / modularity of classic LP and LLP
//! against the planted ground truth, plus the γ-resolution effect LLP
//! exists for (smaller communities at higher γ).
//!
//! Usage: `cargo run -p glp-bench --release --bin quality_sweep
//!         [--vertices N] [--iters N]`

use glp_bench::table::print_table;
use glp_bench::Args;
use glp_core::community::{modularity, nmi, num_communities, purity};
use glp_core::engine::GpuEngine;
use glp_core::{ClassicLp, Engine, Llp, LpProgram, RunOptions};
use glp_graph::gen::{community_powerlaw_with_truth, CommunityPowerLawConfig};

fn main() {
    let args = Args::parse();
    let n: usize = args.get("vertices", 20_000);
    let iters: u32 = args.get("iters", 20);
    args.finish();

    println!("Detection quality vs mixing (classic LP, {n} vertices, {iters} iterations)");
    let mut rows = Vec::new();
    for mixing in [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let (g, truth) = community_powerlaw_with_truth(&CommunityPowerLawConfig {
            num_vertices: n,
            avg_degree: 10.0,
            num_communities: 64,
            mixing,
            ..Default::default()
        });
        let mut prog = ClassicLp::with_max_iterations(n, iters);
        GpuEngine::titan_v()
            .run(&g, &mut prog, &RunOptions::default())
            .expect("healthy device");
        let labels = prog.labels();
        rows.push(vec![
            format!("{mixing:.2}"),
            format!("{}", num_communities(labels)),
            format!("{:.3}", nmi(labels, &truth)),
            format!("{:.3}", purity(labels, &truth)),
            format!("{:.3}", modularity(&g, labels)),
        ]);
    }
    print_table(&["mixing", "found", "NMI", "purity", "modularity"], &rows);

    println!("\nLLP resolution effect (mixing 0.1): higher γ → smaller communities");
    let (g, truth) = community_powerlaw_with_truth(&CommunityPowerLawConfig {
        num_vertices: n,
        avg_degree: 10.0,
        num_communities: 64,
        mixing: 0.1,
        ..Default::default()
    });
    let mut rows = Vec::new();
    for gamma in [0.0, 0.5, 1.0, 2.0, 4.0, 16.0] {
        let mut prog = Llp::with_max_iterations(n, gamma, iters);
        GpuEngine::titan_v()
            .run(&g, &mut prog, &RunOptions::default())
            .expect("healthy device");
        let labels = prog.labels();
        rows.push(vec![
            format!("{gamma}"),
            format!("{}", num_communities(labels)),
            format!("{:.3}", nmi(labels, &truth)),
            format!("{:.3}", modularity(&g, labels)),
        ]);
    }
    print_table(&["gamma", "found", "NMI", "modularity"], &rows);
}
