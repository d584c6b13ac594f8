//! Regenerates **Table 2** — the evaluation datasets.
//!
//! Prints the paper's reported |V|, |E| and average degree next to the
//! synthetic equivalent actually generated at the chosen scale, plus the
//! structural signatures that matter to the optimizations (max degree,
//! low/high-degree fractions).
//!
//! Usage: `cargo run -p glp-bench --release --bin table2_datasets
//!         [--scale-mul K] [--datasets a,b]`

use glp_bench::figures::selected_datasets;
use glp_bench::table::print_table;
use glp_bench::Args;
use glp_graph::stats::degree_stats;

fn main() {
    let args = Args::parse();
    let datasets = selected_datasets(&args);
    args.finish();
    let mut rows = Vec::new();
    for (spec, scale) in datasets {
        eprintln!("... generating {} (scale 1/{scale})", spec.name);
        let g = spec.generate_scaled(scale);
        let s = degree_stats(&g);
        rows.push(vec![
            spec.name.to_string(),
            format!("{}", spec.paper_vertices),
            format!("{}", spec.paper_edges),
            format!("{:.1}", spec.paper_avg_degree()),
            format!("1/{scale}"),
            format!("{}", s.num_vertices),
            format!("{}", s.num_edges),
            format!("{:.1}", s.avg_degree),
            format!("{}", s.max_degree),
            format!("{:.0}%", 100.0 * s.frac_low_degree),
            format!("{:.1}%", 100.0 * s.frac_high_degree),
        ]);
    }
    println!("Table 2: datasets (paper vs generated equivalents)");
    print_table(
        &[
            "dataset",
            "paper |V|",
            "paper |E|",
            "paper avg-deg",
            "scale",
            "gen |V|",
            "gen |E|",
            "gen avg-deg",
            "max-deg",
            "deg<32",
            "deg>128",
        ],
        &rows,
    );
    println!("\nNote: Table 2 counts |E| as undirected pairs for the social/road/");
    println!("interaction datasets (Ave-Degree = 2|E|/|V|) and as directed edges for");
    println!("the web graphs uk-2002/wiki-en/twitter (Ave-Degree = |E|/|V|); the");
    println!("generated column always counts stored directed edges, so gen avg-deg");
    println!("is directly comparable to the paper's column.");
}
