//! Regenerates **Table 4** — TaoBao's sliding-window workloads.
//!
//! Builds the ten sliding-window graphs (10–100 days) from the synthetic
//! transaction stream and prints their sizes next to the paper's
//! production numbers. The generated stream reproduces the *shape*:
//! |V| saturates (recurring users) while |E| keeps growing.
//!
//! Usage: `cargo run -p glp-bench --release --bin table4_windows
//!         [--scale K]` (default 4; `--scale 1` is the full bench size)

use glp_bench::table::print_table;
use glp_bench::workloads::table4_stream;
use glp_bench::Args;
use glp_fraud::window::{table4, WindowWorkload};

fn main() {
    let args = Args::parse();
    let scale: u64 = args.get("scale", 4);
    args.finish();
    eprintln!("... generating transaction stream (scale 1/{scale})");
    let stream = table4_stream(scale);
    let mut rows = Vec::new();
    for spec in table4() {
        let w = WindowWorkload::build(&stream, spec.days);
        eprintln!("... built {}-day window", spec.days);
        rows.push(vec![
            format!("{}days", spec.days),
            format!("{}M", spec.paper_vertices_m),
            format!("{:.1}B", spec.paper_edges_b),
            format!("{}", w.graph.num_vertices()),
            format!("{}", w.graph.num_edges()),
            format!("{:.1}", w.graph.avg_degree()),
        ]);
    }
    println!("Table 4: sliding-window workloads (paper vs generated)");
    print_table(
        &[
            "window",
            "paper |V|",
            "paper |E|",
            "gen |V|",
            "gen |E|",
            "gen avg-deg",
        ],
        &rows,
    );
    println!("\n(paper: V grows 2.2x from 10 to 100 days while E grows 6.0x —");
    println!("recurring users saturate |V|; the generated stream matches that shape)");
}
