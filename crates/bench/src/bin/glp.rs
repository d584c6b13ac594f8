//! `glp` — command-line front end to the whole workspace.
//!
//! ```text
//! glp generate --dataset dblp --scale-mul 8 --out dblp.glpg
//! glp run --dataset youtube --algo classic --engine glp --iters 20
//! glp run --graph dblp.glpg --algo llp --gamma 16
//! glp profile --dataset aligraph --scale-mul 8
//! glp info --graph dblp.glpg
//! ```
//!
//! Subcommands:
//! * `generate` — synthesize a Table 2 dataset and save it (`.glpg`
//!   binary snapshot or `.el` edge list, chosen by extension).
//! * `run` — run an LP algorithm (`classic|llp|slp|seeded`) on a dataset
//!   or graph file with any engine
//!   (`glp|global|smem|omp|ligra|tg|gsort|ghash|inhouse`).
//! * `profile` — run GLP and print the per-kernel profiler table.
//! * `info` — print a graph's degree statistics.

use glp_baselines::{CpuLp, CpuLpConfig, GHashLp, GSortLp};
use glp_bench::table::fmt_seconds;
use glp_bench::Args;
use glp_core::community::{modularity, num_communities};
use glp_core::engine::{GpuEngine, MflStrategy};
use glp_core::{
    ClassicLp, Engine, FrontierMode, Llp, LpProgram, LpRunReport, RunOptions, SeededLp, Slp,
};
use glp_fraud::InHouseLp;
use glp_gpusim::DeviceProfile;
use glp_graph::datasets::by_name;
use glp_graph::io;
use glp_graph::stats::degree_stats;
use glp_graph::Graph;

/// Clean CLI error: message to stderr, exit 2 (no panic backtrace).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Reads the graph flags now; loads or generates the graph when called,
/// so a command rejects bad flags before it pays for the graph.
fn graph_source(args: &Args) -> Box<dyn FnOnce() -> Graph + '_> {
    if let Some(path) = args.get_str("graph") {
        Box::new(move || {
            if path.ends_with(".el") {
                io::read_edge_list_file(path, io::EdgeListOptions::default())
                    .unwrap_or_else(|e| die(&format!("reading {path}: {e}")))
            } else {
                io::read_binary_file(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")))
            }
        })
    } else if let Some(name) = args.get_str("dataset") {
        let spec = by_name(name)
            .unwrap_or_else(|| die(&format!("unknown dataset {name:?} (see Table 2 names)")));
        let scale = spec.default_scale * args.get("scale-mul", 4u64);
        Box::new(move || {
            eprintln!("generating {name} at scale 1/{scale}");
            spec.generate_scaled(scale)
        })
    } else {
        die("pass --graph <file> or --dataset <table2 name>");
    }
}

fn run_options(args: &Args) -> RunOptions {
    let opts = RunOptions::default().with_max_iterations(args.get("iters", 20));
    match args.get_str("frontier") {
        None | Some("auto") => opts,
        Some("dense") => opts.with_frontier(FrontierMode::Dense),
        Some("push") => opts.with_frontier(FrontierMode::Push),
        Some("pull") => opts.with_frontier(FrontierMode::Pull),
        Some(other) => die(&format!(
            "unknown frontier mode {other:?} (auto|dense|push|pull)"
        )),
    }
}

fn run_program(
    engine: &str,
    g: &Graph,
    prog: &mut dyn LpProgram,
    opts: &RunOptions,
) -> LpRunReport {
    let mut opts = opts.clone();
    let mut e: Box<dyn Engine> = match engine {
        "glp" => Box::new(GpuEngine::titan_v()),
        "global" => {
            opts.strategy = MflStrategy::Global;
            Box::new(GpuEngine::titan_v())
        }
        "smem" => {
            opts.strategy = MflStrategy::Smem;
            Box::new(GpuEngine::titan_v())
        }
        "omp" => Box::new(CpuLp::omp(CpuLpConfig::default())),
        "ligra" => Box::new(CpuLp::ligra(CpuLpConfig::default())),
        "tg" => Box::new(CpuLp::tigergraph(CpuLpConfig::default())),
        "gsort" => Box::new(GSortLp::titan_v()),
        "ghash" => Box::new(GHashLp::titan_v()),
        "inhouse" => Box::new(InHouseLp::taobao()),
        other => die(&format!(
            "unknown engine {other:?} (glp|global|smem|omp|ligra|tg|gsort|ghash|inhouse)"
        )),
    };
    e.run(g, prog, &opts).unwrap_or_else(|e| {
        eprintln!("engine fault: {e}");
        std::process::exit(1);
    })
}

fn cmd_generate(args: &Args) {
    let load = graph_source(args);
    let Some(out) = args.get_str("out") else {
        die("--out <path> required");
    };
    args.finish();
    let g = load();
    let result = if out.ends_with(".el") {
        std::fs::File::create(out)
            .map_err(io::IoError::from)
            .and_then(|f| io::write_edge_list(&g, f))
    } else {
        io::write_binary_file(&g, out)
    };
    if let Err(e) = result {
        die(&format!("writing {out}: {e}"));
    }
    println!(
        "wrote {} vertices / {} edges to {out}",
        g.num_vertices(),
        g.num_edges()
    );
}

fn cmd_run(args: &Args) {
    let load = graph_source(args);
    let iters: u32 = args.get("iters", 20);
    let engine = args.get_str("engine").unwrap_or("glp").to_string();
    let algo = args.get_str("algo").unwrap_or("classic").to_string();
    let opts = run_options(args);
    let program: Box<dyn FnOnce(usize) -> Box<dyn LpProgram>> = match algo.as_str() {
        "classic" => Box::new(move |n| Box::new(ClassicLp::with_max_iterations(n, iters))),
        "llp" => {
            let gamma: f64 = args.get("gamma", 1.0);
            Box::new(move |n| Box::new(Llp::with_max_iterations(n, gamma, iters)))
        }
        "slp" => {
            let seed: u64 = args.get("seed", 0x519);
            Box::new(move |n| Box::new(Slp::with_params(n, 5, 0.2, iters, seed)))
        }
        "seeded" => {
            let every: usize = args.get("seed-every", 100);
            Box::new(move |n| {
                let seeds: Vec<u32> = (0..n as u32).step_by(every.max(1)).collect();
                Box::new(SeededLp::with_max_iterations(n, &seeds, iters))
            })
        }
        other => die(&format!("unknown algo {other:?} (classic|llp|slp|seeded)")),
    };
    args.finish();
    let g = load();
    let mut prog = program(g.num_vertices());
    let report = run_program(&engine, &g, prog.as_mut(), &opts);
    let labels = prog.labels();
    println!(
        "{algo} on {} vertices / {} edges with {engine}:",
        g.num_vertices(),
        g.num_edges()
    );
    println!(
        "  iterations       : {} ({} replayed)",
        report.iterations, report.replayed_iterations
    );
    println!(
        "  modeled time     : {}",
        fmt_seconds(report.modeled_seconds)
    );
    println!(
        "  per iteration    : {}",
        fmt_seconds(report.seconds_per_iteration())
    );
    println!("  wall clock (sim) : {}", fmt_seconds(report.wall_seconds));
    println!("  communities      : {}", num_communities(labels));
    if g.is_undirected() {
        println!("  modularity       : {:.4}", modularity(&g, labels));
    }
    if report.smem_vertices > 0 {
        println!(
            "  CMS+HT fallbacks : {:.3}%",
            100.0 * report.fallback_rate()
        );
    }
}

fn cmd_profile(args: &Args) {
    let load = graph_source(args);
    let iters: u32 = args.get("iters", 20);
    args.finish();
    let g = load();
    let mut engine = GpuEngine::titan_v();
    let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), iters);
    let report = engine
        .run(
            &g,
            &mut prog,
            &RunOptions::default().with_max_iterations(iters),
        )
        .expect("healthy device");
    println!(
        "classic LP, {} iterations ({} replayed), {} modeled\n",
        report.iterations,
        report.replayed_iterations,
        fmt_seconds(report.modeled_seconds)
    );
    print!("{}", DeviceProfile::of(engine.device()));
}

fn cmd_info(args: &Args) {
    let load = graph_source(args);
    args.finish();
    let g = load();
    let s = degree_stats(&g);
    println!("vertices      : {}", s.num_vertices);
    println!("edges         : {}", s.num_edges);
    println!("avg degree    : {:.2}", s.avg_degree);
    println!("median degree : {}", s.median_degree);
    println!("max degree    : {}", s.max_degree);
    println!(
        "deg < 32      : {:.1}% (warp-packed bucket)",
        100.0 * s.frac_low_degree
    );
    println!(
        "deg > 128     : {:.1}% (CMS+HT bucket)",
        100.0 * s.frac_high_degree
    );
    println!("weighted      : {}", g.incoming().is_weighted());
    println!("undirected    : {}", g.is_undirected());
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("usage: glp <generate|run|profile|info> [--flags]");
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    let args = Args::from_iter(argv);
    match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "run" => cmd_run(&args),
        "profile" => cmd_profile(&args),
        "info" => cmd_info(&args),
        other => {
            eprintln!("unknown command {other:?}; try generate|run|profile|info");
            std::process::exit(2);
        }
    }
}
