//! Regenerates **Figure 7** — elapsed time per LP iteration on the
//! sliding-window workloads: GLP on one GPU (hybrid mode when the graph
//! exceeds device memory), GLP on two GPUs, and the in-house 32-machine
//! distributed solution.
//!
//! Device memory is shrunk proportionally to the workload scale (the
//! paper's billion-edge windows overflow a 12 GiB Titan V; our scaled
//! windows overflow a scaled device), so the CPU–GPU hybrid mode really
//! engages on the longer windows — and the "<10% transfer overhead" claim
//! (§5.4) is checked on the printout.
//!
//! Usage: `cargo run -p glp-bench --release --bin fig7_pipeline
//!         [--scale K] [--iters N] [--device-mem-mb M]`

use glp_bench::table::{fmt_seconds, print_table};
use glp_bench::workloads::table4_stream;
use glp_bench::Args;
use glp_core::engine::{HybridEngine, MultiGpuEngine};
use glp_core::{ClassicLp, Engine, RunOptions};
use glp_fraud::window::{table4, WindowWorkload};
use glp_fraud::InHouseLp;
use glp_gpusim::{Device, DeviceConfig};

fn main() {
    let args = Args::parse();
    let scale: u64 = args.get("scale", 4);
    let iters: u32 = args.get("iters", 20);
    let device_mem_mb: u64 = args.get("device-mem-mb", 64 / scale.min(16));
    args.finish();
    eprintln!("... generating transaction stream (scale 1/{scale})");
    let stream = table4_stream(scale);

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut two_gpu_gains = Vec::new();
    for spec in table4() {
        let w = WindowWorkload::build(&stream, spec.days);
        let g = &w.graph;
        let n = g.num_vertices();
        eprintln!(
            "... {}-day window: |V|={} |E|={}",
            spec.days,
            n,
            g.num_edges()
        );

        // GLP, one (scaled) GPU; hybrid mode engages when the CSR
        // overflows.
        let opts = RunOptions::default().with_max_iterations(iters);
        let dev_cfg = DeviceConfig::tiny(device_mem_mb * (1 << 20));
        let mut glp1 = HybridEngine::new(Device::new(dev_cfg.clone()));
        let chunks = glp1.plan_chunks(g);
        let mut p = ClassicLp::with_max_iterations(n, iters);
        let r1 = glp1.run(g, &mut p, &opts).expect("healthy device");

        // GLP, two GPUs of the same scaled size — their combined memory
        // holds every window, mirroring how the paper's second Titan V
        // relieves the memory pressure.
        let mut glp2 = MultiGpuEngine::new(2, DeviceConfig::tiny(2 * device_mem_mb * (1 << 20)));
        let mut p = ClassicLp::with_max_iterations(n, iters);
        let r2 = glp2.run(g, &mut p, &opts).expect("healthy device");

        // The in-house 32-machine distributed solution, its fixed
        // per-superstep latency scaled by how much smaller this window is
        // than the production one (proportional costs scale on their own).
        let workload_ratio = (f64::from(spec.paper_vertices_m) * 1e6 / n as f64).max(1.0);
        let mut p = ClassicLp::with_max_iterations(n, iters);
        let r_in = InHouseLp::taobao_scaled(workload_ratio)
            .run(g, &mut p, &opts)
            .expect("healthy cluster");

        let speedup = r_in.seconds_per_iteration() / r1.seconds_per_iteration();
        let gain2 = r1.seconds_per_iteration() / r2.seconds_per_iteration();
        speedups.push(speedup);
        two_gpu_gains.push(gain2);
        rows.push(vec![
            format!("{}days", spec.days),
            format!("{}", g.num_edges()),
            fmt_seconds(r_in.seconds_per_iteration()),
            fmt_seconds(r1.seconds_per_iteration()),
            fmt_seconds(r2.seconds_per_iteration()),
            format!("{speedup:.1}x"),
            format!("{gain2:.1}x"),
            if chunks > 1 {
                format!(
                    "hybrid ({chunks} chunks, {:.1}% transfer)",
                    100.0 * r1.transfer_fraction()
                )
            } else {
                "in-core".to_string()
            },
        ]);
    }
    println!("Figure 7: elapsed time per LP iteration (classic LP, {iters} iterations)");
    print_table(
        &[
            "window",
            "|E|",
            "in-house",
            "GLP 1GPU",
            "GLP 2GPU",
            "speedup",
            "2GPU gain",
            "mode",
        ],
        &rows,
    );
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let avg2 = two_gpu_gains.iter().sum::<f64>() / two_gpu_gains.len() as f64;
    println!("\nGLP average speedup over the in-house solution: {avg:.1}x (paper: 8.2x)");
    println!("Average additional speedup with a second GPU: {avg2:.1}x (paper: 1.8x)");
    println!("\nMonetary comparison (§5.4, official list prices):");
    println!("  in-house, per machine: 4 x Xeon Platinum 8168 @ $5,890 = $23,560 (x32 machines)");
    println!("  GLP: Xeon W-2133 @ $617 + Titan V @ $2,999 = $3,616 (one machine)");
}
