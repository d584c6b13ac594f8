//! The repository's committed benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repository root).
//!
//! Seven workloads, two clocks: the *modeled* clock is gpusim's cost
//! model (what reproduces the paper's figures), the *wall* clock is how
//! fast the engines and `glp-serve` run on this host. Everything is
//! driven through public entry points and timed from outside.

pub mod compare;
pub mod hostref;
pub mod layers;
pub mod live;
pub mod lp;
pub mod report;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod stats;

use report::{RunArgs, RunResult};

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Runs one workload in this process.
pub fn run_workload(args: &RunArgs) -> Result<RunResult, String> {
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], got {}",
            args.seconds
        ));
    }
    if !(args.scale > 0.0 && args.scale <= 4.0) {
        return Err(format!("--scale must be in (0, 4], got {}", args.scale));
    }
    Ok(match args.workload.as_str() {
        "lp_lowdeg" => lp::run(lp::LpKind::LowDeg, args),
        "lp_highdeg" => lp::run(lp::LpKind::HighDeg, args),
        "lp_outofcore" => lp::run(lp::LpKind::OutOfCore, args),
        "serve_delta" => serve::run(serve::ServeKind::Delta, args),
        "serve_slide" => serve::run(serve::ServeKind::Slide, args),
        "serve_fleet" => serve::run(serve::ServeKind::Fleet, args),
        "serve_live" => live::run(args),
        other => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                known.join(", ")
            ));
        }
    })
}
