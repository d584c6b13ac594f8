//! # glp-bench — harness regenerating every table and figure of the paper
//!
//! The binaries (see `DESIGN.md`'s experiment index):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `paper_grid`      | every table and figure of §5 plus the extra ablations and the quality sweep, written to `results/` |
//! | `glp`             | the CLI: generate / run / profile / info |
//!
//! Deterministic claims are tests: the modeled clock's in
//! `tests/modeled_claims.rs` and the workspace's `tests/`, the serving
//! stack's in `glp-serve`'s suites. Wall-clock claims about the engines
//! and the service are the committed benchmark (`benchmark/`). Both bins
//! end their flag parsing with [`Args::finish`], so a misspelt or
//! retired flag is an error, not a silent default.
//!
//! Every time printed is **modeled time** from the workspace cost models
//! (GPU, CPU, cluster) — deterministic and unit-consistent across
//! approaches; see `DESIGN.md` for the calibration story. Host wall-clock
//! of the simulation itself is reported separately where useful.

mod approaches;
mod cli;
pub mod table;
pub mod workloads;

pub use approaches::{run_algo, Algo, Approach};
pub use cli::Args;
