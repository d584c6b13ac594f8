//! # glp-bench — harness regenerating every table and figure of the paper
//!
//! The binaries (see `DESIGN.md`'s experiment index):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `paper_grid`      | every table and figure of §5 plus the extra ablations and the quality sweep, written to `results/` |
//! | `fleet_scaling`   | serving: tx/s vs shard count (1/2/4/8), self-asserting the 4-shard recluster speedup |
//! | `chaos_serve`     | serving: recovery and failover MTTR under injected faults (feature `fault-injection`) |
//! | `adversarial_serve` | serving: evolving rings, burst flood and label noise vs detection quality |
//! | `glp`             | the CLI: generate / run / profile / info |
//!
//! A bin exists only for a claim nothing steadier can make. Claims on the
//! modeled clock are deterministic, so they are tests
//! (`tests/modeled_claims.rs`, the workspace's `tests/`); wall-clock
//! claims about the engines and the service are the committed benchmark
//! (`benchmark/`). Every bin ends its flag parsing with [`Args::finish`],
//! so a misspelt or retired flag is an error, not a silent default.
//!
//! Every time printed is **modeled time** from the workspace cost models
//! (GPU, CPU, cluster) — deterministic and unit-consistent across
//! approaches; see `DESIGN.md` for the calibration story. Host wall-clock
//! of the simulation itself is reported separately where useful.

pub mod approaches;
pub mod cli;
pub mod table;
pub mod workloads;

pub use approaches::{run_algo, Algo, Approach};
pub use cli::Args;
pub use table::print_table;
