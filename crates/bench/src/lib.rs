//! # glp-bench — harness regenerating every table and figure of the paper
//!
//! One binary per experiment (see `DESIGN.md`'s experiment index):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table2_datasets` | Table 2 — dataset statistics |
//! | `fig4_classic`    | Figure 4 — classic-LP speedups over OMP |
//! | `fig5_llp`        | Figure 5 — LLP speedups over OMP |
//! | `fig6_slp`        | Figure 6 — SLP speedups over OMP |
//! | `table3_ablation` | Table 3 — smem / smem+warp speedups over global |
//! | `table4_windows`  | Table 4 — sliding-window workload sizes |
//! | `fig7_pipeline`   | Figure 7 — GLP (1 & 2 GPUs) vs the in-house cluster |
//! | `ablation_sketch` | extra: HT/CMS geometry sweep (Theorem 1 in practice) |
//! | `ablation_thresholds` | extra: degree-dispatch threshold sweep |
//! | `ablation_frontier` | extra: frontier on/off per dataset |
//! | `ablation_hardware` | extra: one workload across GPU generations |
//! | `quality_sweep`   | extra: detection quality (NMI/purity/modularity) vs mixing; LLP resolution effect |
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
pub mod figures;
pub mod table;
pub mod workloads;

pub use approaches::{run_algo, Algo, Approach};
pub use cli::Args;
pub use table::print_table;
