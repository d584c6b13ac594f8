//! # glp-baselines — the compared approaches of §5.1
//!
//! Reimplementations of every baseline the paper evaluates against,
//! preserving each one's defining cost structure so Figures 4–6 and
//! Table 3 can be regenerated:
//!
//! | name | paper description | here |
//! |------|-------------------|------|
//! | `TG`    | classic LP in TigerGraph on multicore CPUs | [`CpuLp::tigergraph`]: accumulator engine with materialized message passing and interpreter overhead |
//! | `Ligra` | LP on the Ligra shared-memory framework   | [`CpuLp::ligra`]: frontier-based — only vertices with a changed neighbor recompute (dense fallback for LLP/SLP) |
//! | `OMP`   | OpenMP parallel-for LP                     | [`CpuLp::omp`]: dense parallel-for with per-thread counting scratch |
//! | `G-Sort`| segmented-sort GPU LP (Kozawa et al.)      | [`GSortLp`]: gather all neighbor labels to a global `NL` array, segmented sort, run-scan |
//! | `G-Hash`| per-vertex global-memory hash tables       | [`GHashLp`]: the `Global` MFL strategy of the GLP engine |
//!
//! All baselines drive the same [`LpProgram`](glp_core::LpProgram) trait and
//! use the same deterministic tie-breaking, so their label outputs are
//! bit-identical to the GLP engines' — tested in this crate. None owns an
//! iteration loop: each is a backend of (or a preset over a backend of)
//! [`glp_core::engine::drive`], supplying where data lives and what a step
//! costs.

pub mod cpu;
pub mod ghash;
pub mod gsort;

pub use cpu::{CpuLp, CpuLpConfig};
pub use ghash::GHashLp;
pub use gsort::GSortLp;
