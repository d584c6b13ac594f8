//! # glp-core — the GLP framework
//!
//! GLP (paper §3) is a GPU framework for user-customizable label
//! propagation. Data engineers implement four small callbacks (Table 1) and
//! the framework runs the bulk-synchronous iteration on the device:
//!
//! | API | role |
//! |-----|------|
//! | `pick_label(v)`                | decide `v`'s outgoing label this round |
//! | `load_neighbor(v, u)`          | label + weight contributed by neighbor `u` |
//! | `label_score(v, l, freq)`      | score of candidate label `l` for `v` |
//! | `update_vertex(v, l, score)`   | absorb the winning label |
//!
//! Each iteration runs three phases (Figure 2): **PickLabel** →
//! **LabelPropagation** (find the best-scoring label per vertex — the MFL
//! for classic LP) → **UpdateVertex**.
//!
//! The [`engine::GpuEngine`] implements LabelPropagation with the paper's
//! degree-bucketed kernels (§4): warp-packed intrinsics for low-degree
//! vertices, one-warp-one-vertex shared hash tables for the mid range, and
//! block-per-vertex CMS+HT for high-degree vertices — with a per-vertex
//! global-memory fallback whose frequency Theorem 1 bounds. The
//! [`engine::HybridEngine`] streams graphs that exceed device memory
//! (§3.1), and [`engine::MultiGpuEngine`] splits work across devices
//! (§5.4). Ready-made programs for classic LP, LLP, SLP, and the
//! fraud-pipeline variants live in [`variants`].
//!
//! Every engine (and every baseline elsewhere in the workspace) is driven
//! through the [`Engine`] trait with a shared [`RunOptions`]; active-
//! frontier scheduling ([`FrontierMode`]) is on by default for programs
//! that declare [`LpProgram::sparse_activation`].
//!
//! # Example
//!
//! ```
//! use glp_core::engine::GpuEngine;
//! use glp_core::{ClassicLp, Engine, LpProgram, RunOptions};
//! use glp_graph::gen::two_cliques_bridge;
//!
//! let graph = two_cliques_bridge(6); // two 6-cliques joined by one edge
//! let mut program = ClassicLp::new(graph.num_vertices());
//! // `run` is fallible: the simulated device can fault (see `EngineError`
//! // and `ResilientEngine` for recovery). A healthy device never errors.
//! let report = GpuEngine::titan_v()
//!     .run(&graph, &mut program, &RunOptions::default())
//!     .expect("healthy device");
//!
//! // Classic LP finds the two cliques as two communities.
//! let labels = program.labels();
//! assert!(labels[..6].iter().all(|&l| l == labels[0]));
//! assert!(labels[6..].iter().all(|&l| l == labels[6]));
//! assert!(report.modeled_seconds > 0.0);
//! ```

pub mod api;
pub mod community;
pub mod engine;
pub mod ordering;
pub mod report;
pub mod variants;

pub use api::{LpProgram, NeighborContribution};
pub use engine::{
    replay_delta, BarrierEvent, BarrierHook, BspEngine, DeltaReplay, Direction, Engine,
    EngineError, FrontierMode, GpuEngine, HybridEngine, MemoRecorder, MflStrategy, MultiGpuEngine,
    ResilienceReport, ResilientEngine, RunOptions, SequentialEngine,
};
pub use report::LpRunReport;
pub use variants::{CapacityLp, ClassicLp, Llp, RiskWeightedLp, SeededLp, Slp, WeightedLp};
