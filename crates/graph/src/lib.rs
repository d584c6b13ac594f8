//! # glp-graph — graph substrate for the GLP reproduction
//!
//! This crate provides everything the GLP framework needs to represent and
//! manufacture graphs:
//!
//! * [`Csr`] / [`Graph`] — compressed-sparse-row adjacency exactly as the
//!   paper stores it on the GPU (offset + target arrays, optional edge
//!   weights), with both incoming and outgoing neighbor views. Label
//!   propagation scans *incoming* neighbors `N(v)` (paper §2.1).
//! * [`builder::GraphBuilder`] — edge-list ingestion with deduplication,
//!   self-loop removal and symmetrization.
//! * [`gen`] — seeded synthetic generators covering the structural families
//!   of the paper's evaluation datasets: power-law community graphs
//!   (dblp/youtube/ljournal/twitter), web graphs (uk-2002/wiki-en), road
//!   networks (roadNet), and dense interaction graphs (aligraph), plus
//!   deterministic helper topologies for tests.
//! * [`datasets`] — a registry reproducing Table 2 and Table 4 signatures at
//!   a configurable scale.
//! * [`idhash`] — [`IdMap`] / [`IdSet`]: hash maps keyed by integer ids
//!   under a seeded multiply-shift hasher (the serving stack's id maps).
//! * [`stats`] — degree statistics used to size kernel dispatch buckets.
//! * [`partition`] — vertex-range partitioning for the hybrid out-of-core
//!   mode and the multi-GPU / distributed execution models.
//! * [`io`] — SNAP/KONECT-style edge-list parsing (point the library at a
//!   real dataset) and a fast binary CSR snapshot format.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod idhash;
pub mod io;
pub mod partition;
pub mod stats;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::{Csr, Graph};
pub use idhash::{IdHashBuilder, IdMap, IdSet};
pub use types::{EdgeId, Label, VertexId, INVALID_LABEL, INVALID_VERTEX};
