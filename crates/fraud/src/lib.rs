//! # glp-fraud — the TaoBao fraud-detection pipeline (paper §1, §5.4)
//!
//! The paper's motivating deployment: sliding windows over recent
//! transactions form user–product graphs; seeded label propagation from a
//! blacklist carves out suspicious clusters; downstream models score them.
//! LP is 75% of the pipeline's runtime, which is what GLP attacks.
//!
//! This crate builds the whole pipeline against synthetic data:
//!
//! * [`transactions`] — a seeded e-commerce transaction generator with
//!   injected fraud rings (the ground truth) and a partial blacklist (the
//!   seeds).
//! * [`adversary`] — an adversarial generator on top of the regional
//!   stream: rings that rotate members per day, camouflage purchases,
//!   timed burst floods, and blacklist label noise, each with per-day
//!   ground truth.
//! * [`window`] — sliding-window graph construction matching Table 4's
//!   V/E growth shape at a configurable scale.
//! * [`pipeline`] — the end-to-end pipeline with per-stage timing and
//!   precision/recall against the injected rings.
//! * [`inhouse`] — the simulated 32-machine in-house distributed LP
//!   solution Figure 7 compares against.
//! * [`incremental`] — day-by-day sliding-window maintenance, the way the
//!   production pipeline actually advances windows.
//! * [`checkpoint`] — versioned, CRC-checked on-disk snapshots of a
//!   window (plus serving clocks), so a restarted service resumes from
//!   its last checkpoint instead of an empty window.
//! * [`journal`] — the serving fleet's segmented write-ahead batch log,
//!   replayed on top of checkpoints after a shard or fleet crash.
//!
//! Checkpoint images and journal segments are the two on-disk records;
//! they share one codec (CRC, field reader, transaction encoding, atomic
//! write) and one error type, [`RecordError`].

pub mod adversary;
pub mod checkpoint;
mod codec;
pub mod incremental;
pub mod inhouse;
pub mod journal;
pub mod pipeline;
pub mod transactions;
pub mod window;

pub use adversary::{AdversarialStream, AdversaryConfig};
pub use checkpoint::{WindowCheckpoint, CHECKPOINT_VERSION};
pub use codec::RecordError;
pub use incremental::{IncrementalWindow, WindowDelta};
pub use inhouse::InHouseLp;
pub use pipeline::{
    precision_recall, FlaggedCluster, FraudPipeline, PipelineConfig, PipelineReport,
};
pub use transactions::{RegionalStream, RegionalTxConfig, Transaction, TxConfig, TxStream};
pub use window::{WindowSpec, WindowWorkload};
