//! # glp-serve — the always-on fraud-scoring service
//!
//! The paper's deployment story (§1, §5.4) is a *pipeline*: sliding
//! windows are rebuilt, LP reclusters them, downstream models read the
//! verdicts. This crate packages that pipeline as a real-time service —
//! the shape the production system at the paper's partner actually runs —
//! on top of the workspace's existing pieces:
//!
//! ```text
//!  producers ──▶ [bounded queue] ──▶ front worker ──▶ IncrementalWindow
//!      │  shed (counted:              │ batcher | router     │ materialize
//!      │  drop-oldest / reject-new)   │ staleness gate       ▼ (short lock)
//!      ▼                              │          recluster worker per core
//!   Err(tx) back to producer         poke ─────────▶  LP + scoring
//!                                                          │ publish
//!  queries ◀── QueryHandle ◀── EpochCell<VerdictSnapshot> ◀┘ (Arc swap)
//! ```
//!
//! [`FraudService`] and the fleet's [`ShardRouter`] run this one threaded
//! shell — one front-worker loop, one start, one ordered shutdown — each
//! around its own synchronous core.
//!
//! Three stages, three guarantees:
//!
//! * **Ingest** ([`ingest`]) — a bounded crossbeam channel drained into
//!   micro-batches by size cap and time budget, applied to an
//!   [`IncrementalWindow`](glp_fraud::IncrementalWindow) via
//!   `apply_batch`. Overload is explicit: the [`ShedPolicy`] either
//!   drops the oldest queued transaction or rejects the new one, always
//!   counted in [`Telemetry`], never silent, never blocking producers.
//! * **Recluster** ([`recluster`]) — every recluster is described by a
//!   [`ReclusterRequest`] (`::full` or `::incremental`) and answered
//!   with a [`ReclusterOutcome`]. Full requests run weighted LP
//!   through the existing [`GpuEngine`](glp_core::engine::GpuEngine)
//!   dispatch on a materialized snapshot; incremental requests replay
//!   the previous run's memoized trajectory over the delta frontier and
//!   publish **byte-identical** snapshots at a fraction of the cost.
//!   Verdicts go out through an epoch-swapped double buffer
//!   ([`swap::EpochCell`]). Queries observe LP results; they never wait
//!   on LP.
//! * **Query** ([`query`]) — a plain in-process trait ([`FraudScorer`])
//!   over immutable [`VerdictSnapshot`]s; no network, no async runtime,
//!   just threads and channels.
//!
//! [`telemetry`] keeps monotonic counters (queries, reclusters by path,
//! shed counts by reason), HDR-style log-bucketed histograms of ingest
//! lag and batch size, and the GPU
//! [`KernelCounters`](glp_gpusim::KernelCounters) and per-kernel profile
//! of every recluster. A recluster's own wall time and frontier come
//! back in its [`ReclusterRun`].
//!
//! The bit-determinism of the underlying engine carries through: the
//! same transaction stream at the same batch boundaries produces
//! byte-identical verdict snapshots regardless of engine shard count
//! (pinned in `tests/determinism.rs`).
//!
//! ## Fault tolerance
//!
//! The service is supervised and durable:
//!
//! * **Supervision** ([`supervisor`]) — every worker of the shell runs
//!   under a supervisor that catches panics, counts them, and restarts
//!   with capped exponential backoff. A crash streak walks the
//!   [`health`] state machine `Healthy → Degraded → Shedding → Down`;
//!   the ingest gate sheds (counted) from `Shedding`, and queries keep
//!   answering from the last good snapshot in every state.
//! * **Checkpoint/restore** — with [`ServeConfig::checkpoint_path`] set,
//!   the window is periodically persisted through
//!   [`glp_fraud::checkpoint`] and [`FraudService::recover`] resumes
//!   from it with byte-identical LP output (pinned in
//!   `tests/checkpoint_restore.rs`). Checkpoints and the fleet journal
//!   are glp-fraud's two on-disk records; every read or write of either
//!   fails with one [`RecordError`](glp_fraud::RecordError).
//! * **Fault injection** — a deterministic `FaultPlan` attached
//!   to a core or fleet (`with_faults`, `start_with_faults`) drives
//!   worker panics, recluster stalls, corrupt transactions, checkpoint
//!   and journal failures and shard crashes at chosen batch and
//!   recluster indices, for the chaos tests (`tests/fault_injection.rs`,
//!   `tests/fault_stall.rs`, `tests/shard_loss.rs`,
//!   `tests/shard_failover.rs` and the in-crate worker and router
//!   tests). It is always compiled; with no plan attached every hook is
//!   one `Option` test and fires nothing. `Fault`, `FaultPlan` and
//!   `FiredFault` are the simulated device's own, re-exported: one plan
//!   and one firing rule — each fault fires once,
//!   at the first event at or after its index — read by every layer
//!   where its faults fire.
//!
//! ## Sharded serving
//!
//! For keyspaces one core cannot hold, the fleet layer shards the
//! service horizontally:
//!
//! ```text
//!  producers ─▶ [queue] ─▶ router ──▶ ServiceCore 0 (window+recluster+ckpt)
//!                 │ validate, stamp ▶ ServiceCore 1       …
//!                 │ seqs, fan out  ▶ ServiceCore N-1
//!                 ▼ watermark to all shards, every batch
//!      exchange worker: union-find boundary components across frames,
//!      merge spanning txs by seq, recluster once ─▶ FleetSnapshot
//! ```
//!
//! * **Routing** ([`partition`]) — a deterministic, community-aware
//!   [`Partitioner`]: users with a known community hash by community
//!   (co-locating fraud rings), unknown users by id;
//!   [`Partitioner::balanced`] places a fixed community set round-robin.
//! * **Shard cores** ([`service`]) — a shard *is* a [`ServiceCore`]: the
//!   same stamped window, warm-start memo and verdict cell as the
//!   single-core service, reading the fleet's one shared seed list, fed
//!   its slice of the keyspace pre-validated through
//!   [`ServiceCore::apply_stamped`] with the fleet's watermark, and
//!   checkpointed to `<base>.shard<i>` with the router's sequence
//!   stamps.
//! * **Label exchange** ([`exchange`]) — components whose users span
//!   shards are merged back into arrival order and reclustered once;
//!   everything else keeps its local verdict. N-shard fleet output is
//!   **byte-identical** to the 1-core reference (pinned in
//!   `tests/determinism.rs`).
//! * **Partial failure** ([`router`]) — a dead shard only degrades the
//!   fleet: its keyspace sheds (counted) while every other shard keeps
//!   serving, and [`FleetCore::restore`](router::FleetCore::restore) /
//!   [`ShardRouter::recover`](router::ShardRouter::recover) bring the
//!   whole fleet back from per-shard checkpoints.
//! * **Journal + failover** ([`router`], [`glp_fraud::journal`]) — with
//!   [`FleetConfig::wal_dir`] set, the router journals every validated
//!   batch to a segmented, CRC-framed write-ahead log ([`FleetWal`])
//!   *before* fan-out.
//!   A shard that dies is then rebuilt automatically — last checkpoint
//!   plus journal replay of its keyspace — and re-admitted,
//!   byte-identical to a fleet that never lost it; whole-fleet
//!   crash-restart replays journaled batches the checkpoints missed
//!   (zero loss), tolerating a missing or corrupt shard checkpoint by
//!   rebuilding that shard from the journal alone (pinned in
//!   `tests/shard_failover.rs`).
//!
//! ## Adversarial robustness
//!
//! Against a workload that fights back (see [`glp_fraud::adversary`]),
//! two more pieces engage:
//!
//! * **Burst-adaptive admission** ([`ingest::BurstState`]) — the gate's
//!   shed rate is evaluated per [`ServeConfig::burst_window`]
//!   submissions; a flood that pushes it past the threshold tightens
//!   batching (smaller/faster batches drain the queue) and raises the
//!   health overlay to exactly `Degraded` — never `Shedding` or `Down` —
//!   recovering hysteretically. Admission decisions are untouched, so
//!   accepted sequences stay deterministic (pinned in `tests/overload.rs`).
//! * **Blacklist churn** — label noise gets retracted;
//!   `update_blacklist` on a [`ServiceCore`] (or on a
//!   [`router::FleetCore`], whose shards share its one seed list)
//!   applies the change to the always-canonical seed list. Seeds only
//!   score clusters — the weighted LP never reads one — so the next
//!   recluster may still replay its memo, and it publishes verdicts
//!   byte-identical to a service seeded that way from the start (pinned
//!   in `tests/label_noise.rs`).
//!
//! Ground truth scores verdict quality offline: a live service
//! out-detects a snapshot frozen early in a rotating-ring stream
//! ([`AdversarialStream::truth_in`](glp_fraud::AdversarialStream::truth_in)
//! and [`precision_recall`](glp_fraud::precision_recall), pinned in
//! `tests/label_noise.rs`).

pub mod config;
pub mod exchange;
pub mod health;
pub mod ingest;
pub mod partition;
pub mod query;
pub mod recluster;
pub mod router;
pub mod service;
mod shell;
mod stamped;
pub mod supervisor;
pub mod swap;
pub mod telemetry;

/// Takes a lock whatever a panicked holder left behind
/// (`unpoison(m.lock())`, or `.read()` / `.write()`). Every structure this
/// crate keeps behind a lock is valid at each instruction boundary — plain
/// counters, whole-value swaps, a window whose apply is all-or-nothing — so
/// a poisoned lock still guards good data, and a worker's crash must not
/// cascade into every thread that touches the lock next.
pub(crate) fn unpoison<G>(attempt: std::sync::LockResult<G>) -> G {
    attempt.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use config::{FleetConfig, ServeConfig, ShedPolicy};
pub use exchange::{BoundaryCache, ExchangeReport, FleetSnapshot, ShardFrame};
pub use glp_fraud::journal::{FleetWal, WalRecord};
pub use glp_gpusim::faults::{Fault, FaultPlan, FiredFault};
pub use health::{
    fleet_state, FleetHealthReport, HealthMonitor, HealthReport, HealthState, HealthThresholds,
    ShardHealthReport,
};
pub use ingest::{Batcher, BurstState, IngestGate, Submitted};
pub use partition::Partitioner;
pub use query::{FraudScorer, Verdict, VerdictSnapshot};
pub use recluster::{LpMemo, ReclusterMode, ReclusterOutcome, ReclusterRequest, ReclusterRun};
pub use router::{
    ExchangeOutcome, FailoverError, FailoverEvent, FleetCore, FleetHandle, FleetShutdownReport,
    FleetTelemetry, ShardRouter,
};
pub use service::{FraudService, QueryHandle, ServiceCore, ShutdownReport};
pub use supervisor::{supervise, supervise_with, RestartPolicy, WorkerOutcome, WorkerStatus};
pub use telemetry::{Histogram, Telemetry, TelemetrySnapshot};
