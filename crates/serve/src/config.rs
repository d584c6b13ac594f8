//! Service configuration.

use glp_core::FrontierMode;
use glp_fraud::PipelineConfig;
use std::path::PathBuf;
use std::time::Duration;

/// What to do when a transaction arrives and the ingest queue is full.
///
/// Shedding is always **counted** (see
/// [`Telemetry`](crate::telemetry::Telemetry)); the service never drops
/// load silently and never blocks the producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Evict the oldest queued transaction to make room for the new one.
    /// Keeps the window maximally fresh under overload at the cost of a
    /// gap in the oldest unprocessed data.
    DropOldest,
    /// Refuse the new transaction and tell the caller. Keeps the queue's
    /// contents intact; the producer decides whether to retry.
    RejectNew,
}

/// Tuning knobs for [`FraudService`](crate::FraudService).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bound of the ingest queue (transactions). When full, the
    /// [`ShedPolicy`] applies — this is the service's backpressure.
    pub queue_capacity: usize,
    /// Micro-batch size cap: the ingest stage drains at most this many
    /// transactions per batch.
    pub max_batch: usize,
    /// Micro-batch time budget: after the first transaction of a batch
    /// arrives, the batcher waits at most this long for more before
    /// applying what it has.
    pub batch_budget: Duration,
    /// Overload behaviour of the ingest queue.
    pub shed_policy: ShedPolicy,
    /// Sliding-window length in days (mirrors
    /// [`PipelineConfig::window_days`], which is kept in sync).
    pub window_days: u32,
    /// Recluster after this many applied batches (the freshness cadence).
    pub recluster_every_batches: u64,
    /// Hard staleness bound, in batches: when the published snapshot
    /// falls this far behind the window, the batcher stops applying and
    /// waits for the recluster to catch up. The queue then absorbs the
    /// offered load until the [`ShedPolicy`] kicks in — overload turns
    /// into *counted shedding with fresh-enough verdicts*, never into
    /// unboundedly stale verdicts.
    pub max_staleness_batches: u64,
    /// LP + scoring parameters, reusing the offline pipeline's stage 2–3
    /// configuration verbatim so online and offline verdicts agree.
    pub pipeline: PipelineConfig,
    /// Harness OS threads per LP kernel (0 = auto). Labels, and so
    /// verdicts, and the modeled kernel seconds are bit-identical across
    /// shard counts, which the determinism tests pin end to end. The
    /// threads are spawned per kernel launch, so more is not faster on
    /// small windows: a CI-sized full recluster measured 11.6 ms pinned to 1
    /// against 12–39 ms with auto on two cores.
    pub engine_shards: usize,
    /// Scheduling mode of the recluster LP runs — every
    /// [`ReclusterRequest`](crate::recluster::ReclusterRequest) inherits it
    /// transparently. The default ([`FrontierMode::Auto`]) engages
    /// direction-optimized active-frontier execution (per-iteration
    /// push/pull switching); `Push`/`Pull` force one rebuild direction —
    /// the weighted pipeline program declares sparse activation, so
    /// converging reclusters do sharply less work per iteration while
    /// producing bit-identical verdicts under every mode (pinned by the
    /// determinism and delta-identity tests).
    pub frontier: FrontierMode,
    /// Consecutive worker crashes at which the service enters
    /// [`HealthState::Shedding`](crate::HealthState::Shedding) (the
    /// ingest gate refuses new transactions, counted, while supervision
    /// keeps restarting). Any successful batch or recluster resets the
    /// streak.
    pub shedding_after_crashes: u32,
    /// Consecutive worker crashes at which supervision gives up and the
    /// service goes [`HealthState::Down`](crate::HealthState::Down)
    /// (queries keep answering from the last good snapshot; ingest stays
    /// closed). Must exceed `shedding_after_crashes`.
    pub down_after_crashes: u32,
    /// First-restart backoff after a caught worker panic; doubles per
    /// consecutive crash.
    pub restart_backoff: Duration,
    /// Ceiling on the restart backoff.
    pub restart_backoff_cap: Duration,
    /// Where to write periodic window checkpoints (None = checkpointing
    /// off). See [`FraudService::recover`](crate::FraudService::recover).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint after every this many applied batches.
    pub checkpoint_every_batches: u64,
    /// Largest delta frontier an incremental recluster will accept, as a
    /// fraction of the window graph's vertices. A delta that touched
    /// more than `delta_fraction_max * |V|` vertices falls back to a
    /// full recluster — past that point the replay recomputes most of
    /// the graph anyway, so from-scratch LP (with its engine ladder and
    /// frontier scheduling) is the better buy. `0.0` disables
    /// incremental reclustering outright.
    pub delta_fraction_max: f64,
    /// Force a from-scratch recluster after this many consecutive
    /// incremental ones (0 = never force): a memo stamped with this many
    /// replays no longer covers a delta. Incremental runs are pinned
    /// byte-identical to full ones, so this bounds *memo lineage length*
    /// — the number of replays any published snapshot's provenance
    /// chains through — not correctness drift. A blacklist change does
    /// not restart the count: the LP trajectory never reads a seed.
    pub full_recluster_every: u64,
    /// Burst-detector evaluation window: the shed rate is evaluated once
    /// per this many gate submissions (accepted or shed). 0 disables
    /// burst detection.
    pub burst_window: u64,
    /// Shed rate (sheds / submissions over one evaluation window) at or
    /// above which the detector enters *burst* mode: batching tightens
    /// by [`Self::burst_batch_divisor`] and the health overlay reports
    /// at least [`Degraded`](crate::HealthState::Degraded).
    pub burst_shed_threshold: f64,
    /// Shed rate below which an evaluation window counts as *calm*.
    /// Strictly below [`Self::burst_shed_threshold`] — the gap is the
    /// hysteresis band that stops the detector flapping on a load
    /// hovering at the threshold.
    pub burst_recover_threshold: f64,
    /// Consecutive calm windows required to leave burst mode.
    pub burst_recovery_windows: u32,
    /// How much batching tightens during a burst: the effective batch
    /// size cap and time budget are divided by this (floor 1
    /// transaction / 1 ms), so the window drains in smaller, faster
    /// batches while the flood lasts. Admission is *not* affected —
    /// accepted-transaction sequences stay deterministic.
    pub burst_batch_divisor: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let pipeline = PipelineConfig::default();
        Self {
            queue_capacity: 4_096,
            max_batch: 512,
            batch_budget: Duration::from_millis(5),
            shed_policy: ShedPolicy::DropOldest,
            window_days: pipeline.window_days,
            recluster_every_batches: 8,
            max_staleness_batches: 32,
            pipeline,
            engine_shards: 0,
            frontier: FrontierMode::Auto,
            shedding_after_crashes: 3,
            down_after_crashes: 6,
            restart_backoff: Duration::from_millis(20),
            restart_backoff_cap: Duration::from_secs(2),
            checkpoint_path: None,
            checkpoint_every_batches: 64,
            delta_fraction_max: 0.25,
            full_recluster_every: 32,
            burst_window: 512,
            burst_shed_threshold: 0.10,
            burst_recover_threshold: 0.02,
            burst_recovery_windows: 2,
            burst_batch_divisor: 4,
        }
    }
}

impl ServeConfig {
    /// Sets the window length on both the service and the embedded
    /// pipeline configuration (they must agree).
    pub fn with_window_days(mut self, days: u32) -> Self {
        self.window_days = days;
        self.pipeline.window_days = days;
        self
    }
}

/// Tuning knobs for the sharded fleet
/// ([`FleetCore`](crate::router::FleetCore) /
/// [`ShardRouter`](crate::router::ShardRouter)).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Per-shard configuration, applied to every shard core. The
    /// `checkpoint_path`, if set, is the fleet's *base* path — each
    /// shard writes `<base>.shard<i>` (see
    /// [`Self::shard_checkpoint_path`]).
    pub shard: ServeConfig,
    /// Number of shard cores.
    pub shards: usize,
    /// Run the cross-shard label exchange after this many fleet batches
    /// (the boundary-freshness cadence; local per-shard reclusters run
    /// at the shard's own `recluster_every_batches`).
    pub exchange_every_batches: u64,
    /// Directory of the fleet's write-ahead batch journal (None =
    /// journaling off). With a journal, every validated batch is
    /// persisted *before* fan-out, which enables automatic shard
    /// failover (a Down shard rebuilds from checkpoint + journal replay
    /// and re-admits itself) and zero-loss whole-fleet crash-restart.
    pub wal_dir: Option<PathBuf>,
    /// Journal segment size in bytes; the writer rotates to a fresh
    /// segment once the current one would exceed this.
    pub wal_segment_bytes: u64,
    /// Delete journal segments made fully redundant by per-shard
    /// checkpoints (bounded disk). Turn off to retain the full journal —
    /// required if shard checkpoints may be lost and the fleet must
    /// still rebuild them from the journal alone.
    pub wal_truncate_on_checkpoint: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shard: ServeConfig::default(),
            shards: 2,
            exchange_every_batches: 16,
            wal_dir: None,
            wal_segment_bytes: 4 << 20,
            wal_truncate_on_checkpoint: true,
        }
    }
}

impl FleetConfig {
    /// Sets the window length on the embedded shard configuration.
    pub fn with_window_days(mut self, days: u32) -> Self {
        self.shard = self.shard.with_window_days(days);
        self
    }

    /// The checkpoint path for shard `i`: the base path with `.shard<i>`
    /// appended to the file name (`None` when checkpointing is off).
    pub fn shard_checkpoint_path(&self, i: usize) -> Option<PathBuf> {
        self.shard.checkpoint_path.as_ref().map(|base| {
            let name = base
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            base.with_file_name(format!("{name}.shard{i}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_defaults_and_shard_paths() {
        let cfg = FleetConfig::default();
        assert!(cfg.shards >= 1);
        assert!(cfg.exchange_every_batches >= 1);
        assert_eq!(cfg.shard_checkpoint_path(0), None, "checkpointing opt-in");
        assert!(cfg.wal_dir.is_none(), "journaling is opt-in");
        assert!(cfg.wal_segment_bytes >= 1 << 12);
        assert!(cfg.wal_truncate_on_checkpoint, "bounded disk by default");
        let mut cfg = cfg;
        cfg.shard.checkpoint_path = Some(PathBuf::from("/tmp/fleet.ckpt"));
        assert_eq!(
            cfg.shard_checkpoint_path(3),
            Some(PathBuf::from("/tmp/fleet.ckpt.shard3"))
        );
    }

    #[test]
    fn defaults_are_consistent() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.window_days, cfg.pipeline.window_days);
        assert!(cfg.queue_capacity >= cfg.max_batch);
        assert!(cfg.recluster_every_batches >= 1);
        assert!(cfg.max_staleness_batches >= cfg.recluster_every_batches);
        assert!(cfg.shedding_after_crashes >= 1);
        assert!(cfg.down_after_crashes > cfg.shedding_after_crashes);
        assert!(cfg.restart_backoff <= cfg.restart_backoff_cap);
        assert!(cfg.checkpoint_every_batches >= 1);
        assert!(cfg.checkpoint_path.is_none(), "checkpointing is opt-in");
        assert!(
            cfg.delta_fraction_max > 0.0 && cfg.delta_fraction_max <= 1.0,
            "incremental reclustering on by default, bounded by |V|"
        );
        assert!(
            cfg.full_recluster_every >= 1,
            "memo lineage is bounded by default"
        );
        assert!(cfg.burst_window >= 1, "burst detection on by default");
        assert!(
            cfg.burst_recover_threshold < cfg.burst_shed_threshold,
            "recovery threshold must sit below the entry threshold (hysteresis)"
        );
        assert!((0.0..=1.0).contains(&cfg.burst_shed_threshold));
        assert!(cfg.burst_recovery_windows >= 1);
        assert!(cfg.burst_batch_divisor >= 1);
    }

    #[test]
    fn with_window_days_keeps_pipeline_in_sync() {
        let cfg = ServeConfig::default().with_window_days(10);
        assert_eq!(cfg.window_days, 10);
        assert_eq!(cfg.pipeline.window_days, 10);
    }
}
