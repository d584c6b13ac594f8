//! Service telemetry: monotonic counters and log-bucketed latency
//! histograms, cheap enough to record on every event and exportable as
//! JSON for dashboards and the bench harness.
//!
//! Histograms are HDR-style: 64 power-of-two buckets indexed by
//! `floor(log2(value))`, so recording is one atomic increment and
//! quantiles are exact to within a factor of two (reported at the
//! geometric midpoint of the winning bucket). That resolution is the
//! right trade for a hot path — recording must never contend, and
//! latency SLOs care about orders of magnitude, not microseconds.

use crate::unpoison;
use glp_gpusim::KernelCounters;
use glp_trace::KernelProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const BUCKETS: usize = 64;

/// Lock-free log₂-bucketed histogram of `u64` samples (typically
/// nanoseconds; the batch-size histogram records counts).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        // 0 and 1 share bucket 0; otherwise floor(log2(value)).
        (63 - value.max(1).leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), reported at the geometric
    /// midpoint of the bucket containing it; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// `{count, mean, p50, p95, p99, max}` as JSON.
    pub fn to_json(&self) -> serde_json::Value {
        self.snapshot().to_json()
    }

    /// A plain-value copy of this histogram, mergeable with others — the
    /// building block of fleet-wide telemetry aggregation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time, plain-value copy of a [`Histogram`]. Because the
/// buckets are counts, two snapshots merge exactly (bucket-wise sums) —
/// the merged quantiles are precisely what one histogram recording both
/// sample sets would report.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`floor(log2(value))` indexing).
    pub buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Folds `other` into this snapshot (bucket-wise exact).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), reported at the geometric
    /// midpoint of the bucket containing it; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Bucket i spans [2^i, 2^(i+1)): report 1.5 * 2^i,
                // clamped by the true maximum.
                let mid = (1u64 << i) + (1u64 << i) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// `{count, mean, p50, p95, p99, max}` as JSON.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "count": self.count,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max,
        })
    }
}

/// Declares the [`Telemetry`] block from one table. `checkpointed`
/// counters are persisted in checkpoints *in this order* — append-only:
/// new counters go at the end so old checkpoints keep restoring — and
/// the field, its checkpoint cell, its name for
/// [`TelemetrySnapshot::counter`] and its JSON key all come from the one
/// identifier. Everything under `rest` is per-process state that
/// checkpoints leave out.
macro_rules! telemetry_block {
    (
        checkpointed { $($(#[$cdoc:meta])* $c:ident,)* }
        rest { $($(#[$rdoc:meta])* $r:ident: $rty:ty,)* }
    ) => {
        /// All counters and histograms of one scoring core
        /// ([`ServiceCore`](crate::ServiceCore)) or fleet router.
        ///
        /// Every field is updated with relaxed atomics (or a short mutex for the
        /// GPU counter merge, which happens once per recluster, off the query
        /// path). Readers see a consistent-enough view for monitoring; nothing
        /// here synchronizes the data path.
        #[derive(Debug, Default)]
        pub struct Telemetry {
            $($(#[$cdoc])* pub $c: AtomicU64,)*
            $($(#[$rdoc])* pub $r: $rty,)*
        }

        /// Checkpoint-order counter names, parallel to
        /// `Telemetry::counter_cells`.
        const COUNTER_NAMES: &[&str] = &[$(stringify!($c)),*];

        impl Telemetry {
            /// The checkpointed counters, in checkpoint order.
            fn counter_cells(&self) -> Vec<&AtomicU64> {
                vec![$(&self.$c),*]
            }
        }
    };
}

telemetry_block! {
    checkpointed {
        /// Transactions accepted into the ingest queue.
        ingested,
        /// Transactions evicted under [`ShedPolicy::DropOldest`](crate::ShedPolicy).
        shed_dropped_oldest,
        /// Transactions refused under [`ShedPolicy::RejectNew`](crate::ShedPolicy).
        shed_rejected_new,
        /// Transactions shed as invalid (non-finite amount or a day
        /// regression), at the gate or at the apply-side validation.
        rejected_invalid,
        /// Transactions refused because the service was
        /// [`Shedding`](crate::HealthState::Shedding) or
        /// [`Down`](crate::HealthState::Down).
        shed_unhealthy,
        /// Micro-batches applied to the window.
        batches,
        /// Reclusters completed (= verdict snapshots published).
        reclusters,
        /// Recluster requests coalesced because one was already in flight.
        reclusters_coalesced,
        /// Queries served.
        queries,
        /// Checkpoints written successfully.
        checkpoints_written,
        /// Checkpoint writes that failed (the service keeps serving; the
        /// previous checkpoint on disk stays intact).
        checkpoint_failures,
        /// Same-tier engine retries after transient device faults, summed
        /// over every recluster's LP run.
        engine_retries,
        /// Degradation-ladder steps the recluster engine took after
        /// persistent faults (GPU → hybrid → host).
        engine_degradations,
        /// Completed LP iterations resumed instead of recomputed after a
        /// fault (see [`ResilienceReport`](glp_core::ResilienceReport)).
        iterations_salvaged,
        /// Automatic shard failovers completed (checkpoint + journal replay
        /// rebuilt a Down shard and re-admitted it).
        failovers,
        /// Validated micro-batches journaled to the write-ahead log before
        /// fan-out.
        wal_appended_batches,
        /// Micro-batches replayed from the journal into a shard (failover
        /// rebuild or crash-restart catch-up).
        wal_replayed_batches,
        /// Journal segments deleted because checkpoints made them redundant.
        wal_truncations,
        /// Reclusters that ran the incremental delta-replay path.
        reclusters_incremental,
        /// Reclusters that ran from scratch (ineligible delta, drift cap, or
        /// no warm start available).
        reclusters_full,
        /// Transactions shed because the bounded queue was full, under
        /// either policy — the unified queue-overflow reason
        /// (`shed_dropped_oldest + shed_rejected_new`), counted alongside
        /// the per-policy breakdown so dashboards read one shed taxonomy:
        /// overflow / unhealthy / invalid.
        shed_overflow,
        /// Burst episodes the ingest burst detector entered (shed rate over
        /// the configured threshold; see `BurstState`).
        bursts_detected,
        /// Blacklist revisions applied (each one invalidates the warm
        /// recluster memo — the churn guard forcing the next recluster full).
        blacklist_revisions,
        /// Snapshots scored against ground truth by a `DetectionProbe`.
        probe_evaluations,
    }
    rest {
        /// Worker panics caught by the supervisor.
        worker_panics: AtomicU64,
        /// Worker restarts the supervisor performed (a final, abandoned
        /// panic is counted in `worker_panics` but not here).
        worker_restarts: AtomicU64,
        /// Submit → batch-apply latency per transaction (ns).
        ingest_lag: Histogram,
        /// Applied micro-batch sizes (transactions).
        batch_size: Histogram,
        /// Wall time per recluster (ns).
        recluster_wall: Histogram,
        /// Query latency (ns).
        query_latency: Histogram,
        /// Delta-frontier sizes (vertices recomputed at iteration 0) of
        /// every recluster that ran LP — the whole graph for full runs, the
        /// touched set for incremental ones.
        delta_frontier: Histogram,
        /// GPU event totals summed over every recluster's LP run.
        gpu_totals: Mutex<KernelCounters>,
        /// Per-kernel launch aggregation (count / total / p50 / max modeled
        /// seconds by engine tier) summed over every recluster's LP run.
        kernel_profile: Mutex<KernelProfile>,
        /// Detection-quality time series: one [`ProbePoint`] per snapshot a
        /// `DetectionProbe` scored against ground truth, in scoring order.
        detection: Mutex<Vec<ProbePoint>>,
    }
}

/// One detection-quality measurement: a published verdict snapshot
/// scored against the adversary's ground truth for the window it
/// covers. Recorded by the serving `DetectionProbe`; exported as the
/// `detection` time series in the telemetry JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbePoint {
    /// Exclusive end day of the scored snapshot's window.
    pub day: u32,
    /// The snapshot's batch clock (`as_of_batch`).
    pub as_of_batch: u64,
    /// Precision of the snapshot's flagged set against the truth.
    pub precision: f64,
    /// Recall of the truth among the snapshot's flagged set.
    pub recall: f64,
    /// Users the snapshot flagged.
    pub flagged: usize,
    /// Ground-truth positives in the scored window.
    pub truth: usize,
}

impl ProbePoint {
    fn to_json(self) -> serde_json::Value {
        serde_json::json!({
            "day": self.day,
            "as_of_batch": self.as_of_batch,
            "precision": self.precision,
            "recall": self.recall,
            "flagged": self.flagged,
            "truth": self.truth,
        })
    }
}

impl Telemetry {
    /// A fresh, zeroed telemetry block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one recluster's kernel counters into the running totals.
    /// Recovers from poisoning: a panicked recluster must not take down
    /// every later telemetry reader.
    pub fn merge_gpu(&self, counters: &KernelCounters) {
        unpoison(self.gpu_totals.lock()).merge(counters);
    }

    /// Folds one recluster's per-kernel profile into the running totals.
    /// Recovers from poisoning like [`Self::merge_gpu`].
    pub fn merge_kernel_profile(&self, profile: &KernelProfile) {
        unpoison(self.kernel_profile.lock()).merge(profile);
    }

    /// Counts one applied micro-batch of `size` transactions.
    pub fn record_batch(&self, size: usize) {
        self.batch_size.record(size as u64);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query answered, started at `t0`.
    pub fn record_query(&self, t0: Instant) {
        self.query_latency.record(t0.elapsed().as_nanos() as u64);
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one recluster's path decision and the frontier it
    /// consumed — called once per recluster that actually ran LP (the
    /// empty-window shortcut records nothing).
    pub fn record_recluster_outcome(&self, incremental: bool, frontier: u64) {
        if incremental {
            self.reclusters_incremental.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reclusters_full.fetch_add(1, Ordering::Relaxed);
        }
        self.delta_frontier.record(frontier);
    }

    /// Total transactions shed under either queue policy (validation and
    /// health shedding are counted separately — see
    /// [`Self::rejected_invalid`] and [`Self::shed_unhealthy`]).
    pub fn shed_total(&self) -> u64 {
        self.shed_dropped_oldest.load(Ordering::Relaxed)
            + self.shed_rejected_new.load(Ordering::Relaxed)
    }

    /// Records one detection-quality measurement into the time series.
    pub fn record_probe(&self, point: ProbePoint) {
        self.probe_evaluations.fetch_add(1, Ordering::Relaxed);
        unpoison(self.detection.lock()).push(point);
    }

    /// The detection time series recorded so far (scoring order).
    pub fn detection_points(&self) -> Vec<ProbePoint> {
        unpoison(self.detection.lock()).clone()
    }

    /// The monotonic counters in checkpoint order (see
    /// [`Self::restore_counters`]). Histograms are deliberately not
    /// checkpointed: latency distributions describe a process lifetime,
    /// not the logical stream, and restart from empty.
    pub fn counters_snapshot(&self) -> Vec<u64> {
        self.counter_cells()
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Restores the monotonic counters from a checkpoint. Tolerates a
    /// shorter vector (older checkpoint: missing counters stay 0) and a
    /// longer one (newer: extras are ignored).
    pub fn restore_counters(&self, counters: &[u64]) {
        for (cell, &v) in self.counter_cells().iter().zip(counters) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// The full telemetry block as JSON (histogram values in ns unless
    /// noted; `batch_size` in transactions) — the JSON of
    /// [`Self::snapshot`], so live and fleet-merged exports are drop-in
    /// interchangeable for dashboards.
    pub fn to_json(&self) -> serde_json::Value {
        self.snapshot().to_json()
    }

    /// A plain-value copy of the whole telemetry block, mergeable with
    /// other cores' snapshots into one fleet-wide view.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters_snapshot(),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            ingest_lag: self.ingest_lag.snapshot(),
            batch_size: self.batch_size.snapshot(),
            recluster_wall: self.recluster_wall.snapshot(),
            query_latency: self.query_latency.snapshot(),
            delta_frontier: self.delta_frontier.snapshot(),
            gpu_totals: *unpoison(self.gpu_totals.lock()),
            kernel_profile: unpoison(self.kernel_profile.lock()).clone(),
            detection: self.detection_points(),
        }
    }
}

/// A point-in-time, plain-value copy of one core's [`Telemetry`]. The
/// sharded router merges the snapshots of every shard core plus its own
/// into a single fleet-wide block — counters sum, histograms merge
/// bucket-wise exactly, GPU totals and kernel profiles fold through
/// their own `merge` — so operators read one JSON document per fleet,
/// not N disjoint blobs.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Monotonic counters in checkpoint order (see [`COUNTER_NAMES`]).
    pub counters: Vec<u64>,
    /// Worker panics caught by supervisors.
    pub worker_panics: u64,
    /// Worker restarts performed by supervisors.
    pub worker_restarts: u64,
    /// Submit → batch-apply latency per transaction (ns).
    pub ingest_lag: HistogramSnapshot,
    /// Applied micro-batch sizes (transactions).
    pub batch_size: HistogramSnapshot,
    /// Wall time per recluster (ns).
    pub recluster_wall: HistogramSnapshot,
    /// Query latency (ns).
    pub query_latency: HistogramSnapshot,
    /// Delta-frontier sizes of every recluster that ran LP.
    pub delta_frontier: HistogramSnapshot,
    /// GPU event totals summed over every recluster's LP run.
    pub gpu_totals: KernelCounters,
    /// Per-kernel launch aggregation summed over every recluster.
    pub kernel_profile: KernelProfile,
    /// Detection-quality time series (probe scorings, scoring order).
    pub detection: Vec<ProbePoint>,
}

impl TelemetrySnapshot {
    /// Folds `other` into this snapshot.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        if self.counters.len() < other.counters.len() {
            self.counters.resize(other.counters.len(), 0);
        }
        for (c, &o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        self.worker_panics += other.worker_panics;
        self.worker_restarts += other.worker_restarts;
        self.ingest_lag.merge(&other.ingest_lag);
        self.batch_size.merge(&other.batch_size);
        self.recluster_wall.merge(&other.recluster_wall);
        self.query_latency.merge(&other.query_latency);
        self.delta_frontier.merge(&other.delta_frontier);
        self.gpu_totals.merge(&other.gpu_totals);
        self.kernel_profile.merge(&other.kernel_profile);
        // Interleave the series back into scoring order: a probe stamps
        // every point with the publishing core's batch clock, so the
        // merged fleet series reads chronologically.
        self.detection.extend_from_slice(&other.detection);
        self.detection
            .sort_by_key(|p| (p.as_of_batch, p.day, p.flagged));
    }

    /// The named counter's value (0 if this snapshot predates it).
    /// Panics on a name no counter has: a typo must not read as "zero
    /// events".
    pub fn counter(&self, name: &str) -> u64 {
        match name {
            "worker_panics" => self.worker_panics,
            "worker_restarts" => self.worker_restarts,
            _ => {
                let i = COUNTER_NAMES
                    .iter()
                    .position(|&n| n == name)
                    .unwrap_or_else(|| panic!("no telemetry counter is named {name:?}"));
                self.counters.get(i).copied().unwrap_or(0)
            }
        }
    }

    /// The telemetry block as JSON: every counter under its field name,
    /// histograms as `{count, mean, p50, p95, p99, max}` (values in ns;
    /// `batch_size` in transactions, `delta_frontier` in vertices), the
    /// detection series, GPU totals and per-kernel profile rows.
    pub fn to_json(&self) -> serde_json::Value {
        // The vendored serde_json keeps objects as insertion-ordered
        // pairs.
        let mut doc: Vec<(String, serde_json::Value)> = Vec::new();
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            doc.push((
                (*name).to_string(),
                serde_json::json!(self.counters.get(i).copied().unwrap_or(0)),
            ));
        }
        doc.push((
            "worker_panics".to_string(),
            serde_json::json!(self.worker_panics),
        ));
        doc.push((
            "worker_restarts".to_string(),
            serde_json::json!(self.worker_restarts),
        ));
        doc.push(("ingest_lag_ns".to_string(), self.ingest_lag.to_json()));
        doc.push(("batch_size".to_string(), self.batch_size.to_json()));
        doc.push((
            "recluster_wall_ns".to_string(),
            self.recluster_wall.to_json(),
        ));
        doc.push(("query_latency_ns".to_string(), self.query_latency.to_json()));
        doc.push(("delta_frontier".to_string(), self.delta_frontier.to_json()));
        let points = &self.detection;
        doc.push((
            "detection".to_string(),
            serde_json::json!({
                "points": points.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
                "latest_precision": points.last().map_or(0.0, |p| p.precision),
                "latest_recall": points.last().map_or(0.0, |p| p.recall),
            }),
        ));
        doc.push((
            "gpu".to_string(),
            serde_json::json!({
                "global_read_sectors": self.gpu_totals.global_read_sectors,
                "global_write_sectors": self.gpu_totals.global_write_sectors,
                "global_atomics": self.gpu_totals.global_atomics,
                "shared_accesses": self.gpu_totals.shared_accesses,
                "warp_intrinsics": self.gpu_totals.warp_intrinsics,
                "kernel_launches": self.gpu_totals.kernel_launches,
            }),
        ));
        let profile_rows: Vec<serde_json::Value> = self
            .kernel_profile
            .rows()
            .map(|(tier, kernel, row)| {
                serde_json::json!({
                    "tier": tier,
                    "kernel": kernel,
                    "count": row.count,
                    "total_s": row.total_s,
                    "p50_s": row.p50_s(),
                    "max_s": row.max_s,
                })
            })
            .collect();
        doc.push((
            "kernel_profile".to_string(),
            serde_json::Value::Array(profile_rows),
        ));
        serde_json::Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000); // bucket 9 (512..1024)
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 19
        }
        let p50 = h.quantile(0.50);
        assert!((512..2048).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 524_288, "p99 {p99}");
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            for _ in 0..20 {
                h.record(v);
            }
        }
        let mut prev = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn zero_and_one_share_the_first_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) <= 1);
    }

    #[test]
    fn counters_roundtrip_through_checkpoint_order() {
        let t = Telemetry::new();
        t.ingested.fetch_add(11, Ordering::Relaxed);
        t.rejected_invalid.fetch_add(3, Ordering::Relaxed);
        t.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        let snap = t.counters_snapshot();
        let back = Telemetry::new();
        back.restore_counters(&snap);
        assert_eq!(back.counters_snapshot(), snap);
        // A shorter (older-format) vector restores what it has.
        let partial = Telemetry::new();
        partial.restore_counters(&snap[..3]);
        assert_eq!(partial.ingested.load(Ordering::Relaxed), 11);
        assert_eq!(partial.batches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn snapshot_merge_equals_one_combined_block() {
        // Two cores record disjoint sample sets; merging their snapshots
        // must equal one telemetry block that recorded everything.
        let a = Telemetry::new();
        let b = Telemetry::new();
        let combined = Telemetry::new();
        for v in [100u64, 5_000, 90_000] {
            a.ingest_lag.record(v);
            combined.ingest_lag.record(v);
        }
        for v in [7u64, 2_000_000] {
            b.ingest_lag.record(v);
            combined.ingest_lag.record(v);
        }
        a.ingested.fetch_add(10, Ordering::Relaxed);
        b.ingested.fetch_add(32, Ordering::Relaxed);
        combined.ingested.fetch_add(42, Ordering::Relaxed);
        b.worker_panics.fetch_add(2, Ordering::Relaxed);
        combined.worker_panics.fetch_add(2, Ordering::Relaxed);
        let mut profile = KernelProfile::new();
        profile.record("GLP", "pick_label", 2e-4);
        b.merge_kernel_profile(&profile);
        combined.merge_kernel_profile(&profile);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let reference = combined.snapshot();
        assert_eq!(merged.counters, reference.counters);
        assert_eq!(merged.counter("ingested"), 42);
        assert_eq!(merged.worker_panics, 2);
        assert_eq!(merged.ingest_lag.count, reference.ingest_lag.count);
        assert_eq!(merged.ingest_lag.sum, reference.ingest_lag.sum);
        assert_eq!(merged.ingest_lag.max, reference.ingest_lag.max);
        for q in [0.1, 0.5, 0.95, 0.99] {
            assert_eq!(
                merged.ingest_lag.quantile(q),
                reference.ingest_lag.quantile(q)
            );
        }
        assert_eq!(
            serde_json::to_string(&merged.to_json()).unwrap(),
            serde_json::to_string(&reference.to_json()).unwrap(),
            "merged fleet JSON must equal the single-block reference"
        );
    }

    #[test]
    fn supervisor_counters_resolve_by_name() {
        let t = Telemetry::new();
        t.worker_panics.fetch_add(3, Ordering::Relaxed);
        t.worker_restarts.fetch_add(2, Ordering::Relaxed);
        let s = t.snapshot();
        assert_eq!(s.counter("worker_panics"), 3);
        assert_eq!(s.counter("worker_restarts"), 2);
        // Still per-process: not part of the checkpoint image.
        assert_eq!(t.counters_snapshot().len(), COUNTER_NAMES.len());
        assert!(!COUNTER_NAMES.contains(&"worker_panics"));
    }

    #[test]
    #[should_panic(expected = "no telemetry counter is named \"worker_panic\"")]
    fn an_unknown_counter_name_is_a_loud_error() {
        Telemetry::new().snapshot().counter("worker_panic");
    }

    #[test]
    fn snapshot_json_matches_live_json_keys() {
        let t = Telemetry::new();
        t.ingested.fetch_add(3, Ordering::Relaxed);
        t.query_latency.record(5_000);
        let live = t.to_json();
        let snap = t.snapshot().to_json();
        fn keys(v: &serde_json::Value) -> Vec<String> {
            match v {
                serde_json::Value::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
                _ => panic!("expected an object"),
            }
        }
        let live_keys = keys(&live);
        let snap_keys = keys(&snap);
        for k in &live_keys {
            assert!(snap_keys.contains(k), "snapshot JSON missing key {k}");
        }
        for k in &snap_keys {
            assert!(live_keys.contains(k), "snapshot JSON has extra key {k}");
        }
        assert_eq!(live["ingested"], snap["ingested"]);
        assert_eq!(live["query_latency_ns"], snap["query_latency_ns"]);
    }

    #[test]
    fn telemetry_json_has_all_sections() {
        let t = Telemetry::new();
        t.ingested.fetch_add(3, Ordering::Relaxed);
        t.query_latency.record(5_000);
        let mut profile = KernelProfile::new();
        profile.record("GLP", "pick_label", 1e-4);
        profile.record("GLP", "pick_label", 3e-4);
        t.merge_kernel_profile(&profile);
        let j = t.to_json();
        let rows = j["kernel_profile"].as_array().expect("profile array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["kernel"].as_str(), Some("pick_label"));
        assert_eq!(rows[0]["count"].as_u64(), Some(2));
        for key in [
            "ingested",
            "shed_dropped_oldest",
            "shed_rejected_new",
            "rejected_invalid",
            "shed_unhealthy",
            "worker_panics",
            "worker_restarts",
            "checkpoints_written",
            "checkpoint_failures",
            "engine_retries",
            "engine_degradations",
            "iterations_salvaged",
            "failovers",
            "wal_appended_batches",
            "wal_replayed_batches",
            "wal_truncations",
            "reclusters_incremental",
            "reclusters_full",
            "shed_overflow",
            "bursts_detected",
            "blacklist_revisions",
            "probe_evaluations",
            "batches",
            "reclusters",
            "queries",
            "ingest_lag_ns",
            "batch_size",
            "recluster_wall_ns",
            "query_latency_ns",
            "delta_frontier",
            "detection",
            "gpu",
            "kernel_profile",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn detection_series_records_merges_and_exports() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.record_probe(ProbePoint {
            day: 5,
            as_of_batch: 2,
            precision: 1.0,
            recall: 0.5,
            flagged: 4,
            truth: 8,
        });
        b.record_probe(ProbePoint {
            day: 3,
            as_of_batch: 1,
            precision: 0.8,
            recall: 0.4,
            flagged: 5,
            truth: 10,
        });
        assert_eq!(a.probe_evaluations.load(Ordering::Relaxed), 1);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        // Merged series interleaves by batch clock.
        assert_eq!(merged.detection.len(), 2);
        assert_eq!(merged.detection[0].day, 3);
        assert_eq!(merged.detection[1].day, 5);
        assert_eq!(merged.counter("probe_evaluations"), 2);
        let j = merged.to_json();
        assert_eq!(
            j["detection"]["points"].as_array().map(|p| p.len()),
            Some(2)
        );
        assert_eq!(j["detection"]["latest_recall"].as_f64(), Some(0.5));
        // The live export carries the same section shape.
        let live = a.to_json();
        assert_eq!(live["detection"]["latest_precision"].as_f64(), Some(1.0));
    }

    #[test]
    fn shed_breakdown_covers_every_reason() {
        // The unified overflow counter plus the health and validity
        // reasons form the complete shed taxonomy, all present in both
        // exports (shed_overflow also equals the per-policy sum — the
        // gate counts both on every queue-full shed).
        let t = Telemetry::new();
        t.shed_dropped_oldest.fetch_add(3, Ordering::Relaxed);
        t.shed_overflow.fetch_add(3, Ordering::Relaxed);
        t.shed_rejected_new.fetch_add(2, Ordering::Relaxed);
        t.shed_overflow.fetch_add(2, Ordering::Relaxed);
        t.shed_unhealthy.fetch_add(7, Ordering::Relaxed);
        t.rejected_invalid.fetch_add(1, Ordering::Relaxed);
        assert_eq!(t.shed_total(), 5);
        assert_eq!(t.shed_overflow.load(Ordering::Relaxed), t.shed_total());
        let j = t.to_json();
        assert_eq!(j["shed_overflow"].as_u64(), Some(5));
        assert_eq!(j["shed_unhealthy"].as_u64(), Some(7));
        assert_eq!(j["rejected_invalid"].as_u64(), Some(1));
        let s = t.snapshot();
        assert_eq!(s.counter("shed_overflow"), 5);
        assert_eq!(s.counter("shed_unhealthy"), 7);
        assert_eq!(s.counter("rejected_invalid"), 1);
    }
}
