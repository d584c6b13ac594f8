//! Service telemetry: monotonic counters and log-bucketed latency
//! histograms, cheap enough to record on every event.
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

const BUCKETS: usize = 64;

/// Lock-free log₂-bucketed histogram of `u64` samples (typically
/// nanoseconds; the batch-size histogram records counts).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
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
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), reported at the geometric
    /// midpoint of the bucket containing it; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let max = self.max();
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Bucket i spans [2^i, 2^(i+1)): report 1.5 * 2^i,
                // clamped by the true maximum.
                let mid = (1u64 << i) + (1u64 << i) / 2;
                return mid.min(max);
            }
        }
        max
    }
}

/// Declares the [`Telemetry`] block from one table. `checkpointed`
/// counters are persisted in checkpoints *in this order* — append-only:
/// new counters go at the end so old checkpoints keep restoring — and the
/// field, its checkpoint cell and its name for
/// [`TelemetrySnapshot::counter`] all come from the one identifier.
/// Images written before the last counter, `probe_evaluations`, was
/// deleted carry it as a 24th value, which a restore ignores (a counter
/// appended later would read it). Everything under `rest` is per-process
/// state that checkpoints leave out.
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
        /// Blacklist revisions applied: real changes of the seed set,
        /// counted once per change (a fleet counts in its router block).
        blacklist_revisions,
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
        /// GPU event totals summed over every recluster's LP run.
        gpu_totals: Mutex<KernelCounters>,
        /// Per-kernel launch aggregation (count and total modeled seconds
        /// by engine tier) summed over every recluster's LP run.
        kernel_profile: Mutex<KernelProfile>,
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

    /// Total transactions shed under either queue policy (validation and
    /// health shedding are counted separately — see
    /// [`Self::rejected_invalid`] and [`Self::shed_unhealthy`]).
    pub fn shed_total(&self) -> u64 {
        self.shed_dropped_oldest.load(Ordering::Relaxed)
            + self.shed_rejected_new.load(Ordering::Relaxed)
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
    /// longer one (extras are ignored: a newer checkpoint's, or a deleted
    /// last counter's).
    pub fn restore_counters(&self, counters: &[u64]) {
        for (cell, &v) in self.counter_cells().iter().zip(counters) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// A plain-value copy of the block's counters, GPU totals and kernel
    /// profile, mergeable with other cores' snapshots into one fleet-wide
    /// view.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters_snapshot(),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            gpu_totals: *unpoison(self.gpu_totals.lock()),
            kernel_profile: unpoison(self.kernel_profile.lock()).clone(),
        }
    }
}

/// A point-in-time, plain-value copy of one core's [`Telemetry`] (its
/// histograms aside). The sharded router merges the snapshots of every
/// shard core plus its own into a single fleet-wide block — counters sum,
/// GPU totals and kernel profiles fold through their own `merge`.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Monotonic counters in checkpoint order (see [`COUNTER_NAMES`]).
    pub counters: Vec<u64>,
    /// Worker panics caught by supervisors.
    pub worker_panics: u64,
    /// Worker restarts performed by supervisors.
    pub worker_restarts: u64,
    /// GPU event totals summed over every recluster's LP run.
    pub gpu_totals: KernelCounters,
    /// Per-kernel launch aggregation summed over every recluster.
    pub kernel_profile: KernelProfile,
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
        self.gpu_totals.merge(&other.gpu_totals);
        self.kernel_profile.merge(&other.kernel_profile);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
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
        // Two cores count disjoint events; merging their snapshots must
        // equal one telemetry block that counted everything.
        let a = Telemetry::new();
        let b = Telemetry::new();
        let combined = Telemetry::new();
        a.ingested.fetch_add(10, Ordering::Relaxed);
        b.ingested.fetch_add(32, Ordering::Relaxed);
        combined.ingested.fetch_add(42, Ordering::Relaxed);
        b.worker_panics.fetch_add(2, Ordering::Relaxed);
        combined.worker_panics.fetch_add(2, Ordering::Relaxed);
        let mut profile = KernelProfile::new();
        profile.record("GLP", "pick_label", 2e-4);
        for t in [&a, &b, &combined, &combined] {
            t.merge_kernel_profile(&profile);
        }

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let reference = combined.snapshot();
        assert_eq!(merged.counters, reference.counters);
        assert_eq!(merged.counter("ingested"), 42);
        assert_eq!(merged.worker_panics, 2);
        let rows = |s: &TelemetrySnapshot| {
            s.kernel_profile
                .rows()
                .map(|(tier, kernel, row)| (tier, kernel, row.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&merged), rows(&reference));
        assert_eq!(rows(&merged)[0].2, 2);
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
    fn shed_breakdown_covers_every_reason() {
        // The unified overflow counter plus the health and validity
        // reasons form the complete shed taxonomy (shed_overflow also
        // equals the per-policy sum — the gate counts both on every
        // queue-full shed).
        let t = Telemetry::new();
        t.shed_dropped_oldest.fetch_add(3, Ordering::Relaxed);
        t.shed_overflow.fetch_add(3, Ordering::Relaxed);
        t.shed_rejected_new.fetch_add(2, Ordering::Relaxed);
        t.shed_overflow.fetch_add(2, Ordering::Relaxed);
        t.shed_unhealthy.fetch_add(7, Ordering::Relaxed);
        t.rejected_invalid.fetch_add(1, Ordering::Relaxed);
        assert_eq!(t.shed_total(), 5);
        assert_eq!(t.shed_overflow.load(Ordering::Relaxed), t.shed_total());
        let s = t.snapshot();
        assert_eq!(s.counter("shed_overflow"), 5);
        assert_eq!(s.counter("shed_unhealthy"), 7);
        assert_eq!(s.counter("rejected_invalid"), 1);
    }
}
