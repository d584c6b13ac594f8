//! Deterministic, seeded fault injection (feature `fault-injection`).
//!
//! Every failure path the fault-tolerance layer claims to handle —
//! worker panics, poisoned locks, stalled reclusters, corrupt
//! transactions, failed checkpoint writes — is driven by real tests and
//! the `chaos_serve` bench bin through this plan, not by hand-waving. A
//! [`FaultPlan`] is a list of faults pinned to *logical* indices (batch
//! number, recluster number), so a plan replays identically on every run
//! regardless of wall-clock timing; [`FaultPlan::seeded`] derives those
//! indices from a seed (SplitMix64) so chaos sweeps can explore schedules
//! without losing reproducibility.
//!
//! Each fault fires **once**: firing is recorded (with a timestamp, so
//! the chaos harness can measure recovery latency) and the same fault
//! never re-triggers after the supervisor restarts the worker. To model a
//! crash *loop*, list the same index several times.
//!
//! The hooks live at two layers, mirroring where real faults originate:
//! panics, corruption and failed journal or checkpoint writes in this
//! crate (the worker loops, [`ServiceCore::checkpoint`] and the fleet
//! router's journal append), and kernel stalls in `glp_gpusim::faults`
//! (so a "slow recluster" is experienced by the entire stack above the
//! device, not simulated at the top).
//!
//! [`ServiceCore::checkpoint`]: crate::service::ServiceCore::checkpoint

use crate::unpoison;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One injectable fault, pinned to a logical index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic the batcher worker just before it drains batch `at_batch`
    /// (the batch itself stays queued — lossless, so recovery can be
    /// asserted byte-identical to a fault-free run).
    BatcherPanic {
        /// Batch index (= batches applied so far) to fire at.
        at_batch: u64,
    },
    /// Panic the batcher *inside* the window critical section while
    /// applying batch `at_batch`, poisoning the window mutex (the batch
    /// in hand is lost; the window itself is untouched).
    PanicInApply {
        /// Batch index to fire at.
        at_batch: u64,
    },
    /// Panic the recluster worker just before its first recluster at or
    /// after index `at_recluster`. "At or after": reclusters run on other
    /// threads too (a synchronous `recluster_now`) and advance the same
    /// index, so the worker may never see `at_recluster` itself.
    ReclusterPanic {
        /// Recluster index (= reclusters completed so far) from which on
        /// to fire.
        at_recluster: u64,
    },
    /// Stall the recluster worker's first recluster at or after index
    /// `at_recluster` by `millis` via an injected kernel stall in
    /// `glp-gpusim` — the whole stack above the device sees a slow card.
    ReclusterStall {
        /// Recluster index from which on to fire.
        at_recluster: u64,
        /// Injected stall length in milliseconds.
        millis: u64,
    },
    /// Overwrite the first transaction of batch `at_batch` with a
    /// non-finite amount after it passed the ingest gate — a corrupt
    /// record appearing inside the pipeline, which the apply-side
    /// validation must shed (counted), not apply.
    CorruptTx {
        /// Batch index to fire at.
        at_batch: u64,
    },
    /// Make the checkpoint a core writes at batch count `at_batch` fail
    /// with an injected I/O error before it touches the filesystem.
    CheckpointFail {
        /// Batch index to fire at.
        at_batch: u64,
    },
    /// Panic shard `shard`'s apply path while the router fans out fleet
    /// batch `at_batch` — the sharded service's "one machine dies"
    /// scenario. The router catches it, records the crash against that
    /// shard's health, and keeps serving the surviving keyspace; list
    /// the same shard several times to walk it all the way to Down.
    ShardPanic {
        /// Shard index to kill.
        shard: usize,
        /// Fleet batch index (= fleet batches applied so far) to fire at.
        at_batch: u64,
    },
    /// Make the journal append for fleet batch `at_batch` fail with an
    /// injected I/O error — the durability path breaks while the scoring
    /// path keeps working. The router records the failure against its
    /// `wal-journal` worker (degrading the fleet, loudly) and still fans
    /// the batch out: availability over durability.
    WalAppendFail {
        /// Fleet batch index to fire at.
        at_batch: u64,
    },
    /// Panic the router *between* journaling fleet batch `at_batch` and
    /// fanning it out — the canonical write-ahead crash window. The batch
    /// is durable but no shard ever saw it; recovery must replay it from
    /// the journal exactly once.
    CrashAfterJournal {
        /// Fleet batch index to fire at.
        at_batch: u64,
    },
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Self::BatcherPanic { at_batch } => format!("batcher-panic@batch{at_batch}"),
            Self::PanicInApply { at_batch } => format!("panic-in-apply@batch{at_batch}"),
            Self::ReclusterPanic { at_recluster } => {
                format!("recluster-panic@recluster{at_recluster}")
            }
            Self::ReclusterStall {
                at_recluster,
                millis,
            } => {
                format!("recluster-stall({millis}ms)@recluster{at_recluster}")
            }
            Self::CorruptTx { at_batch } => format!("corrupt-tx@batch{at_batch}"),
            Self::CheckpointFail { at_batch } => format!("checkpoint-fail@batch{at_batch}"),
            Self::ShardPanic { shard, at_batch } => {
                format!("shard{shard}-panic@batch{at_batch}")
            }
            Self::WalAppendFail { at_batch } => format!("wal-append-fail@batch{at_batch}"),
            Self::CrashAfterJournal { at_batch } => {
                format!("crash-after-journal@batch{at_batch}")
            }
        }
    }
}

/// A fault that has fired, with when it fired.
#[derive(Clone, Debug)]
pub struct FiredFault {
    /// Human-readable description (`class@index`).
    pub what: String,
    /// When the hook fired.
    pub at: Instant,
}

#[derive(Debug)]
struct Slot {
    fault: Fault,
    fired: AtomicBool,
}

/// How many of each fault class [`FaultPlan::seeded`] should schedule,
/// and over what index horizons.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Lossless batcher panics ([`Fault::BatcherPanic`]).
    pub batcher_panics: u32,
    /// In-lock batcher panics ([`Fault::PanicInApply`]).
    pub apply_panics: u32,
    /// Recluster-worker panics.
    pub recluster_panics: u32,
    /// Injected kernel stalls.
    pub recluster_stalls: u32,
    /// Stall length for each injected stall (ms).
    pub stall_millis: u64,
    /// Corrupt-transaction injections.
    pub corrupt_txs: u32,
    /// Checkpoint-write failures.
    pub checkpoint_fails: u32,
    /// Journal-append failures ([`Fault::WalAppendFail`]).
    pub wal_append_fails: u32,
    /// Crashes in the journal→fan-out window ([`Fault::CrashAfterJournal`]).
    pub journal_crashes: u32,
    /// Batch indices are drawn uniformly from `1..batch_horizon`.
    pub batch_horizon: u64,
    /// Recluster indices are drawn uniformly from `1..recluster_horizon`.
    pub recluster_horizon: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            batcher_panics: 1,
            apply_panics: 0,
            recluster_panics: 0,
            recluster_stalls: 0,
            stall_millis: 50,
            corrupt_txs: 0,
            checkpoint_fails: 0,
            wal_append_fails: 0,
            journal_crashes: 0,
            batch_horizon: 16,
            recluster_horizon: 4,
        }
    }
}

/// A deterministic schedule of faults, shared by the service's worker
/// loops (each hook consults it at its own logical index).
#[derive(Debug, Default)]
pub struct FaultPlan {
    slots: Vec<Slot>,
    fired: Mutex<Vec<FiredFault>>,
}

impl FaultPlan {
    /// A plan firing exactly the given faults.
    pub fn new(faults: impl IntoIterator<Item = Fault>) -> Self {
        Self {
            slots: faults
                .into_iter()
                .map(|fault| Slot {
                    fault,
                    fired: AtomicBool::new(false),
                })
                .collect(),
            fired: Mutex::new(Vec::new()),
        }
    }

    /// A plan whose fault indices are derived deterministically from
    /// `seed` (SplitMix64): the same seed and spec always produce the
    /// same schedule.
    pub fn seeded(seed: u64, spec: &FaultSpec) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();
        let batch_at = |rng: &mut SplitMix64| rng.below(spec.batch_horizon.max(2) - 1) + 1;
        let recluster_at = |rng: &mut SplitMix64| rng.below(spec.recluster_horizon.max(2) - 1) + 1;
        for _ in 0..spec.batcher_panics {
            faults.push(Fault::BatcherPanic {
                at_batch: batch_at(&mut rng),
            });
        }
        for _ in 0..spec.apply_panics {
            faults.push(Fault::PanicInApply {
                at_batch: batch_at(&mut rng),
            });
        }
        for _ in 0..spec.recluster_panics {
            faults.push(Fault::ReclusterPanic {
                at_recluster: recluster_at(&mut rng),
            });
        }
        for _ in 0..spec.recluster_stalls {
            faults.push(Fault::ReclusterStall {
                at_recluster: recluster_at(&mut rng),
                millis: spec.stall_millis,
            });
        }
        for _ in 0..spec.corrupt_txs {
            faults.push(Fault::CorruptTx {
                at_batch: batch_at(&mut rng),
            });
        }
        for _ in 0..spec.checkpoint_fails {
            faults.push(Fault::CheckpointFail {
                at_batch: batch_at(&mut rng),
            });
        }
        for _ in 0..spec.wal_append_fails {
            faults.push(Fault::WalAppendFail {
                at_batch: batch_at(&mut rng),
            });
        }
        for _ in 0..spec.journal_crashes {
            faults.push(Fault::CrashAfterJournal {
                at_batch: batch_at(&mut rng),
            });
        }
        Self::new(faults)
    }

    /// The scheduled faults, in order.
    pub fn scheduled(&self) -> Vec<Fault> {
        self.slots.iter().map(|s| s.fault).collect()
    }

    /// Faults that have fired so far, with timestamps.
    pub fn fired(&self) -> Vec<FiredFault> {
        unpoison(self.fired.lock()).clone()
    }

    /// Whether every scheduled fault has fired.
    pub fn all_fired(&self) -> bool {
        self.slots.iter().all(|s| s.fired.load(Ordering::Acquire))
    }

    /// Atomically claims the first unfired fault matching `pred`.
    fn take(&self, pred: impl Fn(&Fault) -> bool) -> Option<Fault> {
        for slot in &self.slots {
            if pred(&slot.fault)
                && slot
                    .fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                unpoison(self.fired.lock()).push(FiredFault {
                    what: slot.fault.describe(),
                    at: Instant::now(),
                });
                return Some(slot.fault);
            }
        }
        None
    }

    /// Batcher hook, before draining batch `next_batch`: panics if a
    /// [`Fault::BatcherPanic`] is due.
    pub fn maybe_panic_batcher(&self, next_batch: u64) {
        if let Some(f) =
            self.take(|f| matches!(f, Fault::BatcherPanic { at_batch } if *at_batch == next_batch))
        {
            panic!("fault-injection: {}", f.describe());
        }
    }

    /// Apply hook, inside the window critical section for batch `batch`:
    /// panics (poisoning the window mutex) if a [`Fault::PanicInApply`]
    /// is due.
    pub fn maybe_panic_in_apply(&self, batch: u64) {
        if let Some(f) =
            self.take(|f| matches!(f, Fault::PanicInApply { at_batch } if *at_batch == batch))
        {
            panic!("fault-injection: {}", f.describe());
        }
    }

    /// Batcher hook, after draining batch `batch`: whether to corrupt it.
    pub fn corrupt_due(&self, batch: u64) -> bool {
        self.take(|f| matches!(f, Fault::CorruptTx { at_batch } if *at_batch == batch))
            .is_some()
    }

    /// Checkpoint hook, before a core writes its image at batch count
    /// `batch`: whether the write should be made to fail.
    pub fn checkpoint_fail_due(&self, batch: u64) -> bool {
        self.take(|f| matches!(f, Fault::CheckpointFail { at_batch } if *at_batch == batch))
            .is_some()
    }

    /// Recluster hook, before recluster `next`: panics if a
    /// [`Fault::ReclusterPanic`] is due at `next` or was due earlier.
    pub fn maybe_panic_recluster(&self, next: u64) {
        if let Some(f) = self
            .take(|f| matches!(f, Fault::ReclusterPanic { at_recluster } if *at_recluster <= next))
        {
            panic!("fault-injection: {}", f.describe());
        }
    }

    /// Router hook, while fanning out fleet batch `batch` to shard
    /// `shard`: panics if a [`Fault::ShardPanic`] is due for this shard
    /// at this batch.
    pub fn maybe_panic_shard(&self, shard: usize, batch: u64) {
        if let Some(f) = self.take(|f| {
            matches!(f, Fault::ShardPanic { shard: s, at_batch } if *s == shard && *at_batch == batch)
        }) {
            panic!("fault-injection: {}", f.describe());
        }
    }

    /// Router hook, before journaling fleet batch `batch`: whether the
    /// journal append should be made to fail.
    pub fn wal_append_fail_due(&self, batch: u64) -> bool {
        self.take(|f| matches!(f, Fault::WalAppendFail { at_batch } if *at_batch == batch))
            .is_some()
    }

    /// Router hook, after journaling fleet batch `batch` but before
    /// fan-out: panics if a [`Fault::CrashAfterJournal`] is due — the
    /// batch is durable on disk, no shard has applied it.
    pub fn maybe_crash_after_journal(&self, batch: u64) {
        if let Some(f) =
            self.take(|f| matches!(f, Fault::CrashAfterJournal { at_batch } if *at_batch == batch))
        {
            panic!("fault-injection: {}", f.describe());
        }
    }

    /// Recluster hook, before recluster `next`: the stall length to
    /// inject, if one is due at `next` or was due earlier.
    pub fn stall_due(&self, next: u64) -> Option<u64> {
        match self.take(
            |f| matches!(f, Fault::ReclusterStall { at_recluster, .. } if *at_recluster <= next),
        ) {
            Some(Fault::ReclusterStall { millis, .. }) => Some(millis),
            _ => None,
        }
    }
}

/// SplitMix64: tiny, seedable, statistically fine for drawing fault
/// indices (this crate deliberately has no `rand` dependency).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let spec = FaultSpec {
            batcher_panics: 2,
            recluster_stalls: 1,
            corrupt_txs: 1,
            ..FaultSpec::default()
        };
        let a = FaultPlan::seeded(7, &spec);
        let b = FaultPlan::seeded(7, &spec);
        let c = FaultPlan::seeded(8, &spec);
        assert_eq!(a.scheduled(), b.scheduled());
        assert_ne!(
            a.scheduled(),
            c.scheduled(),
            "different seed, different schedule"
        );
        assert_eq!(a.scheduled().len(), 4);
    }

    #[test]
    fn faults_fire_once_at_their_index() {
        let plan = FaultPlan::new([
            Fault::CorruptTx { at_batch: 3 },
            Fault::CorruptTx { at_batch: 3 },
        ]);
        assert!(!plan.corrupt_due(2));
        assert!(plan.corrupt_due(3));
        assert!(plan.corrupt_due(3), "second listing fires a second time");
        assert!(!plan.corrupt_due(3), "then the plan is exhausted");
        assert!(plan.all_fired());
        assert_eq!(plan.fired().len(), 2);
    }

    #[test]
    fn recluster_faults_fire_once_at_or_after_their_index() {
        let plan = FaultPlan::new([
            Fault::ReclusterPanic { at_recluster: 1 },
            Fault::ReclusterStall {
                at_recluster: 1,
                millis: 7,
            },
        ]);
        plan.maybe_panic_recluster(0);
        assert_eq!(plan.stall_due(0), None, "not due yet");
        // Another thread's recluster took index 1: the worker's hook
        // first sees 2, and both faults still fire — once.
        assert_eq!(plan.stall_due(2), Some(7));
        assert_eq!(plan.stall_due(3), None);
        let err = std::panic::catch_unwind(|| plan.maybe_panic_recluster(2)).unwrap_err();
        let msg = crate::supervisor::panic_message(err.as_ref());
        assert!(msg.contains("recluster-panic@recluster1"), "{msg}");
        plan.maybe_panic_recluster(3);
        assert!(plan.all_fired());
        assert_eq!(plan.fired().len(), 2);
    }

    #[test]
    fn panic_hooks_panic_with_a_description() {
        let plan = FaultPlan::new([Fault::BatcherPanic { at_batch: 1 }]);
        plan.maybe_panic_batcher(0); // not due: no panic
        let err = std::panic::catch_unwind(|| plan.maybe_panic_batcher(1)).unwrap_err();
        let msg = crate::supervisor::panic_message(err.as_ref());
        assert!(msg.contains("batcher-panic@batch1"), "{msg}");
        assert!(plan.all_fired());
    }
}
