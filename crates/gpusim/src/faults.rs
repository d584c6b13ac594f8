//! Deterministic fault injection: one [`FaultPlan`], read by every layer
//! where its faults fire.
//!
//! A plan is a list of [`Fault`]s pinned to *logical* indices — a device's
//! launch or upload count, a service's batch or recluster count, a fleet
//! batch — so it replays identically on every run regardless of wall-clock
//! timing.
//!
//! **One firing rule:** every listed fault fires once, at the first event
//! of its kind at or after its index. Firing is recorded with a timestamp
//! ([`FaultPlan::fired`]), so a harness can measure recovery latency and a
//! test can assert that a fault fired. To model a crash *loop*, list the
//! same fault several times.
//!
//! Who reads a plan:
//!
//! * a [`Device`](crate::Device) it is attached to
//!   ([`Device::set_faults`](crate::Device::set_faults)), at its launch and
//!   upload boundaries ([`Fault::Device`]). The fault surfaces as a
//!   [`DeviceError`](crate::DeviceError), so everything above — engine
//!   retry, the degradation ladder, multi-GPU repartitioning — experiences
//!   it exactly as it would experience failing hardware;
//! * glp-serve's worker loops, checkpoint write and fleet router, which
//!   re-export these names: every other variant.
//!
//! Nothing here is global or per thread. A plan fires only for whoever
//! holds it, so concurrently running tests cannot trip each other's
//! faults. Plans are always compiled: a holder with none attached pays one
//! `Option` test per hook and fires nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How a device fails. `LaunchFail`, `Timeout` and `ShardPanic` are
/// transient (the next attempt may succeed); `DeviceLost` is sticky on the
/// device; `Oom` fires at an upload instead of a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The launch is rejected.
    LaunchFail,
    /// The launch trips the watchdog timeout.
    Timeout,
    /// The launch finds the device gone; the device stays lost.
    DeviceLost,
    /// One harness shard of the launch panics.
    ShardPanic,
    /// The upload exceeds device memory.
    Oom,
}

/// One injectable fault, pinned to a logical index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail the device the plan is attached to with `kind` at its `at`-th
    /// launch since the plan was attached (its `at`-th upload for
    /// [`FaultKind::Oom`]), 0-based. Every launch counts: plain, fused,
    /// sharded and repeated ([`Device::relaunch`](crate::Device::relaunch)).
    Device {
        /// How the device fails.
        kind: FaultKind,
        /// Launch (upload) index.
        at: u64,
    },
    /// Panic the batcher worker just before it drains batch `at_batch`
    /// (the batch itself stays queued — lossless, so recovery can be
    /// asserted byte-identical to a fault-free run).
    BatcherPanic {
        /// Batch index (= batches applied so far).
        at_batch: u64,
    },
    /// Panic the batcher *inside* the window critical section while
    /// applying batch `at_batch`, poisoning the window mutex (the batch
    /// in hand is lost; the window itself is untouched).
    PanicInApply {
        /// Batch index.
        at_batch: u64,
    },
    /// Panic the recluster worker just before its recluster `at_recluster`.
    /// Reclusters run on other threads too (a synchronous `recluster_now`)
    /// and advance the same index, so the worker may never see the index
    /// itself: the firing rule's "at or after" is what makes it fire.
    ReclusterPanic {
        /// Recluster index (= reclusters completed so far).
        at_recluster: u64,
    },
    /// Make the recluster worker's recluster `at_recluster` slow: the
    /// worker holds the recluster lock for `millis` before it runs it, so
    /// every other recluster waits too — whether the stalled one then runs
    /// full or incremental.
    ReclusterStall {
        /// Recluster index.
        at_recluster: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Overwrite the first transaction of batch `at_batch` with a
    /// non-finite amount after it passed the ingest gate — a corrupt
    /// record appearing inside the pipeline, which the apply-side
    /// validation must shed (counted), not apply.
    CorruptTx {
        /// Batch index.
        at_batch: u64,
    },
    /// Make the checkpoint a core writes at batch count `at_batch` fail
    /// with an injected I/O error before it touches the filesystem.
    CheckpointFail {
        /// Batch index.
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
        /// Fleet batch index (= fleet batches applied so far).
        at_batch: u64,
    },
    /// Make the journal append for fleet batch `at_batch` fail with an
    /// injected I/O error — the durability path breaks while the scoring
    /// path keeps working. The router records the failure against its
    /// `wal-journal` worker (degrading the fleet, loudly) and still fans
    /// the batch out: availability over durability.
    WalAppendFail {
        /// Fleet batch index.
        at_batch: u64,
    },
    /// Panic the router *between* journaling fleet batch `at_batch` and
    /// fanning it out — the canonical write-ahead crash window. The batch
    /// is durable but no shard ever saw it; recovery must replay it from
    /// the journal exactly once.
    CrashAfterJournal {
        /// Fleet batch index.
        at_batch: u64,
    },
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Self::Device { kind, at } => {
                let event = if *kind == FaultKind::Oom {
                    "upload"
                } else {
                    "launch"
                };
                format!("device-{kind:?}@{event}{at}")
            }
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

/// A deterministic schedule of faults, shared by everything it is handed
/// to: each reader consults it at its own logical index.
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

    /// The scheduled faults, in order.
    pub fn scheduled(&self) -> Vec<Fault> {
        self.slots.iter().map(|s| s.fault).collect()
    }

    /// Faults that have fired so far, in firing order, with timestamps.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Whether every scheduled fault has fired.
    pub fn all_fired(&self) -> bool {
        self.slots.iter().all(|s| s.fired.load(Ordering::Acquire))
    }

    /// The one firing rule: atomically claims the first unfired fault
    /// whose index — `at` of it, `None` for a fault of another kind — is
    /// at or before `index`.
    fn take(&self, index: u64, at: impl Fn(&Fault) -> Option<u64>) -> Option<Fault> {
        let slot = self.slots.iter().find(|s| {
            at(&s.fault).is_some_and(|at| at <= index)
                && s.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
        })?;
        self.fired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(FiredFault {
                what: slot.fault.describe(),
                at: Instant::now(),
            });
        Some(slot.fault)
    }

    /// Panics with the fault's description if [`Self::take`] claims one.
    fn panic_if_due(&self, index: u64, at: impl Fn(&Fault) -> Option<u64>) {
        if let Some(f) = self.take(index, at) {
            panic!("injected fault: {}", f.describe());
        }
    }

    /// Device hook, at the device's `index`-th launch — or upload, when
    /// `upload` — since the plan was attached: the failure due, if any.
    pub(crate) fn device_fault_due(&self, index: u64, upload: bool) -> Option<FaultKind> {
        let due = self.take(index, |f| match *f {
            Fault::Device { kind, at } if (kind == FaultKind::Oom) == upload => Some(at),
            _ => None,
        });
        match due? {
            Fault::Device { kind, .. } => Some(kind),
            _ => None,
        }
    }

    /// Batcher hook, before draining batch `next_batch`: panics if a
    /// [`Fault::BatcherPanic`] is due.
    pub fn maybe_panic_batcher(&self, next_batch: u64) {
        self.panic_if_due(next_batch, |f| match *f {
            Fault::BatcherPanic { at_batch } => Some(at_batch),
            _ => None,
        });
    }

    /// Apply hook, inside the window critical section for batch `batch`:
    /// panics (poisoning the window mutex) if a [`Fault::PanicInApply`]
    /// is due.
    pub fn maybe_panic_in_apply(&self, batch: u64) {
        self.panic_if_due(batch, |f| match *f {
            Fault::PanicInApply { at_batch } => Some(at_batch),
            _ => None,
        });
    }

    /// Batcher hook, after draining batch `batch`: whether to corrupt it.
    pub fn corrupt_due(&self, batch: u64) -> bool {
        self.take(batch, |f| match *f {
            Fault::CorruptTx { at_batch } => Some(at_batch),
            _ => None,
        })
        .is_some()
    }

    /// Checkpoint hook, before a core writes its image at batch count
    /// `batch`: whether the write should be made to fail.
    pub fn checkpoint_fail_due(&self, batch: u64) -> bool {
        self.take(batch, |f| match *f {
            Fault::CheckpointFail { at_batch } => Some(at_batch),
            _ => None,
        })
        .is_some()
    }

    /// Recluster hook, before recluster `next`: panics if a
    /// [`Fault::ReclusterPanic`] is due.
    pub fn maybe_panic_recluster(&self, next: u64) {
        self.panic_if_due(next, |f| match *f {
            Fault::ReclusterPanic { at_recluster } => Some(at_recluster),
            _ => None,
        });
    }

    /// Recluster hook, before recluster `next`: the stall length due, if
    /// a [`Fault::ReclusterStall`] is.
    pub fn stall_due(&self, next: u64) -> Option<u64> {
        let due = self.take(next, |f| match *f {
            Fault::ReclusterStall { at_recluster, .. } => Some(at_recluster),
            _ => None,
        });
        match due? {
            Fault::ReclusterStall { millis, .. } => Some(millis),
            _ => None,
        }
    }

    /// Router hook, while fanning out fleet batch `batch` to shard
    /// `shard`: panics if a [`Fault::ShardPanic`] is due for this shard.
    pub fn maybe_panic_shard(&self, shard: usize, batch: u64) {
        self.panic_if_due(batch, |f| match *f {
            Fault::ShardPanic { shard: s, at_batch } if s == shard => Some(at_batch),
            _ => None,
        });
    }

    /// Router hook, before journaling fleet batch `batch`: whether the
    /// journal append should be made to fail.
    pub fn wal_append_fail_due(&self, batch: u64) -> bool {
        self.take(batch, |f| match *f {
            Fault::WalAppendFail { at_batch } => Some(at_batch),
            _ => None,
        })
        .is_some()
    }

    /// Router hook, after journaling fleet batch `batch` but before
    /// fan-out: panics if a [`Fault::CrashAfterJournal`] is due — the
    /// batch is durable on disk, no shard has applied it.
    pub fn maybe_crash_after_journal(&self, batch: u64) {
        self.panic_if_due(batch, |f| match *f {
            Fault::CrashAfterJournal { at_batch } => Some(at_batch),
            _ => None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, DeviceError};
    use std::sync::Arc;

    /// A Titan V reading a plan of the given device faults.
    fn device(faults: &[(FaultKind, u64)]) -> (Device, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new(
            faults.iter().map(|&(kind, at)| Fault::Device { kind, at }),
        ));
        let mut d = Device::titan_v();
        d.set_faults(Some(Arc::clone(&plan)));
        (d, plan)
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).unwrap_err();
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn a_device_fault_fires_on_the_nth_launch_and_only_there() {
        let (mut d, plan) = device(&[(FaultKind::LaunchFail, 2)]);
        d.launch("k", |ctx| ctx.alu(1)).unwrap();
        d.launch_fused("fragment", |ctx| ctx.alu(1)).unwrap();
        let (device, kernel) = (d.id(), "k");
        assert_eq!(
            d.launch("k", |ctx| ctx.alu(1)),
            Err(DeviceError::LaunchFailed { device, kernel })
        );
        assert_eq!(plan.fired().len(), 1);
        assert_eq!(plan.fired()[0].what, "device-LaunchFail@launch2");
        // Once: the plan is spent.
        d.launch("k", |ctx| ctx.alu(1)).unwrap();
        assert!(plan.all_fired());
        assert_eq!(
            d.kernel_log().len(),
            3,
            "the rejected launch charged nothing"
        );
    }

    #[test]
    fn a_relaunch_counts_and_can_fail() {
        let mut d = Device::titan_v();
        d.launch("k", |ctx| ctx.alu(1)).unwrap();
        // Counted from attachment: the launch above is not launch 0.
        let plan = Arc::new(FaultPlan::new([Fault::Device {
            kind: FaultKind::LaunchFail,
            at: 1,
        }]));
        d.set_faults(Some(Arc::clone(&plan)));
        d.relaunch(0).unwrap();
        let (device, kernel) = (d.id(), "k");
        assert_eq!(
            d.relaunch(0),
            Err(DeviceError::LaunchFailed { device, kernel })
        );
        assert_eq!(
            d.kernel_log().len(),
            2,
            "the rejected repeat charged nothing"
        );
        assert!(plan.all_fired());
    }

    #[test]
    fn device_faults_are_per_boundary_and_per_device() {
        let (mut a, plan_a) = device(&[(FaultKind::Oom, 0)]);
        let (mut b, _) = device(&[(FaultKind::Timeout, 0)]);
        let mut bystander = Device::titan_v();
        // Launches never consume Oom, uploads never consume launch
        // faults, and a device without the plan never sees it.
        a.launch("k", |ctx| ctx.alu(1)).unwrap();
        b.upload(4).unwrap();
        bystander.upload(4).unwrap();
        assert!(matches!(a.upload(4), Err(DeviceError::OutOfMemory { .. })));
        assert!(matches!(
            b.launch("k", |ctx| ctx.alu(1)),
            Err(DeviceError::Timeout { .. })
        ));
        // A lost device fails before the plan is read: DeviceLost is
        // served once, and the loss is the device's own from then on.
        let (mut c, plan_c) = device(&[(FaultKind::DeviceLost, 0), (FaultKind::LaunchFail, 1)]);
        assert_eq!(
            c.launch("k", |_| ()),
            Err(DeviceError::Lost { device: c.id() })
        );
        assert_eq!(
            c.launch("k", |_| ()),
            Err(DeviceError::Lost { device: c.id() })
        );
        assert_eq!(plan_c.fired().len(), 1);
        assert_eq!(plan_a.fired().len(), 1);
        // Detached, the plan is not read at all.
        a.set_faults(None);
        a.upload(4).unwrap();
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

        // A fault whose own index its reader never sees fires at the first
        // index past it, once: a batch, a shard and a checkpoint row.
        let plan = FaultPlan::new([
            Fault::CorruptTx { at_batch: 3 },
            Fault::ShardPanic {
                shard: 1,
                at_batch: 5,
            },
            Fault::CheckpointFail { at_batch: 4 },
        ]);
        assert!(!plan.corrupt_due(2));
        assert!(plan.corrupt_due(7));
        assert!(!plan.corrupt_due(8));
        plan.maybe_panic_shard(0, 9); // another shard: not due
        assert!(panic_message(|| plan.maybe_panic_shard(1, 9)).contains("shard1-panic@batch5"));
        plan.maybe_panic_shard(1, 10);
        assert!(!plan.checkpoint_fail_due(0));
        assert!(plan.checkpoint_fail_due(8), "a checkpoint every 8 batches");
        assert!(!plan.checkpoint_fail_due(16));
        assert!(plan.all_fired());
        assert_eq!(plan.fired().len(), 3);
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
        let msg = panic_message(|| plan.maybe_panic_recluster(2));
        assert!(msg.contains("recluster-panic@recluster1"), "{msg}");
        plan.maybe_panic_recluster(3);
        assert!(plan.all_fired());
        assert_eq!(plan.fired().len(), 2);
    }

    #[test]
    fn panic_hooks_panic_with_a_description() {
        let plan = FaultPlan::new([Fault::BatcherPanic { at_batch: 1 }]);
        plan.maybe_panic_batcher(0); // not due: no panic
        let msg = panic_message(|| plan.maybe_panic_batcher(1));
        assert!(msg.contains("batcher-panic@batch1"), "{msg}");
        assert!(plan.all_fired());
    }
}
