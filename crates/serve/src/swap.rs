//! Epoch-swapped publication: readers load an `Arc` snapshot through a
//! momentary lock, writers swap the pointer in O(1).
//!
//! The recluster stage runs label propagation for milliseconds to
//! seconds; queries must never wait on it. The contract here is that the
//! lock is only ever held for the pointer clone/swap itself — LP runs
//! entirely outside, on a private snapshot, and [`EpochCell::publish`]
//! installs the finished result in one step. An [`AtomicU64`] epoch lets
//! callers cheaply detect staleness ("has anything been published since I
//! last looked?") without loading the snapshot.

use crate::unpoison;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A published value of type `T` behind an epoch counter.
#[derive(Debug)]
pub struct EpochCell<T> {
    current: RwLock<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: T) -> Self {
        Self::with_epoch(initial, 0)
    }

    /// A cell holding `initial` at a given starting epoch — used by
    /// checkpoint restore so epoch numbering continues across a restart
    /// instead of resetting (staleness comparisons stay monotone).
    pub fn with_epoch(initial: T, epoch: u64) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone — wait time is bounded by other pointer-sized critical
    /// sections, never by a recluster. Poisoning is recovered, not
    /// propagated: the critical section only moves a pointer, so a
    /// poisoned cell still holds a fully valid `Arc` and readers must
    /// keep serving it (the last good snapshot) rather than panic.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&*unpoison(self.current.read()))
    }

    /// Installs a new snapshot and returns the new epoch (monotonically
    /// increasing from the starting epoch plus one).
    pub fn publish(&self, value: T) -> u64 {
        let arc = Arc::new(value);
        *unpoison(self.current.write()) = arc;
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publications so far (0 = still the initial value).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn publish_bumps_epoch_and_swaps() {
        let cell = EpochCell::new(1u32);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.load(), 1);
        assert_eq!(cell.publish(2), 1);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.epoch(), 1);
    }

    #[test]
    fn old_snapshots_stay_valid_after_swap() {
        let cell = EpochCell::new(vec![1, 2, 3]);
        let old = cell.load();
        cell.publish(vec![4]);
        assert_eq!(*old, vec![1, 2, 3]); // reader keeps its Arc
        assert_eq!(*cell.load(), vec![4]);
    }

    #[test]
    fn concurrent_readers_see_some_published_value() {
        let cell = Arc::new(EpochCell::new(0usize));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            handles.push(thread::spawn(move || {
                let mut last = 0;
                for _ in 0..10_000 {
                    let v = *cell.load();
                    assert!(v >= last, "snapshot went backwards");
                    last = v;
                }
            }));
        }
        for i in 1..=1_000 {
            cell.publish(i);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.epoch(), 1_000);
    }
}
