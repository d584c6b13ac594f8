//! The stamped window: an [`IncrementalWindow`] together with the
//! sequence stamp of every live transaction, and the one rule that
//! decides what may enter it.
//!
//! Every scoring core ([`ServiceCore`](crate::service::ServiceCore)) owns
//! one, the fleet's boundary cache shadows one, and a failover rebuilds
//! one offline. Two things distinguish it from a bare window:
//!
//! * **Watermark sync.** [`StampedWindow::apply`] advances to the
//!   caller's day watermark even when the batch is empty. Fleet shards
//!   receive the *fleet's* watermark with every routed sub-batch, so all
//!   shard windows expire in lockstep — which is what makes a shard's log
//!   exactly the restriction of the reference log to its keyspace, the
//!   foundation of the fleet's byte-identity guarantee (see
//!   [`crate::exchange`]).
//! * **Sequence stamps.** Each transaction carries a monotone stamp —
//!   the fleet router's for a shard, the core's own counter for a
//!   standalone core. Stamps stay aligned with the log (expiry pops both
//!   from the front) so the exchange can merge several logs back into
//!   global arrival order, and checkpoints persist them
//!   ([`WindowCheckpoint::capture_with_seqs`]).

use crate::exchange::ShardFrame;
use crate::ingest::Submitted;
use crate::telemetry::Telemetry;
use glp_fraud::checkpoint::WindowCheckpoint;
use glp_fraud::{IncrementalWindow, RecordError, Transaction};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The admit rule, written once: a transaction enters a window only with
/// a finite amount and a day at or after the window's last open day.
/// `end` is the *running* exclusive end — `apply_batch`'s invariant is
/// `t.day + 1 >= end` with `end` advancing per transaction, so the filter
/// advances the same way (which also keeps every keyspace-restricted
/// sub-log day-sorted). Accepted transactions are stamped in order from
/// `stamp`; the caller counts `batch.len() - accepted.len()` as invalid.
pub(crate) fn admit(
    batch: &[Submitted],
    end: &mut u32,
    mut stamp: impl FnMut() -> u64,
) -> Vec<(u64, Transaction)> {
    let mut accepted = Vec::with_capacity(batch.len());
    for s in batch {
        let t = s.tx;
        if t.amount.is_finite() && t.day + 1 >= *end {
            *end = (*end).max(t.day + 1);
            accepted.push((stamp(), t));
        }
    }
    accepted
}

/// Ingest telemetry of one submitted micro-batch of which `accepted`
/// transactions passed [`admit`]: the rest are shed as invalid, every
/// submission's queue wait is charged, and the batch is counted at its
/// *submitted* size.
pub(crate) fn record_admission(telemetry: &Telemetry, batch: &[Submitted], accepted: usize) {
    let invalid = (batch.len() - accepted) as u64;
    if invalid > 0 {
        telemetry
            .rejected_invalid
            .fetch_add(invalid, Ordering::Relaxed);
    }
    let applied = Instant::now();
    for s in batch {
        let lag = applied.duration_since(s.at).as_nanos() as u64;
        telemetry.ingest_lag.record(lag);
    }
    telemetry.record_batch(batch.len());
}

/// The sequence stamps of a log, in log order, run-length encoded as
/// `(first, len)` runs of consecutive stamps. A standalone core stamps
/// consecutively, so its whole log is one run and costs nothing per
/// transaction; a shard's runs break where the router sent traffic
/// elsewhere.
#[derive(Clone, Default)]
struct Stamps {
    runs: VecDeque<(u64, u64)>,
    len: usize,
    /// One past the highest stamp ever pushed (expiry never lowers it).
    next: u64,
}

impl Stamps {
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|&(first, n)| first..first + n)
    }

    fn last(&self) -> Option<u64> {
        self.runs.back().map(|&(first, n)| first + n - 1)
    }

    /// Drops stamps from the front until `len` remain.
    fn keep_last(&mut self, len: usize) {
        while self.len > len {
            let (first, n) = self.runs.front_mut().expect("len counts the runs");
            let dropped = ((self.len - len) as u64).min(*n);
            (*first, *n) = (*first + dropped, *n - dropped);
            self.len -= dropped as usize;
            if *n == 0 {
                self.runs.pop_front();
            }
        }
    }
}

impl Extend<u64> for Stamps {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, seqs: I) {
        for seq in seqs {
            match self.runs.back_mut() {
                Some((first, n)) if *first + *n == seq => *n += 1,
                _ => self.runs.push_back((seq, 1)),
            }
            self.len += 1;
            self.next = self.next.max(seq + 1);
        }
    }
}

/// A window and its parallel sequence stamps, kept together so the
/// invariant "one stamp per live transaction, in log order" holds
/// between any two calls.
pub(crate) struct StampedWindow {
    window: IncrementalWindow,
    seqs: Stamps,
}

impl StampedWindow {
    /// An empty `days`-day window.
    pub(crate) fn empty(days: u32) -> Self {
        Self::from_parts(IncrementalWindow::empty(days), [])
    }

    /// Pairs an already-built window with its stamps.
    pub(crate) fn from_parts(
        window: IncrementalWindow,
        stamps: impl IntoIterator<Item = u64>,
    ) -> Self {
        let mut seqs = Stamps::default();
        seqs.extend(stamps);
        assert_eq!(
            seqs.len,
            window.num_transactions(),
            "sequence stamps must parallel the log"
        );
        Self { window, seqs }
    }

    /// Decodes a checkpoint image of a `days`-day window. Images without
    /// stamps (version 1, or written by [`WindowCheckpoint::capture`])
    /// get their log positions — correct because a single log *is* in
    /// arrival order. The image's batch clock is `ckpt.batches_applied`.
    pub(crate) fn from_checkpoint(ckpt: &WindowCheckpoint, days: u32) -> Result<Self, RecordError> {
        if ckpt.days != days {
            return Err(RecordError::Invalid(
                "checkpoint window length disagrees with the configuration",
            ));
        }
        let window = ckpt.restore_window()?;
        Ok(if ckpt.seqs.is_empty() {
            let positions = 0..window.num_transactions() as u64;
            Self::from_parts(window, positions)
        } else {
            Self::from_parts(window, ckpt.seqs.iter().copied())
        })
    }

    /// Appends one *pre-validated* stamped batch (see [`admit`]) and
    /// advances the window to `watermark`. Expiry only ever pops the
    /// log's front, and the log shares the stamps' order — so the stamps
    /// are realigned by dropping those of expired transactions from the
    /// front.
    pub(crate) fn apply(&mut self, batch: &[(u64, Transaction)], watermark: u32) {
        let txs: Vec<Transaction> = batch.iter().map(|&(_, t)| t).collect();
        self.window.apply_batch(&txs);
        self.window.advance_to(watermark);
        self.seqs.extend(batch.iter().map(|&(seq, _)| seq));
        self.seqs.keep_last(self.window.num_transactions());
    }

    /// The window itself (materialization, length in days).
    pub(crate) fn window(&mut self) -> &mut IncrementalWindow {
        &mut self.window
    }

    /// The window's exclusive end day.
    pub(crate) fn end(&self) -> u32 {
        self.window.end()
    }

    /// Live transactions (= stamps).
    pub(crate) fn len(&self) -> usize {
        self.seqs.len
    }

    /// The stamps of the live log, in log order.
    pub(crate) fn stamps(&self) -> impl Iterator<Item = u64> + '_ {
        self.seqs.iter()
    }

    /// The highest stamp in the window, if any.
    pub(crate) fn last_seq(&self) -> Option<u64> {
        self.seqs.last()
    }

    /// A stamp above every stamp this window has held — where a core
    /// that stamps for itself continues.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seqs.next
    }

    /// A copy of the log with its stamps, attributed to `shard`.
    pub(crate) fn frame(&self, shard: usize) -> ShardFrame {
        ShardFrame {
            shard,
            days: self.window.days(),
            end: self.window.end(),
            txs: self
                .stamps()
                .zip(self.window.transactions().copied())
                .collect(),
        }
    }

    /// The checkpoint image of this window with its stamps.
    pub(crate) fn capture(
        &self,
        batches_applied: u64,
        snapshot_epoch: u64,
        counters: Vec<u64>,
    ) -> WindowCheckpoint {
        WindowCheckpoint::capture_with_seqs(
            &self.window,
            batches_applied,
            snapshot_epoch,
            counters,
            self.stamps().collect(),
        )
    }

    /// Splits the window by routed buyer into `shards` stamped
    /// sub-windows, each keeping its transactions' stamps — the
    /// scale-out migration path.
    pub(crate) fn partition_by(&self, shards: usize, route: impl Fn(u32) -> usize) -> Vec<Self> {
        let mut seqs = vec![Stamps::default(); shards];
        for (seq, t) in self.stamps().zip(self.window.transactions()) {
            seqs[route(t.buyer)].extend([seq]);
        }
        self.window
            .partition_by(shards, &route)
            .into_iter()
            .zip(seqs)
            .map(|(window, seqs)| Self { window, seqs })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_run_length_encode_and_drop_from_the_front() {
        let mut s = Stamps::default();
        s.extend([3, 4, 5, 9, 10, 20]);
        assert_eq!(s.runs.len(), 3, "three runs of consecutive stamps");
        assert_eq!(s.len, 6);
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 4, 5, 9, 10, 20]);
        assert_eq!(s.last(), Some(20));
        // Expiry inside a run, then across a run boundary.
        s.keep_last(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), [4, 5, 9, 10, 20]);
        s.keep_last(2);
        assert_eq!(s.iter().collect::<Vec<_>>(), [10, 20]);
        s.extend([21]);
        assert_eq!(s.runs.len(), 2, "21 extends the run of 20");
        s.keep_last(0);
        assert_eq!((s.len, s.last(), s.next), (0, None, 22));
        s.keep_last(0);
    }
}
