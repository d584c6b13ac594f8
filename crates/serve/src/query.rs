//! The query front-end: verdict snapshots and the scoring interface.
//!
//! A [`VerdictSnapshot`] is an immutable, fully-resolved scoring of one
//! window state — the output of a recluster, published through
//! [`EpochCell`](crate::swap::EpochCell). Queries are lookups against
//! whatever snapshot is current; they never touch the window, the queue,
//! or the LP engine. The snapshot's canonical byte encoding exists so
//! determinism can be asserted end to end (the determinism test compares
//! snapshots produced under different engine shard counts byte for byte).

use std::sync::Arc;

/// The service's answer for one user.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Member of a flagged cluster.
    Flagged {
        /// Suspicion score in [0, 1] of the user's cluster.
        score: f64,
        /// Canonical cluster label: the minimum user id among the
        /// cluster's members, a property of the cluster's user set alone
        /// (independent of vertex numbering, engine shard count, and
        /// service shard count).
        cluster: u32,
    },
    /// Present in the window, not in any flagged cluster.
    Clean,
    /// Not seen in the current window at all.
    Unknown,
}

/// One immutable scoring of the window: everything a query needs,
/// pre-resolved to plain user ids.
#[derive(Clone, Debug, Default)]
pub struct VerdictSnapshot {
    /// Exclusive end day of the window this snapshot scored.
    pub window_end: u32,
    /// Micro-batches applied when the recluster snapshotted the window
    /// (staleness = current batch count minus this).
    pub as_of_batch: u64,
    /// Users present in the scored window, ascending.
    pub known_users: Vec<u32>,
    /// Flagged users as `(user, canonical cluster label, score)`,
    /// ascending by user; the label is the cluster's minimum member
    /// user id (see [`Verdict::Flagged`]).
    pub flagged: Vec<(u32, u32, f64)>,
    /// Window graph size at scoring time.
    pub graph_vertices: usize,
    /// Window graph directed edge count at scoring time.
    pub graph_edges: u64,
    /// LP iterations the recluster ran.
    pub lp_iterations: u32,
}

impl VerdictSnapshot {
    /// Looks up one user against this snapshot.
    pub fn verdict(&self, user: u32) -> Verdict {
        if let Ok(i) = self.flagged.binary_search_by_key(&user, |&(u, _, _)| u) {
            let (_, cluster, score) = self.flagged[i];
            return Verdict::Flagged { score, cluster };
        }
        if self.known_users.binary_search(&user).is_ok() {
            Verdict::Clean
        } else {
            Verdict::Unknown
        }
    }

    /// Users flagged in this snapshot.
    pub fn num_flagged(&self) -> usize {
        self.flagged.len()
    }

    /// Canonical byte encoding of the *scoring outcome* — window end,
    /// known users, and flagged `(user, cluster, score)` triples with
    /// scores as IEEE-754 bits. Deliberately excludes timing, counters,
    /// and batch bookkeeping so two runs that cluster identically encode
    /// identically even if their wall clocks differ.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 * self.known_users.len() + 16 * self.flagged.len());
        out.extend_from_slice(&self.window_end.to_le_bytes());
        out.extend_from_slice(&(self.known_users.len() as u32).to_le_bytes());
        for u in &self.known_users {
            out.extend_from_slice(&u.to_le_bytes());
        }
        for &(u, c, s) in &self.flagged {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
            out.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        out
    }
}

/// The in-process scoring interface. Plain trait, no network: callers
/// hold a [`QueryHandle`](crate::service::QueryHandle) (or anything else
/// implementing this) and ask about users.
pub trait FraudScorer {
    /// Verdict for `user` against the freshest published snapshot.
    fn score(&self, user: u32) -> Verdict;

    /// The freshest published snapshot itself (for batch consumers that
    /// want one consistent view across many lookups).
    fn snapshot(&self) -> Arc<VerdictSnapshot>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VerdictSnapshot {
        VerdictSnapshot {
            window_end: 30,
            known_users: vec![1, 2, 5, 9],
            flagged: vec![(2, 40, 0.8), (9, 41, 0.6)],
            ..Default::default()
        }
    }

    #[test]
    fn verdict_lookup_covers_all_three_cases() {
        let s = sample();
        assert_eq!(
            s.verdict(2),
            Verdict::Flagged {
                score: 0.8,
                cluster: 40
            }
        );
        assert_eq!(s.verdict(5), Verdict::Clean);
        assert_eq!(s.verdict(7), Verdict::Unknown);
    }

    #[test]
    fn canonical_bytes_reflect_outcome_not_bookkeeping() {
        let a = sample();
        let mut b = sample();
        b.as_of_batch = 99;
        b.lp_iterations = 7;
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        let mut c = sample();
        c.flagged[0].2 = 0.81;
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }
}
