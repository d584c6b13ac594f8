//! The cross-shard label exchange: reconciling boundary vertices so a
//! sharded fleet's verdicts are byte-identical to a single core's.
//!
//! Sharding partitions the *buyers*; items cannot be partitioned (any
//! buyer can touch any item), so an item purchased from two shards
//! creates a **boundary component** — a connected piece of the
//! user–item graph whose user set spans shards. Label propagation on
//! one shard alone would under-propagate through such components.
//!
//! The exchange fixes exactly those components, and nothing else:
//!
//! 1. Each shard contributes a [`ShardFrame`]: its window log with the
//!    router's fleet-wide sequence stamps.
//! 2. A union-find over every frame's `(buyer, item)` edges finds the
//!    connected components of the union graph, and a component is
//!    *spanning* when its users live on two or more shards.
//! 3. The spanning components' transactions are merged back into global
//!    arrival order by sequence stamp and reclustered as one graph —
//!    the same weighted LP + seed scoring as everywhere else.
//! 4. The fleet snapshot keeps every shard's *local* verdict for users
//!    of non-spanning components (those components are wholly contained
//!    in one shard, where local LP already equals the reference) and
//!    replaces the verdicts of boundary users with the merged run's.
//!
//! Correctness leans on three invariants established elsewhere: shard
//! windows expire on the fleet watermark (so each shard log is exactly
//! the reference log restricted to its keyspace), LP grouping is
//! invariant under order-preserving vertex relabeling (so a sub-log
//! containing *all* of a component's transactions clusters it exactly
//! as the full log does), and published cluster labels are the minimum
//! member user id (canonical across any window numbering). Together:
//! `reconcile` over N shards is byte-identical to one
//! [`ServiceCore`](crate::service::ServiceCore) over the same stream —
//! pinned end to end in `tests/determinism.rs`.

use crate::config::ServeConfig;
use crate::query::VerdictSnapshot;
use crate::recluster::{LpMemo, ReclusterOutcome, ReclusterRequest};
use crate::stamped::StampedWindow;
use glp_fraud::{IncrementalWindow, Transaction, WindowWorkload};
use glp_graph::{IdMap, IdSet};
use std::sync::Arc;
use std::time::Instant;

/// One shard's contribution to an exchange round: its window log in
/// order, each transaction with its fleet-wide sequence stamp.
#[derive(Clone, Debug)]
pub struct ShardFrame {
    /// Shard index in the fleet.
    pub shard: usize,
    /// Window length in days (equal across the fleet).
    pub days: u32,
    /// The shard's window end (the fleet watermark).
    pub end: u32,
    /// `(sequence stamp, transaction)` in log order; stamps ascend.
    pub txs: Vec<(u64, Transaction)>,
}

/// What one exchange round found and did.
#[derive(Clone, Debug, Default)]
pub struct ExchangeReport {
    /// Connected components whose users span two or more shards.
    pub spanning_components: usize,
    /// Users in spanning components (their verdicts came from the
    /// merged boundary run, not their home shard).
    pub boundary_users: usize,
    /// Items shared by spanning components.
    pub boundary_items: usize,
    /// Transactions merged into the boundary recluster.
    pub boundary_txs: usize,
}

/// The fleet-wide scoring an exchange round publishes: one merged
/// snapshot covering every shard's keyspace, plus the boundary user set
/// (sorted) so the query path knows which users *must* be answered from
/// here rather than from their home shard.
#[derive(Clone, Debug, Default)]
pub struct FleetSnapshot {
    /// The reconciled, fleet-wide verdict snapshot.
    pub verdicts: Arc<VerdictSnapshot>,
    /// Users of spanning components, ascending.
    pub boundary_users: Vec<u32>,
}

/// The full outcome of [`reconcile`] / [`reconcile_with`].
pub struct Reconciled {
    /// The fleet-wide snapshot (all shards' keyspaces merged).
    pub snapshot: VerdictSnapshot,
    /// Users of spanning components, ascending.
    pub boundary_users: Vec<u32>,
    /// What the round found.
    pub report: ExchangeReport,
    /// The boundary recluster's outcome and its wall seconds, when one
    /// was needed (`None` when no component spans shards).
    pub boundary: Option<(ReclusterOutcome, f64)>,
}

/// Carry-over state that lets consecutive exchange rounds recluster the
/// boundary graph *incrementally*: a shadow stamped window (the same
/// type a scoring core keeps) fed exactly the merged spanning
/// transactions, plus the memo of the previous boundary run.
/// [`reconcile_with`] goes incremental only when the previous round's
/// stamps are a strict prefix of this round's merged log — membership
/// changes (a component newly spanning shards
/// injects *old* stamps) or expiry break the prefix and force a cache
/// rebuild plus a full boundary recluster, keeping the published bytes
/// identical to the uncached path.
pub struct BoundaryCache {
    window: StampedWindow,
    memo: Option<LpMemo>,
}

impl BoundaryCache {
    /// An empty cache for a fleet with `days`-day windows: the first
    /// exchange through it reclusters the boundary from scratch.
    pub fn new(days: u32) -> Self {
        Self {
            window: StampedWindow::empty(days),
            memo: None,
        }
    }

    /// Runs the boundary recluster over `merged` (seq-sorted spanning
    /// transactions; `txs` is its transaction column), incrementally
    /// when this cache's previous round is a prefix of it.
    #[allow(clippy::too_many_arguments)]
    fn recluster(
        &mut self,
        merged: &[(u64, Transaction)],
        txs: &[Transaction],
        days: u32,
        cfg: &ServeConfig,
        blacklist: &[u32],
        global_end: u32,
        as_of: u64,
    ) -> ReclusterOutcome {
        // Stamps are unique fleet-wide, so a matching stamp is the same
        // transaction: prefix equality means this round's merged log
        // extends last round's cached log verbatim. The day check keeps
        // `apply_batch`'s monotonicity invariant (a violating suffix can
        // only come from a membership change the stamp check missed —
        // e.g. a rebuilt cache mid-history).
        let cached = self.window.len();
        let prefix_ok = self.window.window().days() == days
            && cached <= merged.len()
            && self.window.stamps().zip(merged).all(|(a, &(b, _))| a == b)
            && merged[cached..]
                .iter()
                .all(|&(_, t)| t.day + 1 >= self.window.end());
        if prefix_ok {
            self.window.apply(&merged[cached..], global_end);
        } else {
            match IncrementalWindow::from_parts(days, global_end, txs.to_vec()) {
                // A rebuilt window has no baseline: its first delta is
                // `expired`, so the kept memo cannot cover it.
                Ok(w) => {
                    let stamps = merged.iter().map(|&(s, _)| s);
                    self.window = StampedWindow::from_parts(w, stamps);
                }
                Err(_) => {
                    // A merged log violating the window invariants cannot
                    // be cached; recluster it from scratch and keep the
                    // cache as it was (its window and memo still agree).
                    let workload = WindowWorkload::from_transactions(days, txs.iter());
                    return ReclusterRequest::full(&workload, blacklist, cfg)
                        .stamped(as_of, global_end)
                        .run();
                }
            }
        }
        let (workload, delta) = self.window.window().materialize_delta();
        let mut outcome = ReclusterRequest::full(&workload, blacklist, cfg)
            .warm_from(self.memo.as_ref(), &delta)
            .stamped(as_of, global_end)
            .run();
        self.memo = outcome.memo.take();
        outcome
    }
}

/// Union-find keys: users and items share one id space, disjoint by a
/// high tag bit.
fn user_key(u: u32) -> u64 {
    u64::from(u)
}
fn item_key(i: u32) -> u64 {
    (1u64 << 32) | u64::from(i)
}

/// Plain iterative union-find with path halving.
struct Dsu {
    index: IdMap<u64, usize>,
    parent: Vec<usize>,
}

impl Dsu {
    fn new() -> Self {
        Self {
            index: IdMap::default(),
            parent: Vec::new(),
        }
    }

    fn id(&mut self, key: u64) -> usize {
        let next = self.parent.len();
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                self.parent.push(next);
                next
            }
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Reconciles one exchange round (see module docs). `locals` is each
/// shard's freshest local snapshot, indexed like `frames`; both must
/// describe the same quiesced window state (the callers —
/// [`FleetCore::exchange_now`](crate::router::FleetCore::exchange_now)
/// and shutdown — recluster every live shard immediately before
/// framing). `global_end` is the fleet watermark and `as_of` the fleet
/// batch clock, stamped into the snapshot.
pub fn reconcile(
    frames: &[ShardFrame],
    locals: &[Arc<VerdictSnapshot>],
    cfg: &ServeConfig,
    blacklist: &[u32],
    global_end: u32,
    as_of: u64,
) -> Reconciled {
    reconcile_with(frames, locals, cfg, blacklist, global_end, as_of, None)
}

/// [`reconcile`] with an optional [`BoundaryCache`]: when the cache's
/// previous round is a prefix of this one, the boundary recluster runs
/// incrementally from the cached memo — byte-identical to the uncached
/// round by the same replay guarantee as everywhere else.
#[allow(clippy::too_many_arguments)]
pub fn reconcile_with(
    frames: &[ShardFrame],
    locals: &[Arc<VerdictSnapshot>],
    cfg: &ServeConfig,
    blacklist: &[u32],
    global_end: u32,
    as_of: u64,
    cache: Option<&mut BoundaryCache>,
) -> Reconciled {
    assert_eq!(frames.len(), locals.len(), "one local snapshot per frame");

    // Pass 1: connected components of the union graph. Each
    // transaction's dense buyer id is kept, so the later passes index
    // where this one hashed.
    let stamped = || {
        frames
            .iter()
            .flat_map(|f| f.txs.iter().map(move |&(seq, t)| (f.shard, seq, t)))
    };
    let mut dsu = Dsu::new();
    let mut buyers: Vec<usize> = Vec::with_capacity(frames.iter().map(|f| f.txs.len()).sum());
    for (_, _, t) in stamped() {
        let (u, i) = (dsu.id(user_key(t.buyer)), dsu.id(item_key(t.item)));
        dsu.union(u, i);
        buyers.push(u);
    }

    // Pass 2: which components' users span two or more shards. A user
    // appears only on the shard that owns it, so the user's frame is
    // its shard.
    let mut shard_of_root: Vec<Option<usize>> = vec![None; dsu.parent.len()];
    let mut spanning = vec![false; dsu.parent.len()];
    for ((shard, _, _), &id) in stamped().zip(&buyers) {
        let root = dsu.find(id);
        // A second shard touching the component makes it spanning.
        spanning[root] |= *shard_of_root[root].get_or_insert(shard) != shard;
    }

    // Pass 3: collect the spanning components' transactions and merge
    // them back into global arrival order by sequence stamp. The
    // day-monotone apply filter made accepted days non-decreasing in
    // stamp order, so the merged log is day-sorted like any real log.
    let mut boundary_users: IdSet<u32> = IdSet::default();
    let mut boundary_items: IdSet<u32> = IdSet::default();
    let mut merged: Vec<(u64, Transaction)> = Vec::new();
    for ((_, seq, t), &id) in stamped().zip(&buyers) {
        if spanning[dsu.find(id)] {
            boundary_users.insert(t.buyer);
            boundary_items.insert(t.item);
            merged.push((seq, t));
        }
    }
    merged.sort_unstable_by_key(|&(seq, _)| seq);

    let report = ExchangeReport {
        spanning_components: spanning.iter().filter(|&&s| s).count(),
        boundary_users: boundary_users.len(),
        boundary_items: boundary_items.len(),
        boundary_txs: merged.len(),
    };

    // Pass 4: recluster the merged boundary graph (when there is one).
    let days = frames.first().map_or(cfg.pipeline.window_days, |f| f.days);
    let boundary = if merged.is_empty() {
        None
    } else {
        let started = Instant::now();
        let txs: Vec<Transaction> = merged.iter().map(|&(_, t)| t).collect();
        let outcome = match cache {
            Some(c) => c.recluster(&merged, &txs, days, cfg, blacklist, global_end, as_of),
            None => {
                let workload = WindowWorkload::from_transactions(days, txs.iter());
                ReclusterRequest::full(&workload, blacklist, cfg)
                    .stamped(as_of, global_end)
                    .run()
            }
        };
        Some((outcome, started.elapsed().as_secs_f64()))
    };

    // Pass 5: assemble the fleet snapshot. Locals keep their interior
    // verdicts; boundary users get the merged run's.
    let mut known_users: Vec<u32> = locals
        .iter()
        .flat_map(|l| l.known_users.iter().copied())
        .collect();
    known_users.sort_unstable();
    known_users.dedup();

    let mut flagged: Vec<(u32, u32, f64)> = locals
        .iter()
        .flat_map(|l| l.flagged.iter().copied())
        .filter(|&(u, _, _)| !boundary_users.contains(&u))
        .collect();
    let mut graph_vertices = locals.iter().map(|l| l.graph_vertices).sum::<usize>();
    let mut graph_edges = locals.iter().map(|l| l.graph_edges).sum::<u64>();
    let mut lp_iterations = locals.iter().map(|l| l.lp_iterations).max().unwrap_or(0);
    if let Some((outcome, _)) = &boundary {
        let b = &outcome.snapshot;
        flagged.extend_from_slice(&b.flagged);
        graph_vertices = graph_vertices.max(b.graph_vertices);
        graph_edges = graph_edges.max(b.graph_edges);
        lp_iterations = lp_iterations.max(b.lp_iterations);
    }
    flagged.sort_unstable_by_key(|a| a.0);

    let mut boundary_users: Vec<u32> = boundary_users.into_iter().collect();
    boundary_users.sort_unstable();

    Reconciled {
        snapshot: VerdictSnapshot {
            window_end: global_end,
            as_of_batch: as_of,
            known_users,
            flagged,
            graph_vertices,
            graph_edges,
            lp_iterations,
        },
        boundary_users,
        report,
        boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceCore;
    use glp_fraud::{RegionalStream, RegionalTxConfig, Transaction};

    fn stream() -> RegionalStream {
        RegionalStream::generate(&RegionalTxConfig {
            regions: 4,
            users_per_region: 250,
            items_per_region: 100,
            days: 10,
            tx_per_day: 1_200,
            cross_rings: 4,
            ring_size: 10,
            ring_tx_per_day: 30,
            blacklist_fraction: 0.3,
            ..Default::default()
        })
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            engine_shards: 2,
            ..ServeConfig::default()
        }
        .with_window_days(8)
    }

    /// Drives `shards` one-region-per-shard sub-logs plus the reference
    /// single core, then reconciles and compares byte-for-byte.
    #[test]
    fn reconcile_matches_the_single_core_reference() {
        let s = stream();
        let route = |u: u32| (s.region_of(u) as usize) % 2;

        // Reference: every transaction through one core.
        let reference = ServiceCore::new(cfg(), s.blacklist.clone());
        // Shards: the same stream routed by buyer region onto 2 shards.
        let shards: Vec<ServiceCore> = (0..2)
            .map(|_| ServiceCore::new(cfg(), s.blacklist.clone()))
            .collect();
        let mut seq = 0u64;
        for day in 0..s.config.days {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            reference.apply_transactions(&txs);
            let mut routed: Vec<Vec<(u64, Transaction)>> = vec![Vec::new(); 2];
            for &t in &txs {
                routed[route(t.buyer)].push((seq, t));
                seq += 1;
            }
            for (i, shard) in shards.iter().enumerate() {
                shard.apply_stamped(&routed[i], day + 1);
            }
        }
        reference.recluster_now();
        for shard in &shards {
            shard.recluster_now();
        }
        let frames: Vec<ShardFrame> = (0..2).map(|i| shards[i].frame(i)).collect();
        let locals: Vec<Arc<VerdictSnapshot>> = shards.iter().map(|s| s.snapshot()).collect();
        let r = reconcile(&frames, &locals, &cfg(), &s.blacklist, s.config.days, 0);

        // The cross-region rings straddle shard boundaries, so the
        // exchange had real work to do.
        assert!(r.report.spanning_components > 0, "no spanning components");
        assert!(r.report.boundary_users > 0);
        assert!(r.boundary.is_some());
        assert_eq!(
            r.snapshot.canonical_bytes(),
            reference.snapshot().canonical_bytes(),
            "2-shard reconciled snapshot must equal the 1-core reference"
        );
        // Every boundary user is known to the fleet snapshot.
        for &u in &r.boundary_users {
            assert!(r.snapshot.known_users.binary_search(&u).is_ok());
        }
    }

    #[test]
    fn cached_boundary_rounds_match_uncached_byte_for_byte() {
        // Two exchange rounds in the same day window: the second round's
        // merged log extends the first's, so the cached path replays
        // incrementally — and must publish exactly the uncached bytes.
        let s = stream();
        let route = |u: u32| (s.region_of(u) as usize) % 2;
        let mut cfg = cfg();
        cfg.delta_fraction_max = 1.0; // small boundary graphs: always eligible
        let shards: Vec<ServiceCore> = (0..2)
            .map(|_| ServiceCore::new(cfg.clone(), s.blacklist.clone()))
            .collect();
        let mut cache = BoundaryCache::new(cfg.pipeline.window_days);
        let mut seq = 0u64;
        let mut modes = Vec::new();
        for day in 0..4u32 {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            // Two half-day rounds per day: the second extends the first.
            for chunk in txs.chunks(txs.len().div_ceil(2)) {
                let mut routed: Vec<Vec<(u64, Transaction)>> = vec![Vec::new(); 2];
                for &t in chunk {
                    routed[route(t.buyer)].push((seq, t));
                    seq += 1;
                }
                for (i, shard) in shards.iter().enumerate() {
                    shard.apply_stamped(&routed[i], day + 1);
                }
                for shard in &shards {
                    shard.recluster_now();
                }
                let frames: Vec<ShardFrame> = (0..2).map(|i| shards[i].frame(i)).collect();
                let locals: Vec<Arc<VerdictSnapshot>> =
                    shards.iter().map(|s| s.snapshot()).collect();
                let cached = reconcile_with(
                    &frames,
                    &locals,
                    &cfg,
                    &s.blacklist,
                    day + 1,
                    0,
                    Some(&mut cache),
                );
                let plain = reconcile(&frames, &locals, &cfg, &s.blacklist, day + 1, 0);
                assert_eq!(
                    cached.snapshot.canonical_bytes(),
                    plain.snapshot.canonical_bytes(),
                    "cached boundary round diverged at day {day}"
                );
                modes.extend(cached.boundary.map(|(outcome, _)| outcome.mode));
            }
        }
        use crate::recluster::ReclusterMode;
        assert!(
            modes.contains(&ReclusterMode::Incremental),
            "same-day extension rounds should replay incrementally: {modes:?}"
        );
        assert!(
            modes.contains(&ReclusterMode::Full),
            "first/rebuilt rounds run full: {modes:?}"
        );
    }

    #[test]
    fn no_spanning_components_skips_the_boundary_run() {
        // Strictly regional traffic, one region per shard: nothing
        // spans, the exchange is a cheap merge.
        let s = RegionalStream::generate(&RegionalTxConfig {
            regions: 2,
            users_per_region: 200,
            items_per_region: 80,
            days: 6,
            tx_per_day: 400,
            cross_rings: 0,
            ring_size: 2,
            ring_tx_per_day: 0,
            blacklist_fraction: 0.25,
            ..Default::default()
        });
        let shards: Vec<ServiceCore> = (0..2)
            .map(|_| ServiceCore::new(cfg(), s.blacklist.clone()))
            .collect();
        let mut seq = 0u64;
        for day in 0..s.config.days {
            let mut routed: Vec<Vec<(u64, Transaction)>> = vec![Vec::new(); 2];
            for &t in s.window(day, day + 1) {
                routed[s.region_of(t.buyer) as usize].push((seq, t));
                seq += 1;
            }
            for (i, shard) in shards.iter().enumerate() {
                shard.apply_stamped(&routed[i], day + 1);
            }
        }
        for shard in &shards {
            shard.recluster_now();
        }
        let frames: Vec<ShardFrame> = (0..2).map(|i| shards[i].frame(i)).collect();
        let locals: Vec<Arc<VerdictSnapshot>> = shards.iter().map(|s| s.snapshot()).collect();
        let r = reconcile(&frames, &locals, &cfg(), &s.blacklist, s.config.days, 0);
        assert_eq!(r.report.spanning_components, 0);
        assert_eq!(r.report.boundary_txs, 0);
        assert!(r.boundary.is_none(), "no boundary LP when nothing spans");
        assert!(r.boundary_users.is_empty());
        // The merged snapshot still covers every user.
        let total: usize = locals.iter().map(|l| l.known_users.len()).sum();
        assert_eq!(r.snapshot.known_users.len(), total);
    }
}
