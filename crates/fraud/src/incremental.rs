//! Incremental sliding-window maintenance.
//!
//! The production pipeline (Figure 1) does not rebuild each window from
//! scratch: every day the newest day's transactions enter and the oldest
//! day's expire. **The live-transaction log, in arrival order, is the
//! window's only state** — O(transactions of the two boundary days) per
//! advance. Everything else here (the first-appearance id mappings, the
//! last materialized graph) is a cache derived from the log, and a window
//! rebuilt from its log alone ([`from_parts`], a checkpoint, a
//! [`partition_by`] shard) materializes bit-identically.
//!
//! Maintenance is two doors, the ones serving and the benchmark use:
//! [`apply_batch`] appends arbitrary micro-batches (the ingest path, which
//! has no stream to re-read — hence the log) and [`advance_to`] moves the
//! clock over days without transactions. (The offline Table 4 windows are
//! [`WindowWorkload::build`]'s.)
//!
//! ## Materialization
//!
//! [`materialize`] runs the one counting build of [`crate::window`] over
//! the log. [`materialize_delta`] — the serving recluster entry point —
//! produces the same graph, bit for bit, but when the window has only
//! *grown* since its previous call it **patches** the previous graph
//! instead of rebuilding it, in time linear in the CSR arrays (two
//! `memcpy`-class passes) plus O(batch log batch):
//!
//! * **Precondition.** A previous `materialize_delta` exists and nothing
//!   expired since. Expiry removes first appearances, which renumbers
//!   every later vertex; it drops the cached graph together with the id
//!   mappings, and the next call rebuilds from the log.
//! * **`phi`.** Vertex ids are first-appearance ranks, users before
//!   items. A grown window therefore keeps every old user's id, shifts
//!   every old item up by the number of new users, and gives new vertices
//!   the freed and appended positions: `phi(x) = x` for old users,
//!   `x + new_users` for old items. `phi` is strictly increasing, so a
//!   sorted row stays sorted under it.
//! * **Bipartite shift rule.** A user row holds only items, so the new
//!   row is the old row with every target shifted by `new_users`; an item
//!   row holds only users, so it is a plain copy. Rows the batch did not
//!   touch are copied in contiguous spans.
//! * **Touched rows** merge the old (shifted) row with the batch's sorted
//!   increments; an equal target means a repeated pair and sums to
//!   `w_old + k`. A weight is a number of transactions, an integer below 2²⁴, so
//!   the `f32` sum is exact and equals what counting the log gives.
//!
//! The graph is held in an [`Arc`] shared with the [`WindowWorkload`]
//! handed out, never copied. The transactions pushed since the previous
//! call are the log's tail, so the **delta** ([`WindowDelta`]: touched
//! vertices, whether anything expired, the previous materialization's
//! identity) needs one counter beside the log.
//!
//! [`apply_batch`]: IncrementalWindow::apply_batch
//! [`advance_to`]: IncrementalWindow::advance_to
//! [`from_parts`]: IncrementalWindow::from_parts
//! [`partition_by`]: IncrementalWindow::partition_by
//! [`materialize`]: IncrementalWindow::materialize
//! [`materialize_delta`]: IncrementalWindow::materialize_delta

use crate::transactions::Transaction;
use crate::window::{build_window, BuiltWindow, WindowWorkload};
use glp_graph::{Csr, EdgeId, Graph, VertexId};
use std::collections::VecDeque;
use std::sync::Arc;

/// What changed between two [`materialize_delta`] calls — everything an
/// incremental recluster needs to decide eligibility and seed its
/// frontier.
///
/// `prev_*` identify the window state of the *previous* materialization
/// (the one whose LP memo the caller holds); a memo stamped with
/// different values belongs to some other window and must not seed a
/// replay. `touched` is in the **new** graph's vertex id space. When
/// `expired` is false the new graph is the previous one patched: old
/// vertices kept their relative order (`phi` in the module docs) and
/// only `touched` rows differ.
///
/// [`materialize_delta`]: IncrementalWindow::materialize_delta
#[derive(Clone, Debug, Default)]
pub struct WindowDelta {
    /// Transactions in the window at the previous materialization.
    pub prev_transactions: u64,
    /// User-vertex count at the previous materialization.
    pub prev_users: usize,
    /// Total vertex count at the previous materialization.
    pub prev_vertices: usize,
    /// Transactions in the window now.
    pub transactions: u64,
    /// Whether the delta cannot seed an incremental recluster: no
    /// previous materialization exists, or expiry invalidated the vertex
    /// mapping since (aged-out edges are *removals*, which the
    /// grow-only frontier replay does not model).
    pub expired: bool,
    /// Vertices (new id space, sorted ascending) whose neighborhoods the
    /// delta changed — both endpoints of every transaction pushed since
    /// the previous materialization that is still in the window.
    pub touched: Vec<VertexId>,
}

/// Maintains one sliding window over a transaction stream.
#[derive(Clone, Debug)]
pub struct IncrementalWindow {
    /// Window length in days.
    days: u32,
    /// Exclusive end day of the current window.
    end: u32,
    /// Live transactions in arrival order (day-sorted by construction).
    log: VecDeque<Transaction>,
    /// How many transactions at the log's tail were pushed since the last
    /// `materialize_delta`.
    fresh: usize,
    /// The previous `materialize_delta`'s graph and the id mappings it was
    /// built under (kept current by `push`), while the log has only grown
    /// since — what a clean delta is patched from. Expiry drops it (a
    /// vanished user renumbers everyone after it).
    cached: Option<BuiltWindow>,
    /// Whether any transaction expired since the last `materialize_delta`.
    delta_expired: bool,
    /// (transactions, users, vertices) stamped at the last
    /// `materialize_delta` — the identity the next delta's `prev_*` carry.
    baseline: Option<(u64, usize, usize)>,
}

impl IncrementalWindow {
    /// An empty window of `days` days ending (exclusively) at day 0 —
    /// the serving path's starting state before any batch arrives.
    pub fn empty(days: u32) -> Self {
        assert!(days >= 1, "window needs at least one day");
        Self::bare(days, 0)
    }

    /// A window with no transactions and no delta history.
    fn bare(days: u32, end: u32) -> Self {
        Self {
            days,
            end,
            log: VecDeque::new(),
            fresh: 0,
            cached: None,
            delta_expired: false,
            baseline: None,
        }
    }

    /// Window length in days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Exclusive end day.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Distinct (buyer, item) pairs currently in the window, counted from
    /// the log on demand — O(transactions log transactions). Equals half
    /// the materialized graph's directed edge count.
    pub fn num_pairs(&self) -> usize {
        let mut pairs: Vec<(u32, u32)> = self.log.iter().map(|t| (t.buyer, t.item)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    /// Live transactions currently in the window.
    pub fn num_transactions(&self) -> usize {
        self.log.len()
    }

    /// The live-transaction log in arrival order — the window's complete
    /// recoverable state (see [`crate::checkpoint`]).
    pub fn transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.log.iter()
    }

    /// Reconstructs a window from its serialized parts: length, exclusive
    /// end day, and the live log in arrival order. The log is the whole
    /// state, so a reconstructed window is byte-equivalent to the one
    /// that was captured (same log ⇒ same materialization).
    ///
    /// Returns `Err` with a static reason if the parts violate the
    /// window invariants (unordered log, transactions outside
    /// `[end - days, end)`) — a checkpoint that decodes but describes an
    /// impossible window must be rejected, not loaded.
    pub fn from_parts(days: u32, end: u32, log: Vec<Transaction>) -> Result<Self, &'static str> {
        if days == 0 {
            return Err("window needs at least one day");
        }
        let start = end.saturating_sub(days);
        let mut prev_day = start;
        for t in &log {
            if t.day < prev_day {
                return Err("log not in arrival (day) order");
            }
            if t.day >= end {
                return Err("transaction beyond the window end");
            }
            prev_day = t.day;
        }
        let mut w = Self::bare(days, end);
        for t in log {
            w.push(t);
        }
        Ok(w)
    }

    fn push(&mut self, t: Transaction) {
        if let Some(m) = &mut self.cached {
            let next = m.user_vertex.len() as VertexId;
            m.user_vertex.entry(t.buyer).or_insert(next);
            let next_item = m.item_slot.len() as u32;
            m.item_slot.entry(t.item).or_insert(next_item);
        }
        self.fresh += 1;
        self.log.push_back(t);
    }

    /// Drops transactions that have slid out of `[end - days, end)`.
    fn expire(&mut self) {
        let start = self.end.saturating_sub(self.days);
        let before = self.log.len();
        while self.log.front().is_some_and(|t| t.day < start) {
            self.log.pop_front();
        }
        if self.log.len() < before {
            // A vanished first appearance renumbers every later vertex;
            // the cached graph and mappings are dead. The next
            // materialization rebuilds from the log.
            self.cached = None;
            self.delta_expired = true;
            self.fresh = self.fresh.min(self.log.len());
        }
    }

    /// Appends a micro-batch of transactions — the serving ingest entry
    /// point, callable at any batch granularity. Transactions must be for
    /// the window's current last day or later (day-ordered arrival, as a
    /// live stream delivers); the window end slides to cover the newest
    /// day and days older than the window expire.
    pub fn apply_batch(&mut self, batch: &[Transaction]) {
        for t in batch {
            assert!(
                t.day + 1 >= self.end,
                "batch transaction for closed day {} (window end {})",
                t.day,
                self.end
            );
            self.end = self.end.max(t.day + 1);
            self.push(*t);
        }
        self.expire();
    }

    /// Advances the window clock to `end` (exclusive) without adding
    /// transactions — the batch-path analogue of advancing over an empty
    /// day. No-op unless `end` is ahead of the current end.
    pub fn advance_to(&mut self, end: u32) {
        if end > self.end {
            self.end = end;
            self.expire();
        }
    }

    /// Splits the window into `shards` sub-windows by routing each
    /// transaction through `route` on its buyer — the fleet-migration
    /// path, which carves a single-core window into per-shard windows
    /// without re-reading any stream. Each sub-window shares this
    /// window's length and end day, and its log is the order-preserving
    /// subsequence of this window's log routed to it, so every
    /// sub-window satisfies the day-order invariant by construction.
    pub fn partition_by(
        &self,
        shards: usize,
        route: impl Fn(u32) -> usize,
    ) -> Vec<IncrementalWindow> {
        assert!(shards >= 1, "need at least one shard");
        let mut parts: Vec<IncrementalWindow> = (0..shards)
            .map(|_| Self::bare(self.days, self.end))
            .collect();
        for t in &self.log {
            let shard = route(t.buyer);
            assert!(shard < shards, "route returned shard {shard} of {shards}");
            parts[shard].push(*t);
        }
        parts
    }

    /// Materializes the current window as a [`WindowWorkload`] by
    /// running the counting build over the live-transaction log —
    /// bit-identical to a from-scratch build of the same window, and
    /// independent of any stream (the serving path's requirement).
    pub fn materialize(&self) -> WindowWorkload {
        WindowWorkload::from_transactions(self.days, self.log.iter())
    }

    /// Materializes the window *and* reports the delta accumulated since
    /// the previous `materialize_delta` call — the serving recluster
    /// entry point.
    ///
    /// The workload is bit-identical to [`Self::materialize`]'s (pinned
    /// by the tests). When a previous call exists and nothing expired
    /// since, the graph is the previous one patched with the
    /// transactions pushed in between (see the module docs for why that
    /// is exact) — or the very same `Arc` when nothing was pushed;
    /// otherwise it is rebuilt from the log. The returned
    /// [`WindowDelta`] carries the touched-vertex frontier and the
    /// previous materialization's identity stamp; `expired` is set when
    /// no previous materialization exists or expiry invalidated the
    /// mapping in between (the caller must then recluster from scratch).
    /// Calling this resets the delta: the *next* call reports changes
    /// relative to this one.
    pub fn materialize_delta(&mut self) -> (WindowWorkload, WindowDelta) {
        let (mut m, patchable) = match self.cached.take() {
            Some(m) => (m, true),
            None => (build_window(self.log.iter()), false),
        };
        let num_users = m.user_vertex.len();
        let n = num_users + m.item_slot.len();
        // Both endpoints of every fresh transaction, in the new id space
        // (each is in the log, hence in the mappings).
        let fresh = self.log.range(self.log.len() - self.fresh..);
        let edges: Vec<(VertexId, VertexId)> = fresh
            .map(|t| {
                let item = num_users as VertexId + m.item_slot[&t.item];
                (m.user_vertex[&t.buyer], item)
            })
            .collect();
        if patchable && !edges.is_empty() {
            let mut added: Vec<(VertexId, VertexId)> =
                edges.iter().flat_map(|&(u, i)| [(u, i), (i, u)]).collect();
            added.sort_unstable();
            let (_, prev_users, _) = self.baseline.expect("cached implies a baseline");
            let patched = patch_csr(m.graph.incoming(), prev_users, num_users, n, &added);
            m.graph = Arc::new(Graph::undirected(patched));
        }
        let mut touched: Vec<VertexId> = edges.iter().flat_map(|&(u, i)| [u, i]).collect();
        touched.sort_unstable();
        touched.dedup();
        let workload = WindowWorkload {
            days: self.days,
            graph: Arc::clone(&m.graph),
            user_vertex: m.user_vertex.clone(),
            num_user_vertices: num_users,
            num_transactions: self.log.len() as u64,
        };
        let (prev_transactions, prev_users, prev_vertices) = self.baseline.unwrap_or((0, 0, 0));
        let delta = WindowDelta {
            prev_transactions,
            prev_users,
            prev_vertices,
            transactions: self.log.len() as u64,
            expired: self.delta_expired || self.baseline.is_none(),
            touched,
        };
        self.baseline = Some((self.log.len() as u64, num_users, n));
        self.cached = Some(m);
        self.fresh = 0;
        self.delta_expired = false;
        (workload, delta)
    }
}

/// Patches `old` — the incoming CSR of a window with `prev_users` user
/// vertices — into the CSR of the same window grown to `num_users` users
/// and `n` vertices, where `added` lists both directions `(row, target)`
/// of every new transaction in the **new** id space, sorted. One linear
/// merge: spans of untouched rows are copied (user rows with their item
/// targets shifted by the number of new users), touched rows merge their
/// sorted increments in, summing the weight of a repeated pair.
fn patch_csr(
    old: &Csr,
    prev_users: usize,
    num_users: usize,
    n: usize,
    added: &[(VertexId, VertexId)],
) -> Csr {
    let shift = (num_users - prev_users) as VertexId;
    let old_n = old.num_vertices();
    let (old_off, old_tg) = (old.offsets(), old.targets());
    // An empty window's graph has no weight array (and no edges).
    let old_w = old.weights().unwrap_or(&[]);
    // phi⁻¹: the old row behind new row `v`, `None` for a new vertex.
    let old_row = |v: usize| {
        if v < prev_users {
            Some(v)
        } else if v < num_users {
            None
        } else {
            Some(v - shift as usize).filter(|&o| o < old_n)
        }
    };
    let mut offsets: Vec<EdgeId> = Vec::with_capacity(n + 1);
    let mut targets: Vec<VertexId> = Vec::with_capacity(old_tg.len() + added.len());
    let mut weights: Vec<f32> = Vec::with_capacity(old_tg.len() + added.len());
    offsets.push(0);

    // Copies the untouched new rows `lo..hi`, all of them old rows. With
    // new users present a span never straddles the user/item boundary
    // (the new users' rows, all touched, sit on it).
    let copy_span = |lo: usize,
                     hi: usize,
                     offsets: &mut Vec<EdgeId>,
                     targets: &mut Vec<VertexId>,
                     weights: &mut Vec<f32>| {
        if lo == hi {
            return;
        }
        let first = old_row(lo).expect("an untouched row is an old row");
        let last = first + (hi - lo);
        let (e_lo, e_hi) = (old_off[first] as usize, old_off[last] as usize);
        let base = targets.len() as EdgeId;
        if shift > 0 && hi <= prev_users {
            targets.extend(old_tg[e_lo..e_hi].iter().map(|&t| t + shift));
        } else {
            targets.extend_from_slice(&old_tg[e_lo..e_hi]);
        }
        weights.extend_from_slice(&old_w[e_lo..e_hi]);
        offsets.extend(
            old_off[first + 1..=last]
                .iter()
                .map(|&o| o - e_lo as EdgeId + base),
        );
    };

    let mut next_row = 0usize;
    let mut k = 0usize;
    while k < added.len() {
        let row = added[k].0 as usize;
        copy_span(next_row, row, &mut offsets, &mut targets, &mut weights);
        // Merge the old row (targets shifted if it is a user's) with the
        // row's increments; a run of equal increments is one pair
        // repeated within the batch.
        let (mut e, e_hi, add) = match old_row(row) {
            Some(o) => (
                old_off[o] as usize,
                old_off[o + 1] as usize,
                if row < prev_users { shift } else { 0 },
            ),
            None => (0, 0, 0),
        };
        while k < added.len() && added[k].0 as usize == row {
            let t = added[k].1;
            let mut count = 0f32;
            while k < added.len() && added[k] == (row as VertexId, t) {
                count += 1.0;
                k += 1;
            }
            while e < e_hi && old_tg[e] + add < t {
                targets.push(old_tg[e] + add);
                weights.push(old_w[e]);
                e += 1;
            }
            if e < e_hi && old_tg[e] + add == t {
                count += old_w[e];
                e += 1;
            }
            targets.push(t);
            weights.push(count);
        }
        targets.extend(old_tg[e..e_hi].iter().map(|&t| t + add));
        weights.extend_from_slice(&old_w[e..e_hi]);
        offsets.push(targets.len() as EdgeId);
        next_row = row + 1;
    }
    copy_span(next_row, n, &mut offsets, &mut targets, &mut weights);
    Csr::from_parts(offsets, targets, Some(weights))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transactions::{TxConfig, TxStream};
    use glp_graph::{GraphBuilder, IdMap};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A window of `days` days ending at `end`, filled through the serving
    /// doors: its transactions as one batch, then the clock to `end`.
    pub(crate) fn window(s: &TxStream, days: u32, end: u32) -> IncrementalWindow {
        let log: Vec<Transaction> = s.window(end.saturating_sub(days), end).copied().collect();
        let mut w = IncrementalWindow::empty(days);
        w.apply_batch(&log);
        w.advance_to(end);
        w
    }

    /// Slides `w` one day along `s`: the entering day as one batch, then
    /// the clock (the day may be empty).
    fn advance(w: &mut IncrementalWindow, s: &TxStream) {
        let end = w.end() + 1;
        w.apply_batch(&s.window(end - 1, end).copied().collect::<Vec<_>>());
        w.advance_to(end);
    }

    fn stream() -> TxStream {
        TxStream::generate(&TxConfig {
            num_users: 1_500,
            num_items: 600,
            days: 30,
            tx_per_day: 900,
            num_rings: 3,
            ring_size: 10,
            ring_tx_per_day: 25,
            ..Default::default()
        })
    }

    fn graphs_equal(a: &Graph, b: &Graph) -> bool {
        a.incoming().offsets() == b.incoming().offsets()
            && a.incoming().targets() == b.incoming().targets()
            && a.incoming().weights() == b.incoming().weights()
    }

    /// The construction the counting build replaced, kept as the
    /// reference it is checked against: one `GraphBuilder` edge per
    /// transaction under first-appearance ids, symmetrized, duplicates
    /// summed. Returns the graph and the user / item-vertex mappings.
    fn reference_build<'a>(
        txs: impl IntoIterator<Item = &'a Transaction>,
    ) -> (Graph, IdMap<u32, VertexId>, HashMap<u32, VertexId>) {
        let mut user_vertex: IdMap<u32, VertexId> = IdMap::default();
        let mut item_slot: HashMap<u32, u32> = HashMap::new();
        let mut pairs: Vec<(VertexId, u32)> = Vec::new();
        for t in txs {
            let next = user_vertex.len() as VertexId;
            let u = *user_vertex.entry(t.buyer).or_insert(next);
            let next_item = item_slot.len() as u32;
            let i = *item_slot.entry(t.item).or_insert(next_item);
            pairs.push((u, i));
        }
        let num_users = user_vertex.len() as VertexId;
        let mut b = GraphBuilder::with_capacity(num_users as usize + item_slot.len(), pairs.len());
        for (u, i) in pairs {
            b.add_weighted_edge(u, num_users + i, 1.0);
        }
        b.symmetrize(true).dedup(true);
        let item_vertex = item_slot
            .into_iter()
            .map(|(item, slot)| (item, num_users + slot))
            .collect();
        (b.build(), user_vertex, item_vertex)
    }

    /// Materializes the delta and checks it three ways: against the
    /// counting build over the same log, against the reference builder,
    /// and against the transactions `pushed` since the previous call.
    fn check_delta(
        window: &mut IncrementalWindow,
        pushed: &[Transaction],
        what: &str,
    ) -> (WindowWorkload, WindowDelta) {
        let counted = window.materialize();
        let (reference, ref_users, ref_items) = reference_build(window.transactions());
        let (w, delta) = window.materialize_delta();
        for (other, name) in [(&*counted.graph, "counting build"), (&reference, "builder")] {
            assert_eq!(
                w.graph.incoming().offsets(),
                other.incoming().offsets(),
                "{what}: offsets vs {name}"
            );
            assert_eq!(
                w.graph.incoming().targets(),
                other.incoming().targets(),
                "{what}: targets vs {name}"
            );
            assert_eq!(
                w.graph.incoming().weights(),
                other.incoming().weights(),
                "{what}: weights vs {name}"
            );
        }
        assert_eq!(w.user_vertex, counted.user_vertex, "{what}");
        assert_eq!(w.user_vertex, ref_users, "{what}");
        assert_eq!(w.num_user_vertices, ref_users.len(), "{what}");
        assert_eq!(w.num_transactions, window.num_transactions() as u64);
        assert_eq!(
            window.num_pairs() as u64,
            w.graph.num_edges() / 2,
            "{what}: pairs"
        );
        assert_eq!(delta.transactions, w.num_transactions);
        assert!(delta.touched.windows(2).all(|p| p[0] < p[1]), "{what}");
        assert!(delta
            .touched
            .iter()
            .all(|&v| (v as usize) < w.graph.num_vertices()));
        let live_from = window.end().saturating_sub(window.days());
        for t in pushed.iter().filter(|t| t.day >= live_from) {
            for v in [ref_users[&t.buyer], ref_items[&t.item]] {
                assert!(
                    delta.touched.binary_search(&v).is_ok(),
                    "{what}: endpoint {v} of a pushed transaction not touched"
                );
            }
        }
        (w, delta)
    }

    #[test]
    fn initial_build_matches_from_scratch() {
        let s = stream();
        let inc = window(&s, 10, s.config.days);
        let scratch = WindowWorkload::build(&s, 10);
        assert!(graphs_equal(&inc.materialize().graph, &scratch.graph));
    }

    #[test]
    fn advancing_matches_rebuilds_every_day() {
        let s = stream();
        // Start with the window ending at day 12 and slide to the end.
        let mut inc = window(&s, 7, 12);
        for end in 13..=s.config.days {
            advance(&mut inc, &s);
            assert_eq!(inc.end(), end);
            // From-scratch reference for the same [end-7, end) window:
            let reference = window(&s, 7, end);
            assert_eq!(inc.num_pairs(), reference.num_pairs());
            assert!(
                graphs_equal(&inc.materialize().graph, &reference.materialize().graph),
                "divergence at end day {end}"
            );
        }
    }

    #[test]
    fn batch_apply_equals_advance_equals_scratch() {
        let s = stream();
        let days = 7;
        let mut by_day = window(&s, days, 12);
        let mut by_batch = by_day.clone();
        for end in 13..=s.config.days {
            advance(&mut by_day, &s);
            // Feed the entering day as two partial micro-batches:
            // batch boundaries need not align with day boundaries.
            let txs: Vec<Transaction> = s.window(end - 1, end).copied().collect();
            let (first, second) = txs.split_at(txs.len() / 2);
            by_batch.apply_batch(first);
            by_batch.apply_batch(second);
            by_batch.advance_to(end); // covers an empty entering day
            assert_eq!(by_batch.end(), end);
            assert_eq!(by_batch.num_pairs(), by_day.num_pairs());
            assert_eq!(by_batch.num_transactions(), by_day.num_transactions());
            let scratch = window(&s, days, end);
            assert!(
                graphs_equal(&by_batch.materialize().graph, &by_day.materialize().graph),
                "batch vs advance diverged at end day {end}"
            );
            assert!(
                graphs_equal(&by_batch.materialize().graph, &scratch.materialize().graph),
                "batch vs scratch diverged at end day {end}"
            );
        }
        // At the stream's final day the window also equals the offline
        // from-scratch workload build.
        let offline = WindowWorkload::build(&s, days);
        assert!(graphs_equal(&by_batch.materialize().graph, &offline.graph));
    }

    #[test]
    #[should_panic(expected = "closed day")]
    fn batch_for_closed_day_rejected() {
        let s = stream();
        let mut inc = window(&s, 7, 12);
        let stale: Vec<Transaction> = s.window(9, 10).copied().collect();
        assert!(!stale.is_empty());
        inc.apply_batch(&stale);
    }

    #[test]
    fn expiry_removes_old_days_completely() {
        let s = stream();
        let mut inc = window(&s, 1, 1); // exactly day 0
        let day0_pairs = inc.num_pairs();
        assert!(day0_pairs > 0);
        advance(&mut inc, &s); // now exactly day 1
        let reference = window(&s, 1, 2);
        assert_eq!(inc.num_pairs(), reference.num_pairs());
    }

    #[test]
    fn partition_by_preserves_and_covers_the_log() {
        let s = stream();
        let inc = window(&s, 7, s.config.days);

        // One shard: identity.
        let whole = inc.partition_by(1, |_| 0);
        assert_eq!(whole.len(), 1);
        assert!(graphs_equal(
            &whole[0].materialize().graph,
            &inc.materialize().graph
        ));
        assert_eq!(whole[0].end(), inc.end());

        // Three shards: disjoint cover, each a valid window.
        let parts = inc.partition_by(3, |buyer| buyer as usize % 3);
        let total: usize = parts.iter().map(|p| p.num_transactions()).sum();
        assert_eq!(total, inc.num_transactions());
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.end(), inc.end());
            assert_eq!(p.days(), inc.days());
            assert!(p.num_transactions() > 0, "shard {i} unexpectedly empty");
            assert!(p.transactions().all(|t| t.buyer as usize % 3 == i));
            p.materialize(); // must not violate window invariants
        }

        // Reuniting the sub-logs in arrival order rebuilds the original
        // window bit for bit (stable partition = order-preserving).
        let mut merged: Vec<Transaction> = Vec::new();
        let mut iters: Vec<_> = parts.iter().map(|p| p.transactions().peekable()).collect();
        for t in inc.transactions() {
            let shard = t.buyer as usize % 3;
            merged.push(*iters[shard].next().expect("sub-log exhausted early"));
            assert_eq!(merged.last().map(|m| m.buyer), Some(t.buyer));
        }
        let rebuilt = IncrementalWindow::from_parts(7, inc.end(), merged).expect("valid merge");
        assert!(graphs_equal(
            &rebuilt.materialize().graph,
            &inc.materialize().graph
        ));
    }

    #[test]
    fn delta_materialization_matches_replay_build_batch_by_batch() {
        let s = stream();
        let mut inc = IncrementalWindow::empty(7);
        for day in 0..20u32 {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            for chunk in txs.chunks(txs.len().div_ceil(3).max(1)) {
                inc.apply_batch(chunk);
                let reference = inc.materialize();
                let (w, delta) = inc.materialize_delta();
                assert!(
                    graphs_equal(&w.graph, &reference.graph),
                    "fast build diverged at day {day}"
                );
                assert_eq!(w.user_vertex, reference.user_vertex);
                assert_eq!(w.num_user_vertices, reference.num_user_vertices);
                assert_eq!(w.num_transactions, reference.num_transactions);
                assert_eq!(delta.transactions, inc.num_transactions() as u64);
                // The frontier covers both endpoints of every batch tx
                // and stays inside the new graph.
                assert!(delta.touched.windows(2).all(|p| p[0] < p[1]));
                assert!(delta
                    .touched
                    .iter()
                    .all(|&v| (v as usize) < w.graph.num_vertices()));
                for t in chunk {
                    let u = w.user_vertex[&t.buyer];
                    assert!(delta.touched.binary_search(&u).is_ok());
                }
            }
            inc.advance_to(day + 1);
        }
    }

    fn tx(buyer: u32, item: u32, day: u32) -> Transaction {
        Transaction {
            buyer,
            item,
            day,
            amount: 1.0,
        }
    }

    #[test]
    fn patched_delta_matches_both_builds_case_by_case() {
        let mut w = IncrementalWindow::empty(2);
        // The empty window materializes (and caches) an edgeless graph
        // with no weight array; the first batch is patched onto it.
        let (empty, d) = check_delta(&mut w, &[], "empty window");
        assert!(d.expired && empty.graph.num_vertices() == 0);
        assert!(empty.graph.incoming().weights().is_none());
        let apply = |w: &mut IncrementalWindow, batch: &[Transaction], what: &str| {
            let before = w.baseline.expect("materialized before");
            w.apply_batch(batch);
            let (g, d) = check_delta(w, batch, what);
            // Growth is only defined for a patch: a rebuild after expiry
            // may shrink the window.
            let (new_users, new_items) = if d.expired {
                (0, 0)
            } else {
                let new_users = g.num_user_vertices - before.1;
                (new_users, g.graph.num_vertices() - before.2 - new_users)
            };
            (d, new_users, new_items)
        };
        let first = [tx(5, 1, 0), tx(3, 1, 0), tx(5, 2, 0), tx(5, 1, 0)];
        let (d, users, items) = apply(&mut w, &first, "first batch onto the empty graph");
        assert!(!d.expired && (users, items) == (2, 2));
        // Every combination of growth; old items shift only under new users.
        let (d, users, items) = apply(&mut w, &[tx(9, 1, 0), tx(7, 2, 0)], "new users only");
        assert!(!d.expired && (users, items) == (2, 0));
        let (d, users, items) = apply(&mut w, &[tx(3, 8, 0), tx(9, 4, 0)], "new items only");
        assert!(!d.expired && (users, items) == (0, 2));
        let (d, users, items) = apply(&mut w, &[tx(1, 6, 0), tx(5, 8, 0)], "new users and items");
        assert!(!d.expired && (users, items) == (1, 1));
        let repeats = [tx(5, 1, 0), tx(5, 1, 0), tx(9, 4, 0)];
        let (d, users, items) = apply(&mut w, &repeats, "repeat pairs only");
        assert!(!d.expired && (users, items) == (0, 0));
        let edges = w.materialize().graph.num_edges();
        let (d, _, _) = apply(&mut w, &[], "quiet delta");
        assert!(!d.expired && d.touched.is_empty());
        assert_eq!(w.materialize().graph.num_edges(), edges);

        // A clone taken between two materializations shares the cached
        // graph and is then driven separately.
        let mut fork = w.clone();
        apply(&mut w, &[tx(2, 2, 1), tx(5, 9, 1)], "original after clone");
        apply(
            &mut fork,
            &[tx(9, 9, 1), tx(4, 1, 1)],
            "clone driven separately",
        );
        apply(&mut fork, &[tx(2, 2, 1)], "clone, second patch");

        // A day advance ages day 0 out: rebuilt, not patched; the next
        // same-day batch patches the rebuilt graph.
        let (d, _, _) = apply(&mut w, &[tx(6, 3, 2)], "day advance that expires");
        assert!(d.expired);
        assert!(w.transactions().all(|t| t.day >= 1));
        let (d, _, _) = apply(
            &mut w,
            &[tx(6, 3, 2), tx(8, 1, 2)],
            "patch after the rebuild",
        );
        assert!(!d.expired);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// patch ≡ counting build ≡ reference builder over random batch
        /// schedules on an id space small enough that new users, new
        /// items, both and neither (repeat pairs, empty batches) all
        /// occur, interleaved with day advances that expire, clones
        /// driven separately and `partition_by` / `from_parts` round
        /// trips.
        #[test]
        fn patch_equals_counting_build_equals_reference_builder(
            materialize_empty in any::<bool>(),
            steps in prop::collection::vec(
                (0u8..10, prop::collection::vec((0u32..12, 0u32..7), 0..6)),
                1..14,
            ),
        ) {
            let days = 2;
            let mut window = IncrementalWindow::empty(days);
            if materialize_empty {
                check_delta(&mut window, &[], "empty window");
            }
            let mut day = 0u32;
            for (step, (op, pairs)) in steps.iter().enumerate() {
                if *op == 7 {
                    day += 1; // the batch opens a new day: day - 2 expires
                }
                let batch: Vec<Transaction> =
                    pairs.iter().map(|&(b, i)| tx(b, i, day)).collect();
                let what = format!("step {step} op {op}");
                match op {
                    8 => {
                        let mut fork = window.clone();
                        let other: Vec<Transaction> =
                            pairs.iter().map(|&(b, i)| tx(11 - b, 6 - i, day)).collect();
                        fork.apply_batch(&other);
                        check_delta(&mut fork, &other, &format!("{what} (clone)"));
                        fork.apply_batch(&batch);
                        check_delta(&mut fork, &batch, &format!("{what} (clone, again)"));
                    }
                    9 => {
                        let mut parts = window.partition_by(2, |buyer| buyer as usize % 2);
                        for part in &mut parts {
                            part.apply_batch(&[]);
                            check_delta(part, &[], &format!("{what} (shard)"));
                        }
                        let log: Vec<Transaction> = window.transactions().copied().collect();
                        window = IncrementalWindow::from_parts(days, window.end(), log)
                            .expect("a live window's parts are valid");
                    }
                    _ => {}
                }
                window.apply_batch(&batch);
                check_delta(&mut window, &batch, &what);
            }
        }
    }

    #[test]
    fn delta_tracks_baseline_and_flags_expiry() {
        let s = stream();
        let mut inc = IncrementalWindow::empty(3);
        let day0: Vec<Transaction> = s.window(0, 1).copied().collect();
        inc.apply_batch(&day0);

        // First materialization: no baseline yet, so not incremental.
        let (w0, d0) = inc.materialize_delta();
        assert!(d0.expired);
        assert_eq!(d0.prev_transactions, 0);

        // Same-day growth: clean delta against the recorded baseline.
        let day1: Vec<Transaction> = s.window(1, 2).copied().collect();
        inc.apply_batch(&day1);
        let (w1, d1) = inc.materialize_delta();
        assert!(!d1.expired);
        assert_eq!(d1.prev_transactions, w0.num_transactions);
        assert_eq!(d1.prev_users, w0.num_user_vertices);
        assert_eq!(d1.prev_vertices, w0.graph.num_vertices());
        assert_eq!(d1.transactions, w1.num_transactions);
        assert!(!d1.touched.is_empty());
        // Old user ids survive a clean (expiry-free) delta verbatim.
        for (u, &v) in &w0.user_vertex {
            assert_eq!(w1.user_vertex[u], v);
        }

        // Quiet delta: nothing pushed, nothing touched, still valid.
        let (_, dq) = inc.materialize_delta();
        assert!(!dq.expired);
        assert!(dq.touched.is_empty());

        // Slide past the window length: expiry poisons the delta once,
        // then the next one is clean again.
        for day in 2..5u32 {
            let txs: Vec<Transaction> = s.window(day, day + 1).copied().collect();
            inc.apply_batch(&txs);
        }
        assert!(inc.num_transactions() < day0.len() + day1.len() + 3 * day0.len());
        let (_, dx) = inc.materialize_delta();
        assert!(dx.expired, "expiry must invalidate the delta");

        // A day advance over a short window expires again, but a second
        // batch for the *same* day rides on the rebuilt mapping cleanly.
        let day5: Vec<Transaction> = s.window(5, 6).copied().collect();
        let (first, second) = day5.split_at(day5.len() / 2);
        assert!(!second.is_empty());
        inc.apply_batch(first);
        let (_, da) = inc.materialize_delta();
        assert!(da.expired, "the day advance aged day 2 out");
        inc.apply_batch(second);
        let (_, d5) = inc.materialize_delta();
        assert!(!d5.expired);
        assert!(!d5.touched.is_empty());
    }

    #[test]
    fn seeds_survive_materialization() {
        let s = stream();
        let inc = window(&s, 20, s.config.days);
        let w = inc.materialize();
        assert_eq!(w.seeds(&s).len(), s.blacklist.len());
    }
}
