//! Sliding-window transaction graphs (Table 4).
//!
//! The pipeline "maintains sliding windows containing the transactions in
//! the past 10–100 days" and builds a graph per window (§5.4). Vertices
//! are users and items (users first, then items, like the aligraph
//! substitute); repeated purchases between the same pair merge into one
//! weighted edge. Because users and items recur across days, |V| grows
//! sublinearly with window length while |E| grows near-linearly — exactly
//! Table 4's shape (V: 460M→1010M, ×2.2; E: 1.7B→10.2B, ×6).
//!
//! [`build_window`] is the only code that turns transactions into a CSR:
//! a counting build (degree count → prefix sum → scatter → per-row sort →
//! adjacent duplicates merged into weights, compacted in place), so
//! construction costs O(transactions) plus the row sorts and never holds
//! more than the two endpoint arrays beside the result.

use crate::transactions::{Transaction, TxStream};
use glp_graph::{Csr, EdgeId, Graph, IdMap, VertexId};
use std::sync::Arc;

/// One sliding-window workload: the graph plus id mappings.
#[derive(Clone, Debug)]
pub struct WindowWorkload {
    /// Window length in days.
    pub days: u32,
    /// The symmetrized, weighted user–item graph. Shared, not copied, with
    /// the [`IncrementalWindow`](crate::IncrementalWindow) that
    /// materialized it (which patches it into the next window's graph).
    pub graph: Arc<Graph>,
    /// Graph vertex id of each participating user: `user_vertex[u]`.
    pub user_vertex: IdMap<u32, VertexId>,
    /// Number of user vertices (items follow them in the id space).
    pub num_user_vertices: usize,
    /// Transactions the window was built from — an identity stamp that
    /// lets incremental reclustering verify a memoized LP state belongs
    /// to the window a delta extends.
    pub num_transactions: u64,
}

/// A window's graph and both first-appearance id mappings it was built
/// under (an item's vertex id is `user_vertex.len() + item_slot[item]`) —
/// what [`build_window`] produces and what an
/// [`IncrementalWindow`](crate::IncrementalWindow) keeps between
/// materializations.
#[derive(Clone, Debug)]
pub(crate) struct BuiltWindow {
    pub(crate) graph: Arc<Graph>,
    pub(crate) user_vertex: IdMap<u32, VertexId>,
    pub(crate) item_slot: IdMap<u32, u32>,
}

/// Builds a window's graph from a single in-order pass over its
/// transactions. Dense vertex ids are assigned in first-appearance order
/// (users, then items), so any source replaying the same transaction
/// sequence produces a bit-identical graph; weights are transaction
/// counts, exact in `f32` below 2²⁴ per pair. An empty window has no
/// weight array (as an edgeless `GraphBuilder` graph has none).
pub(crate) fn build_window<'a, I>(txs: I) -> BuiltWindow
where
    I: IntoIterator<Item = &'a Transaction>,
{
    let mut user_vertex: IdMap<u32, VertexId> = IdMap::default();
    let mut item_slot: IdMap<u32, u32> = IdMap::default();
    let mut pairs: Vec<(VertexId, u32)> = Vec::new();
    for t in txs {
        let next = user_vertex.len() as VertexId;
        let u = *user_vertex.entry(t.buyer).or_insert(next);
        let next_item = item_slot.len() as u32;
        let i = *item_slot.entry(t.item).or_insert(next_item);
        pairs.push((u, i));
    }
    let num_users = user_vertex.len() as VertexId;
    let n = num_users as usize + item_slot.len();

    // Degree count → prefix sum: every transaction is one slot in its
    // buyer's row and one in its item's.
    let mut offsets = vec![0 as EdgeId; n + 1];
    for &(u, i) in &pairs {
        offsets[u as usize + 1] += 1;
        offsets[(num_users + i) as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    // Scatter both directions.
    let mut cursor = offsets.clone();
    let mut targets = vec![0 as VertexId; 2 * pairs.len()];
    for &(u, i) in &pairs {
        let iv = num_users + i;
        targets[cursor[u as usize] as usize] = iv;
        cursor[u as usize] += 1;
        targets[cursor[iv as usize] as usize] = u;
        cursor[iv as usize] += 1;
    }
    let empty = pairs.is_empty();
    drop((pairs, cursor));

    // Sort each row, then fold adjacent duplicates into a weight,
    // compacting rows to the front of the array as they shrink.
    let mut weights: Vec<f32> = Vec::with_capacity(targets.len());
    let mut write = 0usize;
    for v in 0..n {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        targets[lo..hi].sort_unstable();
        offsets[v] = write as EdgeId;
        for read in lo..hi {
            let t = targets[read];
            if write > offsets[v] as usize && targets[write - 1] == t {
                weights[write - 1] += 1.0;
            } else {
                targets[write] = t;
                weights.push(1.0);
                write += 1;
            }
        }
    }
    offsets[n] = write as EdgeId;
    targets.truncate(write);
    targets.shrink_to_fit();
    weights.shrink_to_fit();
    let weights = (!empty).then_some(weights);
    BuiltWindow {
        graph: Arc::new(Graph::undirected(Csr::from_parts(
            offsets, targets, weights,
        ))),
        user_vertex,
        item_slot,
    }
}

impl WindowWorkload {
    /// Builds the graph over the last `days` days of `stream` (the window
    /// ending at the stream's final day).
    pub fn build(stream: &TxStream, days: u32) -> Self {
        let end = stream.config.days;
        let start = end.saturating_sub(days);
        Self::from_transactions(days, stream.window(start, end))
    }

    /// Builds from a single in-order pass over a window's transactions —
    /// the construction path shared by [`Self::build`], incremental
    /// materialization, and the serving ingest path. Dense vertex ids are
    /// assigned in first-appearance order, so any source replaying the
    /// same transaction sequence produces a bit-identical graph.
    pub fn from_transactions<'a, I>(days: u32, txs: I) -> Self
    where
        I: IntoIterator<Item = &'a Transaction>,
    {
        let mut num_transactions = 0u64;
        let built = build_window(txs.into_iter().inspect(|_| num_transactions += 1));
        Self {
            days,
            num_user_vertices: built.user_vertex.len(),
            graph: built.graph,
            user_vertex: built.user_vertex,
            num_transactions,
        }
    }

    /// Raw user id of every user vertex: `users_by_vertex()[v]` for
    /// `v < num_user_vertices` — the inverse of `user_vertex`.
    pub fn users_by_vertex(&self) -> Vec<u32> {
        let mut users = vec![0u32; self.num_user_vertices];
        for (&u, &v) in &self.user_vertex {
            users[v as usize] = u;
        }
        users
    }

    /// Seed vertex ids: black-listed users present in this window.
    pub fn seeds(&self, stream: &TxStream) -> Vec<VertexId> {
        let mut seeds: Vec<VertexId> = stream
            .blacklist
            .iter()
            .filter_map(|u| self.user_vertex.get(u).copied())
            .collect();
        seeds.sort_unstable();
        seeds
    }

    /// Whether a graph vertex is a user (vs an item).
    pub fn is_user(&self, v: VertexId) -> bool {
        (v as usize) < self.num_user_vertices
    }
}

/// The Table 4 sweep: window lengths 10, 20, …, 100 days.
#[derive(Clone, Copy, Debug)]
pub struct WindowSpec {
    /// Window length in days.
    pub days: u32,
    /// |V| in millions as Table 4 reports it (for the comparison printout).
    pub paper_vertices_m: u32,
    /// |E| in billions as Table 4 reports it.
    pub paper_edges_b: f64,
}

/// Table 4's ten sliding-window workloads.
pub fn table4() -> Vec<WindowSpec> {
    let v = [460u32, 630, 700, 770, 820, 880, 920, 970, 990, 1010];
    let e = [1.7, 3.0, 4.3, 5.5, 6.7, 7.8, 8.7, 9.3, 9.8, 10.2];
    (0..10)
        .map(|i| WindowSpec {
            days: 10 * (i as u32 + 1),
            paper_vertices_m: v[i],
            paper_edges_b: e[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::TxConfig;

    fn stream() -> TxStream {
        TxStream::generate(&TxConfig {
            num_users: 3_000,
            num_items: 1_000,
            days: 100,
            tx_per_day: 1_500,
            num_rings: 4,
            ring_size: 12,
            ring_tx_per_day: 30,
            ..Default::default()
        })
    }

    #[test]
    fn vertices_grow_sublinearly_edges_nearly_linearly() {
        let s = stream();
        let w10 = WindowWorkload::build(&s, 10);
        let w100 = WindowWorkload::build(&s, 100);
        let v_ratio = w100.graph.num_vertices() as f64 / w10.graph.num_vertices() as f64;
        let e_ratio = w100.graph.num_edges() as f64 / w10.graph.num_edges() as f64;
        assert!(v_ratio < e_ratio, "V ratio {v_ratio} !< E ratio {e_ratio}");
        assert!(v_ratio > 1.0 && v_ratio < 3.5, "V ratio {v_ratio}");
        assert!(e_ratio > 2.5, "E ratio {e_ratio}");
    }

    #[test]
    fn graph_is_bipartite_and_weighted() {
        let s = stream();
        let w = WindowWorkload::build(&s, 20);
        assert!(w.graph.incoming().is_weighted());
        for v in 0..w.graph.num_vertices() as VertexId {
            let user = w.is_user(v);
            for &u in w.graph.neighbors(v) {
                assert_ne!(w.is_user(u), user, "edge within one side");
            }
        }
    }

    #[test]
    fn seeds_are_window_participants() {
        let s = stream();
        let w = WindowWorkload::build(&s, 100);
        let seeds = w.seeds(&s);
        // Ring members transact daily, so every black-listed user appears
        // in the full window.
        assert_eq!(seeds.len(), s.blacklist.len());
        for &v in &seeds {
            assert!(w.is_user(v));
        }
    }

    #[test]
    fn table4_specs_shape() {
        let t = table4();
        assert_eq!(t.len(), 10);
        assert_eq!(t[0].days, 10);
        assert_eq!(t[9].days, 100);
        assert!(t
            .windows(2)
            .all(|w| w[0].paper_vertices_m < w[1].paper_vertices_m));
        assert!(t
            .windows(2)
            .all(|w| w[0].paper_edges_b < w[1].paper_edges_b));
    }
}
