//! Edge-list ingestion: deduplication, self-loop policy, symmetrization.
//!
//! The pipeline's graphs arrive as transaction edge lists (paper Figure 1);
//! this builder is the single path from raw edges to the CSR layout every
//! engine consumes. A generator that already holds its pairs sorted and
//! unique skips the staging through `undirected_from_pairs`, which stores
//! the same rows.

use crate::csr::{Csr, Graph};
use crate::types::{EdgeId, VertexId};

/// Accumulates edges and produces a [`Graph`].
///
/// ```
/// use glp_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).add_edge(1, 2).symmetrize(true);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 4); // both directions stored
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Option<Vec<f32>>,
    symmetrize: bool,
    dedup: bool,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Starts a builder for a graph over vertices `0..num_vertices`.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            weights: None,
            symmetrize: false,
            dedup: false,
            keep_self_loops: false,
        }
    }

    /// Pre-allocates edge capacity.
    pub fn with_capacity(num_vertices: usize, edges: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.reserve(edges);
        b
    }

    /// Adds a directed edge `src -> dst`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range, or if the builder already
    /// holds weighted edges (mixing weighted and unweighted is rejected).
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src},{dst}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(
            self.weights.is_none(),
            "builder already holds weighted edges"
        );
        self.edges.push((src, dst));
        self
    }

    /// Adds a weighted directed edge.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: f32) -> &mut Self {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src},{dst}) out of range for {} vertices",
            self.num_vertices
        );
        let weights = self.weights.get_or_insert_with(Vec::new);
        assert_eq!(
            weights.len(),
            self.edges.len(),
            "cannot mix weighted and unweighted edges"
        );
        self.edges.push((src, dst));
        weights.push(w);
        self
    }

    /// Bulk-adds unweighted edges.
    pub fn extend_edges(
        &mut self,
        it: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> &mut Self {
        assert!(
            self.weights.is_none(),
            "builder already holds weighted edges"
        );
        self.edges.extend(it);
        self
    }

    /// Store each edge in both directions (Table 2's graphs are symmetrized;
    /// |E| counts both directions).
    pub fn symmetrize(&mut self, yes: bool) -> &mut Self {
        self.symmetrize = yes;
        self
    }

    /// Collapse duplicate (src,dst) pairs. Duplicate weighted edges sum
    /// their weights in the order the edges were added (multiple
    /// transactions between the same pair become one heavier edge, as the
    /// fraud pipeline does); with integer weights the sum is exact in any
    /// order.
    pub fn dedup(&mut self, yes: bool) -> &mut Self {
        self.dedup = yes;
        self
    }

    /// Keep self loops (dropped by default — LP over a self loop is a no-op
    /// that only inflates the vertex's own label count).
    pub fn keep_self_loops(&mut self, yes: bool) -> &mut Self {
        self.keep_self_loops = yes;
        self
    }

    /// Number of edges currently staged (before symmetrize/dedup).
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the graph in O(|V| + |E|) with two stable counting sorts: the
    /// stored entries are bucketed by neighbor, and transposing that CSR
    /// scatters them into their rows walking the neighbors in order, so
    /// every row comes out ascending without a comparison sort. Undirected
    /// output shares one CSR for both views; directed output derives the
    /// outgoing view by transposition.
    ///
    /// Both passes are stable, so copies of one `(src, dst)` pair sit in a
    /// row in the order they were added (a symmetrized edge's reverse copy
    /// right after its forward one); `dedup` sums duplicate weights in that
    /// order.
    pub fn build(self) -> Graph {
        let Self {
            num_vertices: n,
            edges,
            weights,
            symmetrize,
            dedup,
            keep_self_loops,
        } = self;
        // The CSR is indexed by the vertex whose neighbors LP scans: edge
        // src->dst stores src in row dst (and dst in row src when
        // symmetrizing). Pass 1 buckets each stored entry's row by its
        // neighbor, in input order.
        let kept = |s: VertexId, d: VertexId| s != d || keep_self_loops;
        let mut by_neighbor = vec![0 as EdgeId; n + 1];
        for &(s, d) in &edges {
            if kept(s, d) {
                by_neighbor[s as usize + 1] += 1;
                if symmetrize && s != d {
                    by_neighbor[d as usize + 1] += 1;
                }
            }
        }
        for i in 0..n {
            by_neighbor[i + 1] += by_neighbor[i];
        }
        let m = by_neighbor[n] as usize;
        let mut rows = vec![0 as VertexId; m];
        let mut row_weights = weights.as_ref().map(|_| vec![0f32; m]);
        let mut cursor = by_neighbor.clone();
        let mut put = |neighbor: VertexId, row: VertexId, w: f32| {
            let slot = &mut cursor[neighbor as usize];
            rows[*slot as usize] = row;
            if let Some(rw) = &mut row_weights {
                rw[*slot as usize] = w;
            }
            *slot += 1;
        };
        for (i, &(s, d)) in edges.iter().enumerate() {
            if kept(s, d) {
                let w = weights.as_ref().map_or(1.0, |ws| ws[i]);
                put(s, d, w);
                if symmetrize && s != d {
                    put(d, s, w);
                }
            }
        }
        // Free the staged edges before pass 2 allocates the rows, so at most
        // two edge-sized arrays are alive at once.
        drop((edges, weights, cursor));
        let mut incoming = Csr::from_parts(by_neighbor, rows, row_weights).transpose();
        if dedup {
            incoming.merge_duplicates();
        }
        if symmetrize {
            Graph::undirected(incoming)
        } else {
            Graph::directed_from_incoming(incoming)
        }
    }
}

/// The symmetric, unweighted CSR of `n` vertices over the strictly
/// ascending pair keys `a << 32 | z` with `a < z < n` — exactly the rows
/// [`GraphBuilder`] stores for these pairs with `symmetrize(true)`, built
/// without staging them (`community_powerlaw`'s sorted key set is the only
/// copy of its pairs).
///
/// One counting pass over both endpoints, a prefix sum and one scatter in
/// key order. Row `v` first receives its lower neighbours (the keys `(a,
/// v)`, ascending `a`, all ordered before the keys `(v, ·)`) and then its
/// higher ones (the keys `(v, z)`, ascending `z`), so every row comes out
/// ascending.
pub(crate) fn undirected_from_pairs(n: usize, keys: &[u64]) -> Graph {
    let split = |key: u64| ((key >> 32) as VertexId, key as VertexId);
    debug_assert!(
        keys.windows(2).all(|w| w[0] < w[1])
            && keys.iter().all(|&k| {
                let (a, z) = split(k);
                a < z && (z as usize) < n
            }),
        "pair keys must be strictly ascending with a < z < n"
    );
    let mut offsets = vec![0 as EdgeId; n + 1];
    for &key in keys {
        let (a, z) = split(key);
        offsets[a as usize + 1] += 1;
        offsets[z as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut targets = vec![0 as VertexId; 2 * keys.len()];
    let mut cursor = offsets.clone();
    for &key in keys {
        let (a, z) = split(key);
        targets[cursor[a as usize] as usize] = z;
        cursor[a as usize] += 1;
        targets[cursor[z as usize] as usize] = a;
        cursor[z as usize] += 1;
    }
    Graph::undirected(Csr::from_parts(offsets, targets, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based build the counting build replaced: materialize the
    /// `(row, neighbor, weight)` triples, sort them stably (so duplicates
    /// keep input order, as the counting build's do), fold duplicates.
    fn build_by_sorting(b: GraphBuilder) -> Graph {
        let n = b.num_vertices;
        let mut triples: Vec<(VertexId, VertexId, f32)> = Vec::new();
        for (i, &(s, d)) in b.edges.iter().enumerate() {
            if s == d && !b.keep_self_loops {
                continue;
            }
            let w = b.weights.as_ref().map_or(1.0, |ws| ws[i]);
            triples.push((d, s, w));
            if b.symmetrize && s != d {
                triples.push((s, d, w));
            }
        }
        triples.sort_by_key(|t| (t.0, t.1));
        if b.dedup {
            let mut out: Vec<(VertexId, VertexId, f32)> = Vec::new();
            for t in triples {
                match out.last_mut() {
                    Some(last) if last.0 == t.0 && last.1 == t.1 => last.2 += t.2,
                    _ => out.push(t),
                }
            }
            triples = out;
        }
        let mut offsets = vec![0 as EdgeId; n + 1];
        for &(v, _, _) in &triples {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = triples.iter().map(|t| t.1).collect();
        let weights = b
            .weights
            .is_some()
            .then(|| triples.iter().map(|t| t.2).collect());
        let incoming = Csr::from_parts(offsets, targets, weights);
        if b.symmetrize {
            Graph::undirected(incoming)
        } else {
            Graph::directed_from_incoming(incoming)
        }
    }

    fn same_bits(a: &Csr, b: &Csr) -> bool {
        let bits = |c: &Csr| {
            c.weights()
                .map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        a.offsets() == b.offsets() && a.targets() == b.targets() && bits(a) == bits(b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The counting build equals the sort-based oracle, bit for bit, in
        /// both views, over every combination of the three switches, with
        /// and without (small-integer) weights. Edge lists over up to 24
        /// vertices repeat pairs and draw self loops often; vertices no
        /// edge touches stay isolated.
        #[test]
        fn counting_build_equals_sorting_oracle(
            n in 1u32..24,
            raw in prop::collection::vec((0u32..24, 0u32..24, 0u8..4), 0..120),
            switches in 0u8..16,
        ) {
            let (symmetrize, dedup, keep_loops, weighted) = (
                switches & 1 != 0,
                switches & 2 != 0,
                switches & 4 != 0,
                switches & 8 != 0,
            );
            let mut b = GraphBuilder::new(n as usize);
            for &(s, d, w) in &raw {
                let (s, d) = (s % n, d % n);
                if weighted {
                    b.add_weighted_edge(s, d, f32::from(w));
                } else {
                    b.add_edge(s, d);
                }
            }
            b.symmetrize(symmetrize).dedup(dedup).keep_self_loops(keep_loops);
            let oracle = build_by_sorting(b.clone());
            let got = b.build();
            prop_assert_eq!(got.is_undirected(), oracle.is_undirected());
            prop_assert!(same_bits(got.incoming(), oracle.incoming()));
            prop_assert!(same_bits(got.outgoing(), oracle.outgoing()));
        }

        /// The direct CSR equals `GraphBuilder`'s symmetrized build of the
        /// same pairs: random strictly ascending `a < z < n` pair sets over
        /// up to 64 vertices, from empty through dense, with empty rows and,
        /// half the time, an edge to vertex `n − 1`.
        #[test]
        fn direct_csr_equals_the_builder(
            n in 2usize..=64,
            raw in prop::collection::vec((0usize..64, 0usize..64), 0..300),
            touch_last in any::<bool>(),
        ) {
            let mut pairs: std::collections::BTreeSet<(usize, usize)> = raw
                .iter()
                .map(|&(x, y)| (x % n, y % n))
                .filter(|&(x, y)| x != y)
                .map(|(x, y)| (x.min(y), x.max(y)))
                .collect();
            if touch_last {
                pairs.insert((0, n - 1));
            }
            let keys: Vec<u64> = pairs.iter().map(|&(a, z)| (a as u64) << 32 | z as u64).collect();
            let direct = undirected_from_pairs(n, &keys);
            let mut b = GraphBuilder::new(n);
            for &(a, z) in &pairs {
                b.add_edge(a as VertexId, z as VertexId);
            }
            b.symmetrize(true);
            let built = b.build();
            prop_assert_eq!(direct.incoming().offsets(), built.incoming().offsets());
            prop_assert_eq!(direct.incoming().targets(), built.incoming().targets());
            prop_assert_eq!(direct.incoming().weights(), None);
            prop_assert_eq!(built.incoming().weights(), None);
            prop_assert!(direct.is_undirected() && built.is_undirected());
        }
    }

    #[test]
    fn weighted_duplicates_keep_input_order() {
        // Non-integer weights whose sum depends on the order: the counting
        // build folds them in the order they were added.
        let ws = [1e8f32, 1.0, -1e8, 1.0];
        let mut b = GraphBuilder::new(2);
        for &w in &ws {
            b.add_weighted_edge(0, 1, w);
        }
        let kept = b.clone().build();
        assert_eq!(kept.incoming().neighbor_weights(1).unwrap(), &ws);
        b.dedup(true);
        let folded = ws.iter().fold(0.0f32, |acc, &w| acc + w);
        assert_eq!(b.build().incoming().neighbor_weights(1).unwrap(), &[folded]);
    }

    #[test]
    fn incoming_orientation() {
        // edge 0->1 means 0 ∈ N(1)
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(2, 1);
        let g = b.build();
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(0), &[] as &[VertexId]);
        // outgoing view has 1 ∈ N'(0)
        assert_eq!(g.outgoing().neighbors(0), &[1]);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2).symmetrize(true);
        let g = b.build();
        assert!(g.is_undirected());
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn dedup_sums_weights() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1.0)
            .add_weighted_edge(0, 1, 2.5)
            .dedup(true);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.incoming().neighbor_weights(1).unwrap(), &[3.5]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).add_edge(0, 1);
        assert_eq!(b.staged_edges(), 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);

        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).add_edge(0, 1).keep_self_loops(true);
        assert_eq!(b.build().num_edges(), 2);
    }

    #[test]
    fn dedup_unweighted_collapses() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).add_edge(0, 1).add_edge(0, 1).dedup(true);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn symmetrized_self_loop_kept_once_when_enabled() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1).symmetrize(true).keep_self_loops(true);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        GraphBuilder::new(2).add_edge(0, 5);
    }

    #[test]
    fn neighbors_sorted_after_build() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0).add_edge(1, 0).add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }
}
