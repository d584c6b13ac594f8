//! Compressed-sparse-row graph storage.
//!
//! The paper (§3.1, Figure 2) stores the graph in CSR format on the GPU:
//! an `offsets` array of length `|V|+1` and a `targets` array of length
//! `|E|`, so the neighbors of vertex `v` occupy
//! `targets[offsets[v] .. offsets[v+1]]`. Edge weights, when present, are a
//! parallel array (structure-of-arrays layout for coalesced access, as the
//! paper advises for user-defined data).

use crate::types::{EdgeId, VertexId};

/// One adjacency direction in CSR form.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<EdgeId>,
    targets: Vec<VertexId>,
    weights: Option<Vec<f32>>,
}

impl Csr {
    /// Builds a CSR from raw parts.
    ///
    /// # Panics
    /// Panics if the offsets are not monotonically non-decreasing, do not
    /// start at 0, do not end at `targets.len()`, or if `weights` is present
    /// with a length different from `targets`.
    pub fn from_parts(
        offsets: Vec<EdgeId>,
        targets: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as EdgeId,
            "offsets must end at |E|"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), targets.len(), "weights must align with targets");
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges stored.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Start of `v`'s neighbor run in [`Self::targets`].
    #[inline]
    pub fn offset(&self, v: VertexId) -> EdgeId {
        self.offsets[v as usize]
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Edge weights of `v`'s neighbor run, if the graph is weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[f32]> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.weights.as_ref().map(|w| &w[lo..hi])
    }

    /// Full offsets array (length `|V|+1`).
    #[inline]
    pub fn offsets(&self) -> &[EdgeId] {
        &self.offsets
    }

    /// Full targets array (length `|E|`).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Full weights array, if present.
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// Whether this CSR carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Bytes this CSR occupies — used to decide whether a graph fits in the
    /// modeled GPU memory (hybrid mode trigger, paper §3.1).
    pub fn size_bytes(&self) -> u64 {
        let mut b = (self.offsets.len() * std::mem::size_of::<EdgeId>()) as u64
            + (self.targets.len() * std::mem::size_of::<VertexId>()) as u64;
        if let Some(w) = &self.weights {
            b += (w.len() * std::mem::size_of::<f32>()) as u64;
        }
        b
    }

    /// Collapses runs of equal neighbors within each row in place (rows
    /// must be sorted), summing their weights in row order.
    pub(crate) fn merge_duplicates(&mut self) {
        let Csr {
            offsets,
            targets,
            weights,
        } = self;
        let n = offsets.len() - 1;
        let mut write = 0usize;
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            offsets[v] = write as EdgeId;
            for read in lo..hi {
                if write > offsets[v] as usize && targets[write - 1] == targets[read] {
                    if let Some(ws) = weights {
                        ws[write - 1] += ws[read];
                    }
                } else {
                    targets[write] = targets[read];
                    if let Some(ws) = weights {
                        ws[write] = ws[read];
                    }
                    write += 1;
                }
            }
        }
        offsets[n] = write as EdgeId;
        targets.truncate(write);
        targets.shrink_to_fit();
        if let Some(ws) = weights {
            ws.truncate(write);
            ws.shrink_to_fit();
        }
    }

    /// Builds the reverse (transposed) CSR via counting sort — O(|V|+|E|).
    /// The sort is stable: each row of the result lists its neighbors
    /// ascending, copies of one neighbor in this CSR's order.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut counts = vec![0u64; n + 1];
        for &t in &self.targets {
            counts[t as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; self.targets.len()];
        let mut weights = self
            .weights
            .as_ref()
            .map(|_| vec![0f32; self.targets.len()]);
        for v in 0..n {
            let lo = self.offsets[v] as usize;
            let hi = self.offsets[v + 1] as usize;
            for e in lo..hi {
                let t = self.targets[e] as usize;
                let pos = cursor[t] as usize;
                cursor[t] += 1;
                targets[pos] = v as VertexId;
                if let (Some(dst), Some(src)) = (&mut weights, &self.weights) {
                    dst[pos] = src[e];
                }
            }
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }
}

/// A graph with the adjacency views label propagation needs.
///
/// LP reads the labels of *incoming* neighbors `N(v)` (paper §2.1). For the
/// undirected graphs of the evaluation the two directions coincide and only
/// one CSR is stored; directed graphs additionally keep the outgoing view
/// `N'(v)` for algorithms (and the fraud pipeline) that need it.
#[derive(Clone, Debug)]
pub struct Graph {
    incoming: Csr,
    outgoing: Option<Csr>,
}

impl Graph {
    /// Wraps a symmetric CSR: incoming and outgoing views are identical.
    pub fn undirected(csr: Csr) -> Self {
        Self {
            incoming: csr,
            outgoing: None,
        }
    }

    /// Wraps a directed graph given its incoming view; the outgoing view is
    /// derived by transposition.
    pub fn directed_from_incoming(incoming: Csr) -> Self {
        let outgoing = incoming.transpose();
        Self {
            incoming,
            outgoing: Some(outgoing),
        }
    }

    /// Wraps a directed graph given both views. Callers must guarantee they
    /// are transposes of each other.
    pub fn directed(incoming: Csr, outgoing: Csr) -> Self {
        assert_eq!(incoming.num_vertices(), outgoing.num_vertices());
        assert_eq!(incoming.num_edges(), outgoing.num_edges());
        Self {
            incoming,
            outgoing: Some(outgoing),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.incoming.num_vertices()
    }

    /// Number of stored directed edges (an undirected edge counts twice,
    /// matching how Table 2 reports |E| for symmetrized graphs).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.incoming.num_edges()
    }

    /// Average degree |E|/|V| as Table 2 reports it.
    pub fn avg_degree(&self) -> f64 {
        self.num_edges() as f64 / self.num_vertices().max(1) as f64
    }

    /// Incoming-neighbor view `N(v)` — what LP scans.
    #[inline]
    pub fn incoming(&self) -> &Csr {
        &self.incoming
    }

    /// Outgoing-neighbor view `N'(v)`.
    #[inline]
    pub fn outgoing(&self) -> &Csr {
        self.outgoing.as_ref().unwrap_or(&self.incoming)
    }

    /// Whether the graph is stored symmetric (undirected).
    #[inline]
    pub fn is_undirected(&self) -> bool {
        self.outgoing.is_none()
    }

    /// In-degree of `v` (what determines LP kernel dispatch).
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.incoming.degree(v)
    }

    /// Incoming neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.incoming.neighbors(v)
    }

    /// Total CSR bytes (both directions when stored).
    pub fn size_bytes(&self) -> u64 {
        self.incoming.size_bytes() + self.outgoing.as_ref().map_or(0, Csr::size_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3], None)
    }

    #[test]
    fn basic_accessors() {
        let c = diamond();
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(3), 0);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(3), &[] as &[VertexId]);
    }

    #[test]
    fn transpose_roundtrip() {
        let c = diamond();
        let t = c.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        let back = t.transpose();
        assert_eq!(back.offsets(), c.offsets());
        assert_eq!(back.targets(), c.targets());
    }

    #[test]
    fn transpose_preserves_weights() {
        let c = Csr::from_parts(
            vec![0, 2, 3, 4, 4],
            vec![1, 2, 3, 3],
            Some(vec![0.5, 1.5, 2.5, 3.5]),
        );
        let t = c.transpose();
        assert_eq!(t.neighbor_weights(3).unwrap(), &[2.5, 3.5]);
        assert_eq!(t.neighbor_weights(1).unwrap(), &[0.5]);
    }

    #[test]
    #[should_panic(expected = "offsets must end at |E|")]
    fn bad_offsets_rejected() {
        Csr::from_parts(vec![0, 5], vec![1, 2], None);
    }

    #[test]
    fn graph_views() {
        let g = Graph::directed_from_incoming(diamond());
        assert!(!g.is_undirected());
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.outgoing().neighbors(3), &[1, 2]);
        let u = Graph::undirected(diamond());
        assert!(u.is_undirected());
        // outgoing() falls back to the same CSR
        assert_eq!(u.outgoing().neighbors(0), &[1, 2]);
    }

    #[test]
    fn size_bytes_counts_both_views() {
        let g = Graph::directed_from_incoming(diamond());
        let u = Graph::undirected(diamond());
        assert!(g.size_bytes() > u.size_bytes());
        assert_eq!(u.size_bytes(), (5 * 8 + 4 * 4) as u64);
    }
}
