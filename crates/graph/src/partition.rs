//! Graph partitioning for out-of-core and multi-device execution: contiguous
//! vertex ranges with their incoming-edge spans.
//!
//! * [`partition_by_edges`] — ranges with a bounded edge count, used by the
//!   CPU–GPU hybrid mode (§3.1) to stream a graph that exceeds device
//!   memory through the GPU chunk by chunk.
//! * [`partition_even`] — `k` ranges of near-equal edge counts, used by the
//!   multi-GPU mode (§5.4) to split work across devices.
//!
//! (The simulated in-house cluster shards by vertex id modulo its machine
//! count, computed where it charges the exchange.)

use crate::csr::Graph;
use crate::types::VertexId;

/// A contiguous vertex range `[start, end)` together with its incoming-edge
/// span `[edge_start, edge_end)` in the CSR target array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexRange {
    /// First vertex in the range.
    pub start: VertexId,
    /// One past the last vertex.
    pub end: VertexId,
    /// CSR offset of the first edge owned by this range.
    pub edge_start: u64,
    /// CSR offset one past the last edge.
    pub edge_end: u64,
}

impl VertexRange {
    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Number of incoming edges covered.
    pub fn num_edges(&self) -> u64 {
        self.edge_end - self.edge_start
    }
}

/// Splits vertices into contiguous ranges whose incoming-edge counts do not
/// exceed `max_edges` (a single vertex with more edges than the budget gets
/// its own range — the hybrid engine then streams its neighbor list).
///
/// # Panics
/// Panics if `max_edges` is 0.
pub fn partition_by_edges(g: &Graph, max_edges: u64) -> Vec<VertexRange> {
    assert!(max_edges > 0, "edge budget must be positive");
    let csr = g.incoming();
    let n = csr.num_vertices();
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < n {
        let edge_start = csr.offset(start as VertexId);
        let mut end = start;
        while end < n {
            let next_edges = csr.offset(end as VertexId + 1) - edge_start;
            if next_edges > max_edges && end > start {
                break;
            }
            end += 1;
            if next_edges > max_edges {
                break; // single oversized vertex gets its own range
            }
        }
        ranges.push(VertexRange {
            start: start as VertexId,
            end: end as VertexId,
            edge_start,
            edge_end: csr.offset(end as VertexId),
        });
        start = end;
    }
    ranges
}

/// Splits vertices into `k` near-equal contiguous ranges by *edge* count
/// (balanced work, not balanced vertex count) — the multi-GPU split.
pub fn partition_even(g: &Graph, k: usize) -> Vec<VertexRange> {
    assert!(k > 0, "need at least one partition");
    let csr = g.incoming();
    let n = csr.num_vertices();
    let total = csr.num_edges();
    let per = total.div_ceil(k as u64).max(1);
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0usize;
    for i in 0..k {
        if start >= n {
            // Degenerate: more partitions than needed; emit empty tail ranges.
            let off = csr.offset(n as VertexId);
            ranges.push(VertexRange {
                start: n as VertexId,
                end: n as VertexId,
                edge_start: off,
                edge_end: off,
            });
            continue;
        }
        let target = ((i as u64 + 1) * per).min(total);
        let mut end = start + 1;
        while end < n && csr.offset(end as VertexId) < target {
            end += 1;
        }
        if i == k - 1 {
            end = n;
        }
        ranges.push(VertexRange {
            start: start as VertexId,
            end: end as VertexId,
            edge_start: csr.offset(start as VertexId),
            edge_end: csr.offset(end as VertexId),
        });
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{community_powerlaw, star, CommunityPowerLawConfig};

    #[test]
    fn ranges_cover_all_vertices_and_edges() {
        let g = community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 2_000,
            avg_degree: 8.0,
            ..Default::default()
        });
        let ranges = partition_by_edges(&g, 500);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end as usize, g.num_vertices());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!(w[0].edge_end, w[1].edge_start);
        }
        let total: u64 = ranges.iter().map(VertexRange::num_edges).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn budget_respected_except_oversized_singletons() {
        let g = star(100); // hub has degree 99
        let ranges = partition_by_edges(&g, 10);
        for r in &ranges {
            assert!(r.num_edges() <= 10 || r.num_vertices() == 1);
        }
    }

    #[test]
    fn even_partition_balances_edges() {
        let g = community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 5_000,
            avg_degree: 10.0,
            ..Default::default()
        });
        let parts = partition_even(&g, 4);
        assert_eq!(parts.len(), 4);
        let total: u64 = parts.iter().map(VertexRange::num_edges).sum();
        assert_eq!(total, g.num_edges());
        let max = parts.iter().map(VertexRange::num_edges).max().unwrap();
        let min = parts.iter().map(VertexRange::num_edges).min().unwrap();
        assert!(max < 2 * min.max(1), "imbalanced: {min}..{max}");
    }

    #[test]
    fn even_partition_more_parts_than_vertices() {
        let g = star(3);
        let parts = partition_even(&g, 8);
        assert_eq!(parts.len(), 8);
        let total: u64 = parts.iter().map(VertexRange::num_edges).sum();
        assert_eq!(total, g.num_edges());
    }
}
