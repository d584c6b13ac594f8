//! Degree-bucketed kernel dispatch.
//!
//! §5.3 fixes the thresholds: vertices with degree < 32 are "low" (warp
//! packing candidates), degree > 128 are "high" (block-per-vertex CMS+HT),
//! the rest are "mid" (one-warp-one-vertex shared hash table). Bucketing is
//! computed once per run; the per-bucket vertex lists also give each kernel
//! a natural shard axis.

use super::MflStrategy;
use glp_gpusim::WARP_SIZE;
use glp_graph::{Graph, VertexId};

/// The paper's dispatch thresholds (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegreeThresholds {
    /// Degrees strictly below this are "low".
    pub low: u32,
    /// Degrees strictly above this are "high".
    pub high: u32,
}

impl Default for DegreeThresholds {
    fn default() -> Self {
        Self { low: 32, high: 128 }
    }
}

/// Vertex lists per kernel class (all in ascending vertex order).
#[derive(Clone, Debug, Default)]
pub struct Buckets {
    /// Degree 0 — decided `None` without touching the device.
    pub isolated: Vec<VertexId>,
    /// Low-degree vertices packed many-per-warp (§4.2). Empty unless the
    /// strategy is [`MflStrategy::SmemWarp`].
    pub warp_packed: Vec<VertexId>,
    /// One-warp-one-vertex with a shared hash table.
    pub warp_per_vertex: Vec<VertexId>,
    /// One-block-one-vertex with shared CMS+HT (§4.1).
    pub block_per_vertex: Vec<VertexId>,
    /// Per-vertex global-memory hash tables ([`MflStrategy::Global`] only).
    pub global_hash: Vec<VertexId>,
}

impl Buckets {
    /// Partitions all vertices of `g` according to `strategy`.
    pub fn build(g: &Graph, strategy: MflStrategy, t: DegreeThresholds) -> Self {
        assert!(t.low <= t.high, "thresholds out of order");
        let mut b = Buckets::default();
        for v in 0..g.num_vertices() as VertexId {
            let d = g.degree(v);
            if d == 0 {
                b.isolated.push(v);
                continue;
            }
            match strategy {
                MflStrategy::Global => b.global_hash.push(v),
                // `smem` activates ONLY the high-degree optimization
                // (§5.3 enables the optimizations one by one): everything
                // else keeps the baseline's global hash tables.
                MflStrategy::Smem => {
                    if d > t.high {
                        b.block_per_vertex.push(v);
                    } else {
                        b.global_hash.push(v);
                    }
                }
                // The full system: CMS+HT blocks for high degrees, packed
                // warps for low degrees, shared-HT warps in between.
                MflStrategy::SmemWarp => {
                    if d > t.high {
                        b.block_per_vertex.push(v);
                    } else if d < t.low {
                        b.warp_packed.push(v);
                    } else {
                        b.warp_per_vertex.push(v);
                    }
                }
            }
        }
        b
    }

    /// Total vertices across buckets (sanity: equals |V|).
    pub fn total(&self) -> usize {
        self.isolated.len()
            + self.warp_packed.len()
            + self.warp_per_vertex.len()
            + self.block_per_vertex.len()
            + self.global_hash.len()
    }

    /// Vertices the propagation kernels will actually process (everything
    /// but the isolated bucket) — the per-iteration *active* count.
    pub fn scheduled(&self) -> usize {
        self.warp_packed.len()
            + self.warp_per_vertex.len()
            + self.block_per_vertex.len()
            + self.global_hash.len()
    }

    /// The vertices [`scheduled`](Self::scheduled) counts, bucket by bucket
    /// (ascending within each).
    pub fn scheduled_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        [
            &self.warp_packed,
            &self.warp_per_vertex,
            &self.block_per_vertex,
            &self.global_hash,
        ]
        .into_iter()
        .flatten()
        .copied()
    }

    /// Rebuilds the dispatch for one frontier iteration: every bucket
    /// restricted to the active vertices. Filtering preserves ascending
    /// vertex order and degree classes, so high/low-degree kernel
    /// selection is unchanged — only the work shrinks.
    pub fn filtered(&self, active: &[bool]) -> Buckets {
        let keep = |vs: &[VertexId]| -> Vec<VertexId> {
            vs.iter().copied().filter(|&v| active[v as usize]).collect()
        };
        Buckets {
            isolated: Vec::new(),
            warp_packed: keep(&self.warp_packed),
            warp_per_vertex: keep(&self.warp_per_vertex),
            block_per_vertex: keep(&self.block_per_vertex),
            global_hash: keep(&self.global_hash),
        }
    }

    /// Whether [`filtered`](Self::filtered) by `active` would keep every
    /// kernel bucket whole: every vertex but the isolated ones is active.
    /// `self` is a full bucketing of the graph `active` flags.
    pub(crate) fn filter_keeps_all(&self, active: &[bool]) -> bool {
        let on = active.iter().filter(|&&a| a).count();
        let isolated_on = self
            .isolated
            .iter()
            .filter(|&&v| active[v as usize])
            .count();
        on - isolated_on == self.scheduled()
    }
}

/// Splits `vertices` into at most `shards` contiguous slices with
/// near-equal total degree, so harness threads get balanced work. A
/// `packed` bucket is cut only before a vertex that opens a warp (its lanes
/// would overflow the open one), so every part packs the whole list's warps.
pub fn split_by_degree<'a>(
    g: &Graph,
    vertices: &'a [VertexId],
    shards: usize,
    packed: bool,
) -> Vec<&'a [VertexId]> {
    assert!(shards >= 1, "need at least one shard");
    if vertices.is_empty() {
        return Vec::new();
    }
    if shards == 1 {
        return vec![vertices];
    }
    let total: u64 = vertices.iter().map(|&v| u64::from(g.degree(v)) + 1).sum();
    let per = total.div_ceil(shards as u64).max(1);
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut acc = 0u64;
    // Lanes of the open warp; full, so the first vertex opens one.
    let mut used = WARP_SIZE as u64;
    for (i, &v) in vertices.iter().enumerate() {
        let d = u64::from(g.degree(v));
        let opens = used + d > WARP_SIZE as u64;
        used = if opens { d } else { used + d };
        if acc >= per && out.len() + 1 < shards && (opens || !packed) {
            out.push(&vertices[start..i]);
            start = i;
            acc = 0;
        }
        acc += d + 1;
    }
    out.push(&vertices[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glp_graph::gen::{community_powerlaw, star, CommunityPowerLawConfig};

    fn sample() -> Graph {
        community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 3_000,
            avg_degree: 12.0,
            gamma: 2.1,
            ..Default::default()
        })
    }

    #[test]
    fn buckets_cover_all_vertices() {
        let g = sample();
        for s in [
            MflStrategy::Global,
            MflStrategy::Smem,
            MflStrategy::SmemWarp,
        ] {
            let b = Buckets::build(&g, s, DegreeThresholds::default());
            assert_eq!(b.total(), g.num_vertices(), "{s:?}");
        }
    }

    #[test]
    fn global_strategy_uses_one_bucket() {
        let g = sample();
        let b = Buckets::build(&g, MflStrategy::Global, DegreeThresholds::default());
        assert!(b.warp_packed.is_empty());
        assert!(b.block_per_vertex.is_empty());
        assert!(!b.global_hash.is_empty());
    }

    #[test]
    fn smem_warp_splits_by_thresholds() {
        let g = sample();
        let t = DegreeThresholds::default();
        let b = Buckets::build(&g, MflStrategy::SmemWarp, t);
        assert!(b
            .warp_packed
            .iter()
            .all(|&v| g.degree(v) < t.low && g.degree(v) > 0));
        assert!(b
            .warp_per_vertex
            .iter()
            .all(|&v| g.degree(v) >= t.low && g.degree(v) <= t.high));
        assert!(b.block_per_vertex.iter().all(|&v| g.degree(v) > t.high));
    }

    #[test]
    fn star_hub_goes_to_block_bucket() {
        let g = star(200);
        let b = Buckets::build(&g, MflStrategy::SmemWarp, DegreeThresholds::default());
        assert_eq!(b.block_per_vertex, vec![0]);
        assert_eq!(b.warp_packed.len(), 199);
    }

    #[test]
    fn split_by_degree_covers_and_balances() {
        let g = sample();
        let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let parts = split_by_degree(&g, &all, 4, false);
        assert!(parts.len() <= 4);
        let covered: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(covered, all.len());
        let weights: Vec<u64> = parts
            .iter()
            .map(|p| p.iter().map(|&v| u64::from(g.degree(v)) + 1).sum())
            .collect();
        let max = *weights.iter().max().unwrap();
        let min = *weights.iter().min().unwrap();
        assert!(max < 3 * min.max(1), "imbalanced {weights:?}");
    }

    #[test]
    fn split_empty_is_empty() {
        let g = star(4);
        assert!(split_by_degree(&g, &[], 4, false).is_empty());
    }
}
