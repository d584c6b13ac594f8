//! The user-defined APIs of Table 1.
//!
//! An [`LpProgram`] owns all algorithm state (label arrays, label
//! memories, volumes, …). Engines drive it through the bulk-synchronous
//! protocol below; the contract is:
//!
//! 1. `begin_iteration(it)` — per-round setup (e.g. LLP recomputes label
//!    volumes, SLP advances its speaker draw).
//! 2. `pick_label(v)` for every vertex — produces the label `v` *speaks*
//!    this round. Engines cache the result in a dense array `L` so the
//!    propagation kernels read labels coalesced instead of re-invoking
//!    user code per edge.
//! 3. For every vertex, the engine aggregates `load_neighbor` weights per
//!    distinct spoken label and scores each candidate with `label_score`;
//!    the best-scoring label wins (ties break toward the smaller label,
//!    everywhere, making all engines bit-deterministic and comparable).
//! 4. `update_vertex(v, winner, score)` for every vertex — returns whether
//!    `v`'s state changed (the convergence signal).
//! 5. `end_iteration(it)` then `finished(it, changed)`.
//!
//! The trait is those callbacks plus `labels`, `finished` and hidden
//! engine plumbing. Engines never look inside the program's state — fault
//! recovery included, which re-drives a device phase against the live
//! program — and baselines drive the same trait, so results are comparable
//! across all seven execution engines.

use glp_graph::{EdgeId, Label, VertexId};

/// What one neighbor contributes to the frequency aggregation: the label it
/// speaks and the weight it adds (1.0 for unweighted classic LP).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NeighborContribution {
    /// The spoken label.
    pub label: Label,
    /// Aggregation weight.
    pub weight: f64,
}

/// A label-propagation algorithm expressed through the Table 1 APIs.
///
/// `Sync` is required because the LabelPropagation phase shards vertices
/// across threads with shared read-only access to the program.
pub trait LpProgram: Sync {
    /// Number of vertices (must match the graph the engine runs on).
    fn num_vertices(&self) -> usize;

    /// Phase 1: the label vertex `v` speaks this round.
    fn pick_label(&self, v: VertexId) -> Label;

    /// The weight neighbor `u` contributes to `v`'s aggregation. `label`
    /// is `u`'s spoken label this round (from the cached `L` array) and
    /// `edge` the incoming-CSR edge index (for weight lookups); programs
    /// that re-weight per edge (e.g. transaction amounts) override this.
    /// The default contributes weight 1.
    fn load_neighbor(
        &self,
        _v: VertexId,
        _u: VertexId,
        _edge: EdgeId,
        label: Label,
    ) -> NeighborContribution {
        NeighborContribution { label, weight: 1.0 }
    }

    /// Score of candidate label `l` for `v`, given `freq`, the aggregated
    /// weight of `l` among `v`'s neighbors. Classic LP returns `freq`.
    fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64;

    /// Phase 3: absorb the winning label. Returns true if `v`'s visible
    /// state changed (drives convergence detection). `winner` is `None`
    /// for isolated vertices (no neighbors spoke).
    ///
    /// Contract: within one iteration, every BSP engine invokes this in
    /// ascending vertex order exactly once per vertex. Programs whose
    /// updates interact (e.g. `CapacityLp`'s online admission) may rely on
    /// that order; engines must preserve it.
    fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool;

    /// Hook before each iteration (default: nothing).
    fn begin_iteration(&mut self, _iteration: u32) {}

    /// Hook after each iteration's updates (default: nothing).
    fn end_iteration(&mut self, _iteration: u32) {}

    /// Termination test, consulted after each iteration. `changed` is the
    /// number of vertices whose `update_vertex` returned true.
    fn finished(&self, iteration: u32, changed: u64) -> bool;

    /// Whether a vertex's decision — winning label *and* score — is a
    /// function of the labels the vertex and its in-neighbors speak this
    /// round and of state that does not change between iterations (edge
    /// weights, degrees, a fixed threshold): no global state recomputed per
    /// round, no per-iteration randomness, nothing read from the iteration
    /// number. Two optimizations assume exactly that. Frontier scheduling
    /// skips a vertex none of whose in-neighbors changed label, keeping its
    /// previous decision; and the BSP driver replays a whole
    /// LabelPropagation phase, decisions included, when every spoken label
    /// and the frontier equal those of two iterations earlier
    /// ([`replay_delta`](crate::replay_delta) does the same for its
    /// frontier's decisions).
    /// Classic/seeded/weighted LP qualify; LLP (global volumes) and SLP
    /// (random speaker draws) do not. Default: false (always safe).
    fn sparse_activation(&self) -> bool {
        false
    }

    /// Current label assignment (for result extraction and cross-engine
    /// comparison).
    fn labels(&self) -> &[Label];

    // -- Engine plumbing -------------------------------------------------
    //
    // The three hidden methods below are not Table 1 callbacks and
    // implementations leave them alone. Engines hold programs as
    // `&dyn LpProgram`, which would make every callback a virtual call —
    // two per *edge* for `load_neighbor`/`label_score`. A provided
    // method's body, however, is compiled once per implementing type: in
    // here `Self` is the concrete program, so the loops below (and the
    // generic kernels) inline its callbacks, and an engine pays one
    // virtual call per kernel shard or per phase instead. Every
    // `impl LpProgram`, in or out of this crate, gets that for free, and
    // the trait stays dyn-compatible.

    /// Runs one shard of a propagation kernel with this program's
    /// callbacks statically dispatched.
    #[doc(hidden)]
    fn propagate_shard(&self, shard: &mut crate::engine::KernelShard<'_, '_>) {
        shard.run(self);
    }

    /// Phase 1 in bulk: `out[k] = pick_label(first + k)`.
    #[doc(hidden)]
    fn pick_labels_into(&self, first: VertexId, out: &mut [Label]) {
        for (k, s) in out.iter_mut().enumerate() {
            *s = self.pick_label(first + k as VertexId);
        }
    }

    /// Phase 3 in bulk: `update_vertex(v, decisions[v])` for every vertex
    /// in ascending order; returns how many reported a change.
    #[doc(hidden)]
    fn apply_decisions(&mut self, decisions: &[Option<(Label, f64)>]) -> u64 {
        let mut changed = 0u64;
        for (v, &d) in decisions.iter().enumerate() {
            changed += u64::from(self.update_vertex(v as VertexId, d));
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal program used to pin the trait's default implementations.
    struct Fixed {
        labels: Vec<Label>,
    }

    impl LpProgram for Fixed {
        fn num_vertices(&self) -> usize {
            self.labels.len()
        }
        fn pick_label(&self, v: VertexId) -> Label {
            self.labels[v as usize]
        }
        fn label_score(&self, _v: VertexId, _l: Label, freq: f64) -> f64 {
            freq
        }
        fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
            match winner {
                Some((l, _)) if l != self.labels[v as usize] => {
                    self.labels[v as usize] = l;
                    true
                }
                _ => false,
            }
        }
        fn finished(&self, _iteration: u32, changed: u64) -> bool {
            changed == 0
        }
        fn labels(&self) -> &[Label] {
            &self.labels
        }
    }

    #[test]
    fn default_load_neighbor_weight_is_one() {
        let p = Fixed { labels: vec![7, 8] };
        let c = p.load_neighbor(0, 1, 0, 8);
        assert_eq!(
            c,
            NeighborContribution {
                label: 8,
                weight: 1.0
            }
        );
    }

    #[test]
    fn update_vertex_reports_change() {
        let mut p = Fixed { labels: vec![7, 8] };
        assert!(p.update_vertex(0, Some((9, 1.0))));
        assert!(!p.update_vertex(0, Some((9, 1.0))));
        assert!(!p.update_vertex(1, None));
    }
}
