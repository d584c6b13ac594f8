//! Edge-weighted classic LP.
//!
//! Transaction graphs carry multiplicities/amounts as edge weights (the
//! `GraphBuilder` sums duplicate transactions into weights); weighted LP
//! aggregates those instead of plain counts — a one-override customization
//! showcasing the `LoadNeighbor` API of Table 1.

use crate::api::{LpProgram, NeighborContribution};
use glp_graph::{EdgeId, Label, VertexId};
use std::sync::Arc;

/// Classic LP where each neighbor contributes its incoming-edge weight.
///
/// An optional **retention bonus** adds a fixed weight to the vertex's own
/// current label. On bipartite graphs (user–item transaction networks)
/// synchronous LP oscillates label sets between the two sides; retention
/// damps the oscillation so tightly-knit blobs converge to one label while
/// weakly-connected vertices keep their own — exactly the "small
/// suspicious clusters" behaviour the fraud pipeline needs.
#[derive(Clone, Debug)]
pub struct WeightedLp {
    labels: Vec<Label>,
    /// Weights indexed by incoming-CSR edge id (shared with the graph).
    weights: Arc<Vec<f32>>,
    /// Score bonus for keeping the current label (0 = pure classic).
    retention: f64,
    max_iterations: u32,
}

impl WeightedLp {
    /// Unique initial labels; `weights` must be the incoming CSR's edge
    /// weight array.
    pub fn new(num_vertices: usize, weights: Arc<Vec<f32>>, max_iterations: u32) -> Self {
        Self {
            labels: (0..num_vertices as Label).collect(),
            weights,
            retention: 0.0,
            max_iterations,
        }
    }

    /// Sets the self-retention bonus (see the type docs).
    pub fn with_retention(mut self, retention: f64) -> Self {
        assert!(retention >= 0.0, "retention must be non-negative");
        self.retention = retention;
        self
    }

    /// Builds from a weighted graph, cloning its weight array once.
    ///
    /// # Panics
    /// Panics if the graph is unweighted.
    pub fn from_graph(g: &glp_graph::Graph, max_iterations: u32) -> Self {
        let w = g
            .incoming()
            .weights()
            .expect("WeightedLp requires a weighted graph")
            .to_vec();
        Self::new(g.num_vertices(), Arc::new(w), max_iterations)
    }
}

impl LpProgram for WeightedLp {
    fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    fn pick_label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    fn load_neighbor(
        &self,
        _v: VertexId,
        _u: VertexId,
        edge: EdgeId,
        label: Label,
    ) -> NeighborContribution {
        NeighborContribution {
            label,
            weight: f64::from(self.weights[edge as usize]),
        }
    }

    fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64 {
        if l == self.labels[v as usize] {
            freq + self.retention
        } else {
            freq
        }
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

    fn finished(&self, iteration: u32, changed: u64) -> bool {
        changed == 0 || iteration + 1 >= self.max_iterations
    }

    fn sparse_activation(&self) -> bool {
        true
    }

    fn labels(&self) -> &[Label] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contribution_uses_edge_weight() {
        let p = WeightedLp::new(3, Arc::new(vec![0.5, 2.0]), 20);
        assert_eq!(p.load_neighbor(0, 1, 0, 9).weight, 0.5);
        assert_eq!(p.load_neighbor(0, 2, 1, 9).weight, 2.0);
    }

    #[test]
    #[should_panic(expected = "requires a weighted graph")]
    fn from_unweighted_graph_panics() {
        let g = glp_graph::gen::path(3);
        WeightedLp::from_graph(&g, 20);
    }
}
