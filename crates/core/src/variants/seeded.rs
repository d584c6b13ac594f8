//! Seeded label propagation — the fraud-pipeline variant (paper §1, §5.4).
//!
//! TaoBao's pipeline invokes "LP with the stored seeds to discover small
//! susceptible clusters": only labels originating from black-listed seed
//! vertices propagate; everything else starts unlabeled and joins a
//! suspicious cluster only when a seeded label reaches it.

use crate::api::{LpProgram, NeighborContribution};
use glp_graph::{EdgeId, Label, VertexId, INVALID_LABEL};
use std::sync::Arc;

/// Seeded LP: seeds carry their own id as label, everyone else starts
/// unlabeled ([`INVALID_LABEL`]). Unlabeled neighbors contribute nothing;
/// labeled vertices keep re-evaluating their cluster like classic LP.
///
/// Two production-grade refinements are available:
/// * **edge weights** — transaction multiplicity, so heavy (wash-trading)
///   relationships out-vote incidental ones;
/// * **adoption threshold** — a vertex only *becomes* labeled when the
///   winning score reaches a confidence floor, which keeps seeded labels
///   from flooding the whole connected component and keeps the discovered
///   clusters "small" as the paper describes.
#[derive(Clone, Debug)]
pub struct SeededLp {
    labels: Vec<Label>,
    max_iterations: u32,
    /// Incoming-CSR edge weights (empty = unweighted).
    weights: Arc<Vec<f32>>,
    /// Per-vertex total incoming weight (empty = absolute scoring).
    weighted_degree: Arc<Vec<f64>>,
    /// Minimum winning score for an *unlabeled* vertex to adopt a label.
    /// With `weighted_degree` set, scores are the winning label's *share*
    /// of the vertex's weight, so 0.5 means "majority of my activity".
    min_adoption_score: f64,
}

impl SeededLp {
    /// `seeds` become their own cluster ids; 20-iteration cap.
    pub fn new(num_vertices: usize, seeds: &[VertexId]) -> Self {
        Self::with_max_iterations(num_vertices, seeds, 20)
    }

    /// Custom iteration cap.
    pub fn with_max_iterations(
        num_vertices: usize,
        seeds: &[VertexId],
        max_iterations: u32,
    ) -> Self {
        let mut labels = vec![INVALID_LABEL; num_vertices];
        for &s in seeds {
            labels[s as usize] = s;
        }
        Self {
            labels,
            max_iterations,
            weights: Arc::new(Vec::new()),
            weighted_degree: Arc::new(Vec::new()),
            min_adoption_score: 0.0,
        }
    }

    /// Seeded LP with edge weights and a *relative* adoption-confidence
    /// floor: a vertex's score for a label is that label's share of the
    /// vertex's total incoming weight, and unlabeled vertices only join a
    /// cluster when the winning share reaches `min_adoption_share`
    /// (e.g. 0.5 = the label must account for a majority of the vertex's
    /// activity). This is what keeps seeded clusters *small* instead of
    /// flooding the connected component.
    ///
    /// `weights` must be the graph's incoming-CSR edge weight array and
    /// `weighted_degree[v]` the sum of `v`'s incoming weights.
    pub fn weighted(
        num_vertices: usize,
        seeds: &[VertexId],
        weights: Arc<Vec<f32>>,
        weighted_degree: Arc<Vec<f64>>,
        max_iterations: u32,
        min_adoption_share: f64,
    ) -> Self {
        assert_eq!(weighted_degree.len(), num_vertices, "degree array mismatch");
        let mut p = Self::with_max_iterations(num_vertices, seeds, max_iterations);
        p.weights = weights;
        p.weighted_degree = weighted_degree;
        p.min_adoption_score = min_adoption_share;
        p
    }

    /// Number of currently labeled vertices.
    pub fn labeled_count(&self) -> usize {
        self.labels.iter().filter(|&&l| l != INVALID_LABEL).count()
    }
}

impl LpProgram for SeededLp {
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
        // Unlabeled neighbors are silent; labeled ones contribute their
        // edge weight (1 when unweighted).
        let weight = if label == INVALID_LABEL {
            0.0
        } else if self.weights.is_empty() {
            1.0
        } else {
            f64::from(self.weights[edge as usize])
        };
        NeighborContribution { label, weight }
    }

    fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64 {
        if l == INVALID_LABEL {
            return f64::MIN;
        }
        if self.weighted_degree.is_empty() {
            freq
        } else {
            // The label's share of v's total activity (monotone in freq
            // for fixed v, so the CMS pruning stays lossless).
            freq / self.weighted_degree[v as usize].max(f64::MIN_POSITIVE)
        }
    }

    fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
        match winner {
            // A winner with non-positive frequency means only silence was
            // heard; stay as-is.
            Some((l, score)) if l != INVALID_LABEL && score > 0.0 => {
                let current = self.labels[v as usize];
                // Unlabeled vertices need the confidence floor to join.
                if current == INVALID_LABEL && score < self.min_adoption_score {
                    return false;
                }
                if l != current {
                    self.labels[v as usize] = l;
                    true
                } else {
                    false
                }
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
    fn seeds_initialized_rest_unlabeled() {
        let p = SeededLp::new(5, &[1, 3]);
        assert_eq!(
            p.labels(),
            &[INVALID_LABEL, 1, INVALID_LABEL, 3, INVALID_LABEL]
        );
        assert_eq!(p.labeled_count(), 2);
    }

    #[test]
    fn unlabeled_neighbors_are_silent() {
        let p = SeededLp::new(3, &[0]);
        assert_eq!(p.load_neighbor(1, 2, 0, INVALID_LABEL).weight, 0.0);
        assert_eq!(p.load_neighbor(1, 0, 0, 0).weight, 1.0);
    }

    #[test]
    fn invalid_winner_never_adopted() {
        let mut p = SeededLp::new(3, &[0]);
        assert!(!p.update_vertex(1, Some((INVALID_LABEL, 5.0))));
        assert!(!p.update_vertex(1, Some((0, 0.0))));
        assert!(p.update_vertex(1, Some((0, 1.0))));
        assert_eq!(p.labels()[1], 0);
    }
}
