//! Classic label propagation (Raghavan, Albert & Kumara 2007 — paper §2.1).

use crate::api::{LpProgram, NeighborContribution};
use glp_graph::{EdgeId, Label, VertexId};

/// Classic LP: each vertex starts with a unique label (its own id) and
/// repeatedly adopts the most frequent label among its incoming neighbors.
/// Ties break toward the smaller label; the run stops when no label
/// changes or after `max_iterations` (the paper's benchmarks fix 20).
#[derive(Clone, Debug)]
pub struct ClassicLp {
    labels: Vec<Label>,
    max_iterations: u32,
}

impl ClassicLp {
    /// Unique initial labels `0..n`, 20-iteration cap (the paper's
    /// benchmark setting).
    pub fn new(num_vertices: usize) -> Self {
        Self::with_max_iterations(num_vertices, 20)
    }

    /// Unique initial labels with a custom iteration cap.
    pub fn with_max_iterations(num_vertices: usize, max_iterations: u32) -> Self {
        Self {
            labels: (0..num_vertices as Label).collect(),
            max_iterations,
        }
    }

    /// Starts from an explicit label assignment.
    pub fn from_labels(labels: Vec<Label>, max_iterations: u32) -> Self {
        Self {
            labels,
            max_iterations,
        }
    }
}

impl LpProgram for ClassicLp {
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
        _edge: EdgeId,
        label: Label,
    ) -> NeighborContribution {
        NeighborContribution { label, weight: 1.0 }
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
    fn initial_labels_unique() {
        let p = ClassicLp::new(4);
        assert_eq!(p.labels(), &[0, 1, 2, 3]);
        assert_eq!(p.pick_label(2), 2);
    }

    #[test]
    fn score_is_frequency() {
        let p = ClassicLp::new(2);
        assert_eq!(p.label_score(0, 9, 3.5), 3.5);
    }

    #[test]
    fn finishes_on_convergence_or_cap() {
        let p = ClassicLp::with_max_iterations(2, 5);
        assert!(p.finished(0, 0));
        assert!(!p.finished(0, 3));
        assert!(p.finished(4, 3));
    }
}
