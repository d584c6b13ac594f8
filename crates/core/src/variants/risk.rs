//! Risk-weighted seeded propagation — a fraud-team customization example.
//!
//! Blacklist entries come with confidence: a conviction is worth more than
//! a heuristic flag. This variant scores a candidate cluster label by
//! `frequency × risk(seed)`, so high-confidence seeds out-compete weak
//! ones when both reach a vertex. It is `SeededLp` plus one overridden
//! callback — the kind of strategy iteration §3.1's API design exists for.

use crate::api::{LpProgram, NeighborContribution};
use glp_graph::{EdgeId, Label, VertexId, INVALID_LABEL};

/// Seeded LP where each seed's label carries a risk multiplier.
#[derive(Clone, Debug)]
pub struct RiskWeightedLp {
    labels: Vec<Label>,
    /// Risk multiplier per *label* (indexed by seed vertex id; labels are
    /// seed ids). 0 for non-seed labels.
    risk: Vec<f32>,
    max_iterations: u32,
}

impl RiskWeightedLp {
    /// Seeds with their risk scores (must be positive); everyone else
    /// starts unlabeled.
    ///
    /// # Panics
    /// Panics if any risk is not strictly positive.
    pub fn new(num_vertices: usize, seeds: &[(VertexId, f32)], max_iterations: u32) -> Self {
        let mut labels = vec![INVALID_LABEL; num_vertices];
        let mut risk = vec![0.0f32; num_vertices];
        for &(s, r) in seeds {
            assert!(r > 0.0, "seed risk must be positive");
            labels[s as usize] = s;
            risk[s as usize] = r;
        }
        Self {
            labels,
            risk,
            max_iterations,
        }
    }

    /// The risk multiplier of a label (0 when not a seed label).
    pub fn label_risk(&self, l: Label) -> f32 {
        self.risk.get(l as usize).copied().unwrap_or(0.0)
    }
}

impl LpProgram for RiskWeightedLp {
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
        let weight = if label == INVALID_LABEL { 0.0 } else { 1.0 };
        NeighborContribution { label, weight }
    }

    fn label_score(&self, _v: VertexId, l: Label, freq: f64) -> f64 {
        if l == INVALID_LABEL {
            return f64::MIN;
        }
        // freq × risk: monotone in freq for fixed l, so CMS pruning holds.
        freq * f64::from(self.label_risk(l))
    }

    fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
        match winner {
            Some((l, score))
                if l != INVALID_LABEL && score > 0.0 && l != self.labels[v as usize] =>
            {
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
    use crate::engine::{Engine, GpuEngine, RunOptions};
    use glp_graph::GraphBuilder;

    /// A vertex pulled equally by two seeds joins the higher-risk one.
    #[test]
    fn higher_risk_seed_wins_contested_vertex() {
        // seeds 0 and 2 both adjacent to vertex 1.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(2, 1).symmetrize(true);
        let g = b.build();
        let mut p = RiskWeightedLp::new(3, &[(0, 1.0), (2, 5.0)], 10);
        GpuEngine::titan_v()
            .run(&g, &mut p, &RunOptions::default())
            .unwrap();
        assert_eq!(p.labels()[1], 2, "vertex 1 should join the risky seed");

        // Flip the risks; the outcome flips.
        let mut p = RiskWeightedLp::new(3, &[(0, 5.0), (2, 1.0)], 10);
        GpuEngine::titan_v()
            .run(&g, &mut p, &RunOptions::default())
            .unwrap();
        assert_eq!(p.labels()[1], 0);
    }

    #[test]
    fn equal_risk_falls_back_to_tie_rule() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(2, 1).symmetrize(true);
        let g = b.build();
        let mut p = RiskWeightedLp::new(3, &[(0, 2.0), (2, 2.0)], 10);
        GpuEngine::titan_v()
            .run(&g, &mut p, &RunOptions::default())
            .unwrap();
        assert_eq!(p.labels()[1], 0, "tie breaks toward the smaller label");
    }

    #[test]
    #[should_panic(expected = "seed risk must be positive")]
    fn non_positive_risk_rejected() {
        RiskWeightedLp::new(3, &[(0, 0.0)], 10);
    }
}
