//! Layered label propagation (Boldi et al. 2011 — paper §3.1).

use crate::api::LpProgram;
use glp_graph::{Label, VertexId};

/// LLP: classic LP tends to produce undesirably large communities; LLP
/// scores each candidate label `l` as `val = k − γ·(v − k)` where `k` is
/// the label's frequency among the vertex's neighbors and `v` is the
/// number of vertices carrying `l` *globally* — so joining a huge
/// community costs `γ` per non-neighbor member. `γ = 0` recovers classic
/// LP; the paper sweeps `γ = 2^i, i = 0..=9`.
#[derive(Clone, Debug)]
pub struct Llp {
    labels: Vec<Label>,
    /// Global member count per label, recomputed each iteration.
    volumes: Vec<u32>,
    gamma: f64,
    max_iterations: u32,
}

impl Llp {
    /// Unique initial labels, resolution `gamma`, 20-iteration cap.
    pub fn new(num_vertices: usize, gamma: f64) -> Self {
        Self::with_max_iterations(num_vertices, gamma, 20)
    }

    /// Custom iteration cap.
    pub fn with_max_iterations(num_vertices: usize, gamma: f64, max_iterations: u32) -> Self {
        assert!(gamma >= 0.0, "gamma must be non-negative");
        let mut llp = Self {
            labels: (0..num_vertices as Label).collect(),
            volumes: Vec::new(),
            gamma,
            max_iterations,
        };
        llp.recompute_volumes();
        llp
    }

    /// The resolution parameter.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    fn recompute_volumes(&mut self) {
        self.volumes.clear();
        self.volumes.resize(self.labels.len(), 0);
        for &l in &self.labels {
            self.volumes[l as usize] += 1;
        }
    }
}

impl LpProgram for Llp {
    fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    fn pick_label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    fn label_score(&self, _v: VertexId, l: Label, freq: f64) -> f64 {
        // k − γ(v − k); monotone in freq (slope 1 + γ), so the CMS pruning
        // of the high-degree kernel stays lossless.
        let vol = f64::from(self.volumes[l as usize]);
        freq - self.gamma * (vol - freq)
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

    fn begin_iteration(&mut self, _iteration: u32) {
        self.recompute_volumes();
    }

    fn finished(&self, iteration: u32, changed: u64) -> bool {
        changed == 0 || iteration + 1 >= self.max_iterations
    }

    fn labels(&self) -> &[Label] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_zero_matches_classic_scoring() {
        let p = Llp::new(8, 0.0);
        assert_eq!(p.label_score(0, 3, 5.0), 5.0);
    }

    #[test]
    fn large_communities_penalized() {
        let mut p = Llp::new(6, 1.0);
        // Make label 0 huge: volume 5; label 5 stays singleton.
        p.labels = vec![0, 0, 0, 0, 0, 5];
        p.begin_iteration(0);
        // Both labels seen twice among some vertex's neighbors:
        let big = p.label_score(1, 0, 2.0); // 2 - 1*(5-2) = -1
        let small = p.label_score(1, 5, 2.0); // 2 - 1*(1-2) = 3
        assert_eq!(big, -1.0);
        assert_eq!(small, 3.0);
        assert!(small > big);
    }

    #[test]
    fn score_monotone_in_freq() {
        let p = Llp::new(4, 4.0);
        assert!(p.label_score(0, 1, 3.0) > p.label_score(0, 1, 2.0));
    }

    #[test]
    #[should_panic(expected = "gamma must be non-negative")]
    fn negative_gamma_rejected() {
        Llp::new(4, -1.0);
    }
}
