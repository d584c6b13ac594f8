//! Capacity-constrained (balanced) label propagation.
//!
//! The paper cites balanced LP for partitioning massive graphs (Ugander &
//! Backstrom [34]; Wang et al. [35]): plain LP produces wildly uneven
//! communities, useless as machine partitions. This variant hard-caps how
//! many vertices a label may hold — a label at capacity scores `-inf` for
//! vertices outside it, so growth spills into the next-best label. A
//! three-callback customization, like everything else in the framework.

use crate::api::LpProgram;
use glp_graph::{Label, VertexId};

/// Balanced LP: classic scoring, but a label at its capacity cannot
/// recruit new members.
#[derive(Clone, Debug)]
pub struct CapacityLp {
    labels: Vec<Label>,
    volumes: Vec<u32>,
    /// Maximum vertices per label.
    capacity: u32,
    max_iterations: u32,
}

impl CapacityLp {
    /// Unique initial labels, capacity `capacity` per label, 20-iteration
    /// cap.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(num_vertices: usize, capacity: u32) -> Self {
        Self::with_max_iterations(num_vertices, capacity, 20)
    }

    /// Custom iteration cap.
    pub fn with_max_iterations(num_vertices: usize, capacity: u32, max_iterations: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let mut p = Self {
            labels: (0..num_vertices as Label).collect(),
            volumes: Vec::new(),
            capacity,
            max_iterations,
        };
        p.recompute_volumes();
        p
    }

    /// The per-label capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Size of the largest current community.
    pub fn max_volume(&self) -> u32 {
        self.volumes.iter().copied().max().unwrap_or(0)
    }

    fn recompute_volumes(&mut self) {
        self.volumes.clear();
        self.volumes.resize(self.labels.len(), 0);
        for &l in &self.labels {
            self.volumes[l as usize] += 1;
        }
    }
}

impl LpProgram for CapacityLp {
    fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    fn pick_label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64 {
        // Selection-time pruning with start-of-iteration volumes: members
        // may stay; outsiders cannot pick an already-full label. (The hard
        // cap is enforced again at update time, below.)
        if self.labels[v as usize] != l && self.volumes[l as usize] >= self.capacity {
            f64::MIN
        } else {
            freq
        }
    }

    fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
        match winner {
            Some((l, score)) if score > f64::MIN && l != self.labels[v as usize] => {
                // Online admission: volumes are maintained through the
                // update sweep, so the capacity is a hard invariant — a
                // stampede of simultaneous joins admits exactly
                // `capacity` members and rejects the rest (they retry
                // against other labels next iteration).
                if self.volumes[l as usize] >= self.capacity {
                    return false;
                }
                let old = self.labels[v as usize];
                self.volumes[old as usize] -= 1;
                self.volumes[l as usize] += 1;
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
    use crate::engine::{Engine, GpuEngine, RunOptions};
    use glp_graph::gen::{caveman, complete};

    #[test]
    fn full_labels_reject_outsiders() {
        let mut p = CapacityLp::new(4, 2);
        p.labels = vec![0, 0, 2, 3];
        p.begin_iteration(0);
        assert_eq!(p.label_score(2, 0, 5.0), f64::MIN); // label 0 is full
        assert_eq!(p.label_score(0, 0, 5.0), 5.0); // members may stay
        assert_eq!(p.label_score(2, 3, 5.0), 5.0);
    }

    #[test]
    fn cap_limits_community_growth() {
        // A 24-clique under classic LP collapses to one label; capacity 8
        // must keep every community at (close to) 8.
        let g = complete(24);
        let mut capped = CapacityLp::with_max_iterations(24, 8, 30);
        GpuEngine::titan_v()
            .run(&g, &mut capped, &RunOptions::default())
            .unwrap();
        assert!(
            capped.max_volume() <= 8,
            "largest community {} exceeds the hard cap",
            capped.max_volume()
        );

        let mut classic = crate::ClassicLp::with_max_iterations(24, 30);
        GpuEngine::titan_v()
            .run(&g, &mut classic, &RunOptions::default())
            .unwrap();
        let uniform = classic.labels().iter().all(|&l| l == classic.labels()[0]);
        assert!(uniform, "classic LP should collapse the clique");
    }

    #[test]
    fn generous_cap_behaves_like_classic() {
        let g = caveman(5, 6);
        let mut capped = CapacityLp::with_max_iterations(30, 1_000, 20);
        GpuEngine::titan_v()
            .run(&g, &mut capped, &RunOptions::default())
            .unwrap();
        let mut classic = crate::ClassicLp::with_max_iterations(30, 20);
        GpuEngine::titan_v()
            .run(&g, &mut classic, &RunOptions::default())
            .unwrap();
        assert_eq!(capped.labels(), classic.labels());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CapacityLp::new(4, 0);
    }
}
