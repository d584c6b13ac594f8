//! Speaker–listener label propagation (SLPA, Xie et al. 2011 — §3.1).

use crate::api::LpProgram;
use glp_graph::{Label, VertexId};

/// One vertex's bounded label memory: up to `cap` (label, count) pairs.
#[derive(Clone, Debug)]
struct Memory {
    entries: Vec<(Label, u32)>,
}

impl Memory {
    fn seeded(l: Label) -> Self {
        Self {
            entries: vec![(l, 1)],
        }
    }

    /// Adds one observation of `l`; when the memory is full, the weakest
    /// entry is evicted (ties toward the larger label, so behaviour is
    /// deterministic).
    fn observe(&mut self, l: Label, cap: usize) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == l) {
            e.1 += 1;
            return false;
        }
        if self.entries.len() < cap {
            self.entries.push((l, 1));
            return true;
        }
        let (idx, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.1, std::cmp::Reverse(e.0)))
            .expect("memory is non-empty");
        let evicted = self.entries[idx].0 != l;
        self.entries[idx] = (l, 1);
        evicted
    }

    /// Deterministic "random" speaker draw, weighted by observation count.
    fn speak(&self, noise: u64) -> Label {
        let total: u64 = self.entries.iter().map(|e| u64::from(e.1)).sum();
        let mut x = noise % total;
        for &(l, c) in &self.entries {
            if x < u64::from(c) {
                return l;
            }
            x -= u64::from(c);
        }
        self.entries[0].0
    }

    fn dominant(&self) -> Label {
        self.entries
            .iter()
            .max_by_key(|e| (e.1, std::cmp::Reverse(e.0)))
            .expect("memory is non-empty")
            .0
    }
}

/// SLPA: each vertex keeps a bounded memory of labels. Per iteration every
/// vertex *speaks* one label drawn from its memory (weighted by how often
/// it has heard it); every vertex *listens* by taking the most frequent
/// spoken label among its neighbors into memory. Labels heard in at least
/// `threshold` of iterations form the (possibly overlapping) final
/// communities. The speaker draw is derandomized with a seeded hash so
/// every engine produces identical results.
#[derive(Clone, Debug)]
pub struct Slp {
    memories: Vec<Memory>,
    labels_cache: Vec<Label>,
    /// Memory capacity per vertex (the paper's benchmark sets 5).
    max_labels: usize,
    /// Post-processing threshold on a label's share of the memory.
    threshold: f64,
    seed: u64,
    iteration: u32,
    max_iterations: u32,
}

impl Slp {
    /// SLPA with the paper's benchmark settings: 5 labels per vertex,
    /// 20 iterations.
    pub fn new(num_vertices: usize, seed: u64) -> Self {
        Self::with_params(num_vertices, 5, 0.2, 20, seed)
    }

    /// Full parameter control.
    pub fn with_params(
        num_vertices: usize,
        max_labels: usize,
        threshold: f64,
        max_iterations: u32,
        seed: u64,
    ) -> Self {
        assert!(max_labels >= 1, "need at least one label slot");
        assert!((0.0..=1.0).contains(&threshold), "threshold is a fraction");
        Self {
            memories: (0..num_vertices as Label).map(Memory::seeded).collect(),
            labels_cache: (0..num_vertices as Label).collect(),
            max_labels,
            threshold,
            seed,
            iteration: 0,
            max_iterations,
        }
    }

    /// The overlapping-community output: every label whose observation
    /// share in `v`'s memory is at least the threshold.
    pub fn overlapping_labels(&self, v: VertexId) -> Vec<Label> {
        let m = &self.memories[v as usize];
        let total: u32 = m.entries.iter().map(|e| e.1).sum();
        let mut out: Vec<Label> = m
            .entries
            .iter()
            .filter(|e| f64::from(e.1) >= self.threshold * f64::from(total))
            .map(|e| e.0)
            .collect();
        out.sort_unstable();
        out
    }

    /// The full overlapping-community output: for every label kept by at
    /// least one vertex's thresholded memory, the member list. A vertex
    /// appears under several labels when its memory retains several — the
    /// capability SLP exists for (§3.1).
    pub fn overlapping_communities(&self) -> std::collections::HashMap<Label, Vec<VertexId>> {
        let mut out: std::collections::HashMap<Label, Vec<VertexId>> =
            std::collections::HashMap::new();
        for v in 0..self.memories.len() as VertexId {
            for l in self.overlapping_labels(v) {
                out.entry(l).or_default().push(v);
            }
        }
        out
    }

    fn refresh_dominants(&mut self) {
        for (v, m) in self.memories.iter().enumerate() {
            self.labels_cache[v] = m.dominant();
        }
    }

    #[inline]
    fn draw_noise(&self, v: VertexId) -> u64 {
        // SplitMix-style mix of (seed, iteration, vertex).
        let mut x = self
            .seed
            .wrapping_add(u64::from(self.iteration) << 32)
            .wrapping_add(u64::from(v));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

impl LpProgram for Slp {
    fn num_vertices(&self) -> usize {
        self.memories.len()
    }

    fn pick_label(&self, v: VertexId) -> Label {
        self.memories[v as usize].speak(self.draw_noise(v))
    }

    fn label_score(&self, _v: VertexId, _l: Label, freq: f64) -> f64 {
        freq
    }

    fn update_vertex(&mut self, v: VertexId, winner: Option<(Label, f64)>) -> bool {
        match winner {
            Some((l, _)) => self.memories[v as usize].observe(l, self.max_labels),
            None => false,
        }
    }

    fn begin_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    fn end_iteration(&mut self, _iteration: u32) {
        self.refresh_dominants();
    }

    fn finished(&self, iteration: u32, _changed: u64) -> bool {
        iteration + 1 >= self.max_iterations
    }

    fn labels(&self) -> &[Label] {
        &self.labels_cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_accumulates_and_evicts() {
        let mut m = Memory::seeded(7);
        assert!(!m.observe(7, 3)); // reinforce existing
        assert!(m.observe(8, 3));
        assert!(m.observe(9, 3));
        // Memory full at cap 3: a new label evicts the weakest (8 or 9,
        // count 1, tie toward larger label => 9 evicted).
        assert!(m.observe(10, 3));
        let labels: Vec<Label> = m.entries.iter().map(|e| e.0).collect();
        assert!(labels.contains(&7) && labels.contains(&8) && labels.contains(&10));
    }

    #[test]
    fn dominant_is_most_observed() {
        let mut m = Memory::seeded(1);
        m.observe(2, 5);
        m.observe(2, 5);
        assert_eq!(m.dominant(), 2);
    }

    #[test]
    fn speak_is_deterministic_and_weighted() {
        let mut m = Memory::seeded(1);
        m.observe(2, 5);
        m.observe(2, 5);
        // total weight 3: noise 0 -> label 1; noise 1,2 -> label 2
        assert_eq!(m.speak(0), 1);
        assert_eq!(m.speak(1), 2);
        assert_eq!(m.speak(2), 2);
        assert_eq!(m.speak(3), 1);
    }

    #[test]
    fn overlapping_labels_threshold() {
        let mut s = Slp::with_params(1, 5, 0.4, 20, 1);
        s.memories[0] = Memory::seeded(3);
        s.memories[0].observe(3, 5);
        s.memories[0].observe(4, 5);
        // counts: 3 -> 2, 4 -> 1; total 3; threshold 0.4 -> need >= 1.2
        assert_eq!(s.overlapping_labels(0), vec![3]);
    }

    #[test]
    fn overlapping_communities_aggregate() {
        let mut s = Slp::with_params(2, 5, 0.3, 20, 1);
        s.memories[0] = Memory::seeded(3);
        s.memories[0].observe(4, 5);
        s.memories[1] = Memory::seeded(4);
        let c = s.overlapping_communities();
        assert_eq!(c[&4], vec![0, 1], "vertex 0 overlaps into community 4");
        assert_eq!(c[&3], vec![0]);
    }

    #[test]
    fn runs_fixed_iterations() {
        let s = Slp::new(4, 9);
        assert!(!s.finished(5, 0));
        assert!(s.finished(19, 100));
    }
}
