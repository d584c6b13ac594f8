//! # glp-test-support — shared builders for the workspace test suites
//!
//! Two kinds of fixture live here. The engine suites share one generator:
//! [`oracle`] draws small LP runs over every engine, program and run
//! option and checks each against the plain host BSP run, shrinking a
//! failure to a `Case` literal (the frontier, direction and
//! engine-equivalence suites are its sweeps, `tests/engine_oracle.rs` its
//! pinned repros). Around it sit the fixtures the other suites need: the two
//! out-of-crate programs ([`MixLp`], [`SaltedLp`]), the modeled-clock
//! claims' workload, and the deterministic transaction streams of the fraud
//! and serving suites.
//!
//! Everything here is deterministic: fixed seeds, fixed sizes, no
//! clocks. Builders hand out *fresh* instances per call (programs and
//! engines are stateful), so each run owns its state.

pub mod oracle;

use glp_core::{LpProgram, NeighborContribution};
use glp_fraud::{
    AdversarialStream, AdversaryConfig, RegionalStream, RegionalTxConfig, TxConfig, TxStream,
};
use glp_graph::{EdgeId, Graph, GraphBuilder, Label, VertexId};

/// The convergence-shaped workload of the modeled-clock claims: `cliques`
/// disjoint `k`-cliques (settle in ~3 BSP rounds) plus one `path_len`-vertex
/// path (labels keep sliding, so a thin frontier survives every round).
pub fn convergence_workload(cliques: usize, k: usize, path_len: usize) -> Graph {
    let mut b = GraphBuilder::new(cliques * k + path_len);
    for c in 0..cliques {
        let base = c * k;
        for a in 0..k {
            for z in (a + 1)..k {
                b.add_edge((base + a) as VertexId, (base + z) as VertexId);
            }
        }
    }
    for i in 1..path_len {
        let v = (cliques * k + i) as VertexId;
        b.add_edge(v - 1, v);
    }
    b.symmetrize(true);
    b.build()
}

/// A program written against the public trait only: per-edge weights
/// derived from the endpoint ids (non-uniform, so packed warps take the
/// weighted reduction) and a retention bonus in the score. Defined here,
/// outside `glp-core`, against the documented Table 1 callbacks only —
/// what every out-of-crate program looks like to the engines.
/// `tests/host_path_identity.rs` pins its decisions and charges.
pub struct MixLp {
    /// Current labels; start it from `(0..n).collect()`.
    pub labels: Vec<Label>,
}

/// `MixLp`'s iteration cap (part of what `host_path_identity.rs` pins).
const MIX_ITERS: u32 = 8;

impl LpProgram for MixLp {
    fn num_vertices(&self) -> usize {
        self.labels.len()
    }
    fn pick_label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }
    fn load_neighbor(
        &self,
        v: VertexId,
        u: VertexId,
        _edge: EdgeId,
        label: Label,
    ) -> NeighborContribution {
        NeighborContribution {
            label,
            weight: 1.0 + f64::from((v ^ u) & 3),
        }
    }
    fn label_score(&self, v: VertexId, l: Label, freq: f64) -> f64 {
        if l == self.labels[v as usize] {
            freq + 0.5
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
        changed == 0 || iteration + 1 >= MIX_ITERS
    }
    fn sparse_activation(&self) -> bool {
        true
    }
    fn labels(&self) -> &[Label] {
        &self.labels
    }
}

/// A program the old checkpointing recovery could not have carried: its
/// `begin_iteration` is counting and **not idempotent** (every call draws a
/// fresh salt that the scores read), and it offers no way to save or
/// restore that state. Recovery must therefore never begin an iteration
/// twice — and never needs to.
pub struct SaltedLp {
    labels: Vec<Label>,
    salt: u32,
    /// Every iteration begun, in order.
    pub begun: Vec<u32>,
}

impl SaltedLp {
    /// The iteration cap.
    pub const ITERS: u32 = 6;

    /// Every vertex its own label.
    pub fn new(n: usize) -> Self {
        Self {
            labels: (0..n as Label).collect(),
            salt: 0,
            begun: Vec::new(),
        }
    }
}

impl LpProgram for SaltedLp {
    fn num_vertices(&self) -> usize {
        self.labels.len()
    }
    fn pick_label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }
    fn label_score(&self, _v: VertexId, l: Label, freq: f64) -> f64 {
        freq + f64::from((l ^ self.salt) & 3) / 8.0
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
    fn begin_iteration(&mut self, iteration: u32) {
        self.salt = self.salt.wrapping_mul(31).wrapping_add(iteration + 7);
        self.begun.push(iteration);
    }
    fn finished(&self, iteration: u32, _changed: u64) -> bool {
        iteration + 1 >= Self::ITERS
    }
    fn labels(&self) -> &[Label] {
        &self.labels
    }
}

/// The standard deterministic fraud workload: three planted rings in a
/// background of organic traffic, sized so LP flags the rings within a
/// couple of reclusters. Shared by the serve and pipeline suites.
pub fn tx_stream() -> TxStream {
    TxStream::generate(&TxConfig {
        num_users: 1_000,
        num_items: 400,
        days: 20,
        tx_per_day: 600,
        num_rings: 3,
        ring_size: 10,
        ring_tx_per_day: 30,
        blacklist_fraction: 0.25,
        ..Default::default()
    })
}

/// The standard deterministic *regional* fraud workload for the sharded
/// fleet suites: organic traffic strictly region-local (communities the
/// partitioner can co-locate), with fraud rings straddling adjacent
/// region pairs so the cross-shard label exchange always has real
/// boundary components to reconcile. Shared by the fleet determinism,
/// shard-loss, and recovery suites.
pub fn regional_stream() -> RegionalStream {
    RegionalStream::generate(&RegionalTxConfig {
        regions: 8,
        users_per_region: 200,
        items_per_region: 80,
        days: 12,
        tx_per_day: 800,
        cross_rings: 8,
        ring_size: 10,
        ring_tx_per_day: 30,
        blacklist_fraction: 0.3,
        ..Default::default()
    })
}

/// The standard deterministic *adversarial* workload for the robustness
/// suites: evolving rings that rotate members daily behind camouflage
/// purchases, a mid-stream burst flood, and planted blacklist label
/// noise — each attack with per-day ground truth. Shared by the
/// overload and label-noise suites.
pub fn adversarial_stream() -> AdversarialStream {
    AdversarialStream::generate(&AdversaryConfig {
        base: RegionalTxConfig {
            regions: 4,
            users_per_region: 200,
            items_per_region: 80,
            days: 12,
            tx_per_day: 800,
            cross_rings: 4,
            // Pools much larger than the active subset, so rotation
            // genuinely walks the ring *away* from old snapshots
            // (rotate 2/day never wraps within the 12-day stream).
            ring_size: 30,
            ring_tx_per_day: 30,
            blacklist_fraction: 0.3,
            ..Default::default()
        },
        active_members: 6,
        rotate_per_day: 2,
        camouflage_per_day: 10,
        burst_day: Some(6),
        burst_tx: 4_000,
        label_noise: 6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_builders_are_deterministic() {
        let a = tx_stream();
        let b = tx_stream();
        assert_eq!(a.blacklist, b.blacklist, "stream builder must be seeded");
        let r = regional_stream();
        let r2 = regional_stream();
        assert_eq!(r.blacklist, r2.blacklist, "regional builder must be seeded");
        assert!(!r.blacklist.is_empty(), "rings must seed a blacklist");
        let adv = adversarial_stream();
        let adv2 = adversarial_stream();
        assert_eq!(
            adv.transactions, adv2.transactions,
            "adversarial builder must be seeded"
        );
        assert!(!adv.noise.is_empty(), "preset must plant label noise");
        assert!(
            adv.truth_by_day.windows(2).any(|w| w[0] != w[1]),
            "preset rings must actually rotate"
        );
        let burst_day = adv.config.burst_day.expect("preset must flood") as usize;
        let per_day = |s: &AdversarialStream, d: u32| s.window(d, d + 1).count();
        assert!(
            per_day(&adv, burst_day as u32) > 2 * per_day(&adv, burst_day as u32 - 1),
            "burst day must dwarf a calm day"
        );
    }
}
