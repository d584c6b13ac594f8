//! Shared workload construction for the Table 4 / Figure 7 experiments and
//! the period-2 records' bench inputs.

use glp_fraud::{TxConfig, TxStream};
use glp_graph::datasets::by_name;
use glp_graph::gen::{bipartite_interaction, BipartiteConfig};
use glp_graph::Graph;

/// The transaction stream behind the sliding-window experiments, at
/// `1/scale` of the harness's full bench size (which itself stands in for
/// TaoBao's production volume at roughly 1/1500 of Table 4's |V|).
/// `scale = 4` (the binaries' default) keeps a full Figure 7 run in the
/// tens of seconds.
pub fn table4_stream(scale: u64) -> TxStream {
    assert!(scale >= 1, "scale must be at least 1");
    let s = scale as u32;
    TxStream::generate(&TxConfig {
        num_users: 600_000 / s,
        num_items: 200_000 / s,
        days: 100,
        tx_per_day: 60_000 / s,
        skew: 0.7,
        num_rings: 40 / s.min(8),
        ring_size: 25,
        ring_tx_per_day: 60,
        blacklist_fraction: 0.2,
        seed: 0xFA7D,
    })
}

/// The user–item window of the `period2` bench group (4 000 users, 1 500
/// items, 64 000 interactions): synchronous LP falls into a 2-cycle on it.
pub fn period2_window() -> Graph {
    bipartite_interaction(&BipartiteConfig {
        num_users: 4_000,
        num_items: 1_500,
        num_interactions: 64_000,
        skew: 0.8,
        seed: 1,
    })
}

/// The road lattice of the `period2` bench group (`roadNet` at 1/64 of its
/// default scale): its labels keep sliding, no LP input repeats.
pub fn period2_lattice() -> Graph {
    by_name("roadNet").expect("registry").generate_scaled(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glp_fraud::WindowWorkload;

    #[test]
    fn scaled_stream_has_table4_shape() {
        let s = table4_stream(32);
        let w10 = WindowWorkload::build(&s, 10);
        let w100 = WindowWorkload::build(&s, 100);
        let v_ratio = w100.graph.num_vertices() as f64 / w10.graph.num_vertices() as f64;
        let e_ratio = w100.graph.num_edges() as f64 / w10.graph.num_edges() as f64;
        // Table 4: V grows ~2.2x from 10 to 100 days, E ~6x.
        assert!((1.3..4.0).contains(&v_ratio), "V ratio {v_ratio}");
        assert!(e_ratio > 3.0, "E ratio {e_ratio}");
        assert!(v_ratio < e_ratio);
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use glp_core::engine::HybridEngine;
    use glp_core::{ClassicLp, Engine, RunOptions};
    use glp_fraud::WindowWorkload;
    use glp_gpusim::{Device, DeviceConfig};

    #[test]
    #[ignore]
    fn probe_convergence() {
        let s = table4_stream(16);
        let w = WindowWorkload::build(&s, 50);
        let dev = Device::new(DeviceConfig::tiny(4 << 20));
        let mut e = HybridEngine::new(dev);
        let mut p = ClassicLp::with_max_iterations(w.graph.num_vertices(), 20);
        let r = e.run(&w.graph, &mut p, &RunOptions::default()).unwrap();
        eprintln!(
            "V={} E={} changed={:?}",
            w.graph.num_vertices(),
            w.graph.num_edges(),
            r.changed_per_iteration
        );
        eprintln!(
            "transfer={} modeled={}",
            r.transfer_seconds, r.modeled_seconds
        );
    }
}
