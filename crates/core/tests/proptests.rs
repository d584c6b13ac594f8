//! Property-based end-to-end checks of the GLP engine: for arbitrary small
//! graphs, every kernel path must agree with a brute-force MFL reference
//! under the workspace tie rule, across strategies and variants.

use glp_core::engine::{Engine, GpuEngine, MflStrategy, RunOptions};
use glp_core::{ClassicLp, Llp, LpProgram};
use glp_graph::{Graph, GraphBuilder, Label, VertexId, INVALID_LABEL};
use proptest::prelude::*;
use std::collections::HashMap;

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..40,
        prop::collection::vec((0u32..40, 0u32..40), 1..300),
    )
        .prop_map(|(n, es)| {
            let n = n.max(2);
            let mut b = GraphBuilder::new(n);
            for (s, d) in es {
                b.add_edge(s % n as u32, d % n as u32);
            }
            b.symmetrize(true).dedup(true);
            b.build()
        })
}

/// One synchronous reference iteration of classic LP with the shared tie
/// rule (score desc, current label, then smaller label).
fn reference_step(g: &Graph, labels: &[Label]) -> Vec<Label> {
    let mut next = labels.to_vec();
    for v in 0..g.num_vertices() as VertexId {
        let mut counts: HashMap<Label, u64> = HashMap::new();
        for &u in g.neighbors(v) {
            *counts.entry(labels[u as usize]).or_default() += 1;
        }
        let current = labels[v as usize];
        let mut best: Option<(Label, u64)> = None;
        for (&l, &c) in &counts {
            let wins = match best {
                None => true,
                Some((bl, bc)) => c > bc || (c == bc && bl != current && (l == current || l < bl)),
            };
            if wins {
                best = Some((l, c));
            }
        }
        if let Some((l, _)) = best {
            next[v as usize] = l;
        }
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One engine iteration == the brute-force reference, per strategy.
    #[test]
    fn engine_matches_reference_step(g in arbitrary_graph()) {
        let expected = reference_step(&g, &(0..g.num_vertices() as Label).collect::<Vec<_>>());
        for strategy in [MflStrategy::Global, MflStrategy::Smem, MflStrategy::SmemWarp] {
            let mut engine = GpuEngine::titan_v();
            let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 1);
            engine
                .run(&g, &mut prog, &RunOptions::default().with_strategy(strategy))
                .unwrap();
            prop_assert_eq!(prog.labels(), &expected[..], "{:?}", strategy);
        }
    }

    /// Tiny CMS+HT geometry (forcing overflow + fallback paths) still
    /// produces exact results — §4.1's "not an approximated solution".
    #[test]
    fn tiny_smem_geometry_still_exact(g in arbitrary_graph()) {
        let expected = reference_step(&g, &(0..g.num_vertices() as Label).collect::<Vec<_>>());
        let opts = RunOptions {
            strategy: MflStrategy::SmemWarp,
            ht_slots: 2,
            ht_probe_limit: 1,
            cms_depth: 2,
            cms_width: 8,
            thresholds: glp_core::engine::DegreeThresholds { low: 3, high: 4 },
            mid_ht_slots: 256,
            ..Default::default()
        };
        let mut engine = GpuEngine::titan_v();
        let mut prog = ClassicLp::with_max_iterations(g.num_vertices(), 1);
        engine.run(&g, &mut prog, &opts).unwrap();
        prop_assert_eq!(prog.labels(), &expected[..]);
    }

    /// Multi-iteration runs: label count never increases and labels are
    /// always drawn from the original id space.
    #[test]
    fn labels_stay_in_domain(g in arbitrary_graph()) {
        let n = g.num_vertices();
        let mut engine = GpuEngine::titan_v();
        let mut prog = ClassicLp::with_max_iterations(n, 8);
        engine.run(&g, &mut prog, &RunOptions::default()).unwrap();
        for (v, &l) in prog.labels().iter().enumerate() {
            prop_assert!(l != INVALID_LABEL);
            prop_assert!((l as usize) < n, "vertex {v} got out-of-domain label {l}");
        }
    }

    /// LLP with γ=0 is exactly classic LP, for any graph.
    #[test]
    fn llp_gamma_zero_is_classic(g in arbitrary_graph()) {
        let n = g.num_vertices();
        let mut classic = ClassicLp::with_max_iterations(n, 6);
        GpuEngine::titan_v()
            .run(&g, &mut classic, &RunOptions::default())
            .unwrap();
        let mut llp = Llp::with_max_iterations(n, 0.0, 6);
        GpuEngine::titan_v()
            .run(&g, &mut llp, &RunOptions::default())
            .unwrap();
        prop_assert_eq!(classic.labels(), llp.labels());
    }
}
