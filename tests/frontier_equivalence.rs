//! Frontier-vs-dense bit-identity: the engine oracle under the `Auto`
//! frontier (every program; the globally-coupled ones pin the silent dense
//! fallback), plus what the oracle does not check — that the frontier
//! actually cuts the work.

use glp_suite::core::engine::GpuEngine;
use glp_suite::core::{Engine, FrontierMode, RunOptions};
use glp_suite::graph::gen::caveman;
use glp_test_support::oracle::{sweep, Auto, Program};

const ITERS: u32 = 12;

#[test]
fn frontier_is_bit_identical_to_dense_for_every_variant_and_engine() {
    sweep(128, 0xF0, |c| c.frontier = Auto);
}

#[test]
fn sparse_variants_do_less_work_under_auto() {
    // The frontier must actually engage for sparse-activation programs:
    // summed active counts under Auto must undercut Dense once settling
    // starts. (Non-sparse programs fall back to dense and are exempt.)
    let g = caveman(12, 8);
    for (program, sparse) in [
        (Program::Classic, true),
        (Program::Seeded, true),
        (Program::Llp(2), false),
    ] {
        let total_active = |frontier: FrontierMode| -> u64 {
            let opts = RunOptions::default()
                .with_max_iterations(ITERS)
                .with_frontier(frontier);
            let mut prog = program.build(&g, ITERS);
            let report = GpuEngine::titan_v().run(&g, prog.as_mut(), &opts).unwrap();
            report.active_per_iteration.iter().sum()
        };
        let dense = total_active(FrontierMode::Dense);
        let auto = total_active(FrontierMode::Auto);
        if sparse {
            assert!(
                auto < dense,
                "{program:?}: frontier never engaged ({auto} vs {dense})"
            );
        } else {
            assert_eq!(auto, dense, "{program:?}: dense fallback should be exact");
        }
    }
}
