//! Cross-engine equivalence: the engine oracle sliced by program and by
//! engine. Every engine, bare or on a recovery ladder, must produce the
//! plain host run's labels — what makes the benchmark comparisons
//! meaningful.

use glp_test_support::oracle::*;

#[test]
fn classic_lp_agrees_everywhere() {
    sweep(64, 0xE0, |c| c.program = Classic);
}

#[test]
fn llp_agrees_everywhere() {
    for gamma in [0, 1, 2, 16] {
        sweep(32, 0xE1, |c| c.program = Llp(gamma));
    }
}

#[test]
fn slp_agrees_everywhere() {
    sweep(64, 0xE2, |c| c.program = Slp);
}

#[test]
fn seeded_lp_agrees_everywhere() {
    sweep(64, 0xE3, |c| c.program = Seeded);
}

/// TigerGraph runs classic LP only, like the original.
#[test]
fn tigergraph_agrees_on_classic() {
    sweep(64, 0xE4, |c| c.rigs = vec![Tg]);
}

/// Per-iteration report vectors, one hook call and one iteration span per
/// iteration under one run span, on every engine — over runs of two
/// iterations or more, too.
#[test]
fn every_engine_reports_hooks_and_traces_every_iteration() {
    for rig in Rig::ALL {
        let seen = sweep(16, 0xE5, |c| {
            (c.rigs, c.hook, c.tracer) = (vec![rig], true, true)
        });
        assert!(
            seen.contains("2+ iterations"),
            "{rig:?} never iterated twice"
        );
    }
}
