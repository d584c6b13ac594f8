//! Push ≡ pull ≡ auto ≡ dense: the engine oracle's default sweep, and its
//! slices by frontier mode. `glp_test_support::oracle` holds every draw's
//! labels, `changed` trace and iteration count to the plain dense host
//! run, its `active` trace to a host run in the same mode (`v ∈ out(u) ⟺
//! u ∈ in(v)`, so push and pull rebuild the same frontier), and its
//! direction record to the mode. The pinned repros are in
//! `tests/engine_oracle.rs`.

use glp_test_support::oracle::*;

/// The default sweep, and the generator's coverage check: over it, every
/// engine, ladder shape, program, mode, strategy, shard count, flag and
/// fault kind is drawn, every propagation kernel launches and the CMS+HT
/// global fallback fires.
#[test]
fn random_graphs_are_direction_invariant() {
    let gaps = coverage_gaps(&sweep(CASES, SEED, |_| {}));
    assert!(gaps.is_empty(), "never drawn or never run: {gaps:?}");
}

#[test]
fn every_direction_is_bit_identical_to_dense_for_every_variant_and_engine() {
    for mode in [Push, Pull, Auto] {
        sweep(128, 0xD0, |c| c.frontier = mode);
    }
}

/// A forced mode records only its own direction (Dense for a program
/// without sparse activation).
#[test]
fn forced_modes_record_their_own_direction() {
    for mode in [Push, Pull] {
        sweep(128, 0xD4, |c| c.frontier = mode);
    }
}

/// The same draws in all four modes: each equals the one plain run.
#[test]
fn all_four_modes_agree_pairwise() {
    for mode in [Dense, Push, Pull, Auto] {
        sweep(64, 0xD5, |c| c.frontier = mode);
    }
}
