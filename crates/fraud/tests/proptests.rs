//! Property-based invariants of the fraud substrate: window algebra and
//! incremental-maintenance equivalence for arbitrary stream shapes.

use glp_fraud::{IncrementalWindow, Transaction, TxConfig, TxStream, WindowWorkload};
use proptest::prelude::*;

/// A window of `days` days ending at `end`, filled the way serving fills
/// one: its transactions as one batch, then the clock to `end`.
fn window(s: &TxStream, days: u32, end: u32) -> IncrementalWindow {
    let log: Vec<Transaction> = s.window(end.saturating_sub(days), end).copied().collect();
    let mut w = IncrementalWindow::empty(days);
    w.apply_batch(&log);
    w.advance_to(end);
    w
}

fn arbitrary_stream() -> impl Strategy<Value = TxStream> {
    (
        50u32..400,  // users
        20u32..150,  // items
        3u32..15,    // days
        20u32..200,  // tx/day
        0u32..3,     // rings
        any::<u8>(), // seed
    )
        .prop_map(|(users, items, days, tx, rings, seed)| {
            TxStream::generate(&TxConfig {
                num_users: users,
                num_items: items,
                days,
                tx_per_day: tx,
                num_rings: rings,
                ring_size: (users / 8).clamp(2, 10),
                ring_tx_per_day: 10,
                blacklist_fraction: 0.5,
                seed: u64::from(seed),
                ..Default::default()
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Window graphs: always bipartite, weight total = transaction count.
    #[test]
    fn window_weight_equals_transactions(stream in arbitrary_stream(), days in 1u32..12) {
        let w = WindowWorkload::build(&stream, days);
        let start = stream.config.days.saturating_sub(days);
        let tx = stream.window(start, stream.config.days).count() as f64;
        // Symmetrized: each transaction contributes weight 1 in each
        // direction.
        let total: f64 = (0..w.graph.num_vertices() as u32)
            .filter_map(|v| w.graph.incoming().neighbor_weights(v))
            .flat_map(|ws| ws.iter().map(|&x| f64::from(x)))
            .sum();
        prop_assert_eq!(total, 2.0 * tx);
    }

    /// Incremental maintenance equals from-scratch builds after any number
    /// of advances.
    #[test]
    fn incremental_equals_scratch(stream in arbitrary_stream(), days in 1u32..6, advances in 0u32..8) {
        let start_end = days.min(stream.config.days);
        let mut inc = window(&stream, days, start_end);
        for _ in 0..advances.min(stream.config.days.saturating_sub(start_end)) {
            let end = inc.end() + 1;
            inc.apply_batch(&stream.window(end - 1, end).copied().collect::<Vec<_>>());
            inc.advance_to(end);
        }
        let reference = window(&stream, days, inc.end());
        prop_assert_eq!(inc.num_pairs(), reference.num_pairs());
        let (a, b) = (inc.materialize().graph, reference.materialize().graph);
        prop_assert_eq!(a.incoming().offsets(), b.incoming().offsets());
        prop_assert_eq!(a.incoming().targets(), b.incoming().targets());
        prop_assert_eq!(a.incoming().weights(), b.incoming().weights());
    }

    /// Longer windows never shrink the graph.
    #[test]
    fn window_monotone_in_days(stream in arbitrary_stream()) {
        let mut prev_edges = 0u64;
        let mut prev_vertices = 0usize;
        for days in 1..=stream.config.days {
            let w = WindowWorkload::build(&stream, days);
            prop_assert!(w.graph.num_edges() >= prev_edges);
            prop_assert!(w.graph.num_vertices() >= prev_vertices);
            prev_edges = w.graph.num_edges();
            prev_vertices = w.graph.num_vertices();
        }
    }

    /// Seeds are always user vertices present in the window.
    #[test]
    fn seeds_are_valid_users(stream in arbitrary_stream(), days in 1u32..10) {
        let w = WindowWorkload::build(&stream, days);
        for s in w.seeds(&stream) {
            prop_assert!(w.is_user(s));
            prop_assert!((s as usize) < w.graph.num_vertices());
        }
    }
}
