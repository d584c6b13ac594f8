//! Pinned fingerprints of the two region generators.
//!
//! Each row is a hash of one stream's transactions (buyer, item, day and
//! amount bits, in order), its blacklist and its ring membership, captured
//! before the ring layout, the ring targets and the organic draw were
//! written once for both generators. The benchmark's `serve_fleet` pins a
//! modeled clock that reads these bits, so a generator change that moves
//! one transaction fails here first.

use glp_fraud::{
    AdversarialStream, AdversaryConfig, RegionalStream, RegionalTxConfig, Transaction,
};

/// FNV-1a over 64-bit words.
fn fingerprint(txs: &[Transaction], blacklist: &[u32], ring_of: &[Option<u32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in txs {
        eat(u64::from(t.buyer) << 32 | u64::from(t.item));
        eat(u64::from(t.day) << 32 | u64::from(t.amount.to_bits()));
    }
    eat(blacklist.len() as u64);
    blacklist.iter().for_each(|&u| eat(u64::from(u)));
    ring_of
        .iter()
        .for_each(|r| eat(r.map_or(0, |k| u64::from(k) + 1)));
    h
}

/// `serve_fleet`'s region geometry (scale 1), over its first 20 days.
fn fleet() -> RegionalTxConfig {
    RegionalTxConfig {
        regions: 8,
        users_per_region: 400,
        items_per_region: 150,
        days: 20,
        tx_per_day: 6_000,
        cross_rings: 8,
        ring_size: 12,
        ring_tx_per_day: 40,
        blacklist_fraction: 0.25,
        seed: 1,
    }
}

#[test]
fn the_regional_stream_keeps_its_bytes() {
    let s = RegionalStream::generate(&fleet());
    let got = fingerprint(&s.transactions, &s.blacklist, &s.ring_of);
    assert_eq!(got, 1238205702082062348, "the regional stream changed");
}

/// The adversary fixture of `glp-test-support`: rotating pools behind
/// camouflage, a burst day and planted label noise.
#[test]
fn the_adversarial_stream_keeps_its_bytes() {
    let s = AdversarialStream::generate(&AdversaryConfig {
        base: RegionalTxConfig {
            regions: 4,
            users_per_region: 200,
            items_per_region: 80,
            days: 12,
            tx_per_day: 800,
            cross_rings: 4,
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
    });
    let got = fingerprint(&s.transactions, &s.blacklist, &s.ring_of);
    assert_eq!(got, 17661347044759745280, "the adversarial stream changed");
}
