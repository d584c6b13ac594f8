//! Blacklist label noise and its retraction.
//!
//! An adversary (or a sloppy upstream feed) plants innocent accounts in
//! the seed blacklist, and the poison shapes verdicts: seeds decide which
//! clusters get scored. They do not steer the weighted LP — it starts
//! from unique labels and never reads a seed — so the memoized LP
//! trajectory a replay reuses is the same under any seed set, and every
//! recluster scores against the live seeds. This suite pins that
//! contract: `update_blacklist` applies the retraction (or addition) and
//! bumps `blacklist_revisions`, the next recluster may still *replay*
//! the warm memo, and the service publishes verdicts byte-identical to a
//! service seeded that way from the start. Both the single core and the
//! sharded fleet (shard memos and the cached boundary recluster) are
//! covered.

use glp_fraud::Transaction;
use glp_serve::{
    FleetConfig, FleetCore, Partitioner, ReclusterMode, ServeConfig, ServiceCore, VerdictSnapshot,
};
use glp_test_support::adversarial_stream;

/// A config where incremental replay is always eligible (any frontier
/// size accepted, no drift cap), so the run after a blacklist change
/// replays whenever the memo covers the window.
fn greedy_incremental() -> ServeConfig {
    let mut cfg = ServeConfig::default().with_window_days(10);
    cfg.delta_fraction_max = 1.0;
    cfg.full_recluster_every = 0;
    cfg
}

#[test]
fn a_retraction_replays_and_restores_clean_verdicts() {
    let s = adversarial_stream();
    assert!(!s.noise.is_empty(), "stream must plant label noise");
    let all: Vec<Transaction> = s.window(0, s.config.base.days).copied().collect();

    // The reference: a core that was never poisoned.
    let clean = ServiceCore::new(greedy_incremental(), s.clean_blacklist());
    for chunk in all.chunks(400) {
        clean.apply_transactions(chunk);
    }
    clean.recluster_now();
    let clean_bytes = clean.snapshot().canonical_bytes();

    // The victim: seeded with truth + noise, reclustering as it goes so
    // a warm memo exists when the retraction lands.
    let noised = ServiceCore::new(greedy_incremental(), s.blacklist.clone());
    for chunk in all.chunks(400) {
        noised.apply_transactions(chunk);
    }
    let first = noised.recluster_now();
    assert_eq!(first.mode, ReclusterMode::Full, "cold start runs full");
    assert_ne!(
        noised.blacklist(),
        s.clean_blacklist(),
        "the victim must actually be seeded with the noise"
    );

    // Control: with a warm memo and no churn, the next recluster replays.
    let control = noised.recluster_now();
    assert_eq!(
        control.mode,
        ReclusterMode::Incremental,
        "a warm memo must be eligible right before the retraction"
    );

    // The retraction: same window, same memo, new seeds. The trajectory
    // never read a seed, so the next recluster replays it and scores
    // against the retracted set.
    assert!(noised.update_blacklist(&[], &s.noise));
    assert!(
        !noised.update_blacklist(&[], &s.noise),
        "retracting twice is a no-op"
    );
    let after = noised.recluster_now();
    assert_eq!(
        after.mode,
        ReclusterMode::Incremental,
        "a blacklist change leaves the memo's stamp, and so the replay, intact"
    );
    assert_eq!(
        noised.blacklist(),
        s.clean_blacklist(),
        "retraction must leave exactly the true seeds"
    );
    assert_eq!(
        noised.snapshot().canonical_bytes(),
        clean_bytes,
        "after retraction the verdicts must match a never-poisoned run"
    );
    assert_eq!(
        noised.telemetry().snapshot().counter("blacklist_revisions"),
        1
    );
}

#[test]
fn an_addition_replays_and_matches_a_noisy_start() {
    let s = adversarial_stream();
    let all: Vec<Transaction> = s.window(0, s.config.base.days).copied().collect();
    // Start from the clean truth and *add* the noise instead: the
    // contract is symmetric in add/remove.
    let core = ServiceCore::new(greedy_incremental(), s.clean_blacklist());
    for chunk in all.chunks(400) {
        core.apply_transactions(chunk);
    }
    core.recluster_now();
    assert!(core.update_blacklist(&s.noise, &[]));
    assert_eq!(core.recluster_now().mode, ReclusterMode::Incremental);

    // And the poisoned result equals a run that was seeded noisy from
    // the start — update_blacklist is a real seed-set transition, not a
    // side channel.
    let reference = ServiceCore::new(greedy_incremental(), s.blacklist.clone());
    for chunk in all.chunks(400) {
        reference.apply_transactions(chunk);
    }
    reference.recluster_now();
    assert_eq!(
        core.snapshot().canonical_bytes(),
        reference.snapshot().canonical_bytes()
    );
}

/// Drives a fleet over the stream in 400-transaction batches with an
/// exchange round every 4 batches and once at the end, and returns every
/// snapshot those rounds publish. With `retract`, the fleet starts from
/// the noisy seeds and retracts the noise halfway, right after a round,
/// so the boundary cache and the shard memos are warm when it lands;
/// without, it starts from the clean seeds.
fn fleet_snapshots(s: &glp_fraud::AdversarialStream, shards: usize, retract: bool) -> Vec<Vec<u8>> {
    let cfg = FleetConfig {
        shards,
        shard: greedy_incremental(),
        ..FleetConfig::default()
    }
    .with_window_days(10);
    let partitioner = Partitioner::with_communities(shards, 7, s.community_map());
    let seeds = if retract {
        s.blacklist.clone()
    } else {
        s.clean_blacklist()
    };
    let core = FleetCore::new(cfg, partitioner, seeds);
    let all: Vec<Transaction> = s.window(0, s.config.base.days).copied().collect();
    let chunks: Vec<&[Transaction]> = all.chunks(400).collect();
    let retract_at = chunks.len() / 8 * 4;
    let mut snapshots = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        if retract && i == retract_at {
            assert!(core.update_blacklist(&[], &s.noise));
        }
        core.apply_transactions(chunk);
        if (i + 1) % 4 == 0 {
            core.exchange_now();
            snapshots.push(core.fleet_snapshot().verdicts.canonical_bytes());
        }
    }
    core.exchange_now();
    snapshots.push(core.fleet_snapshot().verdicts.canonical_bytes());
    snapshots
}

#[test]
fn fleet_retraction_matches_a_never_poisoned_fleet() {
    let s = adversarial_stream();
    let clean = fleet_snapshots(&s, 2, false);
    let retracted = fleet_snapshots(&s, 2, true);
    assert_eq!(
        retracted.last(),
        clean.last(),
        "2-shard fleet must recover byte-identically after retraction"
    );
    // And every snapshot the retracted fleet publishes agrees across
    // shard counts.
    assert_eq!(fleet_snapshots(&s, 1, true), retracted);
    assert_eq!(fleet_snapshots(&s, 4, true), retracted);
}

#[test]
fn probe_sees_stale_snapshots_lose_recall() {
    // Scoring against ground truth makes the *rotation* attack visible:
    // a snapshot frozen early in the stream keeps flagging the mules of
    // its day while the ring rotates fresh accounts in, so its recall
    // against current truth decays — where a live, reclustering service
    // keeps it high.
    // A 10-day window keeps the statically-seeded members inside the
    // live window (so seeded LP still finds the ring) while the frozen
    // snapshot's members rotate out of the current truth.
    let s = adversarial_stream();
    let days = s.config.base.days;
    let window = 10;
    let cfg = ServeConfig::default().with_window_days(window);

    let core = ServiceCore::new(cfg, s.clean_blacklist());
    let day_txs = |d: u32| -> Vec<Transaction> { s.window(d, d + 1).copied().collect() };
    for d in 0..4 {
        core.apply_transactions(&day_txs(d));
    }
    core.recluster_now();
    let stale = core.snapshot();
    assert!(stale.num_flagged() > 0, "the early rings must be flagged");

    for d in 4..days {
        core.apply_transactions(&day_txs(d));
    }
    core.recluster_now();
    let live = core.snapshot();

    // Both snapshots, scored against the truth of *today's* window.
    let end = live.window_end;
    let truth_now = s.truth_in(end.saturating_sub(window), end);
    let recall = |snap: &VerdictSnapshot| {
        let flagged: Vec<u32> = snap.flagged.iter().map(|&(u, _, _)| u).collect();
        glp_fraud::precision_recall(&flagged, &truth_now).1
    };
    let (live_recall, stale_recall) = (recall(&live), recall(&stale));
    assert!(
        live_recall > stale_recall,
        "rotation must erode the stale snapshot: live {live_recall} vs stale {stale_recall}"
    );
}
