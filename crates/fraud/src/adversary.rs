//! Adversarial workload generation: an attacker that evades and
//! overloads the serving pipeline, with per-day ground truth.
//!
//! [`RegionalStream`] plants *static* rings — the same mule accounts
//! wash the same listings every day, which a day-0 snapshot catches as
//! well as a live pipeline does. A real adversary is not static. This
//! module composes four attack behaviors on top of the regional organic
//! background, each one aimed at a specific weakness of a
//! snapshot-based detector or of the serving machinery itself:
//!
//! * **Member rotation** — each ring owns a *pool* of mule accounts but
//!   only a rotating subset is active on any given day. Accounts that
//!   were washing on day 0 go dormant; accounts that were dormant wake
//!   up. A static day-0 snapshot keeps flagging the dormant (now
//!   harmless) members and misses the newly activated ones; only a
//!   pipeline that reclusters the live window tracks the rotation.
//! * **Camouflage** — active mules also buy from their region's organic
//!   catalog at organic prices, growing legitimate-looking edges that
//!   dilute the ring's bipartite signature.
//! * **Burst flood** — on a chosen day the adversary multiplies organic
//!   volume to overflow the ingest queue, attacking the *service*
//!   (shed-rate, health) rather than the detector.
//! * **Label noise** — innocent accounts are planted in the blacklist,
//!   poisoning the LP seeds until the noise is retracted.
//!
//! Every behavior is seeded and deterministic, and the plan emits
//! ground truth *per day*: [`AdversarialStream::truth_by_day`] lists
//! exactly who was actively washing on each day, so any published
//! snapshot can be scored against the truth of the window it covers
//! ([`AdversarialStream::truth_in`] with
//! [`precision_recall`](crate::precision_recall)).
//!
//! The generator reuses [`RegionalStream`]'s reserved-slot discipline:
//! ring pools occupy the top `ring_size` user slots of each region and
//! ring targets the top [`RING_ITEMS`] item slots, which organic
//! traffic never draws. Rings therefore stay their own connected
//! components bridging region cuts (modulo camouflage, which is the
//! point of camouflage), and community-aware sharding behaves exactly
//! as it does on the non-adversarial stream.

use crate::transactions::{RegionalStream, RegionalTxConfig, Transaction, RING_ITEMS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of one adversary: the organic world it hides in plus
/// the four attack behaviors. `base.cross_rings` is the number of
/// evolving rings and `base.ring_size` each ring's *pool* size (the
/// rotating active subset is [`Self::active_members`]).
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// The organic background and ring-pool geometry (regions, users,
    /// items, days, organic volume, pools via `cross_rings`/`ring_size`,
    /// wash volume via `ring_tx_per_day`, seed fraction, RNG seed).
    pub base: RegionalTxConfig,
    /// Pool members actively washing on any given day (≤ `ring_size`).
    pub active_members: u32,
    /// How many pool positions the active subset shifts per day; 0
    /// disables rotation (the static-ring degenerate case).
    pub rotate_per_day: u32,
    /// Camouflage purchases per ring per day: active mules buying from
    /// their region's organic catalog at organic prices.
    pub camouflage_per_day: u32,
    /// Day of the burst flood, if any.
    pub burst_day: Option<u32>,
    /// Extra organic-shaped transactions injected on `burst_day`.
    pub burst_tx: u32,
    /// Innocent accounts planted in the blacklist (label noise).
    pub label_noise: u32,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        Self {
            base: RegionalTxConfig {
                regions: 4,
                users_per_region: 200,
                items_per_region: 80,
                days: 12,
                tx_per_day: 800,
                cross_rings: 4,
                ring_size: 10,
                ring_tx_per_day: 30,
                blacklist_fraction: 0.3,
                ..Default::default()
            },
            active_members: 6,
            rotate_per_day: 2,
            camouflage_per_day: 10,
            burst_day: None,
            burst_tx: 0,
            label_noise: 0,
        }
    }
}

/// Domain separation for the attack RNG: the organic background and the
/// attack traffic must not share a random stream, or changing one
/// behavior would reshuffle the other.
const ATTACK_SEED_SALT: u64 = 0xAD5E_7A11_0B57_ACE5;

/// A generated adversarial stream plus its ground truth — the
/// adversarial analogue of [`RegionalStream`]. Transactions are sorted
/// by day; within a day, organic traffic precedes burst traffic
/// precedes ring traffic.
#[derive(Clone, Debug)]
pub struct AdversarialStream {
    /// All transactions, sorted by day.
    pub transactions: Vec<Transaction>,
    /// What the *service* is told: true seeds plus planted label noise,
    /// ascending. Feed this to the pipeline; score against the truth.
    pub blacklist: Vec<u32>,
    /// The innocent accounts planted in [`Self::blacklist`], ascending.
    pub noise: Vec<u32>,
    /// Pool membership: `ring_of[user] = Some(ring)` for every account
    /// the adversary *owns* (active on some days, dormant on others).
    pub ring_of: Vec<Option<u32>>,
    /// Ground truth: `truth_by_day[d]` is the ascending list of
    /// accounts actively washing on day `d`.
    pub truth_by_day: Vec<Vec<u32>>,
    /// The configuration that produced this stream.
    pub config: AdversaryConfig,
}

impl AdversarialStream {
    /// Generates the stream for `cfg`.
    pub fn generate(cfg: &AdversaryConfig) -> Self {
        let b = &cfg.base;
        assert!(
            cfg.active_members >= 1 && cfg.active_members <= b.ring_size,
            "active members must be a non-empty subset of the ring pool"
        );
        if let Some(d) = cfg.burst_day {
            assert!(d < b.days, "burst day beyond the stream");
        }
        let (upr, ipr) = (b.users_per_region, b.items_per_region);
        assert!(
            cfg.label_noise <= b.regions * (upr - b.ring_size),
            "more label noise than innocent accounts"
        );

        // The organic background: the regional generator with its rings
        // switched off but the reserved slots kept (organic draws still
        // exclude the top `ring_size` user and top RING_ITEMS item
        // slots, which is where the adversary's pools live).
        let organic = RegionalStream::generate(&RegionalTxConfig {
            cross_rings: 0,
            ring_tx_per_day: 0,
            ..b.clone()
        });

        // Ring pools: the exact slot discipline of RegionalStream's
        // cross rings — ring k straddles regions k and k+1 (mod R).
        assert!(
            b.cross_rings <= b.regions,
            "at most one evolving ring per region pair"
        );
        let half = b.ring_size / 2;
        let num_users = b.regions * upr;
        let mut ring_of = vec![None; num_users as usize];
        let mut pools: Vec<Vec<u32>> = Vec::with_capacity(b.cross_rings as usize);
        let mut blacklist = Vec::new();
        for k in 0..b.cross_rings {
            let (ra, rb) = (k % b.regions, (k + 1) % b.regions);
            let mut pool = Vec::with_capacity(b.ring_size as usize);
            for i in 0..half {
                pool.push(ra * upr + upr - 1 - i);
            }
            for i in 0..(b.ring_size - half) {
                pool.push(rb * upr + upr - 1 - half - i);
            }
            for (pos, &u) in pool.iter().enumerate() {
                ring_of[u as usize] = Some(k);
                if (pos as f64) < b.blacklist_fraction * f64::from(b.ring_size) {
                    blacklist.push(u);
                }
            }
            pools.push(pool);
        }
        let ring_items: Vec<Vec<u32>> = (0..b.cross_rings)
            .map(|k| {
                let ra = k % b.regions;
                (0..RING_ITEMS).map(|j| ra * ipr + ipr - 1 - j).collect()
            })
            .collect();

        // Label noise: innocent accounts from the *bottom* of each
        // region's id range (never a pool slot), round-robin across
        // regions so the noise is spread like real mislabeling.
        let noise: Vec<u32> = {
            let mut n: Vec<u32> = (0..cfg.label_noise)
                .map(|i| (i % b.regions) * upr + i / b.regions)
                .collect();
            n.sort_unstable();
            n
        };
        for &u in &noise {
            assert!(ring_of[u as usize].is_none(), "noise user owns a pool slot");
        }
        blacklist.extend_from_slice(&noise);
        blacklist.sort_unstable();
        blacklist.dedup();

        // Per-day active subsets: a window of `active_members` pool
        // positions sliding by `rotate_per_day` each day.
        let truth_by_day: Vec<Vec<u32>> = (0..b.days)
            .map(|day| {
                let mut active: Vec<u32> = pools
                    .iter()
                    .flat_map(|pool| {
                        (0..cfg.active_members).map(move |j| {
                            let pos = (day as usize * cfg.rotate_per_day as usize + j as usize)
                                % pool.len();
                            pool[pos]
                        })
                    })
                    .collect();
                active.sort_unstable();
                active.dedup();
                active
            })
            .collect();

        // Attack traffic rides a domain-separated RNG so the organic
        // background is byte-identical with or without the adversary.
        let mut rng = ChaCha8Rng::seed_from_u64(b.seed ^ ATTACK_SEED_SALT);
        let mut transactions = Vec::with_capacity(organic.transactions.len());
        for day in 0..b.days {
            transactions.extend(organic.window(day, day + 1));
            if cfg.burst_day == Some(day) {
                // The flood is organic-shaped: same regional draw, same
                // amounts — indistinguishable volume, not new structure.
                for _ in 0..cfg.burst_tx {
                    let region = rng.gen_range(0..b.regions);
                    transactions.push(Transaction {
                        buyer: region * upr + rng.gen_range(0..upr - b.ring_size),
                        item: region * ipr + rng.gen_range(0..ipr - RING_ITEMS),
                        day,
                        amount: rng.gen_range(1.0..500.0),
                    });
                }
            }
            for (k, pool) in pools.iter().enumerate() {
                let active: Vec<u32> = (0..cfg.active_members)
                    .map(|j| {
                        let pos =
                            (day as usize * cfg.rotate_per_day as usize + j as usize) % pool.len();
                        pool[pos]
                    })
                    .collect();
                for _ in 0..b.ring_tx_per_day {
                    let buyer = active[rng.gen_range(0..active.len())];
                    let item = ring_items[k][rng.gen_range(0..RING_ITEMS as usize)];
                    transactions.push(Transaction {
                        buyer,
                        item,
                        day,
                        amount: rng.gen_range(1.0..20.0), // wash trades
                    });
                }
                for _ in 0..cfg.camouflage_per_day {
                    // Organic-priced purchases from the mule's own
                    // region's catalog: legitimate-looking degree.
                    let buyer = active[rng.gen_range(0..active.len())];
                    let region = buyer / upr;
                    transactions.push(Transaction {
                        buyer,
                        item: region * ipr + rng.gen_range(0..ipr - RING_ITEMS),
                        day,
                        amount: rng.gen_range(1.0..500.0),
                    });
                }
            }
        }

        Self {
            transactions,
            blacklist,
            noise,
            ring_of,
            truth_by_day,
            config: cfg.clone(),
        }
    }

    /// Transactions with `day` in `[from, to)`.
    pub fn window(&self, from: u32, to: u32) -> impl Iterator<Item = &Transaction> {
        self.transactions
            .iter()
            .filter(move |t| t.day >= from && t.day < to)
    }

    /// Total user population.
    pub fn num_users(&self) -> u32 {
        self.config.base.regions * self.config.base.users_per_region
    }

    /// The region (community) owning `user`.
    pub fn region_of(&self, user: u32) -> u32 {
        user / self.config.base.users_per_region
    }

    /// `user → region` for every user — the community map a
    /// community-aware partitioner consumes.
    pub fn community_map(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_users()).map(|u| (u, self.region_of(u)))
    }

    /// Accounts actively washing on *any* day of `[from, to)`,
    /// ascending — the ground-truth positives for a window covering
    /// those days.
    pub fn truth_in(&self, from: u32, to: u32) -> Vec<u32> {
        let to = (to as usize).min(self.truth_by_day.len());
        let mut t: Vec<u32> = self.truth_by_day[(from as usize).min(to)..to]
            .iter()
            .flatten()
            .copied()
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Every account the adversary owns (union of all pools), ascending.
    pub fn pool_members(&self) -> Vec<u32> {
        self.ring_of
            .iter()
            .enumerate()
            .filter_map(|(u, r)| r.map(|_| u as u32))
            .collect()
    }

    /// The blacklist with the planted noise retracted: what the seeds
    /// *should* have been, ascending.
    pub fn clean_blacklist(&self) -> Vec<u32> {
        self.blacklist
            .iter()
            .copied()
            .filter(|u| self.noise.binary_search(u).is_err())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdversaryConfig {
        AdversaryConfig {
            label_noise: 3,
            burst_day: Some(6),
            burst_tx: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn stream_is_deterministic_and_day_sorted() {
        let a = AdversarialStream::generate(&cfg());
        let b = AdversarialStream::generate(&cfg());
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.blacklist, b.blacklist);
        assert_eq!(a.truth_by_day, b.truth_by_day);
        assert!(a.transactions.windows(2).all(|w| w[0].day <= w[1].day));
    }

    #[test]
    fn rotation_changes_the_active_set_per_day() {
        let s = AdversarialStream::generate(&cfg());
        let pool = s.pool_members();
        let mut distinct = std::collections::BTreeSet::new();
        for (d, truth) in s.truth_by_day.iter().enumerate() {
            assert_eq!(
                truth.len(),
                (s.config.base.cross_rings * s.config.active_members) as usize,
                "day {d} active set has the wrong size"
            );
            for &u in truth {
                assert!(pool.binary_search(&u).is_ok(), "active non-pool account");
            }
            distinct.insert(truth.clone());
        }
        assert!(distinct.len() > 1, "rotation never changed the active set");
        // Rotation eventually activates every pool member.
        let days = s.config.base.days;
        assert_eq!(s.truth_in(0, days), pool);
        // And day 0's truth is a strict subset of the pool.
        assert!(s.truth_by_day[0].len() < pool.len());
        // A window's truth is the sorted union of its days'; a window past
        // the schedule is empty.
        let mut union = s.truth_by_day[1..3].concat();
        union.sort_unstable();
        union.dedup();
        assert_eq!(s.truth_in(1, 3), union);
        assert!(s.truth_in(days, days + 5).is_empty());
    }

    #[test]
    fn camouflage_buys_organic_items_at_organic_prices() {
        let s = AdversarialStream::generate(&cfg());
        let ipr = s.config.base.items_per_region;
        let camo = s
            .transactions
            .iter()
            .filter(|t| {
                s.ring_of[t.buyer as usize].is_some() && (t.item % ipr) < ipr - RING_ITEMS
                // not a ring target
            })
            .count();
        let expect = s.config.base.days * s.config.base.cross_rings * s.config.camouflage_per_day;
        assert_eq!(camo as u32, expect);
    }

    #[test]
    fn burst_day_multiplies_volume() {
        let s = AdversarialStream::generate(&cfg());
        let quiet = s.window(5, 6).count();
        let burst = s.window(6, 7).count();
        assert_eq!(burst, quiet + s.config.burst_tx as usize);
    }

    #[test]
    fn label_noise_is_innocent_and_retractable() {
        let s = AdversarialStream::generate(&cfg());
        assert_eq!(s.noise.len(), 3);
        for &u in &s.noise {
            assert!(s.ring_of[u as usize].is_none(), "noise user in a pool");
            assert!(s.blacklist.binary_search(&u).is_ok());
        }
        let clean = s.clean_blacklist();
        assert_eq!(clean.len(), s.blacklist.len() - s.noise.len());
        for &u in &clean {
            assert!(s.ring_of[u as usize].is_some(), "clean seed not a mule");
        }
    }

    #[test]
    fn organic_background_is_independent_of_the_attack() {
        // Turning attack knobs must not reshuffle organic traffic:
        // day 0 organic prefix identical across two different plans.
        let a = AdversarialStream::generate(&cfg());
        let b = AdversarialStream::generate(&AdversaryConfig {
            rotate_per_day: 5,
            camouflage_per_day: 0,
            ..cfg()
        });
        let n = a.config.base.tx_per_day as usize;
        assert_eq!(&a.transactions[..n], &b.transactions[..n]);
    }
}
