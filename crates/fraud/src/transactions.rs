//! Synthetic e-commerce transaction stream with injected fraud rings.
//!
//! Substitutes for TaoBao's production purchase/click stream (Figure 1).
//! Honest traffic: a Zipf-active user population buying Zipf-popular
//! items, a fixed expected volume per day. Fraud traffic: rings of
//! colluding accounts hammering a small set of target items (the classic
//! rank-inflation pattern LP clusters catch). A fraction of each ring is
//! already black-listed — those are the LP seeds.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One purchase event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transaction {
    /// Buyer account (0-based user id).
    pub buyer: u32,
    /// Item bought (0-based item id).
    pub item: u32,
    /// Day index from stream start.
    pub day: u32,
    /// Paid amount.
    pub amount: f32,
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TxConfig {
    /// Total user population (unique users saturate toward this).
    pub num_users: u32,
    /// Total item catalog.
    pub num_items: u32,
    /// Days of history to generate.
    pub days: u32,
    /// Honest transactions per day.
    pub tx_per_day: u32,
    /// Zipf skew of user activity and item popularity.
    pub skew: f64,
    /// Number of injected fraud rings.
    pub num_rings: u32,
    /// Colluding accounts per ring.
    pub ring_size: u32,
    /// Ring transactions per ring per day.
    pub ring_tx_per_day: u32,
    /// Fraction of each ring already on the blacklist (the LP seeds).
    pub blacklist_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TxConfig {
    fn default() -> Self {
        Self {
            num_users: 50_000,
            num_items: 20_000,
            days: 100,
            tx_per_day: 20_000,
            skew: 0.7,
            num_rings: 20,
            ring_size: 25,
            ring_tx_per_day: 60,
            blacklist_fraction: 0.2,
            seed: 42,
        }
    }
}

/// The generated stream plus ground truth.
#[derive(Clone, Debug)]
pub struct TxStream {
    /// All transactions, sorted by day.
    pub transactions: Vec<Transaction>,
    /// Ring membership ground truth: `ring_of[user] = Some(ring index)`.
    pub ring_of: Vec<Option<u32>>,
    /// Black-listed users (subset of ring members), ascending.
    pub blacklist: Vec<u32>,
    /// The configuration that produced this stream.
    pub config: TxConfig,
}

impl TxStream {
    /// Generates the stream for `cfg`.
    pub fn generate(cfg: &TxConfig) -> Self {
        assert!(
            cfg.num_users > 0 && cfg.num_items > 0,
            "need users and items"
        );
        assert!(
            u64::from(cfg.num_rings) * u64::from(cfg.ring_size) <= u64::from(cfg.num_users),
            "rings cannot exceed the user population"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.blacklist_fraction),
            "blacklist fraction is a probability"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // Ring membership: the first num_rings*ring_size users, shuffled so
        // ring members are scattered across the id space like real
        // accounts.
        let mut ids: Vec<u32> = (0..cfg.num_users).collect();
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        let mut ring_of = vec![None; cfg.num_users as usize];
        let mut blacklist = Vec::new();
        for r in 0..cfg.num_rings {
            for k in 0..cfg.ring_size {
                let u = ids[(r * cfg.ring_size + k) as usize];
                ring_of[u as usize] = Some(r);
                if f64::from(k) < cfg.blacklist_fraction * f64::from(cfg.ring_size) {
                    blacklist.push(u);
                }
            }
        }
        blacklist.sort_unstable();

        // Zipf cumulative samplers over users and items.
        let user_cum = zipf_prefix(cfg.num_users, cfg.skew);
        let item_cum = zipf_prefix(cfg.num_items, cfg.skew);

        // Ring target items: each ring pushes a small disjoint item set
        // drawn from the popularity *tail* — rank-inflation targets are
        // obscure listings, not already-popular ones.
        let items_per_ring = 4u32;
        let ring_items: Vec<Vec<u32>> = (0..cfg.num_rings)
            .map(|r| {
                (0..items_per_ring)
                    .map(|k| cfg.num_items - 1 - ((r * items_per_ring + k) % cfg.num_items))
                    .collect()
            })
            .collect();

        let total = (u64::from(cfg.days)
            * (u64::from(cfg.tx_per_day)
                + u64::from(cfg.num_rings) * u64::from(cfg.ring_tx_per_day)))
            as usize;
        let mut transactions = Vec::with_capacity(total);
        for day in 0..cfg.days {
            for _ in 0..cfg.tx_per_day {
                transactions.push(Transaction {
                    buyer: sample_cum(&user_cum, &mut rng),
                    item: sample_cum(&item_cum, &mut rng),
                    day,
                    amount: rng.gen_range(1.0..500.0),
                });
            }
            for (r, items) in ring_items.iter().enumerate() {
                for _ in 0..cfg.ring_tx_per_day {
                    let member = rng.gen_range(0..cfg.ring_size);
                    let buyer = ids[(r as u32 * cfg.ring_size + member) as usize];
                    let item = items[rng.gen_range(0..items.len())];
                    transactions.push(Transaction {
                        buyer,
                        item,
                        day,
                        amount: rng.gen_range(1.0..20.0), // small wash trades
                    });
                }
            }
        }
        Self {
            transactions,
            ring_of,
            blacklist,
            config: cfg.clone(),
        }
    }

    /// Transactions with `day` in `[from, to)`.
    pub fn window(&self, from: u32, to: u32) -> impl Iterator<Item = &Transaction> {
        days(&self.transactions, from, to)
    }

    /// Users in any ring (ground truth positives).
    pub fn fraudulent_users(&self) -> Vec<u32> {
        self.ring_of
            .iter()
            .enumerate()
            .filter_map(|(u, r)| r.map(|_| u as u32))
            .collect()
    }
}

/// Configuration for [`RegionalStream`]: a population organized into
/// geographic regions whose organic traffic is strictly region-local,
/// with a configurable number of fraud rings deliberately straddling
/// *adjacent region pairs*. The regions are the natural communities a
/// community-aware partitioner co-locates, and the cross rings are the
/// boundary structure a sharded service's label exchange must reconcile
/// — which is exactly what the fleet determinism tests need engineered
/// into the graph.
#[derive(Clone, Debug)]
pub struct RegionalTxConfig {
    /// Number of regions (communities).
    pub regions: u32,
    /// Users per region; user ids are region-major
    /// (`region r` owns `[r*users_per_region, (r+1)*users_per_region)`).
    pub users_per_region: u32,
    /// Items per region, region-major like users.
    pub items_per_region: u32,
    /// Days of history to generate.
    pub days: u32,
    /// Organic (region-local) transactions per day across all regions.
    pub tx_per_day: u32,
    /// Fraud rings whose membership straddles two adjacent regions.
    pub cross_rings: u32,
    /// Members per ring (half per side of the region cut).
    pub ring_size: u32,
    /// Ring transactions per ring per day.
    pub ring_tx_per_day: u32,
    /// Fraction of each ring already black-listed (the LP seeds).
    pub blacklist_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RegionalTxConfig {
    fn default() -> Self {
        Self {
            regions: 8,
            users_per_region: 1_000,
            items_per_region: 400,
            days: 15,
            tx_per_day: 4_000,
            cross_rings: 8,
            ring_size: 10,
            ring_tx_per_day: 30,
            blacklist_fraction: 0.25,
            seed: 42,
        }
    }
}

impl RegionalTxConfig {
    /// Total user population.
    pub(crate) fn num_users(&self) -> u32 {
        self.regions * self.users_per_region
    }

    /// The region (community) owning `user`.
    pub(crate) fn region_of(&self, user: u32) -> u32 {
        user / self.users_per_region
    }

    /// `user → region` for every user.
    pub(crate) fn community_map(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_users()).map(|u| (u, self.region_of(u)))
    }

    /// One organic purchase on `day`: buyer and item drawn uniformly from
    /// one region, outside its reserved ring slots, at an organic price.
    pub(crate) fn organic(&self, rng: &mut impl Rng, day: u32) -> Transaction {
        let (upr, ipr) = (self.users_per_region, self.items_per_region);
        let region = rng.gen_range(0..self.regions);
        Transaction {
            buyer: region * upr + rng.gen_range(0..upr - self.ring_size),
            item: region * ipr + rng.gen_range(0..ipr - RING_ITEMS),
            day,
            amount: rng.gen_range(1.0..500.0),
        }
    }
}

/// Where a region generator's rings live. Ring `k` straddles regions `k`
/// and `k + 1` (mod R): side A is the top `ring_size / 2` user slots of
/// region `k`, side B the slots directly below region `k + 1`'s side A —
/// disjoint because `users_per_region >= 2 * ring_size` — and its targets
/// are the top [`RING_ITEMS`] item slots of region `k`. Organic draws
/// ([`RegionalTxConfig::organic`]) never reach these reserved slots.
pub(crate) struct RingLayout {
    /// Each ring's members, side A first.
    pub(crate) members: Vec<Vec<u32>>,
    /// Each ring's target items.
    pub(crate) items: Vec<Vec<u32>>,
    /// `ring_of[user] = Some(ring)` for every member.
    pub(crate) ring_of: Vec<Option<u32>>,
    /// The first `blacklist_fraction` of every ring's members, ascending.
    pub(crate) blacklist: Vec<u32>,
}

impl RingLayout {
    pub(crate) fn new(cfg: &RegionalTxConfig) -> Self {
        assert!(
            cfg.cross_rings <= cfg.regions,
            "at most one ring per region pair"
        );
        let (upr, ipr, half) = (
            cfg.users_per_region,
            cfg.items_per_region,
            cfg.ring_size / 2,
        );
        let mut ring_of = vec![None; cfg.num_users() as usize];
        let (mut members, mut blacklist) = (Vec::new(), Vec::new());
        for k in 0..cfg.cross_rings {
            let (a, b) = (k % cfg.regions, (k + 1) % cfg.regions);
            let side_a = (0..half).map(|i| a * upr + upr - 1 - i);
            let side_b = (0..cfg.ring_size - half).map(|i| b * upr + upr - 1 - half - i);
            let ring: Vec<u32> = side_a.chain(side_b).collect();
            for (pos, &u) in ring.iter().enumerate() {
                ring_of[u as usize] = Some(k);
                if (pos as f64) < cfg.blacklist_fraction * f64::from(cfg.ring_size) {
                    blacklist.push(u);
                }
            }
            members.push(ring);
        }
        blacklist.sort_unstable();
        let targets = |k: u32| (0..RING_ITEMS).map(move |j| k % cfg.regions * ipr + ipr - 1 - j);
        let items = (0..cfg.cross_rings).map(|k| targets(k).collect()).collect();
        Self {
            members,
            items,
            ring_of,
            blacklist,
        }
    }

    /// One wash trade of ring `k` on `day`: a buyer drawn from `buyers`
    /// buys one of the ring's target items at a small price.
    pub(crate) fn wash(
        &self,
        k: usize,
        buyers: &[u32],
        rng: &mut impl Rng,
        day: u32,
    ) -> Transaction {
        let buyer = buyers[rng.gen_range(0..buyers.len())];
        let item = self.items[k][rng.gen_range(0..RING_ITEMS as usize)];
        Transaction {
            buyer,
            item,
            day,
            amount: rng.gen_range(1.0..20.0),
        }
    }
}

/// Transactions with `day` in `[from, to)`.
pub(crate) fn days(txs: &[Transaction], from: u32, to: u32) -> impl Iterator<Item = &Transaction> {
    txs.iter().filter(move |t| t.day >= from && t.day < to)
}

/// A generated regional stream plus ground truth — the sharded-serving
/// analogue of [`TxStream`]. Organic purchases never leave their region,
/// so with a region-respecting partition the *only* cross-shard edges
/// are the injected cross rings.
#[derive(Clone, Debug)]
pub struct RegionalStream {
    /// All transactions, sorted by day.
    pub transactions: Vec<Transaction>,
    /// Black-listed users (subset of ring members), ascending.
    pub blacklist: Vec<u32>,
    /// Ring membership ground truth: `ring_of[user] = Some(ring index)`.
    pub ring_of: Vec<Option<u32>>,
    /// The configuration that produced this stream.
    pub config: RegionalTxConfig,
}

impl RegionalStream {
    /// Generates the stream for `cfg`.
    ///
    /// Ring `k` straddles regions `k % regions` and `(k + 1) % regions`:
    /// half its members come from the top of the first region's id range,
    /// half from just below the top of the second's, so each region hosts
    /// at most one ring's "A side" and one ring's "B side" in disjoint
    /// id slots. Ring targets are items from the first region's catalog
    /// tail — every ring transaction therefore crosses the region cut
    /// whenever the buyer sits on the B side.
    ///
    /// The top `ring_size` user slots and top ring-target item slots of
    /// every region are *reserved*: organic traffic never draws them.
    /// Rings are dedicated mule accounts washing dedicated listings, so
    /// each ring forms its own small connected component bridging a
    /// region cut instead of transitively merging both regions' organic
    /// graphs — cross-shard reconciliation work stays proportional to
    /// the fraud, which is what makes community-aware sharding pay.
    pub fn generate(cfg: &RegionalTxConfig) -> Self {
        assert!(cfg.regions > 0 && cfg.users_per_region > 0, "need users");
        assert!(cfg.items_per_region > 0, "need items");
        assert!(cfg.ring_size >= 2, "a cross ring needs both sides");
        assert!(
            cfg.users_per_region >= 2 * cfg.ring_size,
            "regions too small for disjoint ring slots"
        );
        assert!(
            cfg.items_per_region > RING_ITEMS,
            "regions too small for ring target items"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.blacklist_fraction),
            "blacklist fraction is a probability"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let rings = RingLayout::new(cfg);
        let total = (u64::from(cfg.days)
            * (u64::from(cfg.tx_per_day)
                + u64::from(cfg.cross_rings) * u64::from(cfg.ring_tx_per_day)))
            as usize;
        let mut transactions = Vec::with_capacity(total);
        for day in 0..cfg.days {
            // Organic traffic is strictly region-local. Rings are dedicated
            // mule accounts washing dedicated listings, so each ring is its
            // own small connected component straddling a region cut — the
            // boundary set a community-aware partitioner must reconcile
            // stays proportional to the fraud, not to the organic
            // population.
            for _ in 0..cfg.tx_per_day {
                transactions.push(cfg.organic(&mut rng, day));
            }
            for (k, ring) in rings.members.iter().enumerate() {
                for _ in 0..cfg.ring_tx_per_day {
                    transactions.push(rings.wash(k, ring, &mut rng, day));
                }
            }
        }
        Self {
            transactions,
            blacklist: rings.blacklist,
            ring_of: rings.ring_of,
            config: cfg.clone(),
        }
    }

    /// The region (community) owning `user`.
    pub fn region_of(&self, user: u32) -> u32 {
        self.config.region_of(user)
    }

    /// Total user population.
    pub fn num_users(&self) -> u32 {
        self.config.num_users()
    }

    /// Transactions with `day` in `[from, to)`.
    pub fn window(&self, from: u32, to: u32) -> impl Iterator<Item = &Transaction> {
        days(&self.transactions, from, to)
    }

    /// `user → region` for every user — the community map a
    /// community-aware partitioner consumes.
    pub fn community_map(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.config.community_map()
    }
}

/// Target items per fraud ring (all generators, including
/// [`crate::adversary`]).
pub(crate) const RING_ITEMS: u32 = 4;

/// Prefix sums of Zipf weights `1/(i+1)^skew`.
fn zipf_prefix(n: u32, skew: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|i| {
            acc += 1.0 / f64::from(i + 1).powf(skew);
            acc
        })
        .collect()
}

fn sample_cum(prefix: &[f64], rng: &mut impl Rng) -> u32 {
    let x: f64 = rng.gen::<f64>() * prefix.last().copied().unwrap_or(1.0);
    prefix.partition_point(|&p| p < x).min(prefix.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TxConfig {
        TxConfig {
            num_users: 1_000,
            num_items: 400,
            days: 10,
            tx_per_day: 500,
            num_rings: 3,
            ring_size: 10,
            ring_tx_per_day: 20,
            ..Default::default()
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a = TxStream::generate(&small());
        let b = TxStream::generate(&small());
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.blacklist, b.blacklist);
    }

    #[test]
    fn ring_membership_and_blacklist_consistent() {
        let s = TxStream::generate(&small());
        assert_eq!(s.fraudulent_users().len(), 30);
        assert_eq!(s.blacklist.len(), 6); // 20% of 3 rings of 10
        for &u in &s.blacklist {
            assert!(
                s.ring_of[u as usize].is_some(),
                "blacklisted user not in a ring"
            );
        }
    }

    #[test]
    fn volume_matches_config() {
        let cfg = small();
        let s = TxStream::generate(&cfg);
        let expect = (cfg.days * (cfg.tx_per_day + cfg.num_rings * cfg.ring_tx_per_day)) as usize;
        assert_eq!(s.transactions.len(), expect);
        assert!(s.transactions.windows(2).all(|w| w[0].day <= w[1].day));
    }

    #[test]
    fn window_filters_days() {
        let s = TxStream::generate(&small());
        assert!(s.window(2, 5).all(|t| (2..5).contains(&t.day)));
        let w: usize = s.window(0, 10).count();
        assert_eq!(w, s.transactions.len());
    }

    #[test]
    fn regional_stream_is_deterministic_and_day_sorted() {
        let cfg = RegionalTxConfig {
            regions: 4,
            users_per_region: 100,
            items_per_region: 40,
            days: 6,
            tx_per_day: 400,
            cross_rings: 4,
            ring_size: 8,
            ring_tx_per_day: 12,
            ..Default::default()
        };
        let a = RegionalStream::generate(&cfg);
        let b = RegionalStream::generate(&cfg);
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.blacklist, b.blacklist);
        assert!(a.transactions.windows(2).all(|w| w[0].day <= w[1].day));
        let expect = (cfg.days * (cfg.tx_per_day + cfg.cross_rings * cfg.ring_tx_per_day)) as usize;
        assert_eq!(a.transactions.len(), expect);
    }

    #[test]
    fn regional_organic_traffic_never_leaves_its_region() {
        let s = RegionalStream::generate(&RegionalTxConfig {
            regions: 4,
            users_per_region: 100,
            items_per_region: 40,
            days: 6,
            tx_per_day: 400,
            cross_rings: 4,
            ring_size: 8,
            ring_tx_per_day: 12,
            ..Default::default()
        });
        for t in &s.transactions {
            if s.ring_of[t.buyer as usize].is_none() {
                assert_eq!(
                    s.region_of(t.buyer),
                    t.item / s.config.items_per_region,
                    "organic purchase crossed a region"
                );
            }
        }
    }

    #[test]
    fn cross_rings_straddle_adjacent_regions() {
        let s = RegionalStream::generate(&RegionalTxConfig {
            regions: 4,
            users_per_region: 100,
            items_per_region: 40,
            days: 6,
            tx_per_day: 400,
            cross_rings: 4,
            ring_size: 8,
            ring_tx_per_day: 12,
            blacklist_fraction: 0.25,
            ..Default::default()
        });
        for k in 0..4u32 {
            let members: Vec<u32> = (0..s.num_users())
                .filter(|&u| s.ring_of[u as usize] == Some(k))
                .collect();
            assert_eq!(members.len(), 8);
            let regions: std::collections::BTreeSet<u32> =
                members.iter().map(|&u| s.region_of(u)).collect();
            let mut expect = vec![k % 4, (k + 1) % 4];
            expect.sort_unstable();
            assert_eq!(
                regions.into_iter().collect::<Vec<_>>(),
                expect,
                "ring {k} does not straddle its region pair"
            );
        }
        // 25% of each ring of 8 = 2 seeds per ring.
        assert_eq!(s.blacklist.len(), 8);
        for &u in &s.blacklist {
            assert!(s.ring_of[u as usize].is_some());
        }
    }

    #[test]
    fn ring_members_hammer_their_items() {
        let s = TxStream::generate(&small());
        let ring0: Vec<u32> = (0..1_000u32)
            .filter(|&u| s.ring_of[u as usize] == Some(0))
            .collect();
        let ring_tx = s
            .transactions
            .iter()
            .filter(|t| ring0.contains(&t.buyer))
            .count();
        // 10 members get 20 ring tx/day for 10 days plus whatever honest
        // traffic they happen to produce.
        assert!(ring_tx >= 200, "{ring_tx}");
    }
}
