//! Community-structured power-law generator (Chung–Lu with planted
//! communities).
//!
//! Substitutes for the social-network datasets (dblp, youtube, ljournal,
//! twitter): power-law degree distribution with exponent ~2–3 plus planted
//! community structure so that label propagation converges the way it does
//! on real social graphs — which is exactly the property (§4.1) that makes
//! the CMS+HT shared-memory design effective ("two neighbors of a vertex
//! often share the same label").

use crate::builder::undirected_from_pairs;
use crate::csr::Graph;
use crate::types::VertexId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration for [`community_powerlaw`].
#[derive(Clone, Debug)]
pub struct CommunityPowerLawConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target average degree counted as |E|/|V| with |E| symmetrized-directed
    /// (the convention of Table 2).
    pub avg_degree: f64,
    /// Degree power-law exponent γ (weight of vertex i ∝ (i+1)^(-1/(γ-1))).
    /// Social networks sit around 2.1–2.6.
    pub gamma: f64,
    /// Number of planted communities. Community sizes follow a Zipf
    /// distribution, like real community-size distributions.
    pub num_communities: usize,
    /// Probability that an edge endpoint ignores community structure and is
    /// drawn globally (the "mixing" parameter; lower = crisper communities).
    pub mixing: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CommunityPowerLawConfig {
    fn default() -> Self {
        Self {
            num_vertices: 10_000,
            avg_degree: 8.0,
            gamma: 2.3,
            num_communities: 100,
            mixing: 0.1,
            seed: 42,
        }
    }
}

/// Cumulative-weight sampler: O(1)-expected weighted draws over a fixed
/// weight vector through a guide table over the prefix-sum array.
///
/// With `k` weights, `bucket(x) = min(⌊x·k/total⌋, k−1)` splits `[0,
/// total]` into `k` equal ranges (`k/total` is rounded once, up front;
/// exactness needs only that `bucket` is monotone) and `guide[b]` is the
/// first index whose prefix falls in a bucket ≥ `b`. A draw `x` starts at `guide[bucket(x)]`
/// and scans forward while `prefix[i] < x`. `bucket` is monotone, so every
/// index below the start has a prefix below `x`: the scan returns exactly
/// the binary search's `partition_point(|p| p < x).min(k−1)`, and each
/// bucket holds one index on average.
pub(crate) struct CumSampler {
    prefix: Vec<f64>,
    guide: Vec<u32>,
    /// `k / total`.
    scale: f64,
}

impl CumSampler {
    pub(crate) fn new(weights: impl Iterator<Item = f64>) -> Self {
        let mut prefix = Vec::new();
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            prefix.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        assert!(u32::try_from(prefix.len()).is_ok(), "too many weights");
        let mut s = Self {
            guide: Vec::with_capacity(prefix.len()),
            scale: prefix.len() as f64 / acc,
            prefix,
        };
        // bucket(prefix[k−1]) = bucket(total) = k−1, so the walk stays in range.
        let mut i = 0;
        for b in 0..s.prefix.len() {
            while s.bucket(s.prefix[i]) < b {
                i += 1;
            }
            s.guide.push(i as u32);
        }
        s
    }

    pub(crate) fn total(&self) -> f64 {
        *self.prefix.last().unwrap()
    }

    #[inline]
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.prefix.len() - 1)
    }

    #[inline]
    fn index_of(&self, x: f64) -> usize {
        let last = self.prefix.len() - 1;
        let mut i = self.guide[self.bucket(x)] as usize;
        while i < last && self.prefix[i] < x {
            i += 1;
        }
        i
    }

    pub(crate) fn sample(&self, rng: &mut impl Rng) -> usize {
        self.index_of(rng.gen::<f64>() * self.total())
    }
}

/// Generates a symmetrized community power-law graph.
///
/// Vertices are assigned to communities with Zipf-distributed sizes; each
/// undirected edge draws its source degree-weighted globally, and its
/// destination degree-weighted within the source's community with
/// probability `1 - mixing` (globally otherwise).
pub fn community_powerlaw(cfg: &CommunityPowerLawConfig) -> Graph {
    community_powerlaw_with_truth(cfg).0
}

/// Like [`community_powerlaw`], additionally returning the planted
/// community of every vertex — the ground truth for detection-quality
/// measurements (NMI/purity against LP's output).
///
/// The undirected pairs live in one buffer at a time: round 1's draws
/// become the key set, the samplers are gone before the CSR is allocated,
/// and the CSR is written straight from the sorted keys.
pub fn community_powerlaw_with_truth(cfg: &CommunityPowerLawConfig) -> (Graph, Vec<u32>) {
    assert!(cfg.num_vertices >= 2, "need at least 2 vertices");
    assert!(cfg.gamma > 1.0, "power-law exponent must exceed 1");
    assert!((0.0..=1.0).contains(&cfg.mixing), "mixing must be in [0,1]");
    let n = cfg.num_vertices;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // Chung–Lu weights: w_i ∝ (i+1)^(-1/(γ-1)), shuffled so vertex id does
    // not correlate with degree.
    let expo = -1.0 / (cfg.gamma - 1.0);
    let mut weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(expo)).collect();
    // Fisher–Yates shuffle of weights.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }

    // Community assignment: Zipf community sizes via weighted community draw.
    let ncomm = cfg.num_communities.clamp(1, n);
    let comm_sampler = CumSampler::new((0..ncomm).map(|c| 1.0 / (c + 1) as f64));
    let community: Vec<u32> = (0..n)
        .map(|_| comm_sampler.sample(&mut rng) as u32)
        .collect();

    // Undirected pair count: |E| = avg_degree * n counts both directions.
    let target_pairs = ((cfg.avg_degree * n as f64) / 2.0).round() as usize;
    let mut keys = draw_pairs(cfg, &mut rng, weights, &community, target_pairs);
    cut_to(&mut keys, target_pairs, &mut rng);
    (undirected_from_pairs(n, &keys), community)
}

/// Draws the sorted, duplicate-free undirected pair keys `a << 32 | z`
/// (`a < z`). Degree-weighted sampling repeatedly hits hubs, so duplicates
/// are common; this resamples until the *unique* pair count reaches
/// `target_pairs` (bounded rounds — heavy skew can make the target
/// unreachable), so the set may fall short of it or overshoot it.
///
/// Round 1's buffer becomes the key set, and it never reallocates: a later
/// round starts below the target, so merging its `≤ deficit + deficit/8 +
/// 16` keys stays within round 1's `target + target/8 + 16`. The samplers
/// and `weights` are dropped on return.
fn draw_pairs(
    cfg: &CommunityPowerLawConfig,
    rng: &mut ChaCha8Rng,
    weights: Vec<f64>,
    community: &[u32],
    target_pairs: usize,
) -> Vec<u64> {
    // Per-community member lists with their own cumulative samplers.
    let mut members: Vec<Vec<VertexId>> =
        vec![Vec::new(); cfg.num_communities.clamp(1, cfg.num_vertices)];
    for (v, &c) in community.iter().enumerate() {
        members[c as usize].push(v as VertexId);
    }
    let comm_samplers: Vec<Option<CumSampler>> = members
        .iter()
        .map(|ms| {
            (!ms.is_empty()).then(|| CumSampler::new(ms.iter().map(|&v| weights[v as usize])))
        })
        .collect();
    let global = CumSampler::new(weights.iter().copied());

    let mut keys: Vec<u64> = Vec::new();
    for _ in 0..6 {
        let deficit = target_pairs.saturating_sub(keys.len());
        if deficit == 0 {
            break;
        }
        // Oversample slightly; later rounds shrink geometrically.
        let draws = deficit + deficit / 8 + 16;
        let mut drawn: Vec<u64> = Vec::with_capacity(draws);
        for _ in 0..draws {
            let src = global.sample(rng) as VertexId;
            let dst = if rng.gen::<f64>() < cfg.mixing {
                global.sample(rng) as VertexId
            } else {
                let c = community[src as usize] as usize;
                match &comm_samplers[c] {
                    Some(s) => members[c][s.sample(rng)],
                    None => global.sample(rng) as VertexId,
                }
            };
            if src != dst {
                let (a, z) = if src < dst { (src, dst) } else { (dst, src) };
                drawn.push(u64::from(a) << 32 | u64::from(z));
            }
        }
        // Sort only this round's keys; the union with the sorted set is
        // a merge, equal to sorting and deduplicating everything.
        drawn.sort_unstable();
        drawn.dedup();
        if keys.is_empty() {
            keys = drawn;
        } else {
            merge_unique(&mut keys, &drawn);
        }
    }
    keys
}

/// Cuts the sorted key set down to `target` keys chosen uniformly, and
/// leaves the survivors sorted. Truncating the sorted keys in place would
/// drop only the highest-id edges and bias the degree distribution against
/// high-id vertices, so the cut follows a Fisher–Yates shuffle from the
/// top. That shuffle never touches position `i` again after step `i`: its
/// steps `len−1 … target` fix which keys are cut and the steps below
/// `target` only permute the survivors, so it stops at `target`.
fn cut_to(keys: &mut Vec<u64>, target: usize, rng: &mut ChaCha8Rng) {
    if keys.len() <= target {
        return;
    }
    for i in (target..keys.len()).rev() {
        let j = rng.gen_range(0..=i);
        keys.swap(i, j);
    }
    keys.truncate(target);
    keys.sort_unstable();
}

/// Merges the sorted, duplicate-free `drawn` into the sorted,
/// duplicate-free `keys`, keeping both properties (back to front, in place).
fn merge_unique(keys: &mut Vec<u64>, drawn: &[u64]) {
    let (mut i, mut j) = (keys.len(), drawn.len());
    keys.resize(i + j, 0);
    while j > 0 {
        if i > 0 && keys[i - 1] > drawn[j - 1] {
            keys[i + j - 1] = keys[i - 1];
            i -= 1;
        } else {
            keys[i + j - 1] = drawn[j - 1];
            j -= 1;
        }
    }
    // A key in both sets now sits twice, side by side.
    keys.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The binary search the guide table replaced.
    fn partition_index(s: &CumSampler, x: f64) -> usize {
        s.prefix.partition_point(|&p| p < x).min(s.prefix.len() - 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The guide-table walk returns the binary search's index for every
        /// `x` that matters: 0, each prefix exactly, the floats either side
        /// of it, just below the total and random draws. Weights repeat
        /// (equal prefixes), are often zero (runs of equal prefixes) and
        /// span many magnitudes.
        #[test]
        fn guide_table_equals_binary_search(
            raw in prop::collection::vec((0u8..4, 0u32..1000), 1..200),
            draws in prop::collection::vec(0.0f64..1.0, 0..64),
        ) {
            let weights: Vec<f64> = raw
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => 0.0,
                    1 => 1.0,
                    2 => f64::from(v),
                    _ => f64::from(v) * 1e-6,
                })
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                return Ok(());
            }
            let s = CumSampler::new(weights.iter().copied());
            let total = s.total();
            let mut xs = vec![0.0, total, total.next_down(), total * (1.0 - f64::EPSILON)];
            for &p in &s.prefix {
                xs.extend([p, p.next_down(), p.next_up()]);
            }
            xs.extend(draws.iter().map(|&u| u * total));
            for x in xs.into_iter().filter(|x| (0.0..=total).contains(x)) {
                prop_assert_eq!(s.index_of(x), partition_index(&s, x), "x = {}", x);
            }
        }
    }

    /// Stopping the cut's shuffle at `target` keeps the full shuffle's
    /// survivors on a config that overshoots by many keys, and spends one
    /// draw per cut key. A stop one step later keeps the key at `target`
    /// unswapped (another survivor set); one step earlier spends a draw too
    /// many.
    #[test]
    fn early_stopped_cut_keeps_the_full_shuffles_survivors() {
        let cfg = CommunityPowerLawConfig {
            num_vertices: 20_000,
            avg_degree: 2.0,
            // Near-uniform weights draw few duplicates: round 1 overshoots.
            gamma: 8.0,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let n = cfg.num_vertices;
        let weights = (0..n).map(|i| ((i + 1) as f64).powf(-1.0 / (cfg.gamma - 1.0)));
        let community: Vec<u32> = (0..n).map(|v| (v % cfg.num_communities) as u32).collect();
        let target = n;
        let keys = draw_pairs(&cfg, &mut rng, weights.collect(), &community, target);
        assert!(
            keys.len() > target + 1_000,
            "overshoot {}",
            keys.len() - target
        );

        let mut early = keys.clone();
        let mut early_rng = rng.clone();
        cut_to(&mut early, target, &mut early_rng);

        let mut full = keys.clone();
        let mut full_rng = rng.clone();
        for i in (1..full.len()).rev() {
            let j = full_rng.gen_range(0..=i);
            full.swap(i, j);
        }
        full.truncate(target);
        full.sort_unstable();
        assert!(early == full, "the early stop cut other keys");

        for i in (target..keys.len()).rev() {
            rng.gen_range(0..=i);
        }
        assert_eq!(
            early_rng.gen::<u64>(),
            rng.gen::<u64>(),
            "one draw per cut key"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = CommunityPowerLawConfig {
            num_vertices: 500,
            avg_degree: 6.0,
            ..Default::default()
        };
        let g1 = community_powerlaw(&cfg);
        let g2 = community_powerlaw(&cfg);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.incoming().targets(), g2.incoming().targets());
    }

    #[test]
    fn different_seeds_differ() {
        let base = CommunityPowerLawConfig {
            num_vertices: 500,
            avg_degree: 6.0,
            ..Default::default()
        };
        let other = CommunityPowerLawConfig {
            seed: 7,
            ..base.clone()
        };
        let g1 = community_powerlaw(&base);
        let g2 = community_powerlaw(&other);
        assert_ne!(g1.incoming().targets(), g2.incoming().targets());
    }

    #[test]
    fn hits_target_density_approximately() {
        let cfg = CommunityPowerLawConfig {
            num_vertices: 5_000,
            avg_degree: 10.0,
            ..Default::default()
        };
        let g = community_powerlaw(&cfg);
        // Dedup and self-loop removal lose a few edges; expect within 25%.
        let avg = g.avg_degree();
        assert!(avg > 7.0 && avg < 10.5, "avg degree {avg}");
    }

    #[test]
    fn degrees_are_skewed() {
        let cfg = CommunityPowerLawConfig {
            num_vertices: 5_000,
            avg_degree: 10.0,
            gamma: 2.2,
            ..Default::default()
        };
        let g = community_powerlaw(&cfg);
        let max_deg = (0..g.num_vertices() as VertexId)
            .map(|v| g.degree(v))
            .max()
            .unwrap();
        assert!(
            f64::from(max_deg) > 10.0 * g.avg_degree(),
            "power-law graphs should have hubs; max {max_deg}, avg {}",
            g.avg_degree()
        );
    }

    #[test]
    fn truth_matches_config() {
        let cfg = CommunityPowerLawConfig {
            num_vertices: 800,
            num_communities: 10,
            ..Default::default()
        };
        let (g, truth) = community_powerlaw_with_truth(&cfg);
        assert_eq!(truth.len(), g.num_vertices());
        assert!(truth.iter().all(|&c| c < 10));
        // Low mixing means most edges stay inside their community.
        let intra = (0..g.num_vertices() as VertexId)
            .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v, u)))
            .filter(|&(v, u)| truth[v as usize] == truth[u as usize])
            .count();
        assert!(
            intra as f64 > 0.6 * g.num_edges() as f64,
            "{intra} intra of {}",
            g.num_edges()
        );
    }

    #[test]
    fn cum_sampler_respects_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = CumSampler::new([1.0, 0.0, 9.0].into_iter());
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > 8 * counts[0]);
    }
}
