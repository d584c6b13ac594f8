//! Pinned fingerprints of every generated graph shape the workspace reads.
//!
//! Each row is a hash of one graph's vertex count, direction, offsets,
//! targets and weight bits, captured before the counting CSR build, the
//! guide-table sampler and the merge-only dedup rounds replaced the
//! sort-based originals. A generator or builder change that moves any
//! graph by one edge fails here, not only in the modeled-clock pins
//! downstream (`results/`, `benchmark/baseline.json`).

use glp_graph::datasets::{by_name, table2, DatasetSpec, GraphFamily};
use glp_graph::gen::{
    bipartite_interaction, community_powerlaw, road_network, BipartiteConfig,
    CommunityPowerLawConfig, RoadConfig,
};
use glp_graph::Graph;

/// FNV-1a over 64-bit words.
fn fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let csr = g.incoming();
    eat(g.num_vertices() as u64);
    eat(u64::from(g.is_undirected()));
    csr.offsets().iter().for_each(|&o| eat(o));
    csr.targets().iter().for_each(|&t| eat(u64::from(t)));
    if let Some(ws) = csr.weights() {
        ws.iter().for_each(|&w| eat(u64::from(w.to_bits())));
    }
    h
}

/// Every Table 2 dataset, at a divisor that keeps each graph near 10^5
/// stored edges (fast in the debug profile).
const TABLE2: [(&str, u64, u64); 8] = [
    ("dblp", 32, 5774694248680898940),
    ("roadNet", 32, 476944767492389448),
    ("youtube", 64, 7923687106154009348),
    ("aligraph", 1024, 10169709158669904756),
    ("ljournal", 512, 4830524347996425190),
    ("uk-2002", 4096, 2979663280245724234),
    ("wiki-en", 4096, 2827553293929708462),
    ("twitter", 16384, 13784315733879864142),
];

#[test]
fn table2_graphs_keep_their_bytes() {
    let specs = table2();
    assert_eq!(specs.len(), TABLE2.len());
    let mut got = Vec::new();
    for (spec, &(name, scale, _)) in specs.iter().zip(&TABLE2) {
        assert_eq!(spec.name, name);
        got.push((name, scale, fingerprint(&spec.generate_scaled(scale))));
    }
    assert_eq!(got, TABLE2, "a Table 2 graph changed");
}

/// The generator configuration of the committed benchmark's LP workloads
/// (`benchmark/src/lp.rs::generate`): `generate_scaled`'s, with the seed
/// offset by `seed`.
fn benchmark_graph(spec: &DatasetSpec, divisor: u64, seed: u64) -> Graph {
    let v = (spec.paper_vertices / divisor).max(64) as usize;
    let mult = if spec.directed { 1 } else { 2 };
    let e = (mult * spec.paper_edges / divisor).max(256);
    let avg = e as f64 / v as f64;
    let seed = 0x617 + spec.id as u64 + seed;
    match spec.family {
        GraphFamily::Social => community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: v,
            avg_degree: avg,
            gamma: 2.3,
            num_communities: (v / 150).max(4),
            mixing: 0.08,
            seed,
        }),
        GraphFamily::Road => {
            let side = (v as f64).sqrt().round() as usize;
            road_network(&RoadConfig {
                width: side.max(2),
                height: side.max(2),
                keep: (avg / 4.0).min(1.0),
                seed,
            })
        }
        GraphFamily::Interaction => {
            let users = v * 2 / 3;
            bipartite_interaction(&BipartiteConfig {
                num_users: users.max(8),
                num_items: (v - users).max(8),
                num_interactions: (e / 2) as usize,
                skew: 0.6,
                seed,
            })
        }
        GraphFamily::Web => unreachable!("no benchmark workload is a web graph"),
    }
}

/// `lp_lowdeg` (roadNet/24), `lp_highdeg` (aligraph/24) and `lp_outofcore`
/// (twitter/512, two graphs) at seed 1, each at a reduced size.
const BENCHMARK: [(&str, u64, u64, u64); 4] = [
    ("roadNet", 96, 1, 1091735996428626207),
    ("aligraph", 768, 1, 17114847782734929328),
    ("twitter", 8192, 2, 2508018920847213334),
    ("twitter", 8192, 3, 2927089262875288622),
];

/// Each row's name, divisor and seed with the fingerprint its graph has now.
fn benchmark_rows(rows: &[(&'static str, u64, u64, u64)]) -> Vec<(&'static str, u64, u64, u64)> {
    rows.iter()
        .map(|&(name, divisor, seed, _)| {
            let spec = by_name(name).unwrap();
            let hash = fingerprint(&benchmark_graph(&spec, divisor, seed));
            (name, divisor, seed, hash)
        })
        .collect()
}

#[test]
fn benchmark_graphs_keep_their_bytes() {
    assert_eq!(
        benchmark_rows(&BENCHMARK),
        BENCHMARK,
        "a benchmark graph changed"
    );
}

/// `lp_outofcore`'s own inputs: twitter/512 at seed offsets 2 and 3, the
/// two graphs the benchmark's `--seed 1` generates. About 6 s each
/// unoptimised, so they run in release builds only.
const OUTOFCORE: [(&str, u64, u64, u64); 2] = [
    ("twitter", 512, 2, 5388662482519621190),
    ("twitter", 512, 3, 10874671566280760628),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 12 s unoptimised; run with --release"
)]
fn outofcore_graphs_keep_their_bytes() {
    assert_eq!(
        benchmark_rows(&OUTOFCORE),
        OUTOFCORE,
        "an lp_outofcore graph changed"
    );
}
