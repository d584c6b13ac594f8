//! CPU-baseline identity pin: OMP / Ligra / TG may change *how* they run —
//! they are backends of `bsp::drive` now — but never a number they report.
//!
//! Every row of [`EXPECTED`] was captured at the commit *before* `CpuLp`
//! lost its hand-rolled iteration loop (when it still owned its own exact
//! MFL, its own push and pull frontier rebuilds and its own report) and
//! must keep passing unchanged: labels, the changed / active / direction
//! traces, the bits of the modeled clock and every field of
//! [`CpuCounters`].
//!
//! The matrix is {OMP, Ligra, TG} × four [`FrontierMode`]s × {classic LP,
//! LLP, classic LP cut off by the run's iteration cap} × {caveman,
//! power-law, a bipartite window} — TG runs classic LP only, like the
//! original — and every row is run on 1 and on 3 harness shards: counters
//! are sums over vertices, so the split cannot move one.
//!
//! The bipartite rows are the regression test of the driver's replay rule.
//! Synchronous LP 2-cycles there, and a tier that keeps a modeled clock in
//! counters of its own has no device launch to re-commit: were its
//! LabelPropagation phases replayed, every replayed iteration's charges
//! would be missing from the row.

use glp_baselines::{CpuLp, CpuLpConfig};
use glp_core::engine::{Direction, Engine, RunOptions};
use glp_core::{ClassicLp, FrontierMode, Llp, LpProgram};
use glp_gpusim::host::CpuCounters;
use glp_graph::gen::{
    bipartite_interaction, caveman, community_powerlaw, BipartiteConfig, CommunityPowerLawConfig,
};
use glp_graph::{Graph, Label};

/// What the programs cap themselves at.
const ITERS: u32 = 20;
/// What the run's own cap cuts the `capped` rows off at.
const CAP: u32 = 2;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("caveman", caveman(8, 6)),
        (
            "powerlaw",
            community_powerlaw(&CommunityPowerLawConfig {
                num_vertices: 1_500,
                avg_degree: 8.0,
                seed: 13,
                ..Default::default()
            }),
        ),
        (
            "bipartite",
            bipartite_interaction(&BipartiteConfig {
                num_users: 60,
                num_items: 25,
                num_interactions: 3_000,
                skew: 0.8,
                seed: 7,
            }),
        ),
    ]
}

/// A personality's constructor.
type Flavor = fn(CpuLpConfig) -> CpuLp;

const FLAVORS: [(&str, Flavor); 3] = [
    ("OMP", CpuLp::omp),
    ("Ligra", CpuLp::ligra),
    ("TG", CpuLp::tigergraph),
];

const MODES: [FrontierMode; 4] = [
    FrontierMode::Dense,
    FrontierMode::Auto,
    FrontierMode::Push,
    FrontierMode::Pull,
];

/// `(name, program, the run's iteration cap)`.
fn programs(flavor: &str, n: usize) -> Vec<(&'static str, Box<dyn LpProgram>, u32)> {
    let classic = || Box::new(ClassicLp::with_max_iterations(n, ITERS));
    let mut out: Vec<(&'static str, Box<dyn LpProgram>, u32)> = vec![("classic", classic(), ITERS)];
    if flavor != "TG" {
        out.push((
            "llp",
            Box::new(Llp::with_max_iterations(n, 2.0, ITERS)),
            ITERS,
        ));
    }
    out.push(("capped", classic(), CAP));
    out
}

fn fnv(labels: &[Label]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| {
        (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every counter, in declaration order. The exhaustive destructuring makes
/// a new field a compile error here instead of a silently unpinned count.
fn counter_block(c: &CpuCounters) -> [u64; 3] {
    let CpuCounters {
        instructions,
        random_accesses,
        seq_bytes,
    } = *c;
    [instructions, random_accesses, seq_bytes]
}

/// One letter per iteration: `D`ense, `P`ush, pu`L`l.
fn directions(trace: &[Direction]) -> String {
    trace
        .iter()
        .map(|d| match d {
            Direction::Dense => 'D',
            Direction::Push => 'P',
            Direction::Pull => 'L',
        })
        .collect()
}

/// Every case on `shards` harness threads, each rendered as the source
/// text of its [`EXPECTED`] row.
fn observe(shards: usize) -> Vec<String> {
    let mut rows = Vec::new();
    for (gname, g) in graphs() {
        for (fname, flavor) in FLAVORS {
            for mode in MODES {
                for (pname, mut prog, cap) in programs(fname, g.num_vertices()) {
                    let opts = RunOptions::default()
                        .with_max_iterations(cap)
                        .with_frontier(mode)
                        .with_shards(shards);
                    let mut engine = flavor(CpuLpConfig::default());
                    let report = engine
                        .run(&g, prog.as_mut(), &opts)
                        .expect("host execution cannot fault");
                    rows.push(render(&(
                        &format!("{gname}/{fname}/{mode:?}/{pname}"),
                        fnv(prog.labels()),
                        &report.changed_per_iteration,
                        &report.active_per_iteration,
                        &directions(&report.direction_per_iteration),
                        report.modeled_seconds.to_bits(),
                        counter_block(engine.totals()),
                    )));
                }
            }
        }
    }
    rows
}

/// `(case, fnv(labels), changed_per_iteration, active_per_iteration,
/// direction_per_iteration, modeled_seconds bits, counter block)`.
type Row<'a> = (&'a str, u64, &'a [u64], &'a [u64], &'a str, u64, [u64; 3]);

/// A row as the source text of its [`EXPECTED`] entry.
fn render((case, labels, changed, active, dirs, modeled, counters): &Row<'_>) -> String {
    format!(
        "(\"{case}\", {labels:#x}, &{changed:?}, &{active:?}, \"{dirs}\", {modeled:#x}, {counters:?}),"
    )
}

#[test]
fn every_reported_number_matches_the_parent_commit() {
    let want: Vec<String> = EXPECTED.iter().map(render).collect();
    for shards in [1, 3] {
        let got = observe(shards);
        let moved: Vec<&str> = got
            .iter()
            .enumerate()
            .filter(|&(i, g)| want.get(i) != Some(g))
            .map(|(_, g)| g.as_str())
            .collect();
        assert!(
            moved.is_empty() && got.len() == want.len(),
            "{shards} shard(s): {} of {} cases moved ({} pinned); observed rows:\n{}",
            moved.len(),
            got.len(),
            want.len(),
            moved.join("\n")
        );
    }
}

#[test]
fn the_matrix_reaches_every_path() {
    // The pin is only worth its rows if the inputs drive every path: both
    // frontier rebuilds, the dense fallback of a non-sparse program, a run
    // its own cap cuts off, and a graph that never settles.
    let find = |case: &str| EXPECTED.iter().find(|r| r.0 == case).expect(case);
    assert_eq!(EXPECTED.len(), 96);
    let bipartite = find("bipartite/OMP/Auto/classic");
    assert_eq!(bipartite.2.len(), ITERS as usize, "settled");
    assert!(bipartite.2.iter().all(|&c| c > 0), "settled");
    assert!(find("powerlaw/Ligra/Auto/classic").4.starts_with('P'));
    assert!(find("powerlaw/Ligra/Pull/classic").4.starts_with('L'));
    assert!(find("powerlaw/Ligra/Pull/llp").4.starts_with('D'));
    assert_eq!(find("powerlaw/TG/Push/capped").2.len(), CAP as usize);
    // The frontier pays: Ligra's native schedule does less than OMP's.
    assert!(
        find("caveman/Ligra/Auto/classic").6[1] < find("caveman/Ligra/Dense/classic").6[1],
        "the frontier saved no random access"
    );
}

#[rustfmt::skip]
const EXPECTED: &[Row<'static>] = &[
    ("caveman/OMP/Dense/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 48], "DDD", 0x3f33b9455b7ed6cb, [10479, 720, 6336]),
    ("caveman/OMP/Dense/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f606fb9cc3f0854, [67263, 4800, 42240]),
    ("caveman/OMP/Dense/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "DD", 0x3f2a4c5c79fe73b9, [7215, 480, 4224]),
    ("caveman/OMP/Auto/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "PPP", 0x3f33b88e1affd52d, [10935, 688, 7488]),
    ("caveman/OMP/Auto/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f606fb9cc3f0854, [67263, 4800, 42240]),
    ("caveman/OMP/Auto/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "PP", 0x3f2a4c5c79fe73b9, [8111, 480, 5504]),
    ("caveman/OMP/Push/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "PPP", 0x3f33b88e1affd52d, [10935, 688, 7488]),
    ("caveman/OMP/Push/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f606fb9cc3f0854, [67263, 4800, 42240]),
    ("caveman/OMP/Push/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "PP", 0x3f2a4c5c79fe73b9, [8111, 480, 5504]),
    ("caveman/OMP/Pull/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "LLL", 0x3f33b88e1affd52d, [10911, 688, 7664]),
    ("caveman/OMP/Pull/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f606fb9cc3f0854, [67263, 4800, 42240]),
    ("caveman/OMP/Pull/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "LL", 0x3f2a4c5c79fe73b9, [7559, 480, 4720]),
    ("caveman/Ligra/Dense/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 48], "DDD", 0x3f33ba13840db89d, [11002, 756, 6336]),
    ("caveman/Ligra/Dense/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f60706598b619d8, [70626, 5040, 42240]),
    ("caveman/Ligra/Dense/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "DD", 0x3f2a4d6f5abcf627, [7575, 504, 4224]),
    ("caveman/Ligra/Auto/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "PPP", 0x3f33b950cf86c6e5, [11481, 722, 7488]),
    ("caveman/Ligra/Auto/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f60706598b619d8, [70626, 5040, 42240]),
    ("caveman/Ligra/Auto/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "PP", 0x3f2a4d6f5abcf627, [8516, 504, 5504]),
    ("caveman/Ligra/Push/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "PPP", 0x3f33b950cf86c6e5, [11481, 722, 7488]),
    ("caveman/Ligra/Push/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f60706598b619d8, [70626, 5040, 42240]),
    ("caveman/Ligra/Push/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "PP", 0x3f2a4d6f5abcf627, [8516, 504, 5504]),
    ("caveman/Ligra/Pull/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "LLL", 0x3f33b950cf86c6e5, [11456, 722, 7664]),
    ("caveman/Ligra/Pull/llp", 0xdb19368fb18c2595, &[48, 40, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36], &[48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48], "DDDDDDDDDDDDDDDDDDDD", 0x3f60706598b619d8, [70626, 5040, 42240]),
    ("caveman/Ligra/Pull/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "LL", 0x3f2a4d6f5abcf627, [7936, 504, 4720]),
    ("caveman/TG/Dense/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 48], "DDD", 0x3f789679d4824dce, [31437, 2160, 17856]),
    ("caveman/TG/Dense/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "DD", 0x3f7064513856de89, [21645, 1440, 11904]),
    ("caveman/TG/Auto/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "PPP", 0x3f789657786a7d80, [32805, 2064, 19008]),
    ("caveman/TG/Auto/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "PP", 0x3f7064513856de89, [24333, 1440, 13184]),
    ("caveman/TG/Push/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "PPP", 0x3f789657786a7d80, [32805, 2064, 19008]),
    ("caveman/TG/Push/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "PP", 0x3f7064513856de89, [24333, 1440, 13184]),
    ("caveman/TG/Pull/classic", 0xe8ee76bb4daaf2e5, &[48, 16, 0], &[48, 48, 40], "LLL", 0x3f789657786a7d80, [32733, 2064, 19184]),
    ("caveman/TG/Pull/capped", 0xe8ee76bb4daaf2e5, &[48, 16], &[48, 48], "LL", 0x3f7064513856de89, [22677, 1440, 12400]),
    ("powerlaw/OMP/Dense/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f62fc22c2696338, [2871062, 238120, 1672480]),
    ("powerlaw/OMP/Dense/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f62fc22c2696338, [3128957, 238120, 1672480]),
    ("powerlaw/OMP/Dense/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "DD", 0x3f2e60379d756b8c, [323186, 23812, 167248]),
    ("powerlaw/OMP/Auto/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "PPPPPPPPPPPPPPPPPPPP", 0x3f617c82c0c86af7, [1396709, 100925, 1292928]),
    ("powerlaw/OMP/Auto/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f62fc22c2696338, [3128957, 238120, 1672480]),
    ("powerlaw/OMP/Auto/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "PP", 0x3f2e60379d756b8c, [378272, 23812, 255508]),
    ("powerlaw/OMP/Push/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "PPPPPPPPPPPPPPPPPPPP", 0x3f617c82c0c86af7, [1396709, 100925, 1292928]),
    ("powerlaw/OMP/Push/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f62fc22c2696338, [3128957, 238120, 1672480]),
    ("powerlaw/OMP/Push/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "PP", 0x3f2e60379d756b8c, [378272, 23812, 255508]),
    ("powerlaw/OMP/Pull/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "LLLLLLLLLLLLLLLLLLLL", 0x3f617c82c0c86af7, [1668641, 100925, 1823920]),
    ("powerlaw/OMP/Pull/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f62fc22c2696338, [3128957, 238120, 1672480]),
    ("powerlaw/OMP/Pull/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "LL", 0x3f2e60379d756b8c, [332390, 23812, 179656]),
    ("powerlaw/Ligra/Dense/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f631d6d67fc2c7b, [3014615, 250026, 1672480]),
    ("powerlaw/Ligra/Dense/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f631d6d67fc2c7b, [3285404, 250026, 1672480]),
    ("powerlaw/Ligra/Dense/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "DD", 0x3f2e9574fa5b83e8, [339345, 25002, 167248]),
    ("powerlaw/Ligra/Auto/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "PPPPPPPPPPPPPPPPPPPP", 0x3f618a9ed20fd4dd, [1466544, 105971, 1292928]),
    ("powerlaw/Ligra/Auto/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f631d6d67fc2c7b, [3285404, 250026, 1672480]),
    ("powerlaw/Ligra/Auto/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "PP", 0x3f2e9574fa5b83e8, [397185, 25002, 255508]),
    ("powerlaw/Ligra/Push/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "PPPPPPPPPPPPPPPPPPPP", 0x3f618a9ed20fd4dd, [1466544, 105971, 1292928]),
    ("powerlaw/Ligra/Push/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f631d6d67fc2c7b, [3285404, 250026, 1672480]),
    ("powerlaw/Ligra/Push/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "PP", 0x3f2e9574fa5b83e8, [397185, 25002, 255508]),
    ("powerlaw/Ligra/Pull/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "LLLLLLLLLLLLLLLLLLLL", 0x3f618a9ed20fd4dd, [1752073, 105971, 1823920]),
    ("powerlaw/Ligra/Pull/llp", 0xeec7897258d24ec, &[1491, 1447, 1462, 1467, 1462, 1461, 1465, 1467, 1464, 1464, 1462, 1463, 1463, 1463, 1463, 1462, 1462, 1462, 1462, 1462], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3f631d6d67fc2c7b, [3285404, 250026, 1672480]),
    ("powerlaw/Ligra/Pull/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "LL", 0x3f2e9574fa5b83e8, [349009, 25002, 179656]),
    ("powerlaw/TG/Dense/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491, 1491], "DDDDDDDDDDDDDDDDDDDD", 0x3fa4f7b934948736, [8613186, 714360, 5482400]),
    ("powerlaw/TG/Dense/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "DD", 0x3f70c62dc3aa05c5, [969558, 71436, 548240]),
    ("powerlaw/TG/Auto/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "PPPPPPPPPPPPPPPPPPPP", 0x3fa4afcb344658aa, [4190127, 302775, 5102848]),
    ("powerlaw/TG/Auto/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "PP", 0x3f70c62dc3aa05c5, [1134816, 71436, 636500]),
    ("powerlaw/TG/Push/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "PPPPPPPPPPPPPPPPPPPP", 0x3fa4afcb344658aa, [4190127, 302775, 5102848]),
    ("powerlaw/TG/Push/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "PP", 0x3f70c62dc3aa05c5, [1134816, 71436, 636500]),
    ("powerlaw/TG/Pull/classic", 0x8b6f6ab7d7cd1530, &[1491, 1248, 884, 560, 314, 190, 154, 126, 114, 98, 94, 86, 74, 68, 66, 67, 65, 64, 64, 64], &[1491, 1491, 1475, 1351, 1115, 816, 518, 398, 364, 334, 306, 189, 186, 150, 127, 129, 122, 120, 119, 119], "LLLLLLLLLLLLLLLLLLLL", 0x3fa4afcb344658aa, [5005923, 302775, 5633840]),
    ("powerlaw/TG/Pull/capped", 0x3dc1889a73d2ab5, &[1491, 1248], &[1491, 1491], "LL", 0x3f70c62dc3aa05c5, [997170, 71436, 560648]),
    ("bipartite/OMP/Dense/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61b1d92b7fe08b, [1011597, 120000, 520800]),
    ("bipartite/OMP/Dense/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61b1d92b7fe08b, [1011690, 120000, 520800]),
    ("bipartite/OMP/Dense/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "DD", 0x3f2c4fc1df3300df, [106287, 12000, 52080]),
    ("bipartite/OMP/Auto/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "PPPPPPPPPPPPPPPPPPPP", 0x3f61b1d92b7fe08b, [1258397, 120000, 1000800]),
    ("bipartite/OMP/Auto/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61b1d92b7fe08b, [1011690, 120000, 520800]),
    ("bipartite/OMP/Auto/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "PP", 0x3f2c4fc1df3300df, [130967, 12000, 100080]),
    ("bipartite/OMP/Push/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "PPPPPPPPPPPPPPPPPPPP", 0x3f61b1d92b7fe08b, [1258397, 120000, 1000800]),
    ("bipartite/OMP/Push/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61b1d92b7fe08b, [1011690, 120000, 520800]),
    ("bipartite/OMP/Push/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "PP", 0x3f2c4fc1df3300df, [130967, 12000, 100080]),
    ("bipartite/OMP/Pull/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "LLLLLLLLLLLLLLLLLLLL", 0x3f61b1d92b7fe08b, [1016697, 120000, 527600]),
    ("bipartite/OMP/Pull/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61b1d92b7fe08b, [1011690, 120000, 520800]),
    ("bipartite/OMP/Pull/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "LL", 0x3f2c4fc1df3300df, [106797, 12000, 52760]),
    ("bipartite/Ligra/Dense/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61c2a023209679, [1062176, 126000, 520800]),
    ("bipartite/Ligra/Dense/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61c2a023209679, [1062274, 126000, 520800]),
    ("bipartite/Ligra/Dense/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "DD", 0x3f2c6a99d1cdbd8e, [111601, 12600, 52080]),
    ("bipartite/Ligra/Auto/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "PPPPPPPPPPPPPPPPPPPP", 0x3f61c2a023209679, [1321316, 126000, 1000800]),
    ("bipartite/Ligra/Auto/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61c2a023209679, [1062274, 126000, 520800]),
    ("bipartite/Ligra/Auto/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "PP", 0x3f2c6a99d1cdbd8e, [137515, 12600, 100080]),
    ("bipartite/Ligra/Push/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "PPPPPPPPPPPPPPPPPPPP", 0x3f61c2a023209679, [1321316, 126000, 1000800]),
    ("bipartite/Ligra/Push/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61c2a023209679, [1062274, 126000, 520800]),
    ("bipartite/Ligra/Push/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "PP", 0x3f2c6a99d1cdbd8e, [137515, 12600, 100080]),
    ("bipartite/Ligra/Pull/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "LLLLLLLLLLLLLLLLLLLL", 0x3f61c2a023209679, [1067531, 126000, 527600]),
    ("bipartite/Ligra/Pull/llp", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3f61c2a023209679, [1062274, 126000, 520800]),
    ("bipartite/Ligra/Pull/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "LL", 0x3f2c6a99d1cdbd8e, [112136, 12600, 52760]),
    ("bipartite/TG/Dense/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "DDDDDDDDDDDDDDDDDDDD", 0x3fa4b9cb6848beb6, [3034791, 360000, 2440800]),
    ("bipartite/TG/Dense/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "DD", 0x3f7094a2b9d3cbc5, [318861, 36000, 244080]),
    ("bipartite/TG/Auto/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "PPPPPPPPPPPPPPPPPPPP", 0x3fa4b9cb6848beb6, [3775191, 360000, 2920800]),
    ("bipartite/TG/Auto/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "PP", 0x3f7094a2b9d3cbc5, [392901, 36000, 292080]),
    ("bipartite/TG/Push/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "PPPPPPPPPPPPPPPPPPPP", 0x3fa4b9cb6848beb6, [3775191, 360000, 2920800]),
    ("bipartite/TG/Push/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "PP", 0x3f7094a2b9d3cbc5, [392901, 36000, 292080]),
    ("bipartite/TG/Pull/classic", 0xa0f92498135a146b, &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], &[85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85], "LLLLLLLLLLLLLLLLLLLL", 0x3fa4b9cb6848beb6, [3050091, 360000, 2447600]),
    ("bipartite/TG/Pull/capped", 0xa0f92498135a146b, &[85, 85], &[85, 85], "LL", 0x3f7094a2b9d3cbc5, [320391, 36000, 244760]),
];
