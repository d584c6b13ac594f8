//! The end-to-end detection pipeline (paper Figure 1).
//!
//! sliding window → transaction graph → **LP clustering** → flag clusters
//! containing black-listed seeds.
//!
//! §1: "transaction networks ... are first processed by LP to identify
//! suspicious clusters from known black-listed users". Weighted classic LP
//! clusters the window graph (wash-trading rings form tight, heavy-edged
//! communities); clusters containing blacklist members with suspicious
//! internal structure are flagged for the downstream models.
//!
//! The LP stage is pluggable (that is the whole point of the paper: swap
//! the in-house distributed LP for GLP and the pipeline's dominant stage
//! shrinks). Construction and scoring are charged on the workstation CPU
//! model so the per-stage share — the "LP takes 75%" observation — can be
//! reproduced and then shown collapsing under GLP.

use crate::transactions::TxStream;
use crate::window::WindowWorkload;
use glp_core::{Engine, EngineError, LpProgram, LpRunReport, RunOptions, WeightedLp};
use glp_gpusim::host::{CpuConfig, CpuCounters};
use glp_graph::VertexId;

/// Clusters with fewer users than this are ignored.
const MIN_CLUSTER_SIZE: usize = 4;
/// Clusters scoring at least this are flagged.
const SUSPICION_THRESHOLD: f64 = 0.5;
/// Black-listed members a cluster needs to be considered at all.
const MIN_SEEDS: usize = 2;

/// Pipeline parameters.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Sliding-window length in days.
    pub window_days: u32,
    /// Seeded-LP iteration cap (the paper's runs use 20).
    pub lp_iterations: u32,
    /// Self-retention bonus for the weighted LP (damps bipartite
    /// oscillation; should sit above honest purchase multiplicity and
    /// below wash-trade multiplicity).
    pub retention: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            window_days: 30,
            lp_iterations: 20,
            retention: 3.0,
        }
    }
}

/// Per-stage modeled seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSeconds {
    /// Window graph construction.
    pub construction: f64,
    /// Label propagation.
    pub lp: f64,
    /// Cluster feature extraction + scoring.
    pub scoring: f64,
}

impl StageSeconds {
    /// Total pipeline seconds.
    pub fn total(&self) -> f64 {
        self.construction + self.lp + self.scoring
    }

    /// LP's share of the pipeline (the paper's 75% number).
    pub fn lp_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.lp / self.total()
        }
    }
}

/// One flagged cluster.
#[derive(Clone, Debug)]
pub struct FlaggedCluster {
    /// The seed label identifying the cluster.
    pub label: u32,
    /// User vertices in the cluster.
    pub users: Vec<VertexId>,
    /// Item vertices in the cluster.
    pub items: Vec<VertexId>,
    /// Suspicion score in [0, 1].
    pub score: f64,
}

/// Pipeline output.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Window length used.
    pub window_days: u32,
    /// Window graph size.
    pub graph_vertices: usize,
    /// Window graph directed edge count.
    pub graph_edges: u64,
    /// Seeds present in the window.
    pub num_seeds: usize,
    /// Per-stage modeled seconds.
    pub stages: StageSeconds,
    /// Clusters flagged as suspicious.
    pub flagged: Vec<FlaggedCluster>,
    /// Precision over flagged users against the injected rings.
    pub precision: f64,
    /// Recall of ring members among flagged users.
    pub recall: f64,
    /// The LP stage's full report.
    pub lp_report: LpRunReport,
}

/// Precision and recall of a flagged user set against ground-truth
/// positives (`truth`, ascending). Both sides are treated as sets
/// (duplicates count once). Conservative empty-set conventions: no
/// flagged users scores precision 0, no truth scores recall 0 — a
/// detector that flags nothing, or a window with nothing to find,
/// never reads as perfect. Shared by the offline [`PipelineReport`]
/// and the serving tests that score published snapshots.
pub fn precision_recall(flagged: &[u32], truth: &[u32]) -> (f64, f64) {
    let mut flagged: Vec<u32> = flagged.to_vec();
    flagged.sort_unstable();
    flagged.dedup();
    debug_assert!(truth.windows(2).all(|w| w[0] < w[1]), "truth must ascend");
    let true_pos = flagged
        .iter()
        .filter(|u| truth.binary_search(u).is_ok())
        .count();
    let precision = if flagged.is_empty() {
        0.0
    } else {
        true_pos as f64 / flagged.len() as f64
    };
    let recall = if truth.is_empty() {
        0.0
    } else {
        true_pos as f64 / truth.len() as f64
    };
    (precision, recall)
}

/// The pipeline runner.
#[derive(Clone, Debug)]
pub struct FraudPipeline {
    cfg: PipelineConfig,
    host: CpuConfig,
}

impl FraudPipeline {
    /// Pipeline with the given configuration on the paper's workstation.
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            host: CpuConfig::xeon_w2133(),
        }
    }

    /// Runs the pipeline over `stream` with a pluggable LP stage: any
    /// [`Engine`] — GLP, a baseline, or the in-house cluster simulation —
    /// driven under `opts` (the iteration cap is overridden by
    /// [`PipelineConfig::lp_iterations`], everything else passes through).
    ///
    /// An engine fault aborts the window cleanly — no partial
    /// [`PipelineReport`] is produced. Callers that need the window scored
    /// despite faults wrap the engine in
    /// [`ResilientEngine`](glp_core::engine::ResilientEngine).
    pub fn run(
        &self,
        stream: &TxStream,
        engine: &mut dyn Engine,
        opts: &RunOptions,
    ) -> Result<PipelineReport, EngineError> {
        // Stage 1: window graph construction (two streaming passes over
        // the window's transactions plus the CSR sort).
        let window = WindowWorkload::build(stream, self.cfg.window_days);
        let tx_count = stream
            .window(
                stream.config.days.saturating_sub(self.cfg.window_days),
                stream.config.days,
            )
            .count() as u64;
        let e = window.graph.num_edges();
        let construction_work = CpuCounters {
            instructions: 40 * tx_count + 60 * e,
            random_accesses: 2 * tx_count,
            seq_bytes: 32 * tx_count + 12 * e,
        };
        let construction = self.host.seconds(&construction_work, self.host.cores);

        // Stage 2: weighted classic LP clusters the window graph.
        let seeds = window.seeds(stream);
        let mut prog = WeightedLp::from_graph(&window.graph, self.cfg.lp_iterations)
            .with_retention(self.cfg.retention);
        let lp_opts = RunOptions {
            max_iterations: self.cfg.lp_iterations,
            ..opts.clone()
        };
        let lp_report = engine.run(&window.graph, &mut prog, &lp_opts)?;

        // Stage 3: cluster extraction + scoring.
        let (flagged, scoring_work) = self.score_clusters(&window, &prog, &seeds);
        let scoring = self.host.seconds(&scoring_work, self.host.cores);

        // Quality against the injected rings.
        let vertex_user = window.users_by_vertex();
        let flagged_users: Vec<u32> = flagged
            .iter()
            .flat_map(|c| c.users.iter().map(|&v| vertex_user[v as usize]))
            .collect();
        let (precision, recall) = precision_recall(&flagged_users, &stream.fraudulent_users());

        Ok(PipelineReport {
            window_days: self.cfg.window_days,
            graph_vertices: window.graph.num_vertices(),
            graph_edges: e,
            num_seeds: seeds.len(),
            stages: StageSeconds {
                construction,
                lp: lp_report.modeled_seconds,
                scoring,
            },
            flagged,
            precision,
            recall,
            lp_report,
        })
    }

    /// Scores the clusters of an already-run LP program over `window` —
    /// the reusable stage-3 entry point. The serving path reclusters
    /// out-of-band on a window snapshot and needs scoring without
    /// re-running construction or LP (see `score_clusters` for the
    /// scoring model).
    pub fn score(
        &self,
        window: &WindowWorkload,
        prog: &WeightedLp,
        seeds: &[VertexId],
    ) -> Vec<FlaggedCluster> {
        self.score_clusters(window, prog, seeds).0
    }

    /// Clusters the *user side* by LP label (synchronous LP on bipartite
    /// graphs oscillates labels between the sides, so user and item labels
    /// never unify; projecting from one side is the standard remedy), then
    /// attaches each item to the cluster that dominates its incoming
    /// weight. Clusters containing black-listed seeds are scored on:
    ///
    /// * **cohesion** — share of the members' purchase weight landing on
    ///   the cluster's own items;
    /// * **multiplicity** — average repeat-purchase weight of internal
    ///   edges (wash trades repeat; honest purchases rarely do);
    /// * **seed share** — fraction of members already black-listed.
    fn score_clusters(
        &self,
        window: &WindowWorkload,
        prog: &WeightedLp,
        seeds: &[VertexId],
    ) -> (Vec<FlaggedCluster>, CpuCounters) {
        let labels = prog.labels();
        let g = &*window.graph;
        let n = g.num_vertices();
        let num_users = window.num_user_vertices;
        assert_eq!(labels.len(), n, "program sized for a different window");
        // Users grouped by label with a counting sort: LP labels are
        // vertex ids, so `members[start[l]..start[l + 1]]` are label
        // `l`'s users, ascending.
        let mut start = vec![0usize; n + 1];
        for &l in &labels[..num_users] {
            start[l as usize + 1] += 1;
        }
        for l in 0..n {
            start[l + 1] += start[l];
        }
        let mut members = vec![0 as VertexId; num_users];
        let mut cursor = start.clone();
        for v in 0..num_users {
            let slot = &mut cursor[labels[v] as usize];
            members[*slot] = v as VertexId;
            *slot += 1;
        }
        // The charges model the batch job's hash-grouped pass (one random
        // access per item for its total incoming weight) whatever the
        // host does here.
        let mut work = CpuCounters {
            instructions: 6 * labels.len() as u64,
            seq_bytes: 4 * labels.len() as u64,
            random_accesses: (n - num_users) as u64,
        };
        let weights_of = |v: VertexId| g.incoming().neighbor_weights(v).unwrap_or(&[]);
        // Weight the current cluster sends to each item (indexed by item
        // slot, zero outside `reached`).
        let mut to_item = vec![0.0f64; n - num_users];
        let mut reached: Vec<VertexId> = Vec::new();

        let mut flagged = Vec::new();
        for label in 0..n {
            let users = &members[start[label]..start[label + 1]];
            if users.len() < MIN_CLUSTER_SIZE {
                continue;
            }
            let seed_count = users
                .iter()
                .filter(|v| seeds.binary_search(v).is_ok())
                .count();
            work.instructions += 8 * users.len() as u64;
            if seed_count < MIN_SEEDS {
                continue; // no known-bad members: not suspicious
            }
            let mut total_weight = 0.0f64;
            let mut internal_pairs = 0u64;
            for &u in users {
                let ws = weights_of(u);
                for (k, &i) in g.neighbors(u).iter().enumerate() {
                    let w = f64::from(ws.get(k).copied().unwrap_or(1.0));
                    let sent = &mut to_item[i as usize - num_users];
                    if *sent == 0.0 {
                        reached.push(i);
                    }
                    *sent += w;
                    total_weight += w;
                    internal_pairs += 1;
                }
                work.random_accesses += u64::from(g.degree(u));
            }
            reached.sort_unstable();
            reached.dedup(); // a zero-weight edge leaves `sent` at 0 and re-pushes
                             // Items dominated by this cluster belong to it.
            let mut items: Vec<VertexId> = Vec::new();
            let mut internal_weight = 0.0f64;
            for &i in &reached {
                let sent = std::mem::take(&mut to_item[i as usize - num_users]);
                let item_total: f64 = weights_of(i).iter().map(|&x| f64::from(x)).sum();
                if sent >= 0.5 * item_total {
                    items.push(i);
                    internal_weight += sent;
                }
            }
            work.instructions += 6 * reached.len() as u64;
            reached.clear();
            let cohesion = if total_weight == 0.0 {
                0.0
            } else {
                internal_weight / total_weight
            };
            let avg_multiplicity = if internal_pairs == 0 {
                0.0
            } else {
                total_weight / internal_pairs as f64
            };
            let seed_share = seed_count as f64 / users.len() as f64;
            let score = 0.4 * cohesion
                + 0.3 * (avg_multiplicity / 8.0).min(1.0)
                + 0.3 * (seed_share / 0.1).min(1.0);
            if score >= SUSPICION_THRESHOLD {
                flagged.push(FlaggedCluster {
                    label: label as u32,
                    users: users.to_vec(),
                    items,
                    score,
                });
            }
        }
        flagged.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        (flagged, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::TxConfig;
    use glp_core::engine::GpuEngine;

    fn stream() -> TxStream {
        TxStream::generate(&TxConfig {
            num_users: 2_000,
            num_items: 800,
            days: 40,
            tx_per_day: 1_000,
            num_rings: 5,
            ring_size: 15,
            ring_tx_per_day: 50,
            blacklist_fraction: 0.2,
            ..Default::default()
        })
    }

    #[test]
    fn pipeline_finds_rings_with_good_recall() {
        let s = stream();
        let pipe = FraudPipeline::new(PipelineConfig {
            window_days: 30,
            ..Default::default()
        });
        let report = pipe
            .run(&s, &mut GpuEngine::titan_v(), &RunOptions::default())
            .unwrap();
        assert!(!report.flagged.is_empty(), "rings should be flagged");
        assert!(
            report.recall > 0.6,
            "recall {} (flagged {} clusters)",
            report.recall,
            report.flagged.len()
        );
        assert!(report.precision > 0.6, "precision {}", report.precision);
    }

    #[test]
    fn precision_recall_conventions() {
        let truth = vec![2, 5, 9];
        assert_eq!(precision_recall(&[], &truth), (0.0, 0.0));
        assert_eq!(precision_recall(&[2, 5, 9], &truth), (1.0, 1.0));
        let (p, r) = precision_recall(&[2, 3], &truth);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 1.0 / 3.0).abs() < 1e-12);
        // Sets, not lists: duplicates count once.
        assert_eq!(precision_recall(&[2, 2, 2], &truth), (1.0, 1.0 / 3.0));
        // Nothing to find: recall stays 0, not 1.
        assert_eq!(precision_recall(&[1], &[]), (0.0, 0.0));
    }

    #[test]
    fn stage_breakdown_sums() {
        let s = stream();
        let pipe = FraudPipeline::new(PipelineConfig::default());
        let report = pipe
            .run(&s, &mut GpuEngine::titan_v(), &RunOptions::default())
            .unwrap();
        let st = report.stages;
        assert!(st.construction > 0.0 && st.lp > 0.0 && st.scoring > 0.0);
        assert!((st.total() - (st.construction + st.lp + st.scoring)).abs() < 1e-15);
        assert!(st.lp_fraction() > 0.0 && st.lp_fraction() < 1.0);
    }

    #[test]
    fn inhouse_lp_dominates_pipeline_like_the_paper() {
        // With the old in-house distributed LP, the LP stage should be the
        // large majority of pipeline time (the paper's 75% observation).
        let s = stream();
        let pipe = FraudPipeline::new(PipelineConfig::default());
        let report = pipe
            .run(&s, &mut crate::InHouseLp::taobao(), &RunOptions::default())
            .unwrap();
        assert!(
            report.stages.lp_fraction() > 0.6,
            "in-house LP share {}",
            report.stages.lp_fraction()
        );
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::transactions::TxConfig;
    use glp_core::engine::GpuEngine;
    use glp_core::LpProgram;

    #[test]
    #[ignore]
    fn debug_pipeline() {
        let s = TxStream::generate(&TxConfig {
            num_users: 2_000,
            num_items: 800,
            days: 40,
            tx_per_day: 1_000,
            num_rings: 5,
            ring_size: 15,
            ring_tx_per_day: 50,
            blacklist_fraction: 0.2,
            ..Default::default()
        });
        let pipe = FraudPipeline::new(PipelineConfig {
            window_days: 30,
            ..Default::default()
        });
        let window = WindowWorkload::build(&s, 30);
        let seeds = window.seeds(&s);
        let mut prog = WeightedLp::from_graph(&window.graph, 20).with_retention(3.0);
        GpuEngine::titan_v()
            .run(&window.graph, &mut prog, &RunOptions::default())
            .unwrap();
        let (flagged, _) = pipe.score_clusters(&window, &prog, &seeds);
        eprintln!("seeds {} flagged {}", seeds.len(), flagged.len());
        for f in flagged.iter().take(10) {
            eprintln!(
                "cluster label {} users {} items {} score {:.2}",
                f.label,
                f.users.len(),
                f.items.len(),
                f.score
            );
        }
        use std::collections::HashMap;
        let mut m: HashMap<u32, usize> = HashMap::new();
        for &l in prog.labels() {
            *m.entry(l).or_default() += 1;
        }
        let mut sizes: Vec<usize> = m.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        eprintln!(
            "clusters {} sizes(top10) {:?}",
            sizes.len(),
            &sizes[..sizes.len().min(10)]
        );
    }
}
