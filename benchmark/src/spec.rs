//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root states
//! the same definitions for the driver; a self-test keeps the two equal.

/// One workload: a name later issues cite, and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition. `bound` is the share of the base median by
/// which an end-to-end metric may worsen; layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// Length of the measured phase the driver asks for (`run_seconds` in
/// `BENCHMARK.json`) and the default of `--seconds`.
pub const RUN_SECONDS: f64 = 12.0;

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "lp_lowdeg",
        why: "roadNet signature (max degree 4) on GpuEngine: every vertex is warp-packed, so lp_warp_packed and the frontier kernels do all the work and CMS+HT none; slowest host path per edge",
    },
    WorkloadSpec {
        name: "lp_highdeg",
        why: "aligraph signature (avg degree ~4000) on GpuEngine: lp_block_cms_ht dominates modeled kernel time and the warp path does nothing; Theorem 1 fallback rate is observable",
    },
    WorkloadSpec {
        name: "lp_outofcore",
        why: "twitter signature on HybridEngine with device memory = CSR/4: power-law mix of all degree buckets, decaying frontier, push/pull switches; only workload where PCIe transfer dominates modeled time",
    },
    WorkloadSpec {
        name: "serve_delta",
        why: "ServiceCore closed loop, 64-tx batches each followed by recluster_now inside one window: the incremental replay path (core.delta, memo remap) does most of the work, full LP runs rarely",
    },
    WorkloadSpec {
        name: "serve_slide",
        why: "ServiceCore closed loop over a sliding 10-day window, recluster every 8 batches of 512: every delta is expired, so materialize + full LP + scoring dominate and the incremental path does nothing",
    },
    WorkloadSpec {
        name: "serve_fleet",
        why: "FleetCore, 4 shards, journal and periodic checkpoints on disk, regional stream with cross-shard rings: router stamping, WAL append, per-shard reclusters and boundary exchange",
    },
    WorkloadSpec {
        name: "serve_live",
        why: "threaded FraudService under a fixed-rate open loop with probe transactions from unseen users: the only workload with queueing, batching budget, recluster coalescing and reader/writer contention",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics every workload reports in an untraced run.
///
/// The driver's contract wants one metric list for all workloads, so each
/// name is defined once per *kind* of workload (see README, "End-to-end
/// metrics"): the LP workloads treat one `Engine::run` as the unit of
/// work, the serving workloads one transaction.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("modeled_s", "s", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.2),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.2),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
];

/// The kernels whose modeled seconds and launch counts are exported.
pub const KERNELS: [&str; 9] = [
    "lp_warp_packed",
    "lp_warp_per_vertex",
    "lp_block_cms_ht",
    "pick_label",
    "update_vertex",
    "frontier_update",
    "frontier_compact",
    "frontier_density",
    "pull_gather",
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Layer metrics other than the per-kernel rows (see [`per_layer`]).
const LAYER_METRICS: &[MetricSpec] = &[
    // graph
    layer("graph.generate_s", "s", Lower),
    layer("graph.vertices", "count", Lower),
    layer("graph.edges", "count", Lower),
    layer("graph.csr_bytes", "B", Lower),
    layer("graph.frac_low_degree", "share", Higher),
    layer("graph.frac_high_degree", "share", Higher),
    // sketch
    layer("sketch.cms_add_ns", "ns", Lower),
    layer("sketch.ht_insert_ns", "ns", Lower),
    layer("sketch.fallback_rate", "share", Lower),
    layer("sketch.theorem1_bound", "share", Lower),
    // gpusim (per-kernel rows are appended by `per_layer`)
    layer("gpusim.transfer_modeled_s", "s", Lower),
    layer("gpusim.transfer_share", "share", Lower),
    layer("gpusim.global_sectors", "count", Lower),
    layer("gpusim.shared_accesses", "count", Lower),
    layer("gpusim.global_atomics", "count", Lower),
    layer("gpusim.warp_intrinsics", "count", Lower),
    layer("gpusim.lane_utilization", "share", Higher),
    // core.engine
    layer("core.engine.iterations", "count", Lower),
    layer("core.engine.active_sum", "count", Lower),
    layer("core.engine.push_iters", "count", Lower),
    layer("core.engine.pull_iters", "count", Lower),
    layer("core.engine.host_mteps", "1e6/s", Higher),
    layer("core.engine.modeled_mteps", "1e6/s", Higher),
    layer("core.engine.host_ns_per_modeled_us", "ns/us", Lower),
    layer("core.variants.llp_modeled_s", "s", Lower),
    layer("core.variants.slp_modeled_s", "s", Lower),
    // baselines
    layer("baselines.gsort_modeled_s", "s", Lower),
    layer("baselines.ghash_modeled_s", "s", Lower),
    layer("baselines.omp_modeled_s", "s", Lower),
    layer("paper.speedup_vs_gsort", "x", Higher),
    layer("paper.speedup_vs_ghash", "x", Higher),
    // fraud.window
    layer("fraud.window.apply_batch_us", "us", Lower),
    layer("fraud.window.materialize_ms", "ms", Lower),
    layer("fraud.window.materialize_delta_ms", "ms", Lower),
    layer("fraud.window.pairs", "count", Lower),
    layer("fraud.window.delta_frontier_p50", "count", Lower),
    // serve.recluster
    layer("serve.recluster.full_ms", "ms", Lower),
    layer("serve.recluster.incremental_ms", "ms", Lower),
    layer("serve.recluster.lp_wall_ms", "ms", Lower),
    layer("serve.recluster.incremental_share", "share", Higher),
    layer("serve.recluster.modeled_s", "s", Lower),
    layer("serve.recluster.count", "count", Higher),
    // core.delta / fraud.pipeline
    layer("core.delta.replay_ms", "ms", Lower),
    layer("fraud.pipeline.score_ms", "ms", Lower),
    layer("fraud.pipeline.recall", "share", Higher),
    layer("fraud.pipeline.precision", "share", Higher),
    // serve.service
    layer("serve.service.apply_us", "us", Lower),
    layer("serve.service.recluster_now_full_ms", "ms", Lower),
    layer("serve.service.recluster_now_incremental_ms", "ms", Lower),
    layer("serve.service.verdict_latency_p99_ms", "ms", Lower),
    layer("serve.service.staleness_batches_p50", "count", Lower),
    layer("serve.service.achieved_tx_per_s", "1/s", Higher),
    layer("serve.service.generator_late_p99_ms", "ms", Lower),
    // serve.ingest / serve.query
    layer("serve.ingest.submit_ns", "ns", Lower),
    layer("serve.ingest.lag_p95_us", "us", Lower),
    layer("serve.ingest.batch_size_p50", "count", Higher),
    layer("serve.ingest.shed", "count", Lower),
    layer("serve.query.lookup_ns", "ns", Lower),
    layer("serve.query.lookups", "count", Higher),
    // serve.router / serve.exchange / serve.wal / fraud.checkpoint
    layer("serve.router.apply_us", "us", Lower),
    layer("serve.router.shard_tx_skew", "x", Lower),
    layer("serve.exchange.round_ms", "ms", Lower),
    layer("serve.exchange.merge_ms", "ms", Lower),
    layer("serve.exchange.shard_recluster_max_ms", "ms", Lower),
    layer("serve.exchange.boundary_users", "count", Lower),
    layer("serve.exchange.spanning_components", "count", Lower),
    layer("serve.wal.append_us", "us", Lower),
    layer("serve.wal.bytes_per_tx", "B", Lower),
    layer("fraud.checkpoint.write_ms", "ms", Lower),
    layer("fraud.checkpoint.bytes", "B", Lower),
    // trace
    layer("trace.overhead_ratio", "x", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.dropped", "count", Lower),
    layer("trace.wall_self_s", "s", Lower),
    layer("trace.modeled_leaf_s", "s", Lower),
];

/// Name of a per-kernel layer metric (`field` is `modeled_s` or
/// `launches`). The names are static because every kernel is known.
pub fn kernel_metric(kernel: &str, field: &str) -> String {
    format!("gpusim.kernel.{kernel}.{field}")
}

/// Every per-layer metric a traced run reports, in report order. A layer
/// a workload does not exercise reads 0 there — the predicted no-change
/// case of the interaction table.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::with_capacity(LAYER_METRICS.len() + 2 * KERNELS.len());
    for m in LAYER_METRICS {
        out.push((m.name.to_string(), m.unit, m.better));
        if m.name == "sketch.theorem1_bound" {
            for k in KERNELS {
                out.push((kernel_metric(k, "modeled_s"), "s", Lower));
                out.push((kernel_metric(k, "launches"), "count", Lower));
            }
        }
    }
    out
}

/// Whether a traced run may report `name` (no allocation: this guards
/// every `Layers::set`).
pub fn is_layer_metric(name: &str) -> bool {
    let kernel_row = || {
        let (kernel, field) = name.strip_prefix("gpusim.kernel.")?.rsplit_once('.')?;
        Some(KERNELS.contains(&kernel) && matches!(field, "modeled_s" | "launches"))
    };
    LAYER_METRICS.iter().any(|m| m.name == name) || kernel_row() == Some(true)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The driver's naming rule: starts with a letter or digit, at most 64 of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The driver's unit rule: at most 16 of letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("lp_lowdeg"));
        assert!(valid_name("gpusim.kernel.lp_warp_packed.modeled_s"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/bad"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("ns/us") && valid_unit("MiB"));
        assert!(!valid_unit("tx / s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn definitions_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} layer metrics", layers.len());
        for (name, unit, _) in &layers {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(layers.iter().all(|(name, _, _)| is_layer_metric(name)));
        assert!(!is_layer_metric("gpusim.kernel.nonesuch.launches"));
        assert!(!is_layer_metric("gpusim.kernel.pick_label.seconds"));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|e| e["name"].as_str().expect("name").to_string())
                .collect()
        };
        let expect: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), expect);
        for (entry, w) in doc["workloads"].as_array().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(entry["why"].as_str(), Some(w.why));
        }
        let e2e = doc["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry["name"].as_str(), Some(m.name));
            assert_eq!(entry["unit"].as_str(), Some(m.unit));
            assert_eq!(entry["better"].as_str(), Some(m.better.as_str()));
            assert_eq!(entry["bound"].as_f64(), m.bound);
        }
        let layers = per_layer();
        let listed = doc["per_layer"].as_array().unwrap();
        assert_eq!(listed.len(), layers.len());
        for (entry, (name, unit, better)) in listed.iter().zip(&layers) {
            assert_eq!(entry["name"].as_str(), Some(name.as_str()));
            assert_eq!(entry["unit"].as_str(), Some(*unit));
            assert_eq!(entry["better"].as_str(), Some(better.as_str()));
        }
        assert_eq!(doc["paths"][0].as_str(), Some("benchmark"));
        assert_eq!(doc["run_seconds"].as_f64(), Some(RUN_SECONDS));
    }
}
