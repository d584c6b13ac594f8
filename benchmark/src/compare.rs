//! `benchmark compare <base.json> <candidate.json> [...]`: the tool for
//! the two-set acceptance criterion and for later before/after tables.
//!
//! Each document is one *set* of runs (any number of seeds per workload).
//! Every later document is compared against the first: one row per
//! workload x end-to-end metric with median and quartiles of both sets,
//! and a verdict against the metric's bound and direction. The modeled
//! clock is deterministic, so `modeled_s` and every `gpusim.*` count must
//! also be *identical* between runs of the same workload and seed.

use crate::report::{format_value, RunResult};
use crate::spec::{self, Better, MetricSpec};
use crate::stats;
use serde_json::Value;

/// One parsed result document.
pub struct Document {
    pub label: String,
    pub runs: Vec<RunResult>,
}

impl Document {
    pub fn parse(label: &str, text: &str) -> Result<Self, String> {
        let doc = serde_json::from_str(text).map_err(|e| format!("{label}: {e:?}"))?;
        let runs = doc["runs"]
            .as_array()
            .ok_or_else(|| format!("{label}: no `runs` list"))?
            .iter()
            .map(RunResult::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{label}: {e}"))?;
        Ok(Self {
            label: label.to_string(),
            runs,
        })
    }

    fn values(&self, workload: &str, metric: &str, trace: bool) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.args.workload == workload && r.args.trace == trace)
            .filter_map(|r| r.metric(metric).map(|m| m.value))
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// The spread between a set's own runs exceeds the bound, so the
    /// medians cannot be told apart.
    Unresolved,
    /// A metric one set lacks.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Missing => "MISSING",
        }
    }

    pub fn blocks(self) -> bool {
        matches!(
            self,
            Verdict::Regression | Verdict::Unresolved | Verdict::Missing
        )
    }
}

/// Median, quartiles and spread of one set's values for one cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(q3 - q1) / median`; `None` below two samples.
    pub spread: Option<f64>,
}

impl Cell {
    fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        // One sample has no quartiles: all three collapse onto it.
        let [q1, median, q3] = stats::quartiles(values).unwrap_or([values[0]; 3]);
        Some(Self {
            n: values.len(),
            median,
            q1,
            q3,
            spread: stats::spread(values),
        })
    }
}

/// The rule of choosing-metrics §6.5: a regression is a median worse by
/// more than the bound; where a set's own spread exceeds the bound the
/// cell is unresolved, unless every candidate run beats every base run.
pub fn judge(metric: &MetricSpec, base: &[f64], cand: &[f64]) -> Verdict {
    let (Some(b), Some(c)) = (Cell::of(base), Cell::of(cand)) else {
        return Verdict::Missing;
    };
    let bound = metric.bound.expect("end-to-end metrics are bounded");
    let worse = |x: f64, y: f64| match metric.better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    };
    let worse_by = match metric.better {
        Better::Lower => (c.median - b.median) / b.median.abs(),
        Better::Higher => (b.median - c.median) / b.median.abs(),
    };
    let all_better = cand.iter().all(|&x| base.iter().all(|&y| worse(y, x)));
    // Set-up is timed a few times per run, not for seconds: its spread is
    // exempt (as in the driver's acceptance rule), only its median gates.
    let spread = if metric.name == "setup_s" {
        0.0
    } else {
        b.spread.unwrap_or(0.0).max(c.spread.unwrap_or(0.0))
    };
    if all_better {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Whether `metric` must be bit-identical between two runs of `workload`
/// at the same seed: everything on the modeled clock. `modeled_s` is
/// pinned on every workload; the `gpusim.*` counts of a traced run only
/// on the LP workloads — serving sums them over however many reclusters
/// its timed phase completed.
fn pinned(workload: &str, trace: bool, metric: &str) -> bool {
    if !trace {
        return metric == "modeled_s";
    }
    workload.starts_with("lp_")
        && (metric.starts_with("gpusim.") || metric == "graph.vertices" || metric == "graph.edges")
}

fn exact_mismatches(base: &Document, cand: &Document) -> Vec<String> {
    let mut out = Vec::new();
    for b in &base.runs {
        let same = |r: &&RunResult| {
            r.args.workload == b.args.workload
                && r.args.seed == b.args.seed
                && r.args.trace == b.args.trace
                && r.args.scale == b.args.scale
        };
        for c in cand.runs.iter().filter(same) {
            let pinned = b
                .metrics
                .iter()
                .filter(|m| pinned(&b.args.workload, b.args.trace, &m.name));
            for m in pinned {
                match c.metric(&m.name) {
                    Some(other) if other.value.to_bits() == m.value.to_bits() => {}
                    Some(other) => out.push(format!(
                        "{} seed {} {}: {} vs {}",
                        b.args.workload, b.args.seed, m.name, m.value, other.value
                    )),
                    None => out.push(format!(
                        "{} seed {} {}: missing in {}",
                        b.args.workload, b.args.seed, m.name, cand.label
                    )),
                }
            }
        }
    }
    out
}

fn cell_text(c: Option<Cell>) -> String {
    match c {
        None => "-".to_string(),
        Some(c) => format!(
            "{} [{} .. {}] n={}",
            format_value(c.median),
            format_value(c.q1),
            format_value(c.q3),
            c.n
        ),
    }
}

/// Compares every later document against the first and prints the table.
/// Returns how many rows block (regression, unresolved, missing, or an
/// exact-equality mismatch).
pub fn compare(docs: &[Document]) -> usize {
    let base = &docs[0];
    let mut blocking = 0;
    for cand in &docs[1..] {
        println!("== {} (base) vs {}", base.label, cand.label);
        println!(
            "{:<13} {:<17} {:<40} {:<40} {:>8} {:>7} {:>6}  verdict",
            "workload",
            "metric",
            "base median [q1 .. q3]",
            "candidate median [q1 .. q3]",
            "change",
            "spread",
            "bound"
        );
        for w in &spec::WORKLOADS {
            for m in &spec::END_TO_END {
                let b = base.values(w.name, m.name, false);
                let c = cand.values(w.name, m.name, false);
                if b.is_empty() && c.is_empty() {
                    continue;
                }
                let verdict = judge(m, &b, &c);
                blocking += usize::from(verdict.blocks());
                let (bc, cc) = (Cell::of(&b), Cell::of(&c));
                let change = match (bc, cc) {
                    (Some(b), Some(c)) => format!("{:+.1}%", (c.median / b.median - 1.0) * 100.0),
                    _ => "-".to_string(),
                };
                let spread = [bc, cc]
                    .iter()
                    .filter_map(|c| c.and_then(|c| c.spread))
                    .fold(None, |acc: Option<f64>, s| {
                        Some(acc.map_or(s, |a| a.max(s)))
                    });
                println!(
                    "{:<13} {:<17} {:<40} {:<40} {:>8} {:>7} {:>6}  {}",
                    w.name,
                    m.name,
                    cell_text(bc),
                    cell_text(cc),
                    change,
                    spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                    format!("{:.0}%", m.bound.unwrap_or(0.0) * 100.0),
                    verdict.as_str()
                );
            }
        }
        let mismatches = exact_mismatches(base, cand);
        if mismatches.is_empty() {
            println!(
                "modeled clock: modeled_s and every gpusim.* count identical where seeds match"
            );
        }
        for m in &mismatches {
            println!("EXACT-MISMATCH {m}");
        }
        blocking += mismatches.len();
        let failed: Vec<&RunResult> = base
            .runs
            .iter()
            .chain(&cand.runs)
            .filter(|r| !r.correct())
            .collect();
        for r in &failed {
            println!(
                "INCORRECT {} seed {}: {} of {} operations failed",
                r.args.workload, r.args.seed, r.failed, r.attempted
            );
        }
        blocking += failed.len();
    }
    blocking
}

/// Reads the documents named on the command line and compares them.
pub fn run(paths: &[String]) -> Result<usize, String> {
    if paths.len() < 2 {
        return Err("compare needs a base document and at least one candidate".into());
    }
    let docs = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Document::parse(p, &text)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(compare(&docs))
}

/// A result document: environment, settings and every run.
pub fn document(environment: Value, runs: &[RunResult]) -> Value {
    serde_json::json!({
        "schema": 1,
        "environment": environment,
        "runs": Value::Array(runs.iter().map(RunResult::to_json).collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunArgs;

    fn metric(name: &str) -> &'static MetricSpec {
        spec::end_to_end(name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lat = metric("latency_p50_ms"); // lower is better
        let base = [10.0, 10.1, 9.9, 10.0, 10.2];
        assert_eq!(
            judge(lat, &base, &[10.3, 10.4, 10.2, 10.5, 10.3]),
            Verdict::Ok
        );
        assert_eq!(
            judge(lat, &base, &[13.3, 13.4, 13.2, 13.5, 13.3]),
            Verdict::Regression
        );
        assert_eq!(
            judge(lat, &base, &[8.0, 8.1, 7.9, 8.2, 8.0]),
            Verdict::Improved
        );
        // Spread wider than the bound: cannot tell.
        assert_eq!(
            judge(lat, &base, &[7.0, 14.0, 9.0, 12.0, 10.0]),
            Verdict::Unresolved
        );
        // ... unless every candidate run beats every base run.
        assert_eq!(
            judge(lat, &base, &[2.0, 6.0, 3.0, 5.0, 4.0]),
            Verdict::Improved
        );
        assert_eq!(judge(lat, &base, &[]), Verdict::Missing);
        let tput = metric("throughput_per_s"); // higher is better
        assert_eq!(
            judge(tput, &base, &[7.0, 7.1, 6.9, 7.2, 7.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(tput, &base, &[12.0, 12.1, 11.9, 12.2, 12.0]),
            Verdict::Improved
        );
    }

    fn run_with(workload: &str, seed: u64, trace: bool, metrics: &[(&str, f64)]) -> RunResult {
        let mut r = RunResult::new(&RunArgs {
            workload: workload.into(),
            seed,
            seconds: 1.0,
            trace,
            scale: 1.0,
        });
        r.attempted = 1;
        for &(name, value) in metrics {
            r.metrics.push(crate::report::Metric {
                name: name.into(),
                value,
                unit: "s".into(),
                samples: 1,
            });
        }
        r
    }

    #[test]
    fn modeled_clock_must_match_exactly_per_seed() {
        let doc = |modeled: f64, sectors: f64| Document {
            label: "x".into(),
            runs: vec![
                run_with(
                    "lp_lowdeg",
                    1,
                    false,
                    &[("modeled_s", modeled), ("latency_p50_ms", 3.0)],
                ),
                run_with("lp_lowdeg", 1, true, &[("gpusim.global_sectors", sectors)]),
                run_with("serve_live", 1, true, &[("gpusim.global_sectors", sectors)]),
            ],
        };
        assert!(exact_mismatches(&doc(1.5e-3, 10.0), &doc(1.5e-3, 10.0)).is_empty());
        let diffs = exact_mismatches(&doc(1.5e-3, 10.0), &doc(1.5e-3 + 1e-12, 11.0));
        assert_eq!(diffs.len(), 2, "{diffs:?}");
    }

    #[test]
    fn documents_round_trip() {
        let runs = vec![run_with("lp_lowdeg", 4, false, &[("modeled_s", 2.5e-3)])];
        let text = serde_json::to_string_pretty(&document(serde_json::json!({"nproc": 2}), &runs))
            .unwrap();
        let doc = Document::parse("mem", &text).unwrap();
        assert_eq!(doc.values("lp_lowdeg", "modeled_s", false), vec![2.5e-3]);
        assert!(doc.values("lp_lowdeg", "modeled_s", true).is_empty());
    }
}
