//! Result records: what one workload run reports, how it is printed for
//! the driver, and the environment block every result document carries.

use crate::spec;
use crate::stats;
use serde_json::{json, Value};
use std::process::Command;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a count or a single reading).
    pub samples: u64,
}

/// How one workload run was asked to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Input-size multiplier; 1 is the committed size, the self-tests
    /// smoke every workload at 0.05.
    pub scale: f64,
}

/// Everything one workload run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub args: RunArgs,
    /// Operations attempted (LP: runs; serve: transactions + probes).
    pub attempted: u64,
    /// Operations that failed, including every oracle mismatch.
    pub failed: u64,
    /// Human-readable reasons behind `failed`.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context that is not a metric: sample counts of phases, the tail
    /// percentile used, recall, trace file, and so on.
    pub notes: Vec<(String, Value)>,
}

/// What an untraced run measured, before it is turned into metrics.
pub struct EndToEnd {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    pub modeled_s: f64,
    pub throughput_per_s: f64,
    /// Operations (runs, rounds, ticks) behind the throughput.
    pub throughput_samples: u64,
    /// One latency sample per unit of work, ms.
    pub latency_ms: Vec<f64>,
}

impl RunResult {
    pub fn new(args: &RunArgs) -> Self {
        Self {
            args: args.clone(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records one failed operation with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.notes.push((key.to_string(), value.into()));
    }

    fn end_to_end(&mut self, name: &str, value: f64, samples: u64) {
        let m = spec::end_to_end(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: m.unit.to_string(),
            samples,
        });
    }

    /// Reports the six end-to-end metrics of an untraced run, in spec
    /// order: the one place that says how latency samples become
    /// `latency_p50_ms` / `latency_tail_ms` and where `peak_rss_mb` comes
    /// from. `latency_ms` need not be sorted.
    pub fn report_end_to_end(&mut self, e: EndToEnd) {
        let mut sorted = e.latency_ms;
        stats::sort(&mut sorted);
        let (tail_ms, tail_percentile) = stats::tail_sorted(&sorted);
        let n = sorted.len() as u64;
        self.end_to_end("setup_s", stats::median(&e.setup_s), e.setup_s.len() as u64);
        self.end_to_end("modeled_s", e.modeled_s, 1);
        self.end_to_end("throughput_per_s", e.throughput_per_s, e.throughput_samples);
        self.end_to_end("latency_p50_ms", stats::quantile_sorted(&sorted, 0.5), n);
        self.end_to_end("latency_tail_ms", tail_ms, n);
        self.end_to_end("peak_rss_mb", peak_rss_mib(), 1);
        self.note("tail_percentile", tail_percentile);
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics as a JSON object keyed by name; the driver's line
    /// carries value and unit only, result documents the sample count too.
    fn metrics_json(&self, with_samples: bool) -> Value {
        let entry = |m: &Metric| {
            if with_samples {
                json!({"value": m.value, "unit": m.unit.as_str(), "samples": m.samples})
            } else {
                json!({"value": m.value, "unit": m.unit.as_str()})
            }
        };
        Value::Object(
            self.metrics
                .iter()
                .map(|m| (m.name.clone(), entry(m)))
                .collect(),
        )
    }

    /// The line the driver parses: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, on one line.
    pub fn driver_line(&self) -> String {
        let doc = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": self.metrics_json(false),
        });
        serde_json::to_string(&doc).expect("serializable")
    }

    /// The full record stored in result documents.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics_json(true);
        json!({
            "workload": self.args.workload.as_str(),
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "scale": self.args.scale,
            "trace": self.args.trace,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures.clone(),
            "metrics": metrics,
            "notes": Value::Object(self.notes.clone()),
        })
    }

    /// Parses a record written by [`Self::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let text = |key: &str| {
            v[key]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("run record lacks `{key}`"))
        };
        let num = |key: &str| {
            v[key]
                .as_f64()
                .ok_or_else(|| format!("run record lacks `{key}`"))
        };
        let Value::Object(pairs) = &v["metrics"] else {
            return Err("run record lacks `metrics`".into());
        };
        let mut metrics = Vec::with_capacity(pairs.len());
        for (name, m) in pairs {
            if !spec::valid_name(name) {
                return Err(format!("invalid metric name `{name}`"));
            }
            metrics.push(Metric {
                name: name.clone(),
                value: m["value"]
                    .as_f64()
                    .ok_or_else(|| format!("metric `{name}` lacks a value"))?,
                unit: m["unit"].as_str().unwrap_or("").to_string(),
                samples: m["samples"].as_u64().unwrap_or(1),
            });
        }
        let notes = match &v["notes"] {
            Value::Object(pairs) => pairs.clone(),
            _ => Vec::new(),
        };
        let failures = v["failures"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|f| f.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        Ok(Self {
            args: RunArgs {
                workload: text("workload")?,
                seed: num("seed")? as u64,
                seconds: num("seconds")?,
                scale: num("scale")?,
                trace: v["trace"].as_bool().unwrap_or(false),
            },
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures,
            metrics,
            notes,
        })
    }

    /// Prints every metric by name with its unit and sample count.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {} s, scale {}, {})",
            self.args.workload,
            self.args.seed,
            self.args.seconds,
            self.args.scale,
            if self.args.trace {
                "traced"
            } else {
                "end to end"
            }
        );
        for m in &self.metrics {
            println!(
                "  {:<48} {:>18} {:<8} n={}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

/// Compact human formatting for the tables (the JSON keeps all digits).
pub fn format_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.4e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Threads the workloads pin: LP kernels and recluster LP runs use this
/// many harness threads (`RunOptions::with_shards`, `ServeConfig::
/// engine_shards`), and load comes from one generator thread.
///
/// One, not the host's two cores: with two harness threads every kernel
/// launch is a fork-join across both cores, so any background burst on
/// either core stalls the run — measured on this 2-vCPU host, the median
/// `Engine::run` wall then swings by 14 % between runs against 2 % with
/// one thread. Modeled numbers do not depend on it (pinned by
/// tests/determinism.rs).
pub const ENGINE_THREADS: usize = 1;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and build a result document came from. The driver's
/// checkouts are not git repositories, so the commit may read `unknown`.
pub fn environment() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "git_commit": command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        "nproc": nproc,
        "engine_threads": ENGINE_THREADS,
        "generator_threads": 1,
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

/// `VmHWM` of this process in MiB (peak resident set), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let args = RunArgs {
            workload: "lp_lowdeg".into(),
            seed: 7,
            seconds: 0.5,
            scale: 0.05,
            trace: false,
        };
        let mut r = RunResult::new(&args);
        r.attempted = 12;
        r.end_to_end("setup_s", 0.125, 3);
        r.end_to_end("modeled_s", 1.170_680_123e-3, 12);
        r.note("tail_percentile", 0.6);
        r
    }

    #[test]
    fn json_round_trip_through_the_shim() {
        let r = sample();
        let text = serde_json::to_string_pretty(&r.to_json()).unwrap();
        let back = RunResult::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.args.workload, "lp_lowdeg");
        assert_eq!((back.args.seed, back.attempted, back.failed), (7, 12, 0));
        assert_eq!(back.args.scale, 0.05);
        assert_eq!(back.notes[0].0, "tail_percentile");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = sample();
        let line = r.driver_line();
        assert!(!line.contains('\n'));
        let v = serde_json::from_str(&line).unwrap();
        let Value::Object(pairs) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(
            v["metrics"]["modeled_s"]["value"].as_f64(),
            Some(1.170_680_123e-3)
        );
        r.fail("oracle mismatch");
        let v = serde_json::from_str(&r.driver_line()).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["failed"].as_u64(), Some(1));
    }

    #[test]
    fn rejects_invalid_metric_names() {
        let bad = json!({
            "workload": "x", "seed": 0, "seconds": 1.0, "scale": 1.0,
            "attempted": 1, "failed": 0,
            "metrics": Value::Object(vec![("bad name".into(), json!({"value": 1.0}))]),
        });
        assert!(RunResult::from_json(&bad).is_err());
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
