//! Smoke of the whole benchmark at 1/20 of its committed size: every
//! workload, both passes, through the same entry point the binary uses.

use glp_benchmark::report::RunArgs;
use glp_benchmark::{run_workload, spec};
use std::time::Instant;

fn smoke(workload: &str, trace: bool) -> glp_benchmark::report::RunResult {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.25,
        trace,
        scale: 0.05,
    };
    let result = run_workload(&args).expect("known workload");
    assert!(
        result.correct(),
        "{workload} (trace {trace}) failed: {:?}",
        result.failures
    );
    assert!(result.attempted >= 1);
    result
}

/// One test, not fourteen: the workloads time themselves, so they must
/// not run on parallel test threads.
#[test]
fn every_workload_runs_both_passes_quickly_and_reports_its_metrics() {
    let started = Instant::now();
    for w in &spec::WORKLOADS {
        let e2e = smoke(w.name, false);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        let expect: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expect, "{}", w.name);
        for m in &e2e.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name,
                m.name,
                m.value
            );
        }

        let traced = smoke(w.name, true);
        let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        let expect: Vec<String> = spec::per_layer().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, expect, "{}", w.name);
        let value = |name: &str| traced.metric(name).unwrap().value;
        assert!(value("trace.spans") > 0.0, "{}", w.name);
        assert_eq!(value("trace.dropped"), 0.0, "{}", w.name);
        assert!(value("trace.overhead_ratio") > 0.0, "{}", w.name);
        // The driver's line parses and carries exactly the contract keys.
        let line = serde_json::from_str(&traced.driver_line()).expect("driver line is JSON");
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert!(line["metrics"]["trace.spans"]["value"].as_f64().is_some());
    }
    let took = started.elapsed().as_secs_f64();
    assert!(took < 15.0, "smoke of all seven workloads took {took:.1} s");
}

#[test]
fn unknown_workloads_and_bad_arguments_are_errors() {
    let mut args = RunArgs {
        workload: "lp_nonesuch".into(),
        seed: 0,
        seconds: 1.0,
        trace: false,
        scale: 1.0,
    };
    assert!(run_workload(&args).unwrap_err().contains("lp_lowdeg"));
    args.workload = "lp_lowdeg".into();
    args.seconds = 0.0;
    assert!(run_workload(&args).is_err());
    args.seconds = 1.0;
    args.scale = -1.0;
    assert!(run_workload(&args).is_err());
}
