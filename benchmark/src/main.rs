//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! benchmark [--seed <n>] [--seeds <k>] [--seconds <s>] [--traced]      every workload, one process each
//! benchmark compare <base.json> <candidate.json> [...]                 regression table
//! ```

use glp_benchmark::compare;
use glp_benchmark::report::{environment, RunArgs, RunResult};
use glp_benchmark::spans::out_dir;
use glp_benchmark::{run_workload, spec};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out FILE]
  benchmark [--seed N] [--seeds K] [--seconds S] [--traced] [--scale F] [--out FILE]
  benchmark compare <base.json> <candidate.json> [...]";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seeds: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seeds: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        scale: 1.0,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            cli.trace = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag} takes a number, got `{value}`"))
        };
        let whole = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = whole()?,
            "--seeds" => cli.seeds = whole()?.max(1),
            "--seconds" => cli.seconds = number()?,
            "--scale" => cli.scale = number()?,
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn write_json(path: &PathBuf, value: &serde_json::Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process: prints the table, then — as the last
/// line — the object the driver parses.
fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: cli.scale,
    };
    let result = run_workload(&args)?;
    result.print_table();
    if let Some(path) = &cli.out {
        write_json(
            path,
            &compare::document(environment(), std::slice::from_ref(&result)),
        )?;
    }
    println!("{}", result.driver_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a process of its own so that `peak_rss_mb`
/// and allocator state do not bleed from one into the next: the
/// end-to-end pass for every seed and — with `--traced` — the traced
/// pass for the first seed (its counts are exact; one pass per set is
/// enough).
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let scratch = out_dir().join(format!("tmp-{}-all.json", std::process::id()));
    let mut runs: Vec<RunResult> = Vec::new();
    for seed in cli.seed..cli.seed + cli.seeds {
        let passes: &[bool] = if cli.trace && seed == cli.seed {
            &[false, true]
        } else {
            &[false]
        };
        for &trace in passes {
            for w in &spec::WORKLOADS {
                let status = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .args(["--scale", &cli.scale.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&scratch)
                    .status()
                    .map_err(|e| format!("starting {}: {e}", w.name))?;
                let text = std::fs::read_to_string(&scratch)
                    .map_err(|_| format!("{} exited with {status} and no result", w.name))?;
                let _ = std::fs::remove_file(&scratch);
                runs.extend(compare::Document::parse(w.name, &text)?.runs);
            }
        }
    }
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("result-seed{}x{}.json", cli.seed, cli.seeds)));
    write_json(&out, &compare::document(environment(), &runs))?;
    let failed: Vec<&RunResult> = runs.iter().filter(|r| !r.correct()).collect();
    println!(
        "{} runs, {} incorrect; wrote {}",
        runs.len(),
        failed.len(),
        out.display()
    );
    Ok(if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..]).map(|blocking| {
            if blocking == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        })
    } else {
        parse(&args).and_then(|cli| match cli.workload.clone() {
            Some(w) => run_one(&cli, &w),
            None => run_all(&cli),
        })
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
