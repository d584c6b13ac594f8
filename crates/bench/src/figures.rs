//! Shared runner for the speedup figures (Figures 4–6): rows are datasets,
//! columns are approaches, cells are speedups over the OMP baseline, the
//! paper's presentation.

use crate::approaches::{run_algo, Algo, Approach};
use crate::cli::Args;
use crate::table::{fmt_seconds, print_table};
use glp_graph::datasets::{by_name, table2, DatasetSpec};

/// Datasets selected by `--datasets a,b,c` (default: all of Table 2) at
/// `--scale-mul k` times the registry's default scale divisor (default 4,
/// so default runs stay laptop-quick; use `--scale-mul 1` for the full
/// reproduction sizes).
pub fn selected_datasets(args: &Args) -> Vec<(DatasetSpec, u64)> {
    let scale_mul: u64 = args.get("scale-mul", 4);
    assert!(scale_mul >= 1, "--scale-mul must be at least 1");
    let specs: Vec<DatasetSpec> = match args.get_str("datasets") {
        Some(names) => names
            .split(',')
            .map(|n| by_name(n.trim()).unwrap_or_else(|| panic!("unknown dataset {n:?}")))
            .collect(),
        None => table2(),
    };
    specs
        .into_iter()
        .map(|s| {
            let scale = s.default_scale * scale_mul;
            (s, scale)
        })
        .collect()
}

/// Runs one speedup figure: every approach × every selected dataset,
/// summing modeled time over `algos` (the LLP figure sums its γ sweep),
/// and prints speedups over OMP.
pub fn run_speedup_figure(title: &str, algos: &[Algo], args: &Args) {
    let iterations: u32 = args.get("iters", 20);
    let datasets = selected_datasets(args);
    let json_path = args.get_str("json");
    args.finish();
    println!("{title}");
    println!(
        "(modeled time; speedup over OMP; {} iterations per algorithm run)",
        iterations
    );

    let approaches = Approach::all();
    let mut rows = Vec::new();
    for (spec, scale) in &datasets {
        eprintln!("... {} (scale 1/{scale})", spec.name);
        let g = spec.generate_scaled(*scale);
        let mut seconds = vec![None::<f64>; approaches.len()];
        for (i, a) in approaches.iter().enumerate() {
            if algos.iter().any(|&al| !a.supports(al)) {
                continue;
            }
            let total: f64 = algos
                .iter()
                .map(|&al| run_algo(*a, &g, al, iterations).modeled_seconds)
                .sum();
            seconds[i] = Some(total);
        }
        let omp = seconds[2].expect("OMP always runs");
        let mut row = vec![
            spec.name.to_string(),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            fmt_seconds(omp),
        ];
        for s in &seconds {
            row.push(match s {
                Some(s) => format!("{:.1}x", omp / s),
                None => "-".to_string(),
            });
        }
        rows.push(row);
    }
    let mut headers = vec!["dataset", "|V|", "|E|", "OMP time"];
    headers.extend(approaches.iter().map(|a| a.name()));
    print_table(&headers, &rows);

    // Structured output for downstream tooling.
    if let Some(path) = json_path {
        let doc = serde_json::json!({
            "title": title,
            "iterations": iterations,
            "headers": headers,
            "rows": rows.clone(),
        });
        std::fs::write(
            path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }

    // The paper's headline averages: GLP over G-Sort and G-Hash.
    let avg = |num: usize, den: usize| -> Option<f64> {
        let ratios: Vec<f64> = rows
            .iter()
            .filter_map(|r| {
                let a: f64 = r[4 + num].strip_suffix('x')?.parse().ok()?;
                let b: f64 = r[4 + den].strip_suffix('x')?.parse().ok()?;
                (b > 0.0).then_some(a / b)
            })
            .collect();
        (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
    };
    if let (Some(vs_gsort), Some(vs_ghash)) = (avg(5, 3), avg(5, 4)) {
        println!("\nGLP average speedup: {vs_gsort:.1}x over G-Sort, {vs_ghash:.1}x over G-Hash");
        println!("(paper: 4.5x over G-Sort, 7x over G-Hash on classic LP)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_iter(s.split_whitespace().map(String::from))
    }

    #[test]
    fn default_selection_is_all_eight_scaled() {
        let sel = selected_datasets(&args(""));
        assert_eq!(sel.len(), 8);
        for (spec, scale) in &sel {
            assert_eq!(*scale, spec.default_scale * 4);
        }
    }

    #[test]
    fn explicit_selection_and_scale() {
        let sel = selected_datasets(&args("--datasets dblp,twitter --scale-mul 8"));
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].0.name, "dblp");
        assert_eq!(sel[0].1, 8);
        assert_eq!(sel[1].0.name, "twitter");
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_rejected() {
        selected_datasets(&args("--datasets orkut"));
    }
}
