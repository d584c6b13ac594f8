//! EXPERIMENTS.md read against `results/`. The files are what `paper_grid`
//! writes (CI reruns it and fails when `git diff --exit-code results/`
//! does); the prose around them is written by hand. So every results file
//! EXPERIMENTS.md cites must exist, every file in `results/` must be cited,
//! and the Figure 4 table must carry the speedups `results/fig4.txt` holds:
//! a regenerated file nobody carried into the prose, or a hand edit to
//! either side, fails here.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(relative: &str) -> String {
    let path = root().join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every `results/<name>.txt` the text mentions, as `<name>.txt`.
fn cited(text: &str) -> BTreeSet<String> {
    text.match_indices("results/")
        .filter_map(|(i, prefix)| {
            let rest = &text[i + prefix.len()..];
            let name_len = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            (name_len > 0 && rest[name_len..].starts_with(".txt"))
                .then(|| format!("{}.txt", &rest[..name_len]))
        })
        .collect()
}

/// The trimmed cells of each `| … |` row of `text`, keyed by the first
/// cell; header and rule rows are skipped.
fn rows(text: &str) -> BTreeMap<String, Vec<String>> {
    text.lines()
        .filter_map(|l| l.trim().strip_prefix('|')?.strip_suffix('|'))
        .map(|l| {
            l.split('|')
                .map(|c| c.trim().to_string())
                .collect::<Vec<_>>()
        })
        .filter(|cells| cells.len() > 1 && cells[0] != "dataset" && !cells[0].starts_with('-'))
        .map(|mut cells| (cells.remove(0), cells))
        .collect()
}

/// The last six cells of every row: the approaches' speedups over OMP.
fn speedups(text: &str) -> BTreeMap<String, Vec<String>> {
    rows(text)
        .into_iter()
        .map(|(dataset, cells)| (dataset, cells[cells.len().saturating_sub(6)..].to_vec()))
        .collect()
}

#[test]
fn experiments_cites_exactly_the_files_in_results() {
    let cited = cited(&read("EXPERIMENTS.md"));
    let committed: BTreeSet<String> = std::fs::read_dir(root().join("results"))
        .expect("results/ exists")
        .map(|entry| {
            entry
                .expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| !name.starts_with('.')) // hidden files are not tables
        .collect();
    let missing: Vec<_> = cited.difference(&committed).collect();
    let uncited: Vec<_> = committed.difference(&cited).collect();
    assert!(
        missing.is_empty() && uncited.is_empty(),
        "cited but not in results/: {missing:?}; in results/ but never cited: {uncited:?}"
    );
}

#[test]
fn figure4_table_carries_the_recorded_speedups() {
    let doc = read("EXPERIMENTS.md");
    let start = doc
        .find("## Figure 4")
        .expect("EXPERIMENTS.md has a Figure 4 section");
    let section = &doc[start..];
    let section = &section[..section.find("\n---").unwrap_or(section.len())];
    let recorded = speedups(&read("results/fig4.txt"));
    assert_eq!(recorded.len(), 8, "one row per Table 2 dataset");
    assert_eq!(speedups(section), recorded);
}

#[test]
fn citations_and_rows_parse() {
    let cited = cited("see `results/fig4.txt`, results/<name>.txt and `results/`.");
    assert_eq!(cited.into_iter().collect::<Vec<_>>(), ["fig4.txt"]);
    let table = "| dataset | TG |\n|---|---|\n| dblp | 0.2x |\n";
    assert_eq!(
        speedups(table),
        BTreeMap::from([("dblp".into(), vec!["0.2x".into()])])
    );
}
