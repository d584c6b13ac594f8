//! Fixed-width text tables for experiment output.

/// Renders `rows` under `headers` with per-column auto width, plus a rule
/// line, in the style of the paper's tables.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        format!("| {} |\n", joined.join(" | "))
    };
    let mut out = line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out += &format!("|-{}-|\n", rule.join("-+-"));
    for row in rows {
        out += &line(row);
    }
    out
}

/// Formats seconds with a sensible unit.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Formats a speedup ratio like the paper ("4.5x").
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(2.345), "2.35 s");
        assert_eq!(fmt_seconds(0.00234), "2.34 ms");
        assert_eq!(fmt_seconds(0.0000021), "2.1 µs");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(8.24), "8.2x");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_rejected() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
