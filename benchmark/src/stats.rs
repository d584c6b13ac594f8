//! Order statistics shared by the workloads and the compare tool.

/// Sorts ascending (NaN-free input by construction: every sample is a
/// measured duration or count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps `0.6 * 25` (15.000000000000002) at rank 15.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank) of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// The tail of an ascending sample, as `(value, percentile)`: the highest
/// percentile that still has at least ten samples beyond it, capped at
/// p90 (the highest percentile the benchmark gates) and floored at the
/// median. `(0, 0.5)` for an empty slice.
pub fn tail_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.5);
    }
    // From 100 samples on, p90 itself has ten samples beyond it.
    let (rank, percentile) = if n >= 100 {
        ((9 * n).div_ceil(10), 0.9)
    } else {
        let rank = n.saturating_sub(10).max(n.div_ceil(2));
        (rank, rank as f64 / n as f64)
    };
    (sorted[rank - 1], percentile)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) computes them — the acceptance rule
/// is stated in those terms, so `compare` reproduces it bit for bit.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    sort(&mut data);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the *spread* the
/// acceptance rule bounds. `None` with fewer than two samples or a zero
/// median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 5.0);
        assert_eq!(quantile_sorted(&v, 0.9), 9.0);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        // Below 20 samples nothing above the median is supported.
        assert_eq!(tail_sorted(&ramp(12)), (6.0, 0.5));
        assert_eq!(tail_sorted(&[]), (0.0, 0.5));
        // 25 samples: rank 15 (p60) leaves exactly ten beyond it.
        assert_eq!(tail_sorted(&ramp(25)), (15.0, 0.6));
        // p90 is the cap, reached at 100 samples.
        assert_eq!(tail_sorted(&ramp(100)), (90.0, 0.9));
        assert_eq!(tail_sorted(&ramp(1000)), (900.0, 0.9));
        for n in 1..400 {
            let (value, q) = tail_sorted(&ramp(n));
            let rank = value as usize;
            assert!(n < 20 || n - rank >= 10, "n={n} rank={rank}");
            assert!(rank >= n.div_ceil(2), "n={n} rank={rank}");
            assert!(n < 20 || q <= 0.9 + 1e-12, "n={n} q={q}");
            assert_eq!(quantile_sorted(&ramp(n), q), value, "n={n}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
