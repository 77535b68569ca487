//! Order statistics and the comparison rule.

/// The `n - 1` cut points that split `values` into `n` groups, computed as
/// Python's `statistics.quantiles(values, n=n)` does (the default
/// "exclusive" method), so spreads read the same as in any Python tooling.
/// As there, the outermost cut points of fewer than `n - 1` values lie
/// beyond the extreme values. One value gives that value `n - 1` times;
/// `None` when empty.
///
/// # Panics
///
/// Panics if `n < 2` or a value is NaN.
#[must_use]
pub fn quantiles(values: &[f64], n: usize) -> Option<Vec<f64>> {
    assert!(n >= 2, "quantiles wants n >= 2");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    match v.len() {
        0 => return None,
        1 => return Some(vec![v[0]; n - 1]),
        _ => {}
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((1..n).map(cut).collect())
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantiles(values, 2).map(|q| q[0])
}

/// First quartile, median, third quartile; `None` when empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    quantiles(values, 4).map(|q| (q[0], q[1], q[2]))
}

/// Outcome of comparing one metric between a base and a head commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs the pair rule needs; with fewer, one pair's noise decides.
const MIN_PAIRS: usize = 10;

/// Compares paired runs of one metric. The pair rule reads the same both
/// ways: a side *wins* when there are at least [`MIN_PAIRS`] pairs, it is
/// better in at least nine tenths of them (ties count for neither side),
/// and its median is better by more than the base's quartile spread.
///
/// * `improved`: the head wins.
/// * `regressed`: the base wins, or the head median is worse than the base
///   median by more than `bound` times the base median.
/// * `unresolved`: otherwise, when either side's quartile spread exceeds
///   `bound` times its median.
/// * `unchanged`: everything else.
///
/// # Panics
///
/// Panics if either side is empty.
#[must_use]
pub fn verdict(base: &[f64], head: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (b1, bm, b3) = quartiles(base).expect("base runs");
    let (h1, hm, h3) = quartiles(head).expect("head runs");
    let pairs = base.len().min(head.len());
    let wins = |x: &[f64], y: &[f64], xm: f64, ym: f64| {
        let won = x.iter().zip(y).filter(|&(&a, &b)| better(a, b)).count();
        pairs >= MIN_PAIRS && better(xm, ym) && won * 10 >= pairs * 9 && (xm - ym).abs() > b3 - b1
    };
    let worse = if lower_is_better { hm - bm } else { bm - hm };
    if wins(head, base, hm, bm) {
        Verdict::Improved
    } else if wins(base, head, bm, hm) || worse > bound * bm.abs() {
        Verdict::Regressed
    } else {
        let spread = |q1: f64, q3: f64, med: f64| (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
        if spread(b1, b3, bm) > bound || spread(h1, h3, hm) > bound {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    }
}

/// Compares a metric the simulator computes exactly, over pairs of runs at
/// the same seed: any difference is a change, so there is no bound.
/// `unchanged` when every pair is identical, `improved` when the head is
/// better in some pair and worse in none, `regressed` otherwise.
#[must_use]
pub fn exact_verdict(pairs: &[(f64, f64)], lower_is_better: bool) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    if pairs.iter().all(|&(b, h)| b == h) {
        Verdict::Unchanged
    } else if pairs.iter().all(|&(b, h)| b == h || better(h, b)) {
        Verdict::Improved
    } else {
        Verdict::Regressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        assert_eq!(quantiles(&[], 4), None);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1..=10], n=10)[8] == 9.9
        let p90 = quantiles(&v, 10).expect("values")[8];
        assert!((p90 - 9.9).abs() < 1e-12, "p90 {p90}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quantiles(&[5.0, 5.0, 5.0], 10), Some(vec![5.0; 9]));
    }

    #[test]
    #[should_panic(expected = "quantiles wants n")]
    fn quantiles_rejects_fewer_than_two_groups() {
        let _ = quantiles(&[1.0], 1);
    }

    #[test]
    fn verdicts() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.4,
        ];
        let scaled = |f: f64| -> Vec<f64> { base.iter().map(|v| v * f).collect() };
        let same: Vec<f64> = base.iter().map(|v| v + 0.01).collect();
        assert_eq!(verdict(&base, &scaled(0.8), 0.1, true), Verdict::Improved);
        assert_eq!(verdict(&base, &scaled(1.2), 0.1, true), Verdict::Regressed);
        assert_eq!(verdict(&base, &same, 0.1, true), Verdict::Unchanged);
        // A steady slowdown inside the bound loses every pair by more than
        // the base spread, so it still reads as a regression.
        assert_eq!(
            verdict(&base, &scaled(1.05), 0.25, true),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &scaled(0.95), 0.25, true), Verdict::Improved);
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(verdict(&base, &scaled(0.8), 0.1, false), Verdict::Regressed);
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 120.0,
        ];
        assert_eq!(verdict(&base, &noisy, 0.1, true), Verdict::Unresolved);
        // Below ten pairs only the bound can call a change.
        assert_eq!(
            verdict(&base[..9], &scaled(1.05)[..9], 0.25, true),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[100.0], &[95.0], 0.25, true), Verdict::Unchanged);
    }

    #[test]
    fn exact_verdicts() {
        assert_eq!(
            exact_verdict(&[(5.0, 5.0), (6.0, 6.0)], true),
            Verdict::Unchanged
        );
        assert_eq!(
            exact_verdict(&[(5.0, 4.0), (6.0, 6.0)], true),
            Verdict::Improved
        );
        assert_eq!(
            exact_verdict(&[(5.0, 4.0), (6.0, 6.1)], true),
            Verdict::Regressed
        );
        assert_eq!(exact_verdict(&[(5.0, 5.0001)], true), Verdict::Regressed);
        assert_eq!(exact_verdict(&[(5.0, 5.0001)], false), Verdict::Improved);
    }
}
