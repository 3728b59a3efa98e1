//! Order statistics for every timing the ledger reports: the median, the
//! quartiles, and the highest percentile that still has at least ten
//! samples beyond it (so a tail is never read off one or two outliers).
//! Each value is [`bench::serveload::percentile`], the one `loadgen`
//! reports with.

use bench::serveload::percentile;

/// Tail percentiles the ledger reports, in permille, highest first.
const TAIL_PERMILLE: [u64; 5] = [999, 990, 980, 950, 900];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: u64 = 10;

/// The highest reported tail percentile (in permille) that leaves at
/// least ten of `n` samples beyond it, or `None` when even p90 would not.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&pm| n as u64 * (1000 - pm) >= MIN_BEYOND * 1000)
}

/// Median, quartiles and tail of one sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(permille, value)` of the tail percentile, when the sample is
    /// large enough to have one.
    pub tail: Option<(u64, f64)>,
}

impl Summary {
    /// Summarize `values` (any order). `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            q1: percentile(&sorted, 25.0),
            p50: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
            tail: tail_permille(sorted.len()).map(|pm| (pm, percentile(&sorted, pm as f64 / 10.0))),
        })
    }

    /// One-line rendering: `p50 (q1..q3, pNN, n=…)`, with `unit`
    /// appended to each value.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((pm, v)) => format!(", p{} {v:.3}{unit}", pm_label(pm)),
            None => String::new(),
        };
        format!(
            "{:.3}{unit} (q1 {:.3}, q3 {:.3}{tail}, n={})",
            self.p50, self.q1, self.q3, self.n
        )
    }
}

/// `990` → `"99"`, `999` → `"99.9"`.
fn pm_label(pm: u64) -> String {
    if pm.is_multiple_of(10) {
        (pm / 10).to_string()
    } else {
        format!("{}.{}", pm / 10, pm % 10)
    }
}

/// The median of `values` (any order); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_permille(12), None, "12 samples: p50 only");
        assert_eq!(tail_permille(99), None);
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(600), Some(980), "12 samples beyond p98");
        assert_eq!(tail_permille(999), Some(980));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn summary_reports_quartiles_and_tail() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!((s.q1, s.p50, s.q3), (51.0, 101.0, 150.0));
        assert_eq!(s.tail, Some((950, 190.0)));
        assert!(s.describe("ms").contains("p95"));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
