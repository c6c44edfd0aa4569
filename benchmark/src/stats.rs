//! Estimators: medians, quartiles, the percentile rule, geometric means and
//! the aggregation of per-round values into one reported figure.

/// Sort ascending. Latencies are never NaN, so `total_cmp` is a plain order.
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// The `q`-quantile of an ascending slice by linear interpolation between
/// the two closest ranks. `None` for an empty slice.
pub fn quantile_sorted(v: &[f64], q: f64) -> Option<f64> {
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of an unsorted sample (0 for an empty one: "nothing measured").
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    quantile_sorted(&s, 0.5).unwrap_or(0.0)
}

/// A percentile of an unsorted sample, `p` in percent.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    quantile_sorted(&s, p / 100.0).unwrap_or(0.0)
}

/// The percentile rule: the highest of the usual percentiles that still has
/// at least ten samples beyond it. A p95 over 150 samples rests on seven
/// observations; the rule says report p90 there.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50].into_iter().find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First quartile, median and third quartile by the exclusive method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, so spreads
/// computed here and by whoever re-checks them agree.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (cut(1), cut(2), cut(3))
}

/// One reported figure: a value, the quartiles of what it was drawn from as
/// its spread, and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

impl Agg {
    /// A single exact figure (a count, a ratio of counts): no spread.
    pub fn exact(value: f64, n: u64) -> Agg {
        Agg { value, q1: value, q3: value, n }
    }

    /// Median of individually timed samples, their quartiles as the spread.
    pub fn of_samples(samples: &[f64]) -> Agg {
        let (q1, value, q3) = quartiles(samples);
        Agg { value, q1, q3, n: samples.len() as u64 }
    }

    /// The same figure in another unit.
    pub fn scaled(self, factor: f64) -> Agg {
        Agg { value: self.value * factor, q1: self.q1 * factor, q3: self.q3 * factor, n: self.n }
    }

    /// The figure less a constant share measured elsewhere.
    pub fn minus(self, x: f64) -> Agg {
        Agg { value: self.value - x, q1: self.q1 - x, q3: self.q3 - x, n: self.n }
    }

    /// Interquartile distance as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// Aggregate one value per round (rounds that measured nothing are passed
/// as `None` and left out): the run reports the **median round**, with the
/// quartiles across rounds as the spread. A slow episode that covers a round
/// or two shows in the spread and, once it covers three, in the value — a
/// stall is part of what the run measured, not something to pick around.
pub fn aggregate_rounds(per_round: &[Option<f64>], n: u64) -> Agg {
    let present: Vec<f64> = per_round.iter().flatten().copied().collect();
    let (q1, value, q3) = quartiles(&present);
    Agg { value, q1, q3, n }
}

/// A tail percentile of a whole run: taken over all samples of all rounds,
/// so that the ten-samples-beyond rule is judged on the run's count and a
/// stall in any round counts; the quartiles of the per-round percentiles are
/// the spread.
pub fn tail_of_run(rounds: &[Vec<f64>], p: f64) -> Agg {
    let all: Vec<f64> = rounds.iter().flatten().copied().collect();
    let per_round: Vec<f64> =
        rounds.iter().filter(|r| !r.is_empty()).map(|r| percentile(r, p)).collect();
    let (q1, _, q3) = quartiles(&per_round);
    Agg { value: percentile(&all, p), q1, q3, n: all.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(999), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[0.0, 10.0], 95.0), 9.5);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // Doubling one of four classes moves the mean by 2^(1/4).
        let base = geomean(&[1.0, 2.0, 4.0, 8.0]);
        let moved = geomean(&[2.0, 2.0, 4.0, 8.0]);
        assert!((moved / base - 2f64.powf(0.25)).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn rounds_aggregate_to_the_median_round() {
        // Round medians 5, 2, none, 3: the round that measured nothing is left
        // out, not counted as 0.
        let agg = aggregate_rounds(&[Some(5.0), Some(2.0), None, Some(3.0)], 6);
        assert_eq!((agg.value, agg.n), (3.0, 6));
        assert!(agg.q1 <= 2.0 && 5.0 <= agg.q3);
        // One slow round of five moves the spread, not the value.
        let slow = aggregate_rounds(&[Some(4.0), Some(4.0), Some(4.0), Some(4.0), Some(8.0)], 5);
        assert_eq!(slow.value, 4.0);
        assert!(slow.q3 > 4.0);
        assert_eq!(aggregate_rounds(&[None], 0).value, 0.0);
        assert_eq!(Agg::exact(4.0, 1).spread(), 0.0);
        assert!((Agg { value: 10.0, q1: 9.0, q3: 11.0, n: 5 }.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_tail_is_taken_over_the_whole_run() {
        // 4 rounds of 50 fast samples; the last holds 12 stalls. A per-round
        // p95 would see them in one round only; the run's p95 sits among them.
        let mut rounds = vec![vec![1.0; 50]; 4];
        rounds[3][..12].fill(9.0);
        let tail = tail_of_run(&rounds, 95.0);
        assert_eq!((tail.value, tail.n), (9.0, 200));
        assert_eq!(highest_supported_percentile(tail.n as usize), Some(95));
        assert_eq!(tail_of_run(&[vec![], vec![]], 95.0).value, 0.0);
    }
}
