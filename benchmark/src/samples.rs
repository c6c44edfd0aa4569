//! Latency samples of one run, kept per query class and per round, and the
//! end-to-end latency metrics every workload derives from them.

use crate::stats::{aggregate_rounds, geomean, median, tail_of_run, Agg};
use std::time::{Duration, Instant};

/// The measured interval is split into this many rounds; a timing is computed
/// per round and the run reports the median round (see
/// [`crate::stats::aggregate_rounds`]), with the quartiles across rounds as
/// the spread.
pub const ROUNDS: usize = 5;

#[derive(Debug, Clone)]
pub struct Samples {
    pub classes: Vec<&'static str>,
    /// `ms[class][round]` — latencies in milliseconds.
    ms: Vec<Vec<Vec<f64>>>,
}

impl Samples {
    pub fn new(classes: Vec<&'static str>) -> Samples {
        Samples::with_room(classes, 0)
    }

    /// A recorder whose vectors already hold — resident, not just reserved —
    /// room for `per_round` samples of each class in each round. On a 6 MiB
    /// process the recorder's own growth showed in `peak_rss_mb`: a run on a
    /// faster machine completed more operations and read a tenth higher.
    pub fn with_room(classes: Vec<&'static str>, per_round: usize) -> Samples {
        // Written, then emptied: zeroed memory would not be resident, and a
        // clone would not keep the capacity.
        let room = || {
            let mut v = vec![1.0; per_round];
            v.clear();
            v
        };
        let ms = classes.iter().map(|_| (0..ROUNDS).map(|_| room()).collect()).collect();
        Samples { classes, ms }
    }

    pub fn push(&mut self, class: usize, round: usize, ms: f64) {
        self.ms[class][round.min(ROUNDS - 1)].push(ms);
    }

    /// Fold another recorder (one per client thread) into this one.
    pub fn merge(&mut self, other: Samples) {
        for (mine, theirs) in self.ms.iter_mut().zip(other.ms) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend(t);
            }
        }
    }

    pub fn count(&self, class: usize) -> u64 {
        self.ms[class].iter().map(|r| r.len() as u64).sum()
    }

    pub fn total(&self) -> u64 {
        (0..self.classes.len()).map(|c| self.count(c)).sum()
    }

    pub fn in_round(&self, round: usize) -> u64 {
        self.ms.iter().map(|c| c[round].len() as u64).sum()
    }

    /// Median of one class's samples in one round, if it has any.
    pub fn round_median(&self, class: usize, round: usize) -> Option<f64> {
        let r = &self.ms[class][round];
        (!r.is_empty()).then(|| median(r))
    }

    /// The class's median latency: the median of the per-round medians.
    pub fn class_median(&self, class: usize) -> Agg {
        let per_round: Vec<Option<f64>> =
            (0..ROUNDS).map(|r| self.round_median(class, r)).collect();
        aggregate_rounds(&per_round, self.count(class))
    }

    /// Geometric mean over `classes` of one round's medians; no value when
    /// one of the classes has no sample in that round.
    pub fn round_geomean(&self, classes: &[usize], round: usize) -> Option<f64> {
        let medians: Option<Vec<f64>> =
            classes.iter().map(|&c| self.round_median(c, round)).collect();
        medians.map(|m| geomean(&m))
    }

    /// [`Samples::round_geomean`] per round, aggregated across rounds.
    pub fn geomean_of_medians(&self, classes: &[usize]) -> Agg {
        let per_round: Vec<Option<f64>> =
            (0..ROUNDS).map(|r| self.round_geomean(classes, r)).collect();
        aggregate_rounds(&per_round, classes.iter().map(|&c| self.count(c)).sum())
    }

    /// Per round: geometric mean over `(numerator, denominator)` class pairs
    /// of the ratio of their round medians.
    pub fn geomean_of_ratios(&self, pairs: &[(usize, usize)]) -> Agg {
        let per_round: Vec<Option<f64>> = (0..ROUNDS)
            .map(|r| {
                let ratios: Option<Vec<f64>> = pairs
                    .iter()
                    .map(|&(num, den)| {
                        Some(self.round_median(num, r)? / self.round_median(den, r)?)
                    })
                    .collect();
                ratios.map(|x| geomean(&x))
            })
            .collect();
        aggregate_rounds(
            &per_round,
            pairs.iter().map(|&(a, b)| self.count(a) + self.count(b)).sum(),
        )
    }

    /// The class's 95th percentile over all samples of the run.
    pub fn p95(&self, class: usize) -> Agg {
        tail_of_run(&self.ms[class], 95.0)
    }
}

/// Rounds of a single-threaded measurement loop. A round ends at the first
/// cycle boundary after its share of the interval has passed, and records
/// how long it really took and how many operations it held, so per-round
/// rates are exact.
pub struct RoundClock {
    start: Instant,
    round_len: Duration,
    round_start: Instant,
    pending_ops: u64,
    /// Actual length of each finished round, in seconds.
    pub seconds: Vec<f64>,
    /// Operations attempted in each finished round.
    pub ops: Vec<u64>,
}

impl RoundClock {
    pub fn start(interval: Duration) -> RoundClock {
        let now = Instant::now();
        RoundClock {
            start: now,
            round_len: interval / ROUNDS as u32,
            round_start: now,
            pending_ops: 0,
            seconds: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// The round samples taken now belong to.
    pub fn round(&self) -> usize {
        self.seconds.len()
    }

    /// Call after each cycle of `ops` operations; `false` once the last
    /// round has ended.
    pub fn tick(&mut self, ops: u64) -> bool {
        self.pending_ops += ops;
        let now = Instant::now();
        if now.duration_since(self.start) >= self.round_len * (self.round() as u32 + 1) {
            self.seconds.push(now.duration_since(self.round_start).as_secs_f64());
            self.ops.push(std::mem::take(&mut self.pending_ops));
            self.round_start = now;
        }
        self.round() < ROUNDS
    }
}

/// Throughput: correct completed operations over measured seconds, for the
/// whole interval; the quartiles of the per-round rates are the spread.
pub fn ops_per_s(ops_per_round: &[u64], seconds_per_round: &[f64]) -> Agg {
    let rates: Vec<f64> = ops_per_round
        .iter()
        .zip(seconds_per_round)
        .filter(|(_, &s)| s > 0.0)
        .map(|(&ops, &s)| ops as f64 / s)
        .collect();
    let (q1, _, q3) = crate::stats::quartiles(&rates);
    let (ops, seconds): (u64, f64) = (ops_per_round.iter().sum(), seconds_per_round.iter().sum());
    Agg { value: if seconds > 0.0 { ops as f64 / seconds } else { 0.0 }, q1, q3, n: ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_round_geomeans_and_ratios() {
        let mut s = Samples::new(vec!["cert", "plain"]);
        for round in 0..ROUNDS {
            // cert is 4 ms, plain 1 ms, in every round but the last, where
            // the machine runs twice as slow for both.
            let slow = if round == ROUNDS - 1 { 2.0 } else { 1.0 };
            for _ in 0..3 {
                s.push(0, round, 4.0 * slow);
                s.push(1, round, 1.0 * slow);
            }
        }
        assert_eq!(s.total(), 6 * ROUNDS as u64);
        // One slow round of five does not move the reported medians…
        assert_eq!(s.class_median(0).value, 4.0);
        assert_eq!(s.geomean_of_medians(&[0, 1]).value, 2.0);
        // …shows in the spread across rounds…
        assert!(s.geomean_of_medians(&[0]).q3 > 4.0);
        // …and in the tail, which is taken over the whole run.
        assert_eq!(s.p95(1).value, 2.0);
        // Interleaving keeps the ratio steady while absolute times drift.
        let ratio = s.geomean_of_ratios(&[(0, 1)]);
        assert_eq!((ratio.value, ratio.q1, ratio.q3), (4.0, 4.0, 4.0));
        assert_eq!(s.p95(1).n, 3 * ROUNDS as u64);
    }

    #[test]
    fn merge_and_throughput() {
        let mut a = Samples::new(vec!["x"]);
        let mut b = Samples::new(vec!["x"]);
        a.push(0, 0, 1.0);
        b.push(0, 0, 3.0);
        b.push(0, 9, 5.0); // clamped into the last round
        a.merge(b);
        assert_eq!(a.count(0), 3);
        assert_eq!(a.in_round(0), 2);
        assert_eq!(a.in_round(ROUNDS - 1), 1);
        let rate = ops_per_s(&[10, 30, 20], &[1.0, 1.0, 2.0]);
        assert_eq!((rate.value, rate.n), (15.0, 60));
        assert!(rate.q1 <= 10.0 && rate.q3 >= 30.0);
    }
}
