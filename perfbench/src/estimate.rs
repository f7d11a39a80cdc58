//! Summaries of repeated measurements.
//!
//! The host this benchmark was tuned on slows memory-heavy work by up to
//! 1.5× for seconds at a time, and never speeds it up. Timed metrics are
//! therefore built from many short units that are *replayed*: the same
//! query slice on every serving pass, the same churn batch on every
//! leave → rejoin cycle. Each unit index keeps its fastest replay (the
//! replays are identical work, so any excess over the fastest is host
//! interference), and the metric aggregates those per-index bests. The
//! median and quartiles over every replay are reported beside it as
//! diagnostics. See `README.md` for the evidence behind this choice.

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), linearly interpolated
/// between order statistics; `NaN` for an empty slice. Latency samples
/// use [`rank_quantile`] instead, so that a reported quantile is a
/// measured sample with a known count beyond it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The nearest-rank `q`-quantile of ascending `sorted` samples: the
/// smallest sample with at least a `q` share of the samples at or below
/// it. Returns the sample and how many samples lie strictly beyond its
/// rank.
pub fn rank_quantile(sorted: &[u32], q: f64) -> (u32, usize) {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Fastest replay per unit index, plus every replay for diagnostics.
#[derive(Debug, Clone, Default)]
pub struct BestOf {
    best: Vec<f64>,
    all: Vec<f64>,
}

impl BestOf {
    /// Records a replay of unit `index` costing `cost`; returns whether it
    /// is the fastest replay of that index so far.
    pub fn record(&mut self, index: usize, cost: f64) -> bool {
        if self.best.len() <= index {
            self.best.resize(index + 1, f64::INFINITY);
        }
        self.all.push(cost);
        let faster = cost < self.best[index];
        if faster {
            self.best[index] = cost;
        }
        faster
    }

    /// The fastest replay of each index.
    pub fn best(&self) -> &[f64] {
        &self.best
    }

    /// `"median q1 q3 (count)"` of every replay, for the diagnostics.
    pub fn spread_note(&self) -> String {
        format!(
            "all-replay median {:.4} q1 {:.4} q3 {:.4} over {} replays of {} units",
            median(&self.all),
            quantile(&self.all, 0.25),
            quantile(&self.all, 0.75),
            self.all.len(),
            self.best.len()
        )
    }

    /// Third over first quartile of every replay's cost.
    pub fn q3_over_q1(&self) -> f64 {
        quantile(&self.all, 0.75) / quantile(&self.all, 0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rank_quantile_counts_the_tail() {
        let s: Vec<u32> = (1..=1000).collect();
        assert_eq!(rank_quantile(&s, 0.5), (500, 500));
        assert_eq!(rank_quantile(&s, 0.99), (990, 10));
        assert_eq!(rank_quantile(&[7], 0.99), (7, 0));
    }

    #[test]
    fn best_of_keeps_the_fastest_replay() {
        let mut b = BestOf::default();
        assert!(b.record(1, 5.0));
        assert!(b.record(0, 3.0));
        assert!(!b.record(1, 6.0));
        assert!(b.record(1, 4.0));
        assert_eq!(b.best(), &[3.0, 4.0]);
        assert_eq!(b.q3_over_q1(), 5.25 / 3.75);
    }
}
