//! Quantiles over pooled samples and the run-to-run spread measures.

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            sorted[lo] + (sorted[(lo + 1).min(n - 1)] - sorted[lo]) * frac
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `(max - min) / median`: how far a metric's per-round (or per-run)
/// values lie apart, as a share of their median.
pub fn spread(values: &[f64]) -> f64 {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    (max - min) / median(values)
}

/// `(q3 - q1) / median`: the same for a handful of repeats of which the
/// first is cold and any one may be an outlier.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.75) - quantile(&v, 0.25)) / quantile(&v, 0.5)
}

/// One operation's client-side latency and the measured round it
/// started in.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub round: usize,
    pub millis: f64,
}

/// A quantile over the pooled samples of all rounds, with the evidence
/// for how far to trust it.
#[derive(Debug, Clone, Copy)]
pub struct Pooled {
    pub value: f64,
    /// Samples at or above the quantile; ten is the floor for a tail
    /// quantile to mean anything.
    pub samples_beyond: usize,
    /// [`spread`] of the per-round values of the same quantile.
    pub round_spread: f64,
}

pub fn pooled_quantile(samples: &[Sample], rounds: usize, q: f64) -> Pooled {
    let sorted = |it: &mut dyn Iterator<Item = f64>| {
        let mut v: Vec<f64> = it.collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = sorted(&mut samples.iter().map(|s| s.millis));
    let value = quantile(&all, q);
    let per_round: Vec<f64> = (0..rounds)
        .map(|r| sorted(&mut samples.iter().filter(|s| s.round == r).map(|s| s.millis)))
        .filter(|v| !v.is_empty())
        .map(|v| quantile(&v, q))
        .collect();
    Pooled {
        value,
        samples_beyond: all.iter().filter(|v| **v >= value).count(),
        round_spread: if per_round.is_empty() { f64::NAN } else { spread(&per_round) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.125), 1.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn pooled_quantile_pools_rounds_and_reports_their_spread() {
        // Round 0 holds 1..=10, round 1 holds 11..=20.
        let samples: Vec<Sample> =
            (1..=20).map(|i| Sample { round: (i - 1) / 10, millis: i as f64 }).collect();
        let p50 = pooled_quantile(&samples, 2, 0.5);
        assert_eq!(p50.value, 10.5);
        assert_eq!(p50.samples_beyond, 10);
        // Per-round medians 5.5 and 15.5: (15.5 - 5.5) / 10.5.
        assert!((p50.round_spread - 10.0 / 10.5).abs() < 1e-12);
        let p95 = pooled_quantile(&samples, 2, 0.95);
        assert_eq!(p95.samples_beyond, 1);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(spread(&[5.0, 5.0]), 0.0);
        // One cold outlier moves the range, not the quartiles.
        let setups = [9.0, 5.0, 5.0, 5.0, 5.0];
        assert_eq!(spread(&setups), 0.8);
        assert_eq!(quartile_spread(&setups), 0.0);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
    }
}
