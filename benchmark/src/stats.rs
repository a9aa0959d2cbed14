//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `samples` by nearest rank; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The best quartile of `values`: of `n` repeats of one experiment, the
/// ⌈n/4⌉-th best — the largest such when `higher_is_better`, else the
/// smallest; 0 when empty.
///
/// The host only ever slows a repeat down (a neighbour on the sibling
/// hyperthread, stolen time, the two vCPUs placed apart), for seconds to a
/// minute at a time, so a run's repeats are a mix of disturbed and
/// undisturbed ones and their median jumps with the share of each. The best
/// quartile stays on the undisturbed ones while a quarter of the run is
/// quiet, and a change to the code moves every repeat, so it moves too.
pub fn best_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[v.len().div_ceil(4) - 1]
}

/// Geometric mean of the positive entries of `values`; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// `num / den`, or 0 when there is nothing to divide by (a workload without
/// that kind of operation).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_quartile_is_the_same_rank_from_either_end() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(best_quartile(&v, false), 2.0);
        assert_eq!(best_quartile(&v, true), 7.0);
        assert_eq!(best_quartile(&v[..4], false), 1.0);
        assert_eq!(best_quartile(&v[..4], true), 4.0);
        assert_eq!(best_quartile(&[], true), 0.0);
    }

    #[test]
    fn geomean_ignores_empty_shapes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 0.0, 9.0]) - 6.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
