//! Order statistics behind every reported timing.
//!
//! A timing is reported as a median and a tail percentile. The tail is
//! only meaningful when at least [`MIN_BEYOND`] samples lie beyond it, so
//! [`tail_percentile`] refuses to report one from too few samples.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported (so a p90 needs at least 100 samples).
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread printed here matches the one the acceptance check computes.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. `q` is a fraction in `(0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = nearest_rank(v.len(), q)?;
    Some(v[rank - 1])
}

/// The nearest-rank percentile `q`, but only when at least
/// [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let rank = nearest_rank(xs.len(), q)?;
    if xs.len() - rank < MIN_BEYOND {
        return None;
    }
    percentile(xs, q)
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    // The epsilon keeps exact products such as 0.9 × 100 from rounding up
    // to the next rank through binary floating point.
    Some((((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with few
        // samples the method extrapolates past the extremes.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 0.0), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: rank 90 leaves exactly ten beyond it.
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        // 99 samples: rank 90 leaves nine beyond it.
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        // A median needs far fewer samples.
        assert_eq!(tail_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&hundred[..19], 0.5), None);
    }
}
