//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive"
/// method). `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // After the clamp the weight may leave [0, 4]: Python then
        // extrapolates from the two end samples, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest whole percentile `k` that still has at least ten samples
/// above it, with its nearest-rank value: `(k, value)`. `None` when
/// there are too few samples for any such percentile.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= 10 {
        return None;
    }
    // k·n/100 ≤ n − 10 keeps the nearest rank ⌈k·n/100⌉ at most n − 10.
    let k = (100 * (n - 10) / n) as u32;
    if k == 0 {
        return None;
    }
    let rank = (k as usize * n).div_ceil(100);
    Some((k, s[rank - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50, 10.0)));
        for n in 11..400 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (k, v) = tail_percentile(&xs).expect("n > 10");
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n} k={k} beyond={beyond}");
            // One percentile higher would leave fewer than ten beyond.
            if k < 99 {
                let rank = ((k as usize + 1) * n).div_ceil(100);
                assert!(n - rank < 10, "n={n}: p{} also qualifies", k + 1);
            }
        }
    }
}
