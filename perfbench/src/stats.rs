//! Order statistics over the per-pass samples of one run.

/// The median, as Python's `statistics.median` computes it (the mean of
/// the two middle values for an even count). `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method). A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
            }
            Some(out)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[2.0]), Some([2.0; 3]));
    }
}
