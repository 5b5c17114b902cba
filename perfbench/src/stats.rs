//! Order statistics over timing samples.

/// The `q`-quantile of `v` by nearest rank (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The median over consecutive time windows of `window_s` seconds of a
/// per-window statistic: `samples` are `(time s, value)` pairs, `stat`
/// reduces one window's values. Windows with fewer than `min_n` samples
/// are skipped; with none left, `stat` runs over all samples. A burst of
/// outside load spoils a window or two; the median across windows does
/// not follow it.
pub fn windowed(
    samples: impl IntoIterator<Item = (f64, f64)>,
    window_s: f64,
    min_n: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut by_window: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    let mut all = Vec::new();
    for (t, v) in samples {
        all.push(v);
        by_window
            .entry((t / window_s).floor().max(0.0) as u64)
            .or_default()
            .push(v);
    }
    let per: Vec<f64> = by_window
        .values()
        .filter(|v| v.len() >= min_n)
        .map(|v| stat(v))
        .collect();
    if per.is_empty() {
        stat(&all)
    } else {
        median(&per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        let w = (0..40).map(|i| (i as f64 * 0.25, if i < 8 { 100.0 } else { 1.0 }));
        assert_eq!(windowed(w, 1.0, 2, median), 1.0);
    }
}
