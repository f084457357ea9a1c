//! Order statistics over measured samples.

/// Sorts a copy of `values` (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`);
/// 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The median of [`quiet_median`]'s kept samples, with what it kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    pub median: f64,
    /// Slices kept, of `slices` non-empty ones.
    pub kept: usize,
    pub slices: usize,
    /// Samples in the kept slices.
    pub samples: usize,
}

/// The median of the samples in the least-disturbed slices of a window.
/// `samples` are `(t, value)` pairs and `clock` is `(t, total)` readings,
/// in time order, of a cumulative disturbance (host steal) on the same
/// time base. The window `(from, to]` is cut into slices `width` long; a
/// slice's disturbance is the rise of `clock` from the last reading at or
/// before its start to the first at or after its end. The slices whose
/// disturbance is at most the lower quartile of all non-empty slices' are
/// kept, and their samples pooled; without readings every slice is kept.
pub fn quiet_median(
    samples: &[(f64, f64)],
    clock: &[(f64, f64)],
    from: f64,
    to: f64,
    width: f64,
) -> Quiet {
    let mut slices: std::collections::BTreeMap<i64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        if t > from && t <= to {
            slices
                .entry(((t - from) / width).floor() as i64)
                .or_default()
                .push(v);
        }
    }
    let reading_at_or_before = |t: f64| {
        let i = clock.partition_point(|r| r.0 <= t);
        clock.get(i.saturating_sub(1)).map_or(0.0, |r| r.1)
    };
    let reading_at_or_after = |t: f64| {
        let i = clock.partition_point(|r| r.0 < t);
        clock.get(i).or(clock.last()).map_or(0.0, |r| r.1)
    };
    let disturbance: Vec<f64> = slices
        .keys()
        .map(|&k| {
            let start = from + k as f64 * width;
            reading_at_or_after(start + width) - reading_at_or_before(start)
        })
        .collect();
    let cutoff = quantile(&sorted(&disturbance), 0.25);
    let kept: Vec<f64> = slices
        .values()
        .zip(&disturbance)
        .filter(|(_, &d)| d <= cutoff)
        .flat_map(|(s, _)| s.iter().copied())
        .collect();
    Quiet {
        median: median(&kept),
        kept: disturbance.iter().filter(|&&d| d <= cutoff).count(),
        slices: slices.len(),
        samples: kept.len(),
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quiet_median_keeps_the_least_disturbed_slices() {
        // Eight slices of 1.0 s. The clock rises 10 in every slice but the
        // first two, whose samples read 1..=6; the rest read 50. Samples
        // outside (0, 8] are dropped.
        let clock: Vec<(f64, f64)> = (0..=8)
            .map(|t| (t as f64, 10.0 * (t.max(2) - 2) as f64))
            .collect();
        let mut samples = vec![(0.0, 99.0), (8.5, 99.0)];
        for slice in 0..8 {
            for k in 0..3 {
                let v = if slice < 2 {
                    (3 * slice + k + 1) as f64
                } else {
                    50.0
                };
                samples.push((slice as f64 + 0.1 + 0.3 * k as f64, v));
            }
        }
        let q = quiet_median(&samples, &clock, 0.0, 8.0, 1.0);
        assert_eq!(
            q,
            Quiet {
                median: 3.5,
                kept: 2,
                slices: 8,
                samples: 6
            }
        );
        // Without readings nothing is told apart: every slice is kept.
        let all = quiet_median(&samples, &[], 0.0, 8.0, 1.0);
        assert_eq!((all.kept, all.samples, all.median), (8, 24, 50.0));
        assert_eq!(quiet_median(&[], &clock, 0.0, 1.0, 0.5).samples, 0);
    }
}
