//! Statistics, dB conversions and empirical CDFs.
//!
//! The survey figures (Fig. 2, Fig. 4b, Fig. 5) are all CDFs of measured
//! quantities; [`Cdf`] reproduces them. The dB helpers are used by every
//! link-budget computation in `fmbs-channel`.

/// Converts a power ratio to decibels. Returns `-inf` for zero and NaN for
/// negative input (propagating misuse loudly).
#[inline]
pub fn linear_to_db(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

/// Converts decibels to a power ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Root-mean-square value.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
    }
}

/// Mean power (mean of squares).
pub fn power(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolated percentile, `p` in [0, 100].
///
/// # Panics
/// Panics on an empty slice or `p` outside [0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Nearest-rank quantile, `q` in [0, 1] (clamped): the smallest sample
/// such that at least `q` of the distribution is at or below it — the
/// convention the tier-calibration reports use, so a "max" quantile
/// (`q = 1`) is an actual sample, never an interpolation. Returns 0.0
/// for an empty slice (an empty error sample has zero error).
///
/// # Small samples
///
/// Nearest rank needs at least `1 / (1 - q)` samples before the `q`
/// quantile is distinguishable from the maximum: a p999 over fewer than
/// 1000 samples *silently degrades to the max* (and a p99 over fewer
/// than 100 does the same). Callers quoting tail quantiles should use
/// [`quantile_nearest_rank_counted`] and report the support alongside,
/// so a degenerate tail is visible instead of masquerading as a
/// resolved one.
pub fn quantile_nearest_rank(xs: &[f64], q: f64) -> f64 {
    quantile_nearest_rank_counted(xs, q).0
}

/// [`quantile_nearest_rank`] plus the sample count it was computed
/// over: `(quantile, n)`. `n` is the caller's guard against the
/// small-sample degradation documented there — when
/// `n < 1 / (1 - q)` the returned quantile equals the sample maximum.
/// Never panics: an empty slice returns `(0.0, 0)`.
pub fn quantile_nearest_rank_counted(xs: &[f64], q: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    (sorted[idx], sorted.len())
}

/// An empirical cumulative distribution function.
///
/// Construction and every accessor share
/// [`quantile_nearest_rank_counted`]'s never-panic contract: an empty
/// sample set builds an empty CDF whose summary accessors
/// ([`Cdf::quantile`], [`Cdf::median`], [`Cdf::min`], [`Cdf::max`])
/// all return `0.0` with zero support — callers that must distinguish
/// "no samples" from "samples summarising to 0" check [`Cdf::is_empty`]
/// (or [`Cdf::len`]) first, exactly like the `(value, n)` pair of the
/// counted quantile.
///
/// # Example
/// ```
/// use fmbs_dsp::stats::Cdf;
/// let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_below(2.5), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.5);
/// let empty = Cdf::from_samples(&[]);
/// assert!(empty.is_empty());
/// assert_eq!(empty.quantile(0.5), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from raw samples. Never panics: an empty slice
    /// builds an empty CDF (see the type docs for the empty-accessor
    /// contract), and NaN samples — which have no position on a CDF
    /// axis — are dropped.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples — the guard callers check before
    /// treating the `0.0` the summary accessors return as a statistic.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples strictly below `x`, in [0, 1]; `0.0` with no
    /// samples.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile with linear interpolation; `q` is clamped to
    /// [0, 1] (matching [`quantile_nearest_rank`]) and an empty CDF
    /// returns `0.0`. A single sample is every quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median; `0.0` with no samples.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum sample; `0.0` with no samples.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum sample; `0.0` with no samples.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Emits `(x, F(x))` points suitable for plotting, one per sample
    /// (none for an empty CDF).
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Emits the CDF evaluated at `k` evenly spaced x-values covering the
    /// sample range — the form the benchmark harness prints. An empty
    /// CDF emits no points; a single sample emits `k` points pinned to
    /// it.
    ///
    /// # Panics
    /// Panics if `k < 2` (a programming error, not a data edge: one
    /// evaluation point cannot cover a range).
    pub fn sampled_points(&self, k: usize) -> Vec<(f64, f64)> {
        assert!(k >= 2);
        if self.sorted.is_empty() {
            return Vec::new();
        }
        let lo = self.min();
        let hi = self.max();
        (0..k)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (k - 1) as f64;
                // fraction at-or-below for plotting (reaches 1.0 at max)
                let idx = self.sorted.partition_point(|&v| v <= x);
                (x, idx as f64 / self.sorted.len() as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trips() {
        for db in [-60.0, -3.0, 0.0, 10.0, 33.3] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-12);
        }
    }

    #[test]
    fn db_anchor_values() {
        assert!((linear_to_db(2.0) - 3.0103).abs() < 1e-3);
        assert!((db_to_linear(-30.0) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn mean_variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rms_of_unit_sine_is_sqrt_half() {
        let xs: Vec<f64> = (0..10_000)
            .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
            .collect();
        assert!((rms(&xs) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        assert!((percentile(&xs, 10.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn cdf_fraction_and_quantile_are_consistent() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(&samples);
        assert_eq!(cdf.fraction_below(50.5), 0.5);
        assert!((cdf.median() - 50.5).abs() < 1e-12);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 100.0);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf = Cdf::from_samples(&[3.0, 1.0, 2.0, 2.0, 5.0]);
        let pts = cdf.points();
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn sampled_points_cover_range() {
        let cdf = Cdf::from_samples(&[-10.0, 0.0, 10.0]);
        let pts = cdf.sampled_points(5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].0, -10.0);
        assert_eq!(pts[4].0, 10.0);
        assert_eq!(pts[4].1, 1.0);
    }

    #[test]
    fn empty_cdf_never_panics() {
        // Regression: quantile used to underflow `len() - 1` and
        // min/max indexed/unwrapped into the empty vec. The empty edge
        // now mirrors quantile_nearest_rank_counted's (0.0, 0).
        let cdf = Cdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.len(), 0);
        assert_eq!(cdf.quantile(0.0), 0.0);
        assert_eq!(cdf.quantile(0.5), 0.0);
        assert_eq!(cdf.quantile(1.0), 0.0);
        assert_eq!(cdf.median(), 0.0);
        assert_eq!(cdf.min(), 0.0);
        assert_eq!(cdf.max(), 0.0);
        assert_eq!(cdf.fraction_below(1.0), 0.0);
        assert!(cdf.points().is_empty());
        assert!(cdf.sampled_points(3).is_empty());
    }

    #[test]
    fn single_sample_cdf_is_degenerate_but_total() {
        let cdf = Cdf::from_samples(&[42.0]);
        assert_eq!(cdf.len(), 1);
        // Every quantile is the one sample (rank math hits lo == hi == 0).
        assert_eq!(cdf.quantile(0.0), 42.0);
        assert_eq!(cdf.quantile(0.5), 42.0);
        assert_eq!(cdf.quantile(1.0), 42.0);
        assert_eq!(cdf.min(), 42.0);
        assert_eq!(cdf.max(), 42.0);
        assert_eq!(cdf.fraction_below(42.0), 0.0);
        assert_eq!(cdf.fraction_below(43.0), 1.0);
        // Zero-width range: every sampled point sits on the sample.
        let pts = cdf.sampled_points(4);
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|&(x, f)| x == 42.0 && f == 1.0));
    }

    #[test]
    fn cdf_quantile_clamps_and_nan_is_dropped() {
        let cdf = Cdf::from_samples(&[1.0, f64::NAN, 3.0]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.quantile(-0.5), 1.0);
        assert_eq!(cdf.quantile(1.5), 3.0);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn nearest_rank_quantile_edges() {
        let xs = [0.3, 0.0, 0.1, 0.2];
        // On 4 samples: p50 = 2nd smallest, p90 = 4th, max = 4th.
        assert_eq!(quantile_nearest_rank(&xs, 0.5), 0.1);
        assert_eq!(quantile_nearest_rank(&xs, 0.9), 0.3);
        assert_eq!(quantile_nearest_rank(&xs, 1.0), 0.3);
        // q clamps, the minimum is the first sample, empty is 0.
        assert_eq!(quantile_nearest_rank(&xs, -1.0), 0.0);
        assert_eq!(quantile_nearest_rank(&xs, 2.0), 0.3);
        assert_eq!(quantile_nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn counted_quantile_reports_support() {
        // n = 0 must not panic and must report zero support.
        assert_eq!(quantile_nearest_rank_counted(&[], 0.999), (0.0, 0));
        // n = 1: every quantile is the single sample.
        assert_eq!(quantile_nearest_rank_counted(&[7.0], 0.0), (7.0, 1));
        assert_eq!(quantile_nearest_rank_counted(&[7.0], 0.999), (7.0, 1));
        // The documented degradation: p999 over n < 1000 samples is the
        // max — the count is what lets a caller notice.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (p999, n) = quantile_nearest_rank_counted(&xs, 0.999);
        assert_eq!((p999, n), (99.0, 100));
        assert_eq!(p999, quantile_nearest_rank(&xs, 1.0));
        // With enough support the tail quantile separates from the max.
        let xs: Vec<f64> = (0..2_000).map(|i| i as f64).collect();
        let (p999, n) = quantile_nearest_rank_counted(&xs, 0.999);
        assert_eq!(n, 2_000);
        assert!(p999 < 1_999.0);
    }
}
