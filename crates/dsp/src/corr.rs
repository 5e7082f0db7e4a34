//! Cross-correlation and time-alignment.
//!
//! Cooperative backscatter (§3.3) time-synchronises two unsynchronised FM
//! receivers by cross-correlating their (10×-resampled) audio outputs. The
//! functions here implement that: an FFT-accelerated cross-correlation over
//! a bounded lag window and a peak-picking lag estimator.
//!
//! The FFT path is exact over the searched window, not over every lag: it
//! zero-pads to `n = (max(len) + max_lag + 1).next_power_of_two()`, which
//! is enough that no lag in `[-max_lag, +max_lag]` wraps onto another lag
//! the inputs produce. Both real inputs share one complex buffer (`a` in
//! the real part, `b` in the imaginary part), so a search costs one
//! forward and one inverse `n`-point transform and holds one `n`-point
//! buffer.

use crate::complex::Complex;
use crate::fft::Fft;

/// Cross-correlates `a` against `b` for lags in `[-max_lag, +max_lag]`.
///
/// Returns a vector of `2·max_lag + 1` values where index `i` corresponds
/// to lag `i as isize - max_lag` (a positive lag means `b` is delayed
/// relative to `a`). Uses the FFT when the signals are long enough for it
/// to win, otherwise the direct sum.
pub fn cross_correlate(a: &[f64], b: &[f64], max_lag: usize) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return vec![0.0; 2 * max_lag + 1];
    }
    let work = a.len().min(b.len());
    // Direct method costs work · (2·max_lag+1); the FFT path runs two
    // N-point transforms, ~2·N·log N, with N the padded size
    // (max(len) + max_lag + 1) rounded up to a power of two. Pick
    // whichever is cheaper.
    let direct_cost = work as f64 * (2 * max_lag + 1) as f64;
    let n_fft = fft_size(a.len(), b.len(), max_lag);
    let fft_cost = 2.0 * n_fft as f64 * (n_fft as f64).log2();
    if direct_cost <= fft_cost {
        cross_correlate_direct(a, b, max_lag)
    } else {
        cross_correlate_fft(a, b, max_lag)
    }
}

/// Direct-sum cross-correlation (exact reference implementation).
pub fn cross_correlate_direct(a: &[f64], b: &[f64], max_lag: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 * max_lag + 1);
    for lag in -(max_lag as isize)..=(max_lag as isize) {
        // corr(lag) = Σ_i a[i] · b[i + lag]: peaks at +d when b is a copy of
        // a delayed by d samples.
        let mut acc = 0.0;
        for (i, &ai) in a.iter().enumerate() {
            let j = i as isize + lag;
            if j >= 0 && (j as usize) < b.len() {
                acc += ai * b[j as usize];
            }
        }
        out.push(acc);
    }
    out
}

/// The FFT size [`cross_correlate_fft`] pads to. The linear correlation
/// is non-zero for lags in `[-(a.len()-1), b.len()-1]`; at `n >
/// max(len) + max_lag` the circular copies of those lags all fall outside
/// `[-max_lag, +max_lag]`.
fn fft_size(a_len: usize, b_len: usize, max_lag: usize) -> usize {
    (a_len.max(b_len) + max_lag + 1).next_power_of_two()
}

/// FFT-accelerated cross-correlation, mathematically identical to the
/// direct method up to floating-point rounding.
///
/// Packs `z = a + i·b` into one buffer and runs one forward FFT. Because
/// `a` and `b` are real, their spectra separate by Hermitian symmetry,
/// `A[k] = (Z[k] + Z*[n−k])/2` and `B[k] = (Z[k] − Z*[n−k])/2i`, and the
/// correlation spectrum `A·B*` is itself Hermitian. Each `(k, n−k)` pair
/// is therefore overwritten in place with `P[k] = A[k]·B*[k]` and
/// `P[n−k] = P*[k]` before one inverse FFT.
pub fn cross_correlate_fft(a: &[f64], b: &[f64], max_lag: usize) -> Vec<f64> {
    let n = fft_size(a.len(), b.len(), max_lag);
    let fft = Fft::new(n);
    let mut z = vec![Complex::ZERO; n];
    for (zi, &x) in z.iter_mut().zip(a) {
        zi.re = x;
    }
    for (zi, &y) in z.iter_mut().zip(b) {
        zi.im = y;
    }
    fft.forward(&mut z);
    for k in 0..=n / 2 {
        let m = (n - k) % n;
        let zk = z[k];
        let zm = z[m].conj();
        let spec_a = (zk + zm).scale(0.5);
        // (zk − zm)/2i = −i·(zk − zm)/2.
        let d = zk - zm;
        let spec_b = Complex::new(d.im, -d.re).scale(0.5);
        let p = spec_a * spec_b.conj();
        z[k] = p;
        z[m] = p.conj();
    }
    fft.inverse(&mut z);
    // With A·conj(B), the inverse at circular index k equals
    // Σ_i a[i]·b[i-k]. Our convention is corr(lag) = Σ_i a[i]·b[i+lag],
    // which is circular index (-lag) mod n.
    (-(max_lag as isize)..=(max_lag as isize))
        .map(|lag| z[(-lag).rem_euclid(n as isize) as usize].re)
        .collect()
}

/// Finds the lag (in samples) that best aligns `b` to `a`, searching
/// `[-max_lag, +max_lag]`. A positive result means `b` lags `a` by that
/// many samples.
pub fn find_lag(a: &[f64], b: &[f64], max_lag: usize) -> isize {
    let corr = cross_correlate(a, b, max_lag);
    let (idx, _) = corr
        .iter()
        .enumerate()
        .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
        .expect("correlation vector is never empty");
    idx as isize - max_lag as isize
}

/// Normalised correlation coefficient at zero lag, in [-1, 1].
pub fn correlation_coefficient(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let ma = a[..n].iter().sum::<f64>() / n as f64;
    let mb = b[..n].iter().sum::<f64>() / n as f64;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let xa = a[i] - ma;
        let xb = b[i] - mb;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TAU;

    fn noise_like(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-noise via a simple LCG — enough decorrelation
        // for alignment tests without pulling rand into the dsp crate.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn finds_known_integer_delay() {
        let a = noise_like(4_000, 7);
        let delay = 137usize;
        let mut b = vec![0.0; delay];
        b.extend_from_slice(&a);
        let lag = find_lag(&a, &b, 300);
        assert_eq!(lag, delay as isize);
    }

    #[test]
    fn finds_negative_delay() {
        let b = noise_like(4_000, 9);
        let delay = 55usize;
        let mut a = vec![0.0; delay];
        a.extend_from_slice(&b);
        // a is b delayed => b leads => negative lag.
        let lag = find_lag(&a, &b, 200);
        assert_eq!(lag, -(delay as isize));
    }

    #[test]
    fn direct_and_fft_agree() {
        let a = noise_like(700, 1);
        let b = noise_like(700, 2);
        let d = cross_correlate_direct(&a, &b, 50);
        let f = cross_correlate_fft(&a, &b, 50);
        for (x, y) in d.iter().zip(f.iter()) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_lag_autocorrelation_is_energy() {
        let a = noise_like(1_000, 3);
        let corr = cross_correlate(&a, &a, 10);
        let energy: f64 = a.iter().map(|x| x * x).sum();
        assert!((corr[10] - energy).abs() < 1e-8);
        // And it is the maximum.
        assert!(corr.iter().all(|&c| c <= corr[10] + 1e-12));
    }

    #[test]
    fn alignment_survives_noise_and_scaling() {
        // The cooperative decoder's real situation: one receiver hears the
        // same audio delayed, scaled by AGC, plus extra content.
        let base = noise_like(8_000, 11);
        let delay = 42;
        let extra = noise_like(8_000 + delay, 13);
        let b: Vec<f64> = (0..8_000 + delay)
            .map(|i| {
                let host = if i >= delay { base[i - delay] } else { 0.0 };
                0.6 * host + 0.1 * extra[i]
            })
            .collect();
        let lag = find_lag(&base, &b, 100);
        assert_eq!(lag, delay as isize);
    }

    #[test]
    fn correlation_coefficient_bounds() {
        let a = noise_like(2_000, 21);
        let neg: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((correlation_coefficient(&a, &a) - 1.0).abs() < 1e-12);
        assert!((correlation_coefficient(&a, &neg) + 1.0).abs() < 1e-12);
        let b = noise_like(2_000, 22);
        let c = correlation_coefficient(&a, &b);
        assert!(c.abs() < 0.1, "independent noise corr {c}");
    }

    #[test]
    fn tone_correlation_peaks_periodically() {
        let fs = 8_000.0;
        let a: Vec<f64> = (0..800)
            .map(|i| (TAU * 400.0 * i as f64 / fs).sin())
            .collect();
        let corr = cross_correlate(&a, &a, 40);
        // Period = fs/400 = 20 samples; lag 20 should also be a local peak.
        assert!(corr[40 + 20] > corr[40 + 10]);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert_eq!(cross_correlate(&[], &[1.0], 3).len(), 7);
        assert_eq!(correlation_coefficient(&[], &[]), 0.0);
    }
}
