//! Iterative radix-2 FFT with pre-computed twiddle factors.
//!
//! The simulator uses the FFT for spectrum measurements (audio SNR, survey
//! occupancy, the Bark-band analysis in the PESQ-like metric) and for
//! FFT-based cross-correlation in the cooperative decoder. Sizes are always
//! powers of two; [`Fft::new`] panics otherwise so misuse fails loudly at
//! construction rather than silently corrupting spectra.
//!
//! Planning an [`Fft`] costs about as much as running it, so a caller
//! that takes many spectra of one size plans once and passes the plan to
//! [`power_spectrum_with`] ([`welch_psd`] does this per call). Plans are
//! deterministic: a reused plan gives bit-identical spectra to a fresh
//! one.

use crate::complex::Complex;
use crate::TAU;

/// A planned FFT of a fixed power-of-two size.
///
/// Construction pre-computes the bit-reversal permutation and twiddle
/// factors; [`Fft::forward`] and [`Fft::inverse`] then run without
/// allocating.
///
/// # Example
/// ```
/// use fmbs_dsp::fft::Fft;
/// use fmbs_dsp::Complex;
///
/// let fft = Fft::new(8);
/// let mut buf: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
/// fft.forward(&mut buf);
/// fft.inverse(&mut buf);
/// assert!((buf[3].re - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    // Twiddles for the forward transform, grouped by butterfly stage.
    twiddles: Vec<Complex>,
    bitrev: Vec<u32>,
}

impl Fft {
    /// Plans an FFT of size `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        // Half-size twiddle table: W_n^k = e^{-2πik/n} for k in 0..n/2.
        let twiddles = (0..n / 2)
            .map(|k| Complex::from_angle(-TAU * k as f64 / n as f64))
            .collect();
        Fft {
            n,
            twiddles,
            bitrev,
        }
    }

    /// The planned transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the planned size is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn permute(&self, buf: &mut [Complex]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
    }

    fn transform(&self, buf: &mut [Complex], inverse: bool) {
        assert_eq!(buf.len(), self.n, "buffer length must match planned size");
        if self.n == 1 {
            return;
        }
        self.permute(buf);
        let mut len = 2;
        while len <= self.n {
            let half = len / 2;
            let step = self.n / len;
            for start in (0..self.n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * step];
                    if inverse {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
        if inverse {
            let scale = 1.0 / self.n as f64;
            for v in buf.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }

    /// In-place forward DFT: `X[k] = Σ x[n]·e^{-2πikn/N}`.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.transform(buf, false);
    }

    /// In-place inverse DFT, normalised by `1/N` so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.transform(buf, true);
    }
}

/// Computes the one-sided power spectrum of a real signal.
///
/// The input is zero-padded (or truncated) to `n` points (`n` a power of
/// two), windowed with `window`, and transformed. The output has `n/2 + 1`
/// bins; bin `k` corresponds to frequency `k · sample_rate / n`. Power is
/// linear (not dB) and normalised so that a full-scale sine at a bin centre
/// measures ~0.25·(window gain)² regardless of `n`.
pub fn power_spectrum(signal: &[f64], window: &[f64], n: usize) -> Vec<f64> {
    power_spectrum_with(&Fft::new(n), signal, window)
}

/// [`power_spectrum`] at the size of a caller-held plan `fft`, for callers
/// that take many spectra of one size.
pub fn power_spectrum_with(fft: &Fft, signal: &[f64], window: &[f64]) -> Vec<f64> {
    let n = fft.len();
    assert!(window.len() <= n, "window longer than the spectrum size");
    let mut buf = vec![Complex::ZERO; n];
    for i in 0..n.min(signal.len()) {
        let w = if i < window.len() { window[i] } else { 0.0 };
        buf[i] = Complex::new(signal[i] * w, 0.0);
    }
    fft.forward(&mut buf);
    let scale = 1.0 / (n as f64 * n as f64);
    (0..=n / 2).map(|k| buf[k].norm_sqr() * scale).collect()
}

/// Averaged periodogram (Welch's method) with 50 % overlap and a Hann
/// window. Returns `n/2 + 1` one-sided power bins.
///
/// This is what the survey crate uses to measure band power over long
/// captures without the variance of a single FFT.
pub fn welch_psd(signal: &[f64], n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two(), "segment size must be a power of two");
    let fft = Fft::new(n);
    let window = crate::windows::Window::Hann.coefficients(n);
    let hop = n / 2;
    let mut acc = vec![0.0; n / 2 + 1];
    let mut count = 0usize;
    let mut start = 0usize;
    while start + n <= signal.len() {
        let seg = power_spectrum_with(&fft, &signal[start..start + n], &window);
        for (a, s) in acc.iter_mut().zip(seg.iter()) {
            *a += s;
        }
        count += 1;
        start += hop;
    }
    if count == 0 {
        // Too short for even one segment: fall back to a single padded FFT.
        return power_spectrum_with(&fft, signal, &window);
    }
    for a in acc.iter_mut() {
        *a /= count as f64;
    }
    acc
}

/// Sums the power of `psd` bins whose centre frequency falls in
/// `[f_lo, f_hi)` (Hz), given the sample rate the PSD was computed at.
pub fn band_power(psd: &[f64], sample_rate: f64, f_lo: f64, f_hi: f64) -> f64 {
    let n = (psd.len() - 1) * 2;
    let bin_hz = sample_rate / n as f64;
    psd.iter()
        .enumerate()
        .filter(|(k, _)| {
            let f = *k as f64 * bin_hz;
            f >= f_lo && f < f_hi
        })
        .map(|(_, p)| *p)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::Window;

    #[test]
    fn forward_of_impulse_is_flat() {
        let fft = Fft::new(16);
        let mut buf = vec![Complex::ZERO; 16];
        buf[0] = Complex::ONE;
        fft.forward(&mut buf);
        for v in &buf {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_recovers_signal() {
        let fft = Fft::new(64);
        let orig: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut buf = orig.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(orig.iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_lands_in_correct_bin() {
        let n = 128;
        let fft = Fft::new(n);
        let k0 = 5;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(TAU * k0 as f64 * i as f64 / n as f64))
            .collect();
        fft.forward(&mut buf);
        for (k, v) in buf.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 256;
        let fft = Fft::new(n);
        let time: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let e_time: f64 = time.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = time.clone();
        fft.forward(&mut freq);
        let e_freq: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() / e_time < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let fft = Fft::new(n);
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft.forward(&mut fa);
        fft.forward(&mut fb);
        fft.forward(&mut fab);
        for i in 0..n {
            assert!((fab[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = Fft::new(12);
    }

    #[test]
    fn size_one_is_identity() {
        let fft = Fft::new(1);
        let mut buf = vec![Complex::new(2.5, -1.0)];
        fft.forward(&mut buf);
        assert_eq!(buf[0], Complex::new(2.5, -1.0));
    }

    #[test]
    fn power_spectrum_finds_tone() {
        let n = 1024;
        let fs = 48_000.0;
        let f0 = 3_000.0;
        let signal: Vec<f64> = (0..n).map(|i| (TAU * f0 * i as f64 / fs).sin()).collect();
        let window = Window::Hann.coefficients(n);
        let psd = power_spectrum(&signal, &window, n);
        let peak_bin = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak_freq = peak_bin as f64 * fs / n as f64;
        assert!((peak_freq - f0).abs() < fs / n as f64 * 1.5);
    }

    #[test]
    fn band_power_splits_two_tones() {
        let n = 4096;
        let fs = 48_000.0;
        let signal: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (TAU * 1_000.0 * t).sin() + 0.1 * (TAU * 10_000.0 * t).sin()
            })
            .collect();
        let psd = welch_psd(&signal, 1024);
        let low = band_power(&psd, fs, 500.0, 1_500.0);
        let high = band_power(&psd, fs, 9_500.0, 10_500.0);
        let ratio = low / high;
        // Amplitude ratio 10 => power ratio 100.
        assert!(ratio > 50.0 && ratio < 200.0, "ratio {ratio}");
    }

    #[test]
    fn welch_plan_reuse_is_bit_identical() {
        // welch_psd plans once per call; a fresh plan per segment must give
        // the same bits.
        let n = 256;
        let signal: Vec<f64> = (0..5 * n / 2 + 37)
            .map(|i| (i as f64 * 0.013).sin() + 0.3 * (i as f64 * 0.71).cos())
            .collect();
        let window = Window::Hann.coefficients(n);
        let mut acc = vec![0.0; n / 2 + 1];
        let mut count = 0usize;
        for start in (0..).step_by(n / 2).take_while(|s| s + n <= signal.len()) {
            let seg = power_spectrum(&signal[start..start + n], &window, n);
            for (a, s) in acc.iter_mut().zip(&seg) {
                *a += s;
            }
            count += 1;
        }
        assert_eq!(count, 4);
        let welch = welch_psd(&signal, n);
        assert_eq!(welch.len(), acc.len());
        for (w, a) in welch.iter().zip(&acc) {
            assert_eq!(w.to_bits(), (a / count as f64).to_bits());
        }
    }

    #[test]
    fn welch_on_short_signal_falls_back() {
        let psd = welch_psd(&[1.0, 0.0, -1.0], 8);
        assert_eq!(psd.len(), 5);
    }
}
