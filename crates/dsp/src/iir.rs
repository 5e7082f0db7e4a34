//! IIR filters: RBJ biquads, first-order sections, FM de-emphasis.
//!
//! Broadcast FM applies 75 µs pre-emphasis (a high-frequency boost) at the
//! transmitter and the complementary de-emphasis at the receiver; both are
//! single-pole RC networks modelled by [`FirstOrder`]. Biquads provide the
//! resonators used by the synthetic speech generator in `fmbs-audio`.

use std::f64::consts::PI;

/// A transposed direct-form-II biquad section.
#[derive(Debug, Clone)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    z1: f64,
    z2: f64,
}

impl Biquad {
    /// Creates a biquad from normalised coefficients (a0 already divided
    /// out).
    pub fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Biquad {
            b0,
            b1,
            b2,
            a1,
            a2,
            z1: 0.0,
            z2: 0.0,
        }
    }

    /// RBJ cookbook low-pass with cut-off `fc` and quality `q`.
    pub fn lowpass(fs: f64, fc: f64, q: f64) -> Self {
        let w0 = 2.0 * PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            (1.0 - cosw) / 2.0 / a0,
            (1.0 - cosw) / a0,
            (1.0 - cosw) / 2.0 / a0,
            -2.0 * cosw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ cookbook high-pass.
    pub fn highpass(fs: f64, fc: f64, q: f64) -> Self {
        let w0 = 2.0 * PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            (1.0 + cosw) / 2.0 / a0,
            -(1.0 + cosw) / a0,
            (1.0 + cosw) / 2.0 / a0,
            -2.0 * cosw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ cookbook band-pass (constant peak gain).
    pub fn bandpass(fs: f64, fc: f64, q: f64) -> Self {
        let w0 = 2.0 * PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            alpha / a0,
            0.0,
            -alpha / a0,
            -2.0 * cosw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ cookbook notch.
    pub fn notch(fs: f64, fc: f64, q: f64) -> Self {
        let w0 = 2.0 * PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            1.0 / a0,
            -2.0 * cosw / a0,
            1.0 / a0,
            -2.0 * cosw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// A resonator: band-pass with gain normalised to 1 at the centre
    /// frequency. Used as a formant filter by the speech synthesiser.
    pub fn resonator(fs: f64, fc: f64, bandwidth_hz: f64) -> Self {
        let q = fc / bandwidth_hz.max(1.0);
        Biquad::bandpass(fs, fc, q)
    }

    /// Processes one sample.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.z1;
        self.z1 = self.b1 * x - self.a1 * y + self.z2;
        self.z2 = self.b2 * x - self.a2 * y;
        y
    }

    /// Processes a buffer (streaming).
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.push(x)).collect()
    }

    /// Clears internal state.
    pub fn reset(&mut self) {
        self.z1 = 0.0;
        self.z2 = 0.0;
    }
}

/// A first-order one-pole/one-zero section, `H(z) = (b0 + b1·z⁻¹)/(1 + a1·z⁻¹)`.
#[derive(Debug, Clone)]
pub struct FirstOrder {
    b0: f64,
    b1: f64,
    a1: f64,
    x1: f64,
    y1: f64,
}

impl FirstOrder {
    /// FM de-emphasis: single-pole low-pass with time constant `tau`
    /// seconds (75 µs in the Americas, 50 µs in Europe), bilinear-
    /// transformed.
    pub fn deemphasis(fs: f64, tau: f64) -> Self {
        // Analog prototype H(s) = 1 / (1 + sτ), bilinear transform.
        let k = 2.0 * fs * tau;
        let a0 = 1.0 + k;
        FirstOrder {
            b0: 1.0 / a0,
            b1: 1.0 / a0,
            a1: (1.0 - k) / a0,
            x1: 0.0,
            y1: 0.0,
        }
    }

    /// FM pre-emphasis: the inverse of [`FirstOrder::deemphasis`]. The
    /// analog network is improper (pure high boost), so the standard
    /// practice of adding a far pole at `pole_hz` is used.
    pub fn preemphasis(fs: f64, tau: f64, pole_hz: f64) -> Self {
        // H(s) = (1 + sτ) / (1 + s/(2π·pole_hz)), bilinear transform.
        let tz = tau;
        let tp = 1.0 / (2.0 * PI * pole_hz);
        let kz = 2.0 * fs * tz;
        let kp = 2.0 * fs * tp;
        let a0 = 1.0 + kp;
        FirstOrder {
            b0: (1.0 + kz) / a0,
            b1: (1.0 - kz) / a0,
            a1: (1.0 - kp) / a0,
            x1: 0.0,
            y1: 0.0,
        }
    }

    /// A one-pole smoother with coefficient `alpha` in (0, 1]:
    /// `y[n] = α·x[n] + (1-α)·y[n-1]`. Used for envelope followers and the
    /// automatic gain control model.
    pub fn smoother(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        FirstOrder {
            b0: alpha,
            b1: 0.0,
            a1: alpha - 1.0,
            x1: 0.0,
            y1: 0.0,
        }
    }

    /// Processes one sample.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 - self.a1 * self.y1;
        self.x1 = x;
        self.y1 = y;
        y
    }

    /// Processes a buffer (streaming).
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.push(x)).collect()
    }

    /// Clears internal state.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.y1 = 0.0;
    }

    /// Magnitude response at `f` Hz for sample rate `fs`.
    pub fn magnitude_at(&self, fs: f64, f: f64) -> f64 {
        use crate::complex::Complex;
        let w = std::f64::consts::TAU * f / fs;
        let zinv = Complex::from_angle(-w);
        let num = Complex::from(self.b0) + zinv.scale(self.b1);
        let den = Complex::ONE + zinv.scale(self.a1);
        (num / den).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TAU;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (TAU * f * i as f64 / fs).sin()).collect()
    }

    fn steady_rms(x: &[f64]) -> f64 {
        let tail = &x[x.len() / 2..];
        (tail.iter().map(|v| v * v).sum::<f64>() / tail.len() as f64).sqrt()
    }

    #[test]
    fn biquad_lowpass_attenuates_high_frequencies() {
        let fs = 48_000.0;
        let mut lp = Biquad::lowpass(fs, 1_000.0, 0.707);
        let low = lp.process(&tone(fs, 100.0, 9_600));
        lp.reset();
        let high = lp.process(&tone(fs, 10_000.0, 9_600));
        assert!(steady_rms(&low) > 0.65);
        assert!(steady_rms(&high) < 0.02);
    }

    #[test]
    fn biquad_highpass_blocks_dc() {
        let mut hp = Biquad::highpass(48_000.0, 500.0, 0.707);
        let out = hp.process(&vec![1.0; 9_600]);
        assert!(steady_rms(&out) < 1e-3);
    }

    #[test]
    fn notch_removes_center_frequency() {
        let fs = 48_000.0;
        let mut n = Biquad::notch(fs, 19_000.0, 30.0);
        let at_notch = n.process(&tone(fs, 19_000.0, 48_000));
        n.reset();
        let off_notch = n.process(&tone(fs, 5_000.0, 48_000));
        assert!(steady_rms(&at_notch) < 0.02, "{}", steady_rms(&at_notch));
        assert!(steady_rms(&off_notch) > 0.65);
    }

    #[test]
    fn resonator_peaks_at_center() {
        let fs = 16_000.0;
        let mut r = Biquad::resonator(fs, 700.0, 90.0);
        let at = r.process(&tone(fs, 700.0, 16_000));
        r.reset();
        let off = r.process(&tone(fs, 2_500.0, 16_000));
        assert!(steady_rms(&at) > 3.0 * steady_rms(&off));
    }

    #[test]
    fn deemphasis_rolls_off_3db_at_corner() {
        let fs = 192_000.0;
        let tau = 75e-6;
        let f_corner = 1.0 / (TAU * tau); // ≈ 2122 Hz
        let de = FirstOrder::deemphasis(fs, tau);
        let g_dc = de.magnitude_at(fs, 10.0);
        let g_corner = de.magnitude_at(fs, f_corner);
        let db = 20.0 * (g_corner / g_dc).log10();
        assert!((db + 3.0).abs() < 0.3, "corner roll-off {db} dB");
    }

    #[test]
    fn preemphasis_then_deemphasis_is_flat_in_audio_band() {
        let fs = 192_000.0;
        let tau = 75e-6;
        // The added far pole (required to make pre-emphasis realisable)
        // causes a small droop near the top of the band: at 15 kHz with an
        // 80 kHz pole the analog droop is 1/√(1+(15/80)²) ≈ 0.983.
        let pre = FirstOrder::preemphasis(fs, tau, 80_000.0);
        let de = FirstOrder::deemphasis(fs, tau);
        for f in [100.0, 1_000.0, 5_000.0, 10_000.0, 15_000.0] {
            let g = pre.magnitude_at(fs, f) * de.magnitude_at(fs, f);
            assert!((g - 1.0).abs() < 0.06, "combined gain {g} at {f} Hz");
        }
    }

    #[test]
    fn smoother_tracks_step() {
        let mut s = FirstOrder::smoother(0.1);
        let mut y = 0.0;
        for _ in 0..200 {
            y = s.push(1.0);
        }
        assert!((y - 1.0).abs() < 1e-6);
    }
}
