//! Goertzel single-bin DFT.
//!
//! The paper's data receiver is a *non-coherent FSK detector*: for each
//! symbol window it "compares the received power on the two frequencies and
//! outputs the frequency that has the higher power" (§3.4). The Goertzel
//! algorithm computes exactly that per-tone power at `O(N)` per tone without
//! a full FFT, which is also how a low-power smartphone implementation would
//! do it.

use crate::TAU;

/// Computes the power of `signal` at frequency `freq` (Hz) for a signal
/// sampled at `sample_rate` (Hz).
///
/// The returned value is `|X(f)|²` normalised by `N²` so that a unit-
/// amplitude sinusoid at exactly `freq` yields ~0.25 independent of window
/// length.
pub fn goertzel_power(signal: &[f64], sample_rate: f64, freq: f64) -> f64 {
    let n = signal.len();
    if n == 0 {
        return 0.0;
    }
    let omega = TAU * freq / sample_rate;
    let coeff = 2.0 * omega.cos();
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
    power / (n as f64 * n as f64)
}

/// A streaming Goertzel detector that can be fed sample-by-sample and
/// queried at symbol boundaries. Equivalent to [`goertzel_power`] over the
/// samples seen since the last [`StreamingGoertzel::reset`].
#[derive(Debug, Clone)]
pub struct StreamingGoertzel {
    coeff: f64,
    s_prev: f64,
    s_prev2: f64,
    count: usize,
}

impl StreamingGoertzel {
    /// Creates a detector for `freq` Hz at `sample_rate` Hz.
    pub fn new(sample_rate: f64, freq: f64) -> Self {
        let omega = TAU * freq / sample_rate;
        StreamingGoertzel {
            coeff: 2.0 * omega.cos(),
            s_prev: 0.0,
            s_prev2: 0.0,
            count: 0,
        }
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        let s = x + self.coeff * self.s_prev - self.s_prev2;
        self.s_prev2 = self.s_prev;
        self.s_prev = s;
        self.count += 1;
    }

    /// Normalised power accumulated so far.
    pub fn power(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = self.s_prev * self.s_prev + self.s_prev2 * self.s_prev2
            - self.coeff * self.s_prev * self.s_prev2;
        p / (self.count as f64 * self.count as f64)
    }

    /// Clears accumulated state for the next symbol window.
    pub fn reset(&mut self) {
        self.s_prev = 0.0;
        self.s_prev2 = 0.0;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn detects_matching_tone() {
        let fs = 48_000.0;
        let sig = tone(fs, 8_000.0, 480, 1.0);
        let p = goertzel_power(&sig, fs, 8_000.0);
        assert!((p - 0.25).abs() < 0.01, "power {p}");
    }

    #[test]
    fn rejects_mismatched_tone() {
        let fs = 48_000.0;
        // 100 sym/s windows are 480 samples; 8 kHz vs 12 kHz (paper's 2-FSK
        // frequencies) must separate cleanly.
        let sig = tone(fs, 12_000.0, 480, 1.0);
        let p_right = goertzel_power(&sig, fs, 12_000.0);
        let p_wrong = goertzel_power(&sig, fs, 8_000.0);
        assert!(p_right > 100.0 * p_wrong, "{p_right} vs {p_wrong}");
    }

    #[test]
    fn amplitude_scaling_is_quadratic() {
        let fs = 48_000.0;
        let p1 = goertzel_power(&tone(fs, 1_000.0, 4_800, 1.0), fs, 1_000.0);
        let p2 = goertzel_power(&tone(fs, 1_000.0, 4_800, 2.0), fs, 1_000.0);
        assert!((p2 / p1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn empty_signal_is_zero() {
        assert_eq!(goertzel_power(&[], 48_000.0, 1_000.0), 0.0);
    }

    #[test]
    fn streaming_matches_batch() {
        let fs = 44_100.0;
        let sig = tone(fs, 5_000.0, 441, 0.7);
        let batch = goertzel_power(&sig, fs, 5_000.0);
        let mut det = StreamingGoertzel::new(fs, 5_000.0);
        for &x in &sig {
            det.push(x);
        }
        assert!((det.power() - batch).abs() < 1e-12);
        det.reset();
        assert_eq!(det.power(), 0.0);
    }

    #[test]
    fn bank_orders_tones_correctly() {
        let fs = 48_000.0;
        // Paper's FDM-4FSK grid: 16 tones, 800 Hz spacing, 800..12800 Hz.
        let freqs: Vec<f64> = (1..=16).map(|k| 800.0 * k as f64).collect();
        let sig = tone(fs, 4_000.0, 240, 1.0); // 200 sym/s window
        let bank: Vec<f64> = freqs.iter().map(|&f| goertzel_power(&sig, fs, f)).collect();
        let argmax = bank
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(freqs[argmax], 4_000.0);
    }
}
