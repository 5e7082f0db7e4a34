//! Data-to-audio encoding (the tag side of §3.4).
//!
//! The encoder emits the *audio baseband* `FM_back(τ)` the tag will FM-
//! modulate onto its square-wave subcarrier. Symbols are windowed with a
//! short raised-cosine ramp to bound spectral splatter between adjacent
//! FDM groups without meaningfully reducing tone energy.

use super::{fdm_tone_hz, Bitrate, FDM_GROUPS, FSK_ONE_HZ, FSK_ZERO_HZ};
use fmbs_dsp::TAU;

/// Fraction of the symbol ramped up/down with a raised cosine.
const RAMP_FRACTION: f64 = 0.05;

/// Peak amplitude of the emitted waveform (≤ 1.0 so the tag's FM
/// deviation stays legal).
const AMPLITUDE: f64 = 0.9;

/// Encodes bit streams into FSK/FDM audio waveforms.
#[derive(Debug, Clone)]
pub struct DataEncoder {
    sample_rate: f64,
    bitrate: Bitrate,
}

impl DataEncoder {
    /// Creates an encoder emitting audio at `sample_rate`.
    pub fn new(sample_rate: f64, bitrate: Bitrate) -> Self {
        assert!(
            sample_rate > 2.0 * 12_800.0,
            "sample rate {sample_rate} below Nyquist for the 12.8 kHz tone grid"
        );
        DataEncoder {
            sample_rate,
            bitrate,
        }
    }

    /// The configured bitrate.
    pub fn bitrate(&self) -> Bitrate {
        self.bitrate
    }

    /// Samples per symbol at this encoder's rates.
    pub fn samples_per_symbol(&self) -> usize {
        (self.sample_rate / self.bitrate.symbol_rate()).round() as usize
    }

    /// Encodes `bits` into an audio waveform. The bit count is padded with
    /// zeros up to a whole symbol.
    pub fn encode(&self, bits: &[bool]) -> Vec<f64> {
        let bps = self.bitrate.bits_per_symbol();
        let n_symbols = bits.len().div_ceil(bps);
        let sps = self.samples_per_symbol();
        let mut out = Vec::with_capacity(n_symbols * sps);
        for s in 0..n_symbols {
            let sym_bits: Vec<bool> = (0..bps)
                .map(|b| bits.get(s * bps + b).copied().unwrap_or(false))
                .collect();
            self.encode_symbol(&sym_bits, &mut out);
        }
        out
    }

    /// The tone frequencies active during a symbol carrying `sym_bits`.
    pub fn symbol_tones(&self, sym_bits: &[bool]) -> Vec<f64> {
        match self.bitrate {
            Bitrate::Bps100 => {
                vec![if sym_bits[0] { FSK_ONE_HZ } else { FSK_ZERO_HZ }]
            }
            Bitrate::Kbps1_6 | Bitrate::Kbps3_2 => {
                // Group g owns tones 4g..4g+4; two bits select one.
                (0..FDM_GROUPS)
                    .map(|g| {
                        let b0 = sym_bits[2 * g] as usize;
                        let b1 = sym_bits[2 * g + 1] as usize;
                        fdm_tone_hz(4 * g + (b0 << 1 | b1))
                    })
                    .collect()
            }
        }
    }

    fn encode_symbol(&self, sym_bits: &[bool], out: &mut Vec<f64>) {
        let tones = self.symbol_tones(sym_bits);
        let sps = self.samples_per_symbol();
        let per_tone = AMPLITUDE / tones.len() as f64;
        let ramp = (sps as f64 * RAMP_FRACTION) as usize;
        let start = out.len();
        for k in 0..sps {
            let t = (start + k) as f64 / self.sample_rate;
            let mut v = 0.0;
            for &f in &tones {
                v += per_tone * (TAU * f * t).sin();
            }
            // Raised-cosine edges.
            let env = if k < ramp {
                0.5 - 0.5 * (std::f64::consts::PI * k as f64 / ramp as f64).cos()
            } else if k >= sps - ramp {
                let j = sps - 1 - k;
                0.5 - 0.5 * (std::f64::consts::PI * j as f64 / ramp as f64).cos()
            } else {
                1.0
            };
            out.push(v * env);
        }
    }
}

/// Generates a deterministic pseudo-random payload of `n` bits — the
/// equivalent of the paper's "continuous 8 s data transmissions".
pub fn test_bits(n: usize, seed: u64) -> Vec<bool> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::goertzel::goertzel_power;

    const FS: f64 = 48_000.0;

    #[test]
    fn fsk_symbol_contains_correct_tone() {
        let enc = DataEncoder::new(FS, Bitrate::Bps100);
        let one = enc.encode(&[true]);
        let zero = enc.encode(&[false]);
        assert!(
            goertzel_power(&one, FS, FSK_ONE_HZ) > 50.0 * goertzel_power(&one, FS, FSK_ZERO_HZ)
        );
        assert!(
            goertzel_power(&zero, FS, FSK_ZERO_HZ) > 50.0 * goertzel_power(&zero, FS, FSK_ONE_HZ)
        );
    }

    #[test]
    fn symbol_length_matches_rate() {
        for (rate, sps) in [
            (Bitrate::Bps100, 480),
            (Bitrate::Kbps1_6, 240),
            (Bitrate::Kbps3_2, 120),
        ] {
            assert_eq!(DataEncoder::new(FS, rate).samples_per_symbol(), sps);
        }
    }

    #[test]
    fn fdm_symbol_has_one_tone_per_group() {
        let enc = DataEncoder::new(FS, Bitrate::Kbps1_6);
        // bits 11 01 00 10 → groups select tone 3, 1, 0, 2.
        let bits = [true, true, false, true, false, false, true, false];
        let tones = enc.symbol_tones(&bits);
        assert_eq!(
            tones,
            vec![
                fdm_tone_hz(3),  // group 0, index 0b11
                fdm_tone_hz(5),  // group 1, index 0b01
                fdm_tone_hz(8),  // group 2, index 0b00
                fdm_tone_hz(14), // group 3, index 0b10
            ]
        );
        // And the waveform really contains them.
        let wave = enc.encode(&bits);
        for &f in &tones {
            let p_on = goertzel_power(&wave, FS, f);
            // Compare with an inactive tone in the same group.
            let p_off = goertzel_power(&wave, FS, fdm_tone_hz(2));
            assert!(p_on > 20.0 * p_off, "tone {f} on {p_on} off {p_off}");
        }
    }

    #[test]
    fn amplitude_is_bounded() {
        let enc = DataEncoder::new(FS, Bitrate::Kbps3_2);
        let wave = enc.encode(&test_bits(160, 1));
        assert!(wave.iter().all(|x| x.abs() <= 0.9 + 1e-9));
    }

    #[test]
    fn padding_to_whole_symbols() {
        let enc = DataEncoder::new(FS, Bitrate::Kbps1_6);
        // 5 bits → one 8-bit symbol after padding.
        let wave = enc.encode(&[true; 5]);
        assert_eq!(wave.len(), enc.samples_per_symbol());
    }

    #[test]
    fn test_bits_are_deterministic_and_balanced() {
        let a = test_bits(10_000, 7);
        let b = test_bits(10_000, 7);
        assert_eq!(a, b);
        let ones = a.iter().filter(|&&x| x).count();
        assert!((ones as f64 / 10_000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn low_sample_rate_panics() {
        let _ = DataEncoder::new(20_000.0, Bitrate::Bps100);
    }
}
