//! Non-coherent FSK/FDM detection (the receiver side of §3.4).
//!
//! "We implement a non-coherent FSK receiver which compares the received
//! power on the two frequencies and outputs the frequency that has the
//! higher power. This eliminates the need for phase and amplitude
//! estimation and makes the design resilient to channel changes."
//!
//! Detection is per-symbol Goertzel power comparison; symbol timing comes
//! either from a known origin (the BER experiments transmit continuously
//! from t = 0) or from the frame preamble (see [`super::frame`]).

use super::{fdm_tone_hz, Bitrate, FDM_GROUPS, FSK_ONE_HZ, FSK_ZERO_HZ};
use fmbs_dsp::goertzel::goertzel_power;

/// Non-coherent data decoder.
#[derive(Debug, Clone)]
pub struct DataDecoder {
    sample_rate: f64,
    bitrate: Bitrate,
}

impl DataDecoder {
    /// Creates a decoder for audio at `sample_rate`.
    pub fn new(sample_rate: f64, bitrate: Bitrate) -> Self {
        DataDecoder {
            sample_rate,
            bitrate,
        }
    }

    /// Samples per symbol.
    pub fn samples_per_symbol(&self) -> usize {
        (self.sample_rate / self.bitrate.symbol_rate()).round() as usize
    }

    /// Decodes `n_bits` bits from audio whose first symbol starts at
    /// sample `offset`. Returns fewer bits if the audio runs out.
    pub fn decode(&self, audio: &[f64], offset: usize, n_bits: usize) -> Vec<bool> {
        let sps = self.samples_per_symbol();
        let bps = self.bitrate.bits_per_symbol();
        let n_symbols = n_bits.div_ceil(bps);
        let mut bits = Vec::with_capacity(n_symbols * bps);
        for s in 0..n_symbols {
            let start = offset + s * sps;
            let end = start + sps;
            if end > audio.len() {
                break;
            }
            self.decode_symbol(&audio[start..end], &mut bits);
        }
        bits.truncate(n_bits);
        bits
    }

    /// Decodes a single symbol window into its bits.
    pub fn decode_symbol(&self, window: &[f64], bits: &mut Vec<bool>) {
        match self.bitrate {
            Bitrate::Bps100 => {
                let p1 = goertzel_power(window, self.sample_rate, FSK_ONE_HZ);
                let p0 = goertzel_power(window, self.sample_rate, FSK_ZERO_HZ);
                bits.push(p1 > p0);
            }
            Bitrate::Kbps1_6 | Bitrate::Kbps3_2 => {
                for g in 0..FDM_GROUPS {
                    let powers: Vec<f64> = (0..4)
                        .map(|i| goertzel_power(window, self.sample_rate, fdm_tone_hz(4 * g + i)))
                        .collect();
                    let best = powers
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .unwrap()
                        .0;
                    bits.push(best & 0b10 != 0);
                    bits.push(best & 0b01 != 0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::encoder::{test_bits, DataEncoder};
    use super::super::{bit_error_rate, Bitrate};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FS: f64 = 48_000.0;

    fn loopback(rate: Bitrate, n_bits: usize, noise_rms: f64, seed: u64) -> f64 {
        let bits = test_bits(n_bits, seed);
        let enc = DataEncoder::new(FS, rate);
        let mut wave = enc.encode(&bits);
        if noise_rms > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            for x in wave.iter_mut() {
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                *x += noise_rms * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
        let dec = DataDecoder::new(FS, rate);
        let rx = dec.decode(&wave, 0, n_bits);
        bit_error_rate(&bits, &rx)
    }

    #[test]
    fn clean_loopback_all_rates() {
        for rate in Bitrate::ALL {
            let ber = loopback(rate, 400, 0.0, 3);
            assert_eq!(ber, 0.0, "clean BER nonzero for {:?}", rate);
        }
    }

    #[test]
    fn moderate_noise_is_tolerated() {
        // Tone amplitude 0.9/4 per FDM tone; noise RMS 0.05 leaves a
        // comfortable margin for the Goertzel integrator.
        for rate in Bitrate::ALL {
            let ber = loopback(rate, 400, 0.05, 5);
            assert!(ber < 0.01, "BER {ber} under light noise for {:?}", rate);
        }
    }

    #[test]
    fn heavy_noise_breaks_higher_rates_first() {
        let ber_100 = loopback(Bitrate::Bps100, 300, 0.6, 7);
        let ber_3200 = loopback(Bitrate::Kbps3_2, 300, 0.6, 7);
        assert!(
            ber_3200 > ber_100,
            "3.2 kbps ({ber_3200}) should degrade before 100 bps ({ber_100})"
        );
    }

    #[test]
    fn extreme_noise_approaches_chance() {
        let ber = loopback(Bitrate::Kbps3_2, 800, 20.0, 9);
        assert!(ber > 0.3, "BER {ber} should be near chance");
    }

    #[test]
    fn decode_truncates_at_audio_end() {
        let enc = DataEncoder::new(FS, Bitrate::Bps100);
        let bits = test_bits(10, 1);
        let wave = enc.encode(&bits);
        let dec = DataDecoder::new(FS, Bitrate::Bps100);
        // Ask for more bits than the audio holds.
        let rx = dec.decode(&wave, 0, 20);
        assert_eq!(rx.len(), 10);
        assert_eq!(bit_error_rate(&bits, &rx[..10]), 0.0);
    }

    #[test]
    fn wrong_offset_destroys_decoding() {
        let bits = test_bits(200, 4);
        let enc = DataEncoder::new(FS, Bitrate::Kbps3_2);
        let wave = enc.encode(&bits);
        let dec = DataDecoder::new(FS, Bitrate::Kbps3_2);
        let rx = dec.decode(&wave, enc.samples_per_symbol() / 2, 200);
        let ber = bit_error_rate(&bits, &rx);
        assert!(ber > 0.05, "half-symbol offset BER {ber} suspiciously low");
    }
}
