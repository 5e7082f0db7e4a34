//! Cooperative backscatter (§3.3): two phones as a 2×1 MIMO canceller.
//!
//! Phone 1 tunes to the backscatter channel (`fc + f_back`) and hears
//! `FM_audio + FM_back`; phone 2 tunes to the host channel (`fc`) and
//! hears `FM_audio` alone:
//!
//! ```text
//!   S_phone1 = FM_audio(t) + FM_back(t)
//!   S_phone2 = FM_audio(t)
//! ```
//!
//! Two equations, two unknowns — subtract to recover `FM_back` with *no*
//! programme interference. Two practical obstacles, both from the paper
//! and both handled here:
//!
//! 1. the receivers are not time-synchronised → "we resample the signals
//!    on the two phones, in software, by a factor of ten" and
//!    cross-correlate;
//! 2. hardware gain control scales the audio differently → a
//!    least-squares projection of phone 2's host copy onto phone 1's
//!    composite sets the amplitude before subtraction.
//!
//! The paper calibrates amplitude with a 13 kHz preamble pilot instead.
//! The tag still sends that pilot ([`Workload::CoopAudio`]), but this
//! decoder never measures it: [`CoopPesq`] only notches it out of the
//! recovered audio before scoring.
//!
//! The experiment itself (Fig. 12) is [`CoopPesq`] evaluated on a
//! [`Workload::CoopAudio`] scenario.
//!
//! [`Workload::CoopAudio`]: crate::sim::scenario::Workload::CoopAudio
//! [`CoopPesq`]: crate::sim::metric::CoopPesq

use fmbs_dsp::corr::find_lag;
use fmbs_dsp::resample::Upsampler;

/// The §3.3 resampling factor.
pub const RESAMPLE_FACTOR: usize = 10;

/// Result of cooperative decoding.
#[derive(Debug, Clone)]
pub struct CoopResult {
    /// The recovered backscatter audio (at the original audio rate).
    pub payload: Vec<f64>,
    /// Estimated phone-2 delay in tenths of a sample (upsampled lag).
    pub lag_tenths: isize,
    /// Estimated amplitude of the host audio inside phone 1's signal
    /// relative to phone 2's copy (the AGC correction).
    pub gain: f64,
}

/// The cooperative decoder.
#[derive(Debug, Clone, Copy)]
pub struct CooperativeDecoder {
    /// Audio sample rate of both phones.
    pub sample_rate: f64,
    /// Maximum inter-phone misalignment searched, in seconds.
    pub max_lag_s: f64,
}

impl CooperativeDecoder {
    /// Creates a decoder with the paper's defaults.
    pub fn new(sample_rate: f64) -> Self {
        CooperativeDecoder {
            sample_rate,
            max_lag_s: 0.05,
        }
    }

    /// Decodes the backscatter payload from the two phones' audio.
    pub fn decode(&self, phone1: &[f64], phone2: &[f64]) -> CoopResult {
        // 1. Resample both by 10 (§3.3).
        let (s1, s2) = {
            fmbs_obs::span!(fmbs_obs::stages::COOP_UPSAMPLE);
            let mut up1 = Upsampler::new(RESAMPLE_FACTOR, 8);
            let mut up2 = Upsampler::new(RESAMPLE_FACTOR, 8);
            (up1.process(phone1), up2.process(phone2))
        };

        // 2. Time-align via cross-correlation on a bounded window. Use a
        //    prefix segment for the search to bound cost.
        let max_lag = ((self.max_lag_s * self.sample_rate) as usize * RESAMPLE_FACTOR)
            .min(s1.len().saturating_sub(1) / 2);
        let search_len = (s1.len().min(s2.len())).min(
            (self.sample_rate as usize) * RESAMPLE_FACTOR, // 1 s of upsampled audio
        );
        let lag = {
            fmbs_obs::span!(fmbs_obs::stages::COOP_LAG_SEARCH);
            find_lag(&s1[..search_len], &s2[..search_len], max_lag)
        };

        // 3. Overlap the aligned region: s2 delayed by `lag` relative to s1
        //    means s2[i + lag] lines up with s1[i].
        let (start1, start2) = if lag >= 0 {
            (0usize, lag as usize)
        } else {
            ((-lag) as usize, 0usize)
        };
        let n = (s1.len() - start1).min(s2.len() - start2);
        let a = &s1[start1..start1 + n];
        let b = &s2[start2..start2 + n];

        // 4. Amplitude calibration: least-squares projection of the host
        //    copy onto phone 1's composite.
        let dot_ab: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        let dot_bb: f64 = b.iter().map(|y| y * y).sum();
        let gain = if dot_bb > 0.0 { dot_ab / dot_bb } else { 0.0 };

        // 5. Subtract and decimate back to the original rate.
        let payload: Vec<f64> = (0..n / RESAMPLE_FACTOR)
            .map(|i| {
                let k = i * RESAMPLE_FACTOR;
                a[k] - gain * b[k]
            })
            .collect();
        CoopResult {
            payload,
            lag_tenths: lag,
            gain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fast::{FastSim, FAST_AUDIO_RATE};
    use crate::sim::metric::{CoopPesq, Metric, Pesq};
    use crate::sim::scenario::{Scenario, Workload};
    use fmbs_audio::program::ProgramKind;
    use fmbs_dsp::goertzel::goertzel_power;
    use fmbs_dsp::TAU;

    /// Cooperative PESQ of `secs` of payload speech behind the 13 kHz
    /// calibration pilot (Fig. 12).
    fn coop_pesq(scenario: Scenario, secs: f64) -> f64 {
        let s = scenario
            .with_workload(Workload::coop_audio(secs).with_payload_seed(scenario.seed ^ 0xC0));
        CoopPesq.evaluate(&FastSim, &s)
    }

    #[test]
    fn decoder_cancels_shared_host_audio() {
        // Synthetic check: phone1 = host + payload, phone2 = 0.6·host
        // delayed; decoding must recover the payload and kill the host.
        let fs = FAST_AUDIO_RATE;
        let n = 48_000;
        let host: Vec<f64> = (0..n)
            .map(|i| {
                0.8 * (TAU * 700.0 * i as f64 / fs).sin()
                    + 0.3 * (TAU * 2_900.0 * i as f64 / fs).sin()
            })
            .collect();
        let payload: Vec<f64> = (0..n)
            .map(|i| 0.5 * (TAU * 5_000.0 * i as f64 / fs).sin())
            .collect();
        let phone1: Vec<f64> = host.iter().zip(&payload).map(|(h, p)| h + p).collect();
        let delay = 37;
        let mut phone2 = vec![0.0; n];
        for i in delay..n {
            phone2[i] = 0.6 * host[i - delay];
        }
        let dec = CooperativeDecoder::new(fs);
        let res = dec.decode(&phone1, &phone2);
        // Lag should be −delay·10 (phone2 content *lags* phone1 by delay
        // samples, so aligning requires shifting): accept either sign
        // convention as long as cancellation worked.
        let out = &res.payload[2_000..res.payload.len() - 2_000];
        let p_host = goertzel_power(out, fs, 700.0);
        let p_payload = goertzel_power(out, fs, 5_000.0);
        assert!(
            p_payload > 30.0 * p_host.max(1e-15),
            "payload {p_payload} vs residual host {p_host} (lag {})",
            res.lag_tenths
        );
    }

    #[test]
    fn coop_pesq_near_four_at_good_power() {
        // Fig. 12: "cooperative backscatter has high PESQ values of around
        // 4 for different power values between −20 and −50 dBm."
        let score = coop_pesq(Scenario::bench(-30.0, 8.0, ProgramKind::News), 3.0);
        assert!(score > 3.2, "coop PESQ {score}");
    }

    #[test]
    fn coop_works_at_minus_50_dbm() {
        // The power where stereo backscatter already fails (§5.3).
        let score = coop_pesq(Scenario::bench(-50.0, 6.0, ProgramKind::News), 3.0);
        assert!(score > 2.5, "coop PESQ at −50 dBm: {score}");
    }

    #[test]
    fn coop_beats_overlay() {
        let scenario = Scenario::bench(-30.0, 8.0, ProgramKind::RockMusic);
        let coop = coop_pesq(scenario, 3.0);
        let overlay =
            scenario.with_workload(Workload::speech(3.0).with_payload_seed(scenario.seed ^ 0xBEEF));
        let overlay = Pesq.evaluate(&FastSim, &overlay);
        assert!(coop > overlay + 0.7, "coop {coop} vs overlay {overlay}");
    }
}
