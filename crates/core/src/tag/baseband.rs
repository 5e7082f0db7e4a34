//! Tag baseband synthesis: building `FM_back(τ)`.
//!
//! What the tag puts in its baseband decides the backscatter mode:
//!
//! * **overlay audio** — the payload audio itself, placed in the mono
//!   band (§3.3, "to overlay audio we set FM_back(τ) to follow the
//!   structure of the audio baseband signal");
//! * **overlay data** — the FSK/FDM waveform of §3.4, which
//!   [`crate::modem::encoder::DataEncoder`] builds;
//! * **stereo backscatter** — the payload DSB-SC-modulated onto 38 kHz,
//!   with `0.9·FM_stereo + 0.1·pilot` when the host is mono (§3.3.1), or
//!   no pilot when the host is a stereo station;
//! * an optional **13 kHz cooperative-calibration preamble** (§3.3).

use crate::COOP_PILOT_HZ;
use fmbs_dsp::resample::resample_linear;
use fmbs_dsp::TAU;
use fmbs_fm::baseband::{MpxComposer, MpxLevels};

/// Builder for tag baseband streams at the tag's output sample rate.
#[derive(Debug, Clone, Copy)]
pub struct BasebandBuilder {
    /// Output sample rate (the simulation/switch rate).
    pub sample_rate: f64,
}

impl BasebandBuilder {
    /// Creates a builder.
    pub fn new(sample_rate: f64) -> Self {
        BasebandBuilder { sample_rate }
    }

    /// Overlay audio: resamples payload audio (at `audio_rate`) to the tag
    /// rate, scaled to a peak of `level` (≤ 1).
    pub fn overlay_audio(&self, audio: &[f64], audio_rate: f64, level: f64) -> Vec<f64> {
        assert!(level > 0.0 && level <= 1.0);
        let mut out = resample_linear(audio, audio_rate, self.sample_rate);
        let peak = out.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        if peak > 0.0 {
            let k = level / peak;
            for x in out.iter_mut() {
                *x *= k;
            }
        }
        out
    }

    /// Stereo backscatter baseband: payload placed in the L−R band.
    ///
    /// * `inject_pilot` — true when the host station is mono, so the tag
    ///   must supply the 19 kHz pilot itself (0.1 injection, with the
    ///   payload at 0.9 as in §3.3.1); false for stereo hosts, which
    ///   already broadcast a pilot ("we do not backscatter the pilot
    ///   tone").
    pub fn stereo_payload(
        &self,
        payload: &[f64],
        payload_rate: f64,
        inject_pilot: bool,
    ) -> Vec<f64> {
        let p = resample_linear(payload, payload_rate, self.sample_rate);
        let levels = if inject_pilot {
            MpxLevels::stereo_backscatter() // 0.9 stereo + 0.1 pilot
        } else {
            MpxLevels {
                mono: 0.0,
                pilot: 0.0,
                stereo: 0.9,
                rds: 0.0,
            }
        };
        let mut composer = MpxComposer::new(self.sample_rate, levels);
        // Payload on L−R: left = +p, right = −p ⇒ (L−R)/2 = p.
        let right: Vec<f64> = p.iter().map(|x| -x).collect();
        composer.compose_buffer(&p, &right, &[])
    }

    /// Prefixes a 13 kHz calibration pilot of `duration_s` seconds at
    /// amplitude `level`, and mixes a continuous low-level pilot under the
    /// payload — cooperative backscatter's amplitude reference (§3.3:
    /// "we compare the amplitude of this pilot tone during the preamble
    /// with the same pilot sent during the audio/data transmission").
    pub fn with_coop_pilot(&self, payload: &[f64], duration_s: f64, level: f64) -> Vec<f64> {
        let n_pre = (self.sample_rate * duration_s) as usize;
        let mut out = Vec::with_capacity(n_pre + payload.len());
        for i in 0..n_pre {
            out.push(level * (TAU * COOP_PILOT_HZ * i as f64 / self.sample_rate).sin());
        }
        for (i, &x) in payload.iter().enumerate() {
            let t = (n_pre + i) as f64 / self.sample_rate;
            // Keep the pilot running under the payload at the same level;
            // scale payload headroom accordingly.
            out.push((1.0 - level) * x + level * (TAU * COOP_PILOT_HZ * t).sin());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::goertzel::goertzel_power;
    use fmbs_fm::baseband::measure_band_powers;

    const FS: f64 = 480_000.0;

    #[test]
    fn overlay_audio_is_resampled_and_scaled() {
        let audio: Vec<f64> = (0..4_800)
            .map(|i| 2.0 * (TAU * 440.0 * i as f64 / 48_000.0).sin())
            .collect();
        let bb = BasebandBuilder::new(FS).overlay_audio(&audio, 48_000.0, 0.8);
        assert_eq!(bb.len(), 48_000); // 0.1 s at 480 kHz
        let peak = bb.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!((peak - 0.8).abs() < 0.01, "peak {peak}");
        let p = goertzel_power(&bb, FS, 440.0);
        assert!(p > 0.05, "tone power {p}");
    }

    #[test]
    fn stereo_payload_occupies_stereo_band_with_pilot() {
        let payload: Vec<f64> = (0..48_000)
            .map(|i| 0.8 * (TAU * 2_000.0 * i as f64 / 48_000.0).sin())
            .collect();
        let bb = BasebandBuilder::new(FS).stereo_payload(&payload, 48_000.0, true);
        let p = measure_band_powers(&bb, FS);
        assert!(
            p.stereo > 10.0 * p.mono.max(1e-15),
            "stereo {} mono {}",
            p.stereo,
            p.mono
        );
        assert!(p.pilot > 1e-4, "pilot missing: {}", p.pilot);
    }

    #[test]
    fn stereo_payload_without_pilot_for_stereo_hosts() {
        let payload: Vec<f64> = (0..48_000)
            .map(|i| 0.8 * (TAU * 2_000.0 * i as f64 / 48_000.0).sin())
            .collect();
        let bb = BasebandBuilder::new(FS).stereo_payload(&payload, 48_000.0, false);
        let p = measure_band_powers(&bb, FS);
        assert!(
            p.pilot < p.stereo / 1_000.0,
            "pilot {} stereo {}",
            p.pilot,
            p.stereo
        );
    }

    #[test]
    fn coop_pilot_preamble_then_payload() {
        let builder = BasebandBuilder::new(48_000.0);
        let payload = vec![0.5; 24_000];
        let out = builder.with_coop_pilot(&payload, 0.25, 0.1);
        let n_pre = (48_000.0 * 0.25) as usize;
        assert_eq!(out.len(), n_pre + payload.len());
        // Preamble: pure 13 kHz at 0.1.
        let p_pre = goertzel_power(&out[..n_pre], 48_000.0, COOP_PILOT_HZ);
        assert!(
            (p_pre - 0.0025).abs() < 5e-4,
            "preamble pilot power {p_pre}"
        );
        // Pilot continues under the payload.
        let p_body = goertzel_power(&out[n_pre..], 48_000.0, COOP_PILOT_HZ);
        assert!(p_body > 0.001, "body pilot power {p_body}");
    }

    #[test]
    fn silence_stays_silent() {
        let bb = BasebandBuilder::new(FS).overlay_audio(&[0.0; 100], 48_000.0, 0.9);
        assert!(bb.iter().all(|&x| x == 0.0));
    }
}
