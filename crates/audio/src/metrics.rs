//! Audio measurement utilities.
//!
//! [`tone_snr_db`] is the measurement of §5.1: "we compute SNR by comparing
//! the power at the frequency corresponding to the transmitted tone and the
//! average power of the other audio frequencies … `P_5kHz / (Σ_f P_f −
//! P_5kHz)`". It backs Figs. 6, 7 and 14a.

/// Single-tone SNR in dB: tone power at `f_tone` versus all other audio
/// power, over the analysis segment.
///
/// Implemented by least-squares projection onto `sin`/`cos` at the tone
/// frequency: the residual after subtracting the fitted tone *is* the
/// non-tone power, exactly, with none of the spectral-leakage bias a
/// Goertzel-minus-total estimate suffers on nearly-clean signals.
pub fn tone_snr_db(audio: &[f64], sample_rate: f64, f_tone: f64) -> f64 {
    if audio.is_empty() {
        return f64::NEG_INFINITY;
    }
    let n = audio.len() as f64;
    let w = std::f64::consts::TAU * f_tone / sample_rate;
    let mut ss = 0.0;
    let mut sc = 0.0;
    for (i, &x) in audio.iter().enumerate() {
        let (s, c) = (w * i as f64).sin_cos();
        ss += x * s;
        sc += x * c;
    }
    // For large n the basis is orthogonal with norm n/2.
    let a = 2.0 * ss / n;
    let b = 2.0 * sc / n;
    let mut p_resid = 0.0;
    for (i, &x) in audio.iter().enumerate() {
        let (s, c) = (w * i as f64).sin_cos();
        let r = x - a * s - b * c;
        p_resid += r * r;
    }
    p_resid /= n;
    let p_tone = (a * a + b * b) / 2.0;
    10.0 * (p_tone.max(1e-300) / p_resid.max(1e-15)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::TAU;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FS: f64 = 48_000.0;

    fn tone(f: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / FS).sin())
            .collect()
    }

    fn noise(n: usize, rms: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Uniform noise with the requested RMS (±√3·rms).
                (rng.gen::<f64>() * 2.0 - 1.0) * rms * 3f64.sqrt()
            })
            .collect()
    }

    #[test]
    fn clean_tone_has_high_snr() {
        let sig = tone(1_000.0, 48_000, 0.8);
        assert!(tone_snr_db(&sig, FS, 1_000.0) > 40.0);
    }

    #[test]
    fn known_snr_is_recovered() {
        // Tone power 0.5·0.8² = 0.32; noise power 0.0032 ⇒ 20 dB.
        let n = 480_000;
        let sig = tone(1_000.0, n, 0.8);
        let nz = noise(n, 0.0032f64.sqrt(), 1);
        let mixed: Vec<f64> = sig.iter().zip(&nz).map(|(a, b)| a + b).collect();
        let snr = tone_snr_db(&mixed, FS, 1_000.0);
        assert!((snr - 20.0).abs() < 1.0, "measured {snr}");
    }

    #[test]
    fn snr_is_monotone_in_noise() {
        let n = 96_000;
        let sig = tone(5_000.0, n, 0.5);
        let mut prev = f64::INFINITY;
        for (i, rms) in [0.001, 0.01, 0.1, 0.3].iter().enumerate() {
            let nz = noise(n, *rms, i as u64);
            let mixed: Vec<f64> = sig.iter().zip(&nz).map(|(a, b)| a + b).collect();
            let snr = tone_snr_db(&mixed, FS, 5_000.0);
            assert!(snr < prev);
            prev = snr;
        }
    }

    #[test]
    fn empty_input_is_neg_infinity() {
        assert_eq!(tone_snr_db(&[], FS, 1_000.0), f64::NEG_INFINITY);
    }
}
