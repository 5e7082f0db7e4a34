//! Maximal-ratio combining (§3.4).
//!
//! "We consider the original audio from the ambient FM signal to be noise,
//! which we assume is not correlated over time; therefore we can use
//! maximal-ratio combining to reduce the bit-error rates. Specifically, we
//! backscatter our data N times and record the raw signals for each
//! transmission. Our receiver then uses the sum of these raw signals in
//! order to decode the data." The payload repeats identically, the host
//! programme does not — so summing N recordings grows payload amplitude by
//! N but interference amplitude only by √N, an SNR gain of up to N (Fig. 9).

/// Sums `n` repeated recordings sample-by-sample, truncating to the
/// shortest. At least one recording is required.
pub fn combine(recordings: &[Vec<f64>]) -> Vec<f64> {
    assert!(!recordings.is_empty(), "MRC needs at least one recording");
    let n = recordings.iter().map(|r| r.len()).min().unwrap();
    let mut out = vec![0.0; n];
    for rec in recordings {
        for (o, &x) in out.iter_mut().zip(rec.iter()) {
            *o += x;
        }
    }
    out
}

/// Theoretical SNR gain of N-fold MRC in dB (up to `10·log10(N)` when the
/// interference is uncorrelated across repetitions).
pub fn ideal_gain_db(n: usize) -> f64 {
    10.0 * (n as f64).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::decoder::DataDecoder;
    use crate::modem::encoder::{test_bits, DataEncoder};
    use crate::modem::{bit_error_rate, Bitrate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FS: f64 = 48_000.0;

    fn gaussian(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    #[test]
    fn combining_identical_signals_scales_amplitude() {
        let sig: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        let combined = combine(&[sig.clone(), sig.clone(), sig.clone()]);
        for (a, b) in combined.iter().zip(sig.iter()) {
            assert!((a - 3.0 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn snr_gain_matches_theory() {
        // Signal + independent noise per repetition: combining 4 copies
        // should gain ≈ 6 dB.
        let n = 48_000;
        let sig: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * 1_000.0 * i as f64 / FS).sin())
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let make_noisy = |rng: &mut StdRng| -> Vec<f64> {
            sig.iter().map(|x| x + 0.5 * gaussian(rng)).collect()
        };
        let single = make_noisy(&mut rng);
        let four = combine(&[
            make_noisy(&mut rng),
            make_noisy(&mut rng),
            make_noisy(&mut rng),
            make_noisy(&mut rng),
        ]);
        let snr1 = fmbs_audio::metrics::tone_snr_db(&single, FS, 1_000.0);
        let snr4 = fmbs_audio::metrics::tone_snr_db(&four, FS, 1_000.0);
        let gain = snr4 - snr1;
        assert!(
            (gain - ideal_gain_db(4)).abs() < 1.5,
            "measured MRC gain {gain} dB"
        );
    }

    #[test]
    fn mrc_reduces_ber_under_interference() {
        // The Fig. 9 situation: payload identical across repetitions,
        // interference independent.
        let bits = test_bits(240, 2);
        let enc = DataEncoder::new(FS, Bitrate::Kbps1_6);
        let clean = enc.encode(&bits);
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = |rng: &mut StdRng| -> Vec<f64> {
            clean.iter().map(|x| x + 0.55 * gaussian(rng)).collect()
        };
        let dec = DataDecoder::new(FS, Bitrate::Kbps1_6);
        let single = noisy(&mut rng);
        let ber1 = bit_error_rate(&bits, &dec.decode(&single, 0, bits.len()));
        let combined = combine(&[noisy(&mut rng), noisy(&mut rng)]);
        let ber2 = bit_error_rate(&bits, &dec.decode(&combined, 0, bits.len()));
        assert!(
            ber2 < ber1 || ber1 == 0.0,
            "2x MRC BER {ber2} not below single BER {ber1}"
        );
    }

    #[test]
    fn ideal_gains() {
        assert_eq!(ideal_gain_db(1), 0.0);
        assert!((ideal_gain_db(2) - 3.01).abs() < 0.01);
        assert!((ideal_gain_db(4) - 6.02).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_combine_panics() {
        let _ = combine(&[]);
    }
}
