//! Noise sources and floors.
//!
//! The receiver noise floor determines where each backscatter mode stops
//! working: the paper notes FM receiver sensitivity around −100 dBm
//! (§3.1), and that "the noise floor may instead be limited by power leaked
//! from an adjacent channel" (§3.3) — both effects are modelled here.

use crate::units::{sum_powers, Db, Dbm};
use fmbs_dsp::complex::Complex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Thermal noise power in a bandwidth, at temperature `t_kelvin`, with a
/// receiver noise figure.
pub fn thermal_noise_floor(bandwidth_hz: f64, t_kelvin: f64, noise_figure: Db) -> Dbm {
    let watts = BOLTZMANN * t_kelvin * bandwidth_hz;
    Dbm::from_watts(watts) + noise_figure
}

/// Standard 290 K floor with a given noise figure over an FM channel
/// (200 kHz): ≈ −120.8 dBm + NF.
pub fn fm_channel_noise_floor(noise_figure: Db) -> Dbm {
    thermal_noise_floor(200_000.0, 290.0, noise_figure)
}

/// Effective in-channel noise: thermal floor plus adjacent-channel leakage
/// (the stronger ambient station attenuated by the receiver's
/// adjacent-channel rejection).
pub fn effective_noise_floor(noise_figure: Db, adjacent_power: Dbm, adjacent_rejection: Db) -> Dbm {
    sum_powers(&[
        fm_channel_noise_floor(noise_figure),
        adjacent_power - adjacent_rejection,
    ])
}

/// A seeded complex AWGN source with a specified per-sample variance.
///
/// For a noise power `P` (linear, relative to a unit-power signal) the
/// per-component standard deviation is `sqrt(P/2)` so that
/// `E[|n|²] = P`.
#[derive(Debug)]
pub struct AwgnSource {
    rng: StdRng,
    sigma_per_component: f64,
}

impl AwgnSource {
    /// Creates a source producing complex noise with total power
    /// `noise_power_linear` per sample.
    pub fn new(noise_power_linear: f64, seed: u64) -> Self {
        assert!(noise_power_linear >= 0.0);
        AwgnSource {
            rng: StdRng::seed_from_u64(seed),
            sigma_per_component: (noise_power_linear / 2.0).sqrt(),
        }
    }

    /// One complex noise sample.
    #[inline]
    pub fn next_complex(&mut self) -> Complex {
        Complex::new(
            self.gaussian() * self.sigma_per_component,
            self.gaussian() * self.sigma_per_component,
        )
    }

    /// Adds noise to an IQ buffer in place.
    pub fn corrupt(&mut self, iq: &mut [Complex]) {
        for z in iq.iter_mut() {
            *z += self.next_complex();
        }
    }

    fn gaussian(&mut self) -> f64 {
        crate::pathloss::gaussian(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_floor_anchor() {
        // kTB at 290 K over 200 kHz = −120.97 dBm.
        let floor = thermal_noise_floor(200_000.0, 290.0, Db(0.0));
        assert!((floor.0 + 120.97).abs() < 0.05, "{floor}");
    }

    #[test]
    fn noise_figure_raises_floor() {
        let nf0 = fm_channel_noise_floor(Db(0.0));
        let nf9 = fm_channel_noise_floor(Db(9.0));
        assert!(((nf9 - nf0).0 - 9.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_leak_dominates_when_strong() {
        // A −20 dBm adjacent station with 60 dB rejection leaves −80 dBm —
        // far above the −111 dBm thermal floor (NF 10 dB): exactly the
        // §3.3 observation.
        let floor = effective_noise_floor(Db(10.0), Dbm(-20.0), Db(60.0));
        assert!((floor.0 + 80.0).abs() < 0.1, "{floor}");
    }

    #[test]
    fn thermal_dominates_when_adjacent_weak() {
        // Thermal −110.97 dBm (NF 10) vs a −150 dBm leak: thermal wins.
        let floor = effective_noise_floor(Db(10.0), Dbm(-90.0), Db(60.0));
        assert!((floor.0 + 110.97).abs() < 0.05, "{floor}");
    }

    #[test]
    fn awgn_power_matches_request() {
        let mut src = AwgnSource::new(0.01, 3);
        let mut acc = 0.0;
        let n = 100_000;
        for _ in 0..n {
            acc += src.next_complex().norm_sqr();
        }
        let measured = acc / n as f64;
        assert!((measured - 0.01).abs() < 0.001, "measured {measured}");
    }

    #[test]
    fn awgn_is_deterministic_per_seed() {
        let mut a = AwgnSource::new(1.0, 42);
        let mut b = AwgnSource::new(1.0, 42);
        for _ in 0..100 {
            assert_eq!(a.next_complex(), b.next_complex());
        }
    }
}
