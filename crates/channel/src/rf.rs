//! Helpers that apply channel effects to IQ sample streams.
//!
//! The physical simulator in `fmbs-core` scales each unit-power
//! transmitter stream to an absolute power before summing the emitters
//! and adding receiver noise at the configured floor.

use crate::units::Dbm;
use fmbs_dsp::complex::Complex;

/// Scales a unit-power IQ stream so its average power corresponds to
/// `power` on the simulator's absolute scale (0 dBm ↔ unit power).
pub fn scale_to_power(iq: &mut [Complex], power: Dbm) {
    let a = power.amplitude_vs_0dbm();
    for z in iq.iter_mut() {
        *z = z.scale(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tone(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::from_angle(0.01 * i as f64))
            .collect()
    }

    #[test]
    fn scaling_sets_measured_power() {
        let mut iq = unit_tone(10_000);
        scale_to_power(&mut iq, Dbm(-30.0));
        let mw = iq.iter().map(|z| z.norm_sqr()).sum::<f64>() / iq.len() as f64;
        let p = Dbm::from_milliwatts(mw);
        assert!((p.0 + 30.0).abs() < 0.01, "{p}");
    }
}
