//! Figure-regeneration smoke tests: every experiment of the paper's
//! evaluation runs and reproduces its headline *shape*. (The dense grids
//! run in `repro --full`; these use reduced parameters.)

use fmbs_audio::program::ProgramKind;
use fmbs_channel::fading::MotionProfile;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::{Ber, BerMrc, Metric};
use fmbs_core::sim::scenario::{Scenario, Workload};

/// `s` carrying `n_bits` of overlay data, seeded from the scenario.
fn overlay_data(s: Scenario, bitrate: Bitrate, n_bits: usize) -> Scenario {
    s.with_workload(Workload::data(bitrate, n_bits).with_payload_seed(s.seed ^ 0xDA7A))
}

fn overlay_ber(s: Scenario, bitrate: Bitrate, n_bits: usize) -> f64 {
    Ber.evaluate(&FastSim, &overlay_data(s, bitrate, n_bits))
}

#[test]
fn fig8_shape_rate_vs_range() {
    // At −50 dBm near the edge of range: 100 bps still works; 3.2 kbps
    // collapses (clicks flip its short symbols first).
    let far = 19.0;
    let s = Scenario::bench(-50.0, far, ProgramKind::News);
    let ber_low = overlay_ber(s, Bitrate::Bps100, 300);
    let ber_high = overlay_ber(s, Bitrate::Kbps3_2, 300);
    assert!(ber_low < 0.05, "100 bps at {far} ft: {ber_low}");
    assert!(
        ber_high > ber_low,
        "3.2 kbps ({ber_high}) must exceed 100 bps ({ber_low})"
    );
}

#[test]
fn fig8_shape_power_ordering() {
    // BER at a fixed geometry is monotone (weakly) in ambient power.
    let mut prev = -1.0;
    for p in [-20.0, -40.0, -60.0] {
        let s = Scenario::bench(p, 12.0, ProgramKind::RockMusic);
        let ber = overlay_ber(s, Bitrate::Kbps1_6, 400);
        assert!(
            ber + 0.02 >= prev,
            "BER not (weakly) increasing as power drops: {ber} after {prev}"
        );
        prev = ber;
    }
}

#[test]
fn fig9_shape_mrc_gain() {
    let s = Scenario::bench(-40.0, 19.0, ProgramKind::RockMusic);
    let s = overlay_data(s, Bitrate::Kbps1_6, 400);
    let no_mrc = BerMrc::new(1).evaluate(&FastSim, &s);
    let with_mrc = BerMrc::new(2).evaluate(&FastSim, &s);
    assert!(
        with_mrc <= no_mrc,
        "2x MRC {with_mrc} must not exceed single {no_mrc}"
    );
}

#[test]
fn fig14_shape_car_outranges_phone() {
    // The car works at 60 ft where the phone link has collapsed.
    let car = Scenario::car(-30.0, 60.0, ProgramKind::Silence);
    let phone = Scenario::bench(-30.0, 60.0, ProgramKind::Silence);
    let b_car = car.link().budget_at_feet(60.0);
    let b_phone = phone.link().budget_at_feet(60.0);
    assert!(b_car.audio_snr.0 > 15.0, "car SNR {}", b_car.audio_snr);
    assert!(
        b_car.audio_snr.0 > b_phone.audio_snr.0 + 8.0,
        "car {} vs phone {}",
        b_car.audio_snr,
        b_phone.audio_snr
    );
}

#[test]
fn fig17_shape_motion_ordering() {
    // Fabric BER (1.6 kbps) must not improve with motion; 100 bps must
    // stay reliable even running.
    let ber = |m: MotionProfile, rate: Bitrate| overlay_ber(Scenario::fabric(m), rate, 400);
    let stand = ber(MotionProfile::Standing, Bitrate::Kbps1_6);
    let run = ber(MotionProfile::Running, Bitrate::Kbps1_6);
    assert!(run >= stand, "running {run} vs standing {stand}");
    let run100 = ber(MotionProfile::Running, Bitrate::Bps100);
    assert!(run100 < 0.02, "100 bps while running: {run100}");
}

// The survey figures live in fmbs-survey and are asserted there; this
// module only needs the bench-facing regeneration path to execute.
mod regen {
    use fmbs_survey::drive::DriveSurvey;
    use fmbs_survey::occupancy::pooled_median_shift_hz;
    use fmbs_survey::temporal::TemporalSurvey;

    #[test]
    fn fig2_and_fig4_regenerate() {
        assert_eq!(DriveSurvey::seattle_like().run().len(), 69);
        assert_eq!(TemporalSurvey::paper_default().run().len(), 1440);
        assert_eq!(pooled_median_shift_hz(), 200_000.0);
    }
}
