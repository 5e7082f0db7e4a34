//! End-to-end integration tests: the whole stack from programme audio to
//! decoded payload, crossing every crate boundary.

use fmbs_audio::program::ProgramKind;
use fmbs_core::modem::frame::{FrameDecoder, FrameEncoder};
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::{FastSim, FAST_AUDIO_RATE};
use fmbs_core::sim::metric::{Ber, CoopPesq, Metric, Pesq, PilotDetect};
use fmbs_core::sim::physical::{PhysicalSim, PhysicalSimConfig};
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_fm::transmitter::StationConfig;
use fmbs_integration_tests::tone;

const AUDIO_RATE: f64 = 48_000.0;

/// A complete message travels poster → RF → phone through the *physical*
/// simulator: FM multiplex, square-wave switch, discriminator, framing.
#[test]
fn physical_frame_delivery() {
    let sim = PhysicalSim::new(PhysicalSimConfig::bench(-25.0, 4.0));
    let payload = b"bus 44 in 3 min";
    let frame_audio = FrameEncoder::new(AUDIO_RATE, Bitrate::Bps100).encode(payload);
    // Host: a mono station playing a low tone (kept clear of the FSK
    // tones so the physical run stays short but decodable).
    let secs = frame_audio.len() as f64 / AUDIO_RATE + 0.1;
    let host = tone(400.0, secs, AUDIO_RATE, 0.3);
    let mut station = StationConfig::mono();
    station.preemphasis = false;
    let out = sim.run_rf(station, &host, &host, AUDIO_RATE, &frame_audio, false);
    let audio = &out.backscatter_rx.mono;
    // The receiver's audio rate differs from 48 kHz; resample for the
    // frame decoder (what a phone app would do).
    let resampled =
        fmbs_dsp::resample::resample_linear(audio, out.backscatter_rx.sample_rate, AUDIO_RATE);
    let frame = FrameDecoder::new(AUDIO_RATE, Bitrate::Bps100)
        .decode(&resampled)
        .expect("frame must decode through the physical chain");
    assert_eq!(&frame.payload[..], payload);
}

/// The fast tier and the physical tier agree on the §3.3 identity: tone
/// SNRs measured through both differ by a bounded calibration error.
#[test]
fn fast_and_physical_tiers_agree() {
    // Geometry where both tiers are in their linear regime.
    let power = -30.0;
    let distance = 8.0;
    let f_tone = 2_000.0;

    // Physical tier.
    let sim = PhysicalSim::new(PhysicalSimConfig::bench(power, distance));
    let tag_audio = tone(f_tone, 0.4, AUDIO_RATE, 0.9);
    let silence = vec![0.0; tag_audio.len()];
    let mut station = StationConfig::mono();
    station.preemphasis = false;
    let out = sim.run_rf(station, &silence, &silence, AUDIO_RATE, &tag_audio, false);
    let skip = out.backscatter_rx.mono.len() / 3;
    let phys_snr = fmbs_audio::metrics::tone_snr_db(
        &out.backscatter_rx.mono[skip..],
        out.backscatter_rx.sample_rate,
        f_tone,
    );

    // Fast tier. A single FM click landing in the short measurement
    // window costs ~10 dB on one draw, so take the median over seeds.
    let payload = tone(f_tone, 0.4, FAST_AUDIO_RATE, 0.9);
    let mut snrs: Vec<f64> = (1..=5u64)
        .map(|seed| {
            let scenario = Scenario::bench(power, distance, ProgramKind::Silence).with_seed(seed);
            let fast_out = FastSim.run_payload(&scenario, &payload, false);
            let fskip = fast_out.mono.len() / 3;
            fmbs_audio::metrics::tone_snr_db(&fast_out.mono[fskip..], FAST_AUDIO_RATE, f_tone)
        })
        .collect();
    snrs.sort_by(|a, b| a.total_cmp(b));
    let fast_snr = snrs[snrs.len() / 2];

    // The tiers share the link budget but differ in demod details and the
    // physical tier's square-wave sampling floor; require agreement within
    // 12 dB and, more importantly, the same ordering against a weak link.
    assert!(
        (phys_snr - fast_snr).abs() < 12.0,
        "physical {phys_snr:.1} dB vs fast {fast_snr:.1} dB"
    );
    assert!(phys_snr > 20.0 && fast_snr > 20.0);
}

/// Held-out cross-tier agreement on the *decoded-bits* level: fast and
/// physical BER pin to each other within the documented tier-error
/// budget (`fmbs_bench::experiments::TIER_BER_BUDGET`) on five
/// seed-fixed working-region scenarios — tightening the single
/// median-of-seeds SNR check above into a per-scenario contract
/// (observed worst case here: 0.008 = one bit of 128).
///
/// Scope, matching the link-table contract in `network.rs`: the
/// *approach* to the range cliff is covered (−60 dBm / 10 ft), but the
/// cliff itself is not a point-agreement region — the fast tier applies
/// the paper-calibrated FM threshold collapse (clicks) a few feet
/// before the physical tier's AWGN-limited discriminator gives up, so
/// in the collapse band the contract is one-sided (the approximation
/// must err pessimistic, never optimistic) and far past it both tiers
/// must agree the link is dead.
#[test]
fn tiers_agree_on_ber_across_held_out_scenarios() {
    use fmbs_core::sim::Tier;
    let ber_at = |p: f64, d: f64, sim: &dyn fmbs_core::sim::Simulator| {
        let s = Scenario::bench(p, d, ProgramKind::News)
            .with_seed(0x7157)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 128));
        Ber.evaluate(sim, &s)
    };
    let physical = Tier::Physical.simulator();
    let working = [
        (-25.0, 4.0),
        (-30.0, 8.0),
        (-40.0, 6.0),
        (-45.0, 10.0),
        (-60.0, 10.0),
    ];
    for (p, d) in working {
        let fast = ber_at(p, d, &FastSim);
        let phys = ber_at(p, d, physical);
        assert!(
            (fast - phys).abs() <= fmbs_bench::experiments::TIER_BER_BUDGET,
            "({p} dBm, {d} ft): fast {fast:.4} vs physical {phys:.4} (budget {})",
            fmbs_bench::experiments::TIER_BER_BUDGET,
        );
    }
    // In the collapse band the fast tier must only ever be *worse*.
    let (fast, phys) = (ber_at(-60.0, 18.0, &FastSim), ber_at(-60.0, 18.0, physical));
    assert!(
        fast + 1e-12 >= phys,
        "fast tier optimistic at the cliff: fast {fast:.4} vs physical {phys:.4}"
    );
    // Far past the cliff both tiers agree the link is dead.
    let (fast, phys) = (ber_at(-70.0, 30.0, &FastSim), ber_at(-70.0, 30.0, physical));
    assert!(
        fast > 0.25 && phys > 0.25,
        "both tiers must report a dead link at -70 dBm / 30 ft: fast {fast:.4} vs physical {phys:.4}"
    );
}

/// Overlay data rides over every programme genre.
#[test]
fn all_genres_carry_data() {
    for genre in ProgramKind::BROADCAST_GENRES {
        let s = Scenario::bench(-30.0, 6.0, genre)
            .with_workload(Workload::data(Bitrate::Bps100, 300).with_payload_seed(5));
        let ber = Ber.evaluate(&FastSim, &s);
        assert!(ber < 0.02, "{genre:?}: BER {ber}");
    }
}

/// Cooperative cancellation survives a *real* hardware AGC on the second
/// phone (the §3.3 complication: "hardware gain control alters the
/// amplitude"), not just a fixed gain mismatch.
#[test]
fn coop_cancels_through_real_agc() {
    use fmbs_core::coop::CooperativeDecoder;
    use fmbs_dsp::goertzel::goertzel_power;
    let fs = FAST_AUDIO_RATE;
    let n = 2 * 48_000;
    // Host: two strong tones; payload: a 5 kHz tone.
    let host: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            0.5 * (fmbs_dsp::TAU * 700.0 * t).sin() + 0.2 * (fmbs_dsp::TAU * 2_900.0 * t).sin()
        })
        .collect();
    let payload = tone(5_000.0, 2.0, fs, 0.3);
    let phone1: Vec<f64> = host.iter().zip(&payload).map(|(h, p)| h + p).collect();
    // Phone 2 hears the host through its own AGC, delayed 31 samples.
    let mut agc = fmbs_fm::agc::Agc::smartphone(fs);
    let delayed: Vec<f64> = (0..n)
        .map(|i| if i >= 31 { host[i - 31] } else { 0.0 })
        .collect();
    let phone2 = agc.process(&delayed);
    let res = CooperativeDecoder::new(fs).decode(&phone1, &phone2);
    // Judge cancellation on the settled region (AGC converged).
    let out = &res.payload[24_000..res.payload.len() - 2_000];
    let p_host = goertzel_power(out, fs, 700.0);
    let p_payload = goertzel_power(out, fs, 5_000.0);
    assert!(
        p_payload > 10.0 * p_host.max(1e-15),
        "payload {p_payload} vs host residual {p_host} (gain {})",
        res.gain
    );
}

/// The three headline capabilities rank as the paper reports at a strong
/// operating point: cooperative > stereo > overlay in audio quality.
#[test]
fn capability_ranking_matches_paper() {
    let scenario = Scenario::bench(-25.0, 6.0, ProgramKind::News);
    let seed = scenario.seed;
    let overlay = scenario.with_workload(Workload::speech(2.5).with_payload_seed(seed ^ 0xBEEF));
    let overlay = Pesq.evaluate(&FastSim, &overlay);
    let stereo =
        scenario.with_workload(Workload::stereo_speech(2.5).with_payload_seed(seed ^ 0x5A5A));
    assert_eq!(
        PilotDetect.evaluate(&FastSim, &stereo),
        1.0,
        "pilot detected at -25 dBm"
    );
    let stereo = Pesq.evaluate(&FastSim, &stereo);
    let coop = scenario.with_workload(Workload::coop_audio(2.5).with_payload_seed(seed ^ 0xC0));
    let coop = CoopPesq.evaluate(&FastSim, &coop);
    assert!(
        stereo > overlay,
        "stereo {stereo:.2} must beat overlay {overlay:.2}"
    );
    assert!(
        coop > overlay,
        "coop {coop:.2} must beat overlay {overlay:.2}"
    );
    // And overlay sits near its PESQ ≈ 2 operating point.
    assert!((1.0..=3.0).contains(&overlay), "overlay {overlay:.2}");
}
