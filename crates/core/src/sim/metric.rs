//! Composable measurements over [`Simulator`] runs.
//!
//! Every figure of the paper's evaluation is some measurement of a
//! simulated scenario: a bit-error rate, a PESQ-like audio score, a tone
//! SNR, a pilot-detection flag. A [`Metric`] packages one such
//! measurement as a reusable value. The sweep engine evaluates a metric
//! over a scenario grid, and a single experiment is one call to
//! [`Metric::evaluate`], so figure code, examples and tests exercise one
//! code path. Each §3.3 capability is a [`Workload`] plus a metric:
//! overlay data and audio are [`Ber`]/[`BerMrc`] and [`Pesq`] on the
//! mono-band workloads, stereo backscatter is the same metrics on the
//! stereo-band workloads, and cooperative backscatter is [`CoopPesq`] on
//! [`Workload::CoopAudio`].

use super::scenario::{Scenario, Workload};
use super::{SimOutput, Simulator};
use crate::modem::decoder::DataDecoder;
use crate::modem::{bit_error_rate, mrc};
use fmbs_audio::pesq::pesq_like;
use fmbs_channel::pathloss::gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gain applied to tag payloads riding the stereo (L−R) band (the fast
/// tier injects them at 0.9; receivers undo it before scoring).
pub const STEREO_PAYLOAD_GAIN: f64 = 0.9;

/// One measurement of one scenario, evaluated against any simulator.
///
/// `Sync` is a supertrait so sweep workers can share a metric across
/// threads.
pub trait Metric: Sync {
    /// A short name for reports ("ber", "pesq", ...).
    fn name(&self) -> &'static str;

    /// Runs the scenario through `sim` and measures it.
    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64;
}

fn payload_channel(out: &SimOutput, stereo: bool) -> &[f64] {
    if stereo {
        &out.difference
    } else {
        &out.mono
    }
}

fn expect_data(scenario: &Scenario, metric: &str) -> (crate::modem::Bitrate, bool) {
    match scenario.workload {
        Workload::Data {
            bitrate,
            stereo_band,
            ..
        } => (bitrate, stereo_band),
        ref other => panic!("{metric} metric needs a Data workload, got {other:?}"),
    }
}

/// BER reported when a stereo-band payload's pilot is not detected (no
/// stereo stream at all ⇒ coin-flip decoding).
const PILOT_LOST_BER: f64 = 0.5;

/// PESQ-like score reported when a stereo-band payload's pilot is not
/// detected (the receiver stays mono: no payload audio at all).
const PILOT_LOST_PESQ: f64 = 0.0;

/// Tone SNR (dB) reported when a stereo-band tone's pilot is not detected
/// (the difference channel is all zeros — there is no tone to measure,
/// and the raw estimator would return ≈ −2800 dB garbage that poisons
/// averages).
const PILOT_LOST_SNR_DB: f64 = 0.0;

/// Single-transmission bit-error rate of a [`Workload::Data`] scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ber;

impl Metric for Ber {
    fn name(&self) -> &'static str {
        "ber"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let (bitrate, stereo) = expect_data(scenario, "ber");
        let out = sim.run(scenario);
        if stereo && !out.pilot_detected {
            return PILOT_LOST_BER;
        }
        let dec = DataDecoder::new(out.sample_rate, bitrate);
        let rx = dec.decode(payload_channel(&out, stereo), 0, out.tx_bits.len());
        bit_error_rate(&out.tx_bits, &rx)
    }
}

/// BER with `n`-fold maximal-ratio combining (§3.4): the tag repeats the
/// transmission; the receiver sums the raw recordings. Repetitions share
/// the payload (fixed `payload_seed`) but see fresh noise, fading and
/// host audio via shifted scenario seeds.
#[derive(Debug, Clone, Copy)]
pub struct BerMrc {
    /// Fixed combining depth; `None` reads the depth from
    /// [`Scenario::mrc_depth`], which is what makes MRC depth a sweep
    /// axis ([`crate::sim::sweep::SweepBuilder::mrc_depths`]).
    pub n: Option<usize>,
}

impl BerMrc {
    /// `n`-fold combining at a fixed depth.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        BerMrc { n: Some(n) }
    }

    /// Combining depth taken from each scenario's `mrc_depth` field —
    /// the form the `mrc_depths` sweep axis needs.
    pub fn from_scenario() -> Self {
        BerMrc { n: None }
    }

    fn depth(&self, scenario: &Scenario) -> usize {
        self.n.unwrap_or(scenario.mrc_depth.max(1) as usize)
    }
}

impl Metric for BerMrc {
    fn name(&self) -> &'static str {
        "ber_mrc"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let (bitrate, stereo) = expect_data(scenario, "ber_mrc");
        let depth = self.depth(scenario);
        let mut recordings = Vec::with_capacity(depth);
        let mut tx_bits = Vec::new();
        let mut sample_rate = 0.0;
        for i in 0..depth {
            // Shift seed *and* programme seed per repetition (the tag
            // retransmits at a later time, so the receiver hears fresh
            // noise, fading and host audio) — but preserve the incoming
            // `program_seed` for repetition 0, so MRC-of-one matches a
            // plain run exactly and a sweep's shared programme (and its
            // cache entries) survive intact.
            let mut rep = *scenario;
            rep.seed = scenario.seed.wrapping_add(i as u64 * 7919);
            rep.program_seed = scenario.program_seed.wrapping_add(i as u64 * 7919);
            let out = sim.run(&rep);
            if stereo && !out.pilot_detected {
                return PILOT_LOST_BER;
            }
            if i == 0 {
                tx_bits = out.tx_bits.clone();
                sample_rate = out.sample_rate;
            }
            recordings.push(match stereo {
                true => out.difference,
                false => out.mono,
            });
        }
        let combined = mrc::combine(&recordings);
        let dec = DataDecoder::new(sample_rate, bitrate);
        let rx = dec.decode(&combined, 0, tx_bits.len());
        bit_error_rate(&tx_bits, &rx)
    }
}

/// PESQ-like audio quality of a speech workload, scored against the
/// clean payload reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pesq;

impl Metric for Pesq {
    fn name(&self) -> &'static str {
        "pesq"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let out = sim.run(scenario);
        if !scenario.workload.stereo_band() {
            return scored_pesq(&out.payload_ref, &out.mono, out.sample_rate);
        }
        if !out.pilot_detected {
            return PILOT_LOST_PESQ;
        }
        // Receiver recovers payload as (L−R)/STEREO_PAYLOAD_GAIN.
        let recovered: Vec<f64> = out
            .difference
            .iter()
            .map(|x| x / STEREO_PAYLOAD_GAIN)
            .collect();
        scored_pesq(&out.payload_ref, &recovered, out.sample_rate)
    }
}

/// [`pesq_like`] booked to the `pesq` profiler stage.
fn scored_pesq(reference: &[f64], degraded: &[f64], sample_rate: f64) -> f64 {
    fmbs_obs::span!(fmbs_obs::stages::PESQ);
    pesq_like(reference, degraded, sample_rate)
}

/// Simulated start delay of phone 2 relative to phone 1, in seconds (the
/// two receivers are not time-synchronised).
const PHONE2_DELAY_S: f64 = 0.0013;

/// Simulated phone-2 AGC gain relative to phone 1.
const PHONE2_GAIN: f64 = 0.62;

/// PESQ of cooperative (two-phone) decoding: phone 1 on the backscatter
/// channel, phone 2 on the host channel; subtract to cancel the
/// programme (§3.3). Needs a [`Workload::CoopAudio`] scenario so the
/// payload carries the 13 kHz calibration pilot, which is notched out of
/// the recovered audio before scoring.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoopPesq;

impl Metric for CoopPesq {
    fn name(&self) -> &'static str {
        "coop_pesq"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        assert!(
            matches!(scenario.workload, Workload::CoopAudio { .. }),
            "coop_pesq metric needs a CoopAudio workload, got {:?}",
            scenario.workload
        );
        let out = sim.run(scenario);
        let rate = out.sample_rate;

        // Phone 2: host channel — the host programme nearly clean,
        // delayed and AGC-scaled, with a small independent noise floor.
        let delay = (PHONE2_DELAY_S * rate) as usize;
        let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x2222);
        let mut phone2 = vec![0.0; out.host_mono.len()];
        for (i, p2) in phone2.iter_mut().enumerate().skip(delay) {
            *p2 = PHONE2_GAIN * out.host_mono[i - delay] + 0.003 * gaussian(&mut rng);
        }

        let dec = crate::coop::CooperativeDecoder::new(rate);
        let result = dec.decode(&out.mono, &phone2);
        // Skip the pilot preamble region before scoring.
        let skip = (0.2 * rate) as usize;
        if result.payload.len() <= skip {
            return 0.0;
        }
        // The receiver knows the calibration pilot's frequency and
        // notches it out of the played-back audio.
        let mut notch = fmbs_dsp::iir::Biquad::notch(rate, crate::COOP_PILOT_HZ, 4.0);
        let cleaned = notch.process(&result.payload[skip..]);
        scored_pesq(&out.payload_ref, &cleaned, rate)
    }
}

/// SNR (dB) of a [`Workload::Tone`] payload at the receiver, measured
/// after a settling prefix.
#[derive(Debug, Clone, Copy)]
pub struct ToneSnr {
    /// Fraction of the output skipped before measuring (filter settling).
    pub skip_fraction: f64,
}

impl Default for ToneSnr {
    fn default() -> Self {
        ToneSnr {
            skip_fraction: 0.25,
        }
    }
}

impl Metric for ToneSnr {
    fn name(&self) -> &'static str {
        "tone_snr"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let Workload::Tone {
            freq_hz,
            stereo_band,
            ..
        } = scenario.workload
        else {
            panic!(
                "tone_snr metric needs a Tone workload, got {:?}",
                scenario.workload
            )
        };
        let out = sim.run(scenario);
        if stereo_band && !out.pilot_detected {
            return PILOT_LOST_SNR_DB;
        }
        let audio = payload_channel(&out, stereo_band);
        let skip = (audio.len() as f64 * self.skip_fraction) as usize;
        fmbs_audio::metrics::tone_snr_db(&audio[skip..], out.sample_rate, freq_hz)
    }
}

/// Whether the receiver engaged stereo decoding: 1.0 when the pilot was
/// detected, else 0.0. Averaged over a sweep's repeats this is the
/// pilot-detection *rate*.
#[derive(Debug, Clone, Copy, Default)]
pub struct PilotDetect;

impl Metric for PilotDetect {
    fn name(&self) -> &'static str {
        "pilot_detect"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        if sim.run(scenario).pilot_detected {
            1.0
        } else {
            0.0
        }
    }
}

/// Audio SNR (dB) of an arbitrary payload against its clean reference,
/// estimated by least-squares projection (for non-tonal payloads where
/// [`ToneSnr`] does not apply).
#[derive(Debug, Clone, Copy, Default)]
pub struct AudioSnr;

impl Metric for AudioSnr {
    fn name(&self) -> &'static str {
        "audio_snr"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let stereo = scenario.workload.stereo_band();
        let out = sim.run(scenario);
        if stereo && !out.pilot_detected {
            return 0.0;
        }
        let audio = payload_channel(&out, stereo);
        let n = audio.len().min(out.payload_ref.len());
        if n == 0 {
            return 0.0;
        }
        let (a, r) = (&audio[..n], &out.payload_ref[..n]);
        // Project the received audio onto the reference; the residual is
        // noise + interference.
        let dot_ar: f64 = a.iter().zip(r.iter()).map(|(x, y)| x * y).sum();
        let dot_rr: f64 = r.iter().map(|y| y * y).sum();
        if dot_rr <= 0.0 {
            return 0.0;
        }
        let g = dot_ar / dot_rr;
        let resid: f64 = a
            .iter()
            .zip(r.iter())
            .map(|(x, y)| (x - g * y) * (x - g * y))
            .sum();
        let sig = g * g * dot_rr;
        10.0 * (sig / resid.max(1e-30)).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::Bitrate;
    use crate::sim::fast::FastSim;
    use fmbs_audio::program::ProgramKind;

    fn data_scenario(p: f64, d: f64) -> Scenario {
        Scenario::bench(p, d, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 200))
    }

    #[test]
    fn ber_clean_at_strong_link() {
        let ber = Ber.evaluate(&FastSim, &data_scenario(-30.0, 4.0));
        assert!(ber < 0.01, "ber {ber}");
    }

    #[test]
    fn ber_orders_with_link_quality() {
        let good = Ber.evaluate(&FastSim, &data_scenario(-30.0, 4.0));
        let bad = Ber.evaluate(&FastSim, &data_scenario(-60.0, 16.0));
        assert!(bad > good, "bad {bad} vs good {good}");
    }

    #[test]
    fn stereo_ber_reports_pilot_loss() {
        let s = Scenario::bench(-60.0, 10.0, ProgramKind::News)
            .with_workload(Workload::stereo_data(Bitrate::Kbps1_6, 100));
        let ber = Ber.evaluate(&FastSim, &s);
        assert_eq!(ber, 0.5);
        assert_eq!(PilotDetect.evaluate(&FastSim, &s), 0.0);
    }

    #[test]
    fn mrc_does_not_hurt() {
        let s = Scenario::bench(-60.0, 12.0, ProgramKind::RockMusic)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 800));
        let one = BerMrc::new(1).evaluate(&FastSim, &s);
        let four = BerMrc::new(4).evaluate(&FastSim, &s);
        assert!(four <= one, "4x MRC {four} vs single {one}");
    }

    #[test]
    fn mrc_of_one_matches_plain_ber() {
        let s = data_scenario(-50.0, 10.0);
        let plain = Ber.evaluate(&FastSim, &s);
        let mrc1 = BerMrc::new(1).evaluate(&FastSim, &s);
        assert!((plain - mrc1).abs() < 1e-12);
    }

    #[test]
    fn mrc_of_one_matches_plain_ber_under_sweep_seeding() {
        // Inside a sweep, program_seed is decoupled from seed (one shared
        // programme per repetition); MRC's repetition 0 must preserve it
        // so MRC-of-one stays exactly a plain run.
        let mut s = data_scenario(-50.0, 10.0);
        s.program_seed = 0x0BAD_CAFE; // ≠ s.seed, as the sweep engine sets it
        let plain = Ber.evaluate(&FastSim, &s);
        let mrc1 = BerMrc::new(1).evaluate(&FastSim, &s);
        assert!((plain - mrc1).abs() < 1e-12);
    }

    #[test]
    fn pesq_degrades_with_distance() {
        let near =
            Scenario::bench(-30.0, 4.0, ProgramKind::News).with_workload(Workload::speech(2.0));
        let far =
            Scenario::bench(-60.0, 18.0, ProgramKind::News).with_workload(Workload::speech(2.0));
        let p_near = Pesq.evaluate(&FastSim, &near);
        let p_far = Pesq.evaluate(&FastSim, &far);
        assert!(p_near > p_far, "near {p_near} far {p_far}");
    }

    #[test]
    fn coop_beats_overlay_audio() {
        let overlay =
            Scenario::bench(-30.0, 6.0, ProgramKind::News).with_workload(Workload::speech(2.0));
        let coop = overlay.with_workload(Workload::coop_audio(2.0));
        let p_overlay = Pesq.evaluate(&FastSim, &overlay);
        let p_coop = CoopPesq.evaluate(&FastSim, &coop);
        assert!(
            p_coop > p_overlay,
            "coop {p_coop} must beat overlay {p_overlay}"
        );
    }

    #[test]
    fn tone_snr_tracks_link() {
        let s = Scenario::bench(-20.0, 4.0, ProgramKind::Silence)
            .with_workload(Workload::tone(1_000.0, 0.5));
        let strong = ToneSnr::default().evaluate(&FastSim, &s);
        let weak = ToneSnr::default().evaluate(
            &FastSim,
            &Scenario::bench(-60.0, 20.0, ProgramKind::Silence)
                .with_workload(Workload::tone(1_000.0, 0.5)),
        );
        assert!(strong > 30.0, "strong {strong}");
        assert!(strong > weak + 15.0, "strong {strong} weak {weak}");
    }

    // Paper claims per capability (§3.3). Each payload seed is the
    // scenario seed salted per workload kind.

    fn overlay_data(s: Scenario, bitrate: Bitrate, n_bits: usize) -> Scenario {
        s.with_workload(Workload::data(bitrate, n_bits).with_payload_seed(s.seed ^ 0xDA7A))
    }

    fn overlay_speech(s: Scenario, secs: f64) -> Scenario {
        s.with_workload(Workload::speech(secs).with_payload_seed(s.seed ^ 0xBEEF))
    }

    fn stereo_data(s: Scenario, bitrate: Bitrate, n_bits: usize) -> Scenario {
        s.with_workload(Workload::stereo_data(bitrate, n_bits).with_payload_seed(s.seed ^ 0x57E0))
    }

    fn stereo_speech(s: Scenario, secs: f64) -> Scenario {
        s.with_workload(Workload::stereo_speech(secs).with_payload_seed(s.seed ^ 0x5A5A))
    }

    #[test]
    fn overlay_pesq_near_two_at_good_power() {
        // Fig. 11: "PESQ is consistently close to 2 for all power numbers
        // between −20 and −40 dBm at distances up to 20 feet."
        let s = overlay_speech(Scenario::bench(-30.0, 10.0, ProgramKind::News), 4.0);
        let score = Pesq.evaluate(&FastSim, &s);
        assert!((score - 2.0).abs() < 0.8, "overlay PESQ {score}");
    }

    #[test]
    fn overlay_pesq_degrades_with_weak_signal() {
        let good = overlay_speech(Scenario::bench(-30.0, 8.0, ProgramKind::News), 3.0);
        let bad = overlay_speech(Scenario::bench(-60.0, 18.0, ProgramKind::News), 3.0);
        assert!(Pesq.evaluate(&FastSim, &good) > Pesq.evaluate(&FastSim, &bad) + 0.3);
    }

    #[test]
    fn hundred_bps_clean_at_all_powers_close_in() {
        // Fig. 8a: "At a bit rate of 100 bps, the BER is nearly zero up to
        // distances of 6 feet across all power levels between −20 and −60
        // dBm."
        for p in [-20.0, -40.0, -60.0] {
            let s = overlay_data(
                Scenario::bench(p, 5.0, ProgramKind::News),
                Bitrate::Bps100,
                200,
            );
            let ber = Ber.evaluate(&FastSim, &s);
            assert!(ber < 0.02, "BER {ber} at {p} dBm / 5 ft");
        }
    }

    #[test]
    fn high_rate_needs_more_power() {
        // Fig. 8c: 3.2 kbps fails at −60 dBm where 100 bps still works.
        let s = Scenario::bench(-60.0, 8.0, ProgramKind::News);
        let low = Ber.evaluate(&FastSim, &overlay_data(s, Bitrate::Bps100, 300));
        let high = Ber.evaluate(&FastSim, &overlay_data(s, Bitrate::Kbps3_2, 300));
        assert!(high > low, "3.2 kbps BER {high} not above 100 bps {low}");
    }

    #[test]
    fn coding_extends_range() {
        // §8: coding buys range — in the *waterfall* region (raw BER of a
        // few percent) the rate-1/2 K=3 code roughly halves the error
        // rate. Past the FM threshold collapse (raw BER > ~0.1)
        // hard-decision Viterbi breaks down, as coding theory predicts.
        // Individual draws at the waterfall are noisy, so both sides are
        // averaged over several noise seeds.
        use crate::modem::encoder::{test_bits, DataEncoder};
        use crate::modem::fec;
        use crate::sim::fast::FAST_AUDIO_RATE;
        let (rate, n_bits) = (Bitrate::Kbps1_6, 800);
        let seeds = [0x5EEDu64, 1, 2, 3, 4, 5];
        let (mut raw, mut coded) = (0.0, 0.0);
        for &seed in &seeds {
            let s = Scenario::bench(-60.0, 10.5, ProgramKind::News).with_seed(seed);
            raw += Ber.evaluate(&FastSim, &overlay_data(s, rate, n_bits));
            // The information BER over `n_bits` message bits, which cost
            // `2·(n_bits+2)` channel bits at the same symbol rate — half
            // the throughput bought back as range.
            let bits = test_bits(n_bits, seed ^ 0xDA7A);
            let tx = fec::encode_for_tx(&bits, 8, 16);
            let wave = DataEncoder::new(FAST_AUDIO_RATE, rate).encode(&tx);
            let out = FastSim.run_payload(&s, &wave, false);
            let rx = DataDecoder::new(FAST_AUDIO_RATE, rate).decode(&out.mono, 0, tx.len());
            coded += bit_error_rate(&bits, &fec::decode_from_rx(&rx, n_bits, 8, 16));
        }
        raw /= seeds.len() as f64;
        coded /= seeds.len() as f64;
        assert!(raw > 0.0, "need raw errors in the waterfall region");
        assert!(
            coded < raw,
            "mean coded BER {coded} must beat uncoded {raw} in the waterfall"
        );

        let collapsed = overlay_data(
            Scenario::bench(-60.0, 15.0, ProgramKind::News),
            rate,
            n_bits,
        );
        assert!(
            Ber.evaluate(&FastSim, &collapsed) > 0.1,
            "collapse point should have heavy raw errors"
        );
    }

    #[test]
    fn mrc_reduces_ber() {
        // Fig. 9's mechanism in the regime where our substrate produces
        // errors to combine away: 1.6 kbps at −60 dBm / 12 ft, where
        // threshold clicks hit each repetition independently.
        let s = overlay_data(
            Scenario::bench(-60.0, 12.0, ProgramKind::RockMusic),
            Bitrate::Kbps1_6,
            800,
        );
        let ber1 = BerMrc::new(1).evaluate(&FastSim, &s);
        let ber2 = BerMrc::new(2).evaluate(&FastSim, &s);
        let ber4 = BerMrc::new(4).evaluate(&FastSim, &s);
        assert!(ber1 > 0.0, "no errors to combine away at the stress point");
        assert!(
            ber2 <= ber1 && ber4 <= ber2,
            "MRC not monotone: {ber1} → {ber2} → {ber4}"
        );
        assert!(ber4 < ber1, "4x MRC must improve on single shot");
    }

    #[test]
    fn stereo_pesq_beats_overlay_at_high_power() {
        // Fig. 13 vs Fig. 11: "At high FM powers, the PESQ of stereo
        // backscatter is much higher than overlay backscatter."
        let scenario = Scenario::bench(-20.0, 6.0, ProgramKind::News);
        let stereo = stereo_speech(scenario, 3.0);
        assert_eq!(
            PilotDetect.evaluate(&FastSim, &stereo),
            1.0,
            "pilot detected at -20 dBm"
        );
        let stereo = Pesq.evaluate(&FastSim, &stereo);
        let overlay = Pesq.evaluate(&FastSim, &overlay_speech(scenario, 3.0));
        assert!(
            stereo > overlay + 0.5,
            "stereo {stereo} vs overlay {overlay}"
        );
    }

    #[test]
    fn pilot_lost_at_low_power() {
        // §5.3: "stereo backscatter … can therefore only be used in
        // scenarios with strong ambient FM signals."
        let s = stereo_data(
            Scenario::bench(-55.0, 10.0, ProgramKind::News),
            Bitrate::Kbps1_6,
            200,
        );
        assert!(!FastSim.run(&s).pilot_detected);
    }

    #[test]
    fn stereo_ber_low_at_minus_30() {
        // Fig. 10's operating point: −30 dBm, close range.
        let s = stereo_data(
            Scenario::bench(-30.0, 3.0, ProgramKind::News),
            Bitrate::Kbps1_6,
            400,
        );
        assert_eq!(PilotDetect.evaluate(&FastSim, &s), 1.0, "pilot detected");
        let ber = Ber.evaluate(&FastSim, &s);
        assert!(ber < 0.02, "stereo BER {ber}");
    }

    #[test]
    fn audio_snr_orders_with_link() {
        let near =
            Scenario::bench(-30.0, 4.0, ProgramKind::Silence).with_workload(Workload::speech(1.0));
        let far =
            Scenario::bench(-60.0, 18.0, ProgramKind::Silence).with_workload(Workload::speech(1.0));
        let s_near = AudioSnr.evaluate(&FastSim, &near);
        let s_far = AudioSnr.evaluate(&FastSim, &far);
        assert!(s_near > s_far, "near {s_near} far {s_far}");
    }
}
