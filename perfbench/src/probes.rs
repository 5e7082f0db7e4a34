//! Layer probes: single calls into one layer's public API on the
//! inputs the workloads themselves use, each inside a span named after
//! the metric it yields. Inputs are built before the span opens.

use crate::trace::{median, Metrics, Tracer};
use crate::Size;
use fmbs_audio::program::{ProgramGenerator, ProgramKind};
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::{phone_capture_filter, FastSim, FAST_AUDIO_RATE};
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::{Simulator, Tier};
use fmbs_dsp::fir::FirDesign;
use fmbs_dsp::prelude::Window;
use fmbs_dsp::Complex;
use fmbs_fm::prelude::{FmReceiver, ReceiverConfig};
use fmbs_fm::transmitter::{FmTransmitter, StationConfig};
use std::hint::black_box;

/// The physical tier's IQ rate (`PhysicalSimConfig::bench`).
const IQ_RATE: f64 = 2_560_000.0;
/// The survey's multiplex analysis rate (Fig. 5).
const MPX_RATE: f64 = 200_000.0;

/// Median duration of `reps` spans named `name`, each around `f`.
fn median_span<T>(t: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..reps {
        black_box(t.span(name, &mut f));
    }
    median(&t.durations_s(name))
}

/// RF-rate IQ of a stereo station carrying `seconds` of music.
fn rf_iq(seconds: f64) -> Vec<Complex> {
    let prog = ProgramGenerator::new(FAST_AUDIO_RATE, 7).generate(ProgramKind::RockMusic, seconds);
    FmTransmitter::new(StationConfig::stereo(), IQ_RATE, 0.0).modulate(
        &prog.left,
        &prog.right,
        FAST_AUDIO_RATE,
    )
}

/// `survey.stereo_util_s`: one `stereo_utilisation_cdf` call per genre,
/// with Fig. 5's window count and seed; the mean per genre.
pub fn survey(t: &Tracer, size: Size, m: &mut Metrics) {
    let (genres, windows) = match size {
        Size::Full => (&ProgramKind::BROADCAST_GENRES[..], 8),
        Size::Tiny => (&ProgramKind::BROADCAST_GENRES[..1], 1),
    };
    for &kind in genres {
        t.span("survey.stereo_util", || {
            black_box(fmbs_survey::stereo_util::stereo_utilisation_cdf(
                kind, windows, 17,
            ))
        });
    }
    let per_genre = t.total_s("survey.stereo_util") / genres.len() as f64;
    m.set("survey.stereo_util_s", per_genre, "s");
}

/// `audio.pesq_s`: `pesq_like` on a fast-tier Fig. 11 output (2 s of
/// speech at -20 dBm, 2 ft).
pub fn pesq(t: &Tracer, m: &mut Metrics) {
    let scenario =
        Scenario::bench(-20.0, 2.0, ProgramKind::News).with_workload(Workload::speech(2.0));
    let out = FastSim.run(&scenario);
    let s = median_span(t, "audio.pesq", 11, || {
        fmbs_audio::pesq::pesq_like(&out.payload_ref, &out.mono, out.sample_rate)
    });
    m.set("audio.pesq_s", s, "s");
}

/// The DSP kernels: the fast tier's 301-tap capture filter over 2 s of
/// programme audio, the receiver's 127-tap channel filter decimating
/// RF-rate IQ, and Fig. 5's Welch PSD over a 4 s multiplex window.
pub fn dsp(t: &Tracer, m: &mut Metrics) {
    let audio = ProgramGenerator::new(FAST_AUDIO_RATE, 3)
        .generate(ProgramKind::News, 2.0)
        .mono();
    let s = median_span(t, "dsp.fir", 21, || {
        phone_capture_filter().filter_aligned(&audio)
    });
    m.set(
        "dsp.fir_msamples_per_s",
        audio.len() as f64 / s / 1e6,
        "Msamples/s",
    );

    let iq = rf_iq(0.25);
    let chan = FirDesign {
        taps: 127,
        window: Window::Blackman,
    }
    .lowpass(IQ_RATE, 130_000.0);
    let decim = (IQ_RATE / 240_000.0).floor() as usize;
    let s = median_span(t, "dsp.fir_decim", 11, || {
        fmbs_dsp::fir::ComplexFir::from_fir(&chan).process_decimated(&iq, decim)
    });
    m.set(
        "dsp.fir_decim_msamples_per_s",
        iq.len() as f64 / s / 1e6,
        "Msamples/s",
    );

    let mpx = ProgramGenerator::new(MPX_RATE, 17)
        .generate(ProgramKind::RockMusic, 4.0)
        .mono();
    let s = median_span(t, "dsp.welch", 11, || fmbs_dsp::fft::welch_psd(&mpx, 4096));
    m.set(
        "dsp.welch_msamples_per_s",
        mpx.len() as f64 / s / 1e6,
        "Msamples/s",
    );
}

/// `fm.receive_msamples_per_s`: the smartphone receiver on RF-rate IQ.
pub fn fm_receive(t: &Tracer, m: &mut Metrics) {
    let iq = rf_iq(0.25);
    let rx = FmReceiver::new(ReceiverConfig::smartphone(IQ_RATE, 0.0));
    let s = median_span(t, "fm.receive", 11, || rx.receive(&iq));
    m.set(
        "fm.receive_msamples_per_s",
        iq.len() as f64 / s / 1e6,
        "Msamples/s",
    );
}

/// `core.fast.run_s`: one fast-tier run of Fig. 8b's base scenario.
pub fn core_fast(t: &Tracer, m: &mut Metrics) {
    let scenario = Scenario::bench(-20.0, 2.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 400));
    let s = median_span(t, "core.fast.run", 21, || FastSim.run(&scenario));
    m.set("core.fast.run_s", s, "s");
}

/// Fig. 7's base scenario: a 0.5 s tone at -20 dBm, 4 ft.
pub fn fig7_base() -> Scenario {
    Scenario::bench(-20.0, 4.0, ProgramKind::Silence).with_workload(Workload::tone(1_000.0, 0.5))
}

/// `core.physical.run_s`: one physical-tier run of Fig. 7's base
/// scenario.
pub fn core_physical(t: &Tracer, m: &mut Metrics) {
    let scenario = fig7_base();
    let sim = Tier::Physical.simulator();
    let s = median_span(t, "core.physical.run", 5, || sim.run(&scenario));
    m.set("core.physical.run_s", s, "s");
}

/// `net.link.*_s`: one quick BER-table calibration on the fast tier and
/// one coded packet model for the network tier's default frame.
pub fn net_link(t: &Tracer, packet_bits: u32, coding: bool, m: &mut Metrics) {
    let spec = fmbs_net::prelude::BerTableSpec::quick();
    let s = median_span(t, "net.link.ber_calibrate", 7, || {
        fmbs_net::prelude::BerTable::calibrate(&FastSim, &spec)
    });
    m.set("net.link.ber_calibrate_s", s, "s");
    let s = median_span(t, "net.link.packet_model", 11, || {
        fmbs_net::link::PacketModel::for_frame(packet_bits, coding)
    });
    m.set("net.link.packet_model_s", s, "s");
}
