//! Quickstart: the paper's core trick in ~60 lines.
//!
//! An FM station plays a 1 kHz tone; a backscatter tag overlays a 3 kHz
//! tone by driving its switch with a square-wave FM subcarrier; an
//! unmodified FM receiver tuned 600 kHz up hears *both* tones — RF
//! multiplication became audio addition (§3.3 of the paper).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fmbs_core::sim::physical::{PhysicalSim, PhysicalSimConfig};
use fmbs_fm::transmitter::StationConfig;

/// Least-squares amplitude of a sinusoid at `f` in `audio`.
fn tone_amplitude(audio: &[f64], fs: f64, f: f64) -> f64 {
    let n = audio.len() as f64;
    let w = fmbs_dsp::TAU * f / fs;
    let (mut ss, mut sc) = (0.0, 0.0);
    for (i, &x) in audio.iter().enumerate() {
        let (s, c) = (w * i as f64).sin_cos();
        ss += x * s;
        sc += x * c;
    }
    let (a, b) = (2.0 * ss / n, 2.0 * sc / n);
    (a * a + b * b).sqrt()
}

/// Power of `audio` with the tones at `fs_to_remove` projected out —
/// the true background both tones share.
fn background_power(audio: &[f64], fs: f64, fs_to_remove: &[f64]) -> f64 {
    let mut resid = audio.to_vec();
    for &f in fs_to_remove {
        let n = resid.len() as f64;
        let w = fmbs_dsp::TAU * f / fs;
        let (mut ss, mut sc) = (0.0, 0.0);
        for (i, &x) in resid.iter().enumerate() {
            let (s, c) = (w * i as f64).sin_cos();
            ss += x * s;
            sc += x * c;
        }
        let (a, b) = (2.0 * ss / n, 2.0 * sc / n);
        for (i, x) in resid.iter_mut().enumerate() {
            let (s, c) = (w * i as f64).sin_cos();
            *x -= a * s + b * c;
        }
    }
    fmbs_dsp::stats::power(&resid)
}

fn tone(f: f64, secs: f64, rate: f64) -> Vec<f64> {
    (0..(rate * secs) as usize)
        .map(|i| 0.8 * (fmbs_dsp::TAU * f * i as f64 / rate).sin())
        .collect()
}

fn main() {
    const AUDIO_RATE: f64 = 48_000.0;
    println!("FM Backscatter quickstart");
    println!("=========================");
    println!("host station : 91.5 MHz (simulation centre), mono, 1 kHz tone");
    println!("tag          : f_back = 600 kHz -> backscatter lands on 92.1 MHz");
    println!("receiver     : smartphone FM receiver tuned to 92.1 MHz\n");

    // -20 dBm ambient at the tag, receiver 4 ft away: the paper's strong
    // bench configuration.
    let sim = PhysicalSim::new(PhysicalSimConfig::bench(-20.0, 4.0));

    let host_audio = tone(1_000.0, 0.4, AUDIO_RATE);
    let tag_audio = tone(3_000.0, 0.4, AUDIO_RATE);

    let mut station = StationConfig::mono();
    station.preemphasis = false;
    let out = sim.run_rf(
        station,
        &host_audio,
        &host_audio,
        AUDIO_RATE,
        &tag_audio,
        false,
    );

    let audio = &out.backscatter_rx.mono;
    let fs = out.backscatter_rx.sample_rate;
    let skip = audio.len() / 3;
    let settled = &audio[skip..];

    // Each tone's SNR against the shared background (noise with *both*
    // tones projected out — each is a wanted signal, not interference).
    let bg = background_power(settled, fs, &[1_000.0, 3_000.0]).max(1e-15);
    let snr = |f: f64| {
        let a = tone_amplitude(settled, fs, f);
        10.0 * (a * a / 2.0 / bg).log10()
    };
    println!("decoded audio on 92.1 MHz (the backscatter channel):");
    println!("  1 kHz host tone   SNR: {:6.1} dB", snr(1_000.0));
    println!("  3 kHz tag tone    SNR: {:6.1} dB", snr(3_000.0));
    println!("\nBoth tones are present: the tag successfully embedded its audio");
    println!("into the ambient FM broadcast using ~11 uW of switching power.");

    // Write the received audio so you can listen to the composite.
    let out_path = std::env::temp_dir().join("fmbs_quickstart.wav");
    let scaled: Vec<f64> = settled.iter().map(|x| x * 0.8).collect();
    fmbs_audio::wav::write_wav(&out_path, &[&scaled], fs as u32).expect("write wav");
    println!("\nwrote the composite audio to {}", out_path.display());
}
