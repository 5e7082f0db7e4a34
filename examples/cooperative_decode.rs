//! Cooperative backscatter (§3.3): two phones near a poster cancel the
//! ambient programme and recover the tag's audio nearly cleanly.
//!
//! Phone 1 tunes to the backscatter channel (host + payload); phone 2
//! tunes to the host channel (host only). The decoder resamples both by
//! 10×, aligns them by cross-correlation, least-squares-matches the gain
//! and subtracts.
//!
//! ```text
//! cargo run --release --example cooperative_decode
//! ```

use fmbs_audio::program::ProgramKind;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::{CoopPesq, Metric, Pesq};
use fmbs_core::sim::scenario::{Scenario, Workload};

fn main() {
    println!("Cooperative backscatter: two phones as a MIMO canceller");
    println!("=======================================================\n");

    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "power", "distance", "overlay", "cooperative"
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "(dBm)", "(ft)", "PESQ", "PESQ"
    );
    for &p in &[-20.0, -30.0, -40.0, -50.0] {
        for &d in &[4.0, 10.0] {
            let scenario = Scenario::bench(p, d, ProgramKind::RockMusic);
            let seed = scenario.seed;
            // Overlay: one phone hears host + payload speech.
            let overlay =
                scenario.with_workload(Workload::speech(2.5).with_payload_seed(seed ^ 0xBEEF));
            let overlay = Pesq.evaluate(&FastSim, &overlay);
            // Cooperative: the same speech behind a 13 kHz calibration
            // pilot, decoded from both phones.
            let coop =
                scenario.with_workload(Workload::coop_audio(2.5).with_payload_seed(seed ^ 0xC0));
            let coop = CoopPesq.evaluate(&FastSim, &coop);
            println!("{p:>8} {d:>10} {overlay:>12.2} {coop:>12.2}");
        }
    }

    println!("\nthe cancellation removes the host programme: cooperative scores sit");
    println!("near 4 (paper Fig. 12) versus ~2 for overlay (paper Fig. 11), and the");
    println!("advantage persists down to -50 dBm, where stereo backscatter has");
    println!("already lost the 19 kHz pilot.");
}
