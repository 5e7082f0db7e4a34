//! Spectrum survey + frequency planning (§3.1, §3.3, §8): measure the
//! city's FM band, pick `f_back` for a deployment of tags, and share the
//! channel with slotted Aloha.
//!
//! ```text
//! cargo run --release --example spectrum_survey
//! ```

use fmbs_core::mac::{assign_f_back, SlottedAloha};
use fmbs_fm::band::Channel;
use fmbs_survey::drive::DriveSurvey;
use fmbs_survey::occupancy;
use fmbs_survey::stations::{City, CityStations};

fn main() {
    println!("City spectrum survey and tag frequency planning");
    println!("===============================================\n");

    // --- Fig. 2a-style drive survey -------------------------------------
    let cdf = DriveSurvey::seattle_like().cdf();
    println!("drive survey over 69 grid cells:");
    println!("  strongest-station power: median {:.1} dBm,", cdf.median());
    println!(
        "  10th pct {:.1} dBm, 90th pct {:.1} dBm",
        cdf.quantile(0.1),
        cdf.quantile(0.9)
    );
    println!("  (FM receiver sensitivity is ~-100 dBm: ambient power is plentiful)\n");

    // --- Fig. 4-style occupancy -----------------------------------------
    println!("channel occupancy in five cities:");
    for city in City::ALL {
        let t = CityStations::generate(city);
        let free = t.occupancy().free_channels().len();
        let shift = occupancy::min_shift_cdf(city);
        println!(
            "  {:>8}: {:>2} licensed, {:>2} detectable, {free:>2} free channels, median shift {:>3.0} kHz",
            city.label(),
            t.licensed.len(),
            t.detectable.len(),
            shift.median() / 1_000.0,
        );
    }

    // --- frequency planning for a deployment -----------------------------
    let seattle = CityStations::generate(City::Seattle);
    let host = Channel::from_frequency_hz(94_900_000.0).expect("94.9 MHz on grid");
    println!("\nplanning f_back for 4 posters riding the {host} news station:");
    let shifts = assign_f_back(&seattle.occupancy(), host, 4);
    for (i, s) in shifts.iter().enumerate() {
        match s {
            Some(hz) => {
                let target = 94_900_000.0 + hz;
                println!(
                    "  poster {}: f_back = {:>6.0} kHz -> backscatter on {:.1} MHz",
                    i + 1,
                    hz / 1_000.0,
                    target / 1e6
                );
            }
            None => println!("  poster {}: no free channel left", i + 1),
        }
    }

    // --- sharing one channel with slotted Aloha --------------------------
    println!("\nten tags sharing one backscatter channel (slotted Aloha, p = 1/n):");
    let sim = SlottedAloha {
        n_tags: 10,
        tx_probability: 0.1,
        n_slots: 100_000,
        seed: 7,
    };
    let out = sim.run();
    println!(
        "  throughput {:.3} successes/slot (theory {:.3}), collisions {:.1}%",
        out.throughput(),
        sim.theoretical_throughput(),
        100.0 * out.collisions as f64 / 100_000.0
    );
}
