//! Smart fabric (§6.2): a shirt with a sewn conductive-thread antenna
//! streams vital signs to the wearer's phone while standing, walking and
//! running.
//!
//! ```text
//! cargo run --release --example smart_fabric
//! ```

use fmbs_channel::fading::MotionProfile;
use fmbs_core::modem::frame::{FrameDecoder, FrameEncoder};
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::{FastSim, FAST_AUDIO_RATE};
use fmbs_core::sim::metric::{Ber, BerMrc, Metric};
use fmbs_core::sim::scenario::{Scenario, Workload};

/// A vital-signs sample the shirt reports once per frame.
#[derive(Debug)]
struct Vitals {
    heart_rate_bpm: u8,
    breathing_rate_bpm: u8,
    activity: u8, // steps/min
}

impl Vitals {
    fn encode(&self) -> Vec<u8> {
        vec![self.heart_rate_bpm, self.breathing_rate_bpm, self.activity]
    }

    fn decode(bytes: &[u8]) -> Option<Vitals> {
        if bytes.len() != 3 {
            return None;
        }
        Some(Vitals {
            heart_rate_bpm: bytes[0],
            breathing_rate_bpm: bytes[1],
            activity: bytes[2],
        })
    }
}

fn main() {
    println!("Smart fabric: vital signs over FM backscatter");
    println!("=============================================\n");

    let motions = [
        (
            MotionProfile::Standing,
            Vitals {
                heart_rate_bpm: 64,
                breathing_rate_bpm: 13,
                activity: 0,
            },
        ),
        (
            MotionProfile::Walking,
            Vitals {
                heart_rate_bpm: 92,
                breathing_rate_bpm: 18,
                activity: 105,
            },
        ),
        (
            MotionProfile::Running,
            Vitals {
                heart_rate_bpm: 148,
                breathing_rate_bpm: 32,
                activity: 172,
            },
        ),
    ];

    for (motion, vitals) in motions {
        let scenario = Scenario::fabric(motion);
        // Frame the vitals at the robust 100 bps rate (the paper's shirt
        // achieves BER < 0.005 at 100 bps even while running).
        let frame = FrameEncoder::new(FAST_AUDIO_RATE, Bitrate::Bps100).encode(&vitals.encode());
        let rx = FastSim.run_payload(&scenario, &frame, false);
        let decoded = FrameDecoder::new(FAST_AUDIO_RATE, Bitrate::Bps100)
            .decode(&rx.mono)
            .and_then(|f| Vitals::decode(&f.payload));
        println!("wearer {motion:?}:");
        match decoded {
            Some(v) => println!(
                "  phone received: HR {} bpm, breathing {} /min, {} steps/min",
                v.heart_rate_bpm, v.breathing_rate_bpm, v.activity
            ),
            None => println!("  frame lost (fade during transmission)"),
        }

        // Raw-BER characterisation per Fig. 17b.
        let data = |rate, n_bits| {
            scenario.with_workload(
                Workload::data(rate, n_bits).with_payload_seed(scenario.seed ^ 0xDA7A),
            )
        };
        let ber100 = Ber.evaluate(&FastSim, &data(Bitrate::Bps100, 200));
        let ber1600 = BerMrc::new(2).evaluate(&FastSim, &data(Bitrate::Kbps1_6, 400));
        println!("  raw BER:  100 bps {ber100:.4}   1.6 kbps w/ 2x MRC {ber1600:.4}\n");
    }

    println!("note: the shirt antenna pays a body-proximity penalty, and motion");
    println!("adds fading — 100 bps stays reliable, matching the paper's Fig. 17b.");
}
