//! The two-hop backscatter link budget.
//!
//! The geometry of the paper's controlled experiments (§5.1–5.3): an FM
//! transmitter, the backscatter device at a distance where it receives a
//! chosen ambient power (−20 … −60 dBm), and the receiver placed `d` feet
//! from the device, equidistant from the transmitter. The budget chains:
//!
//! ```text
//!  P_tag  (ambient FM power at the tag — the experiment knob)
//!   + G_tag        tag antenna effective gain
//!   − L_conv       square-wave SSB conversion loss (≈ 3.9 dB)
//!   − L_refl       reflection/modulation efficiency of the switch + antenna
//!   − FSPL(d)      tag → receiver free-space loss
//!   + G_rx         receiver antenna effective gain
//!   = P_bs         backscatter carrier power at the receiver
//! ```
//!
//! The in-channel noise is thermal (kTB · NF) plus the ambient host
//! station leaking across the 600 kHz offset (§3.3: "the noise floor may
//! instead be limited by power leaked from an adjacent channel"). Carrier-
//! to-noise ratio then maps to post-discriminator audio SNR through the FM
//! processing gain, with the classic FM threshold collapse below ~12 dB
//! CNR — the mechanism that ends every range curve in Figs. 7–14.

use crate::antenna::Antenna;
use crate::feet_to_m;
use crate::noise::effective_noise_floor;
use crate::pathloss::free_space_path_loss_db;
use crate::units::{Db, Dbm};
use serde::{Deserialize, Serialize};

/// Square-wave single-sideband conversion loss: the ±1 switch splits the
/// incident carrier into two sidebands of amplitude `(4/π)/2` each
/// (≈ −3.92 dB per sideband).
pub const CONVERSION_LOSS_DB: f64 = 3.92;

/// FM post-detection processing gain applied to CNR to obtain wideband
/// audio SNR, calibrated against the paper's Fig. 7 anchors (≈ 33 dB SNR
/// at −30 dBm / 20 ft; ≈ 50 dB at −20 dBm / 4 ft).
pub const FM_PROCESSING_GAIN_DB: f64 = 13.0;

/// CNR below which the FM demodulator enters threshold collapse.
pub const FM_THRESHOLD_CNR_DB: f64 = 12.0;

/// Configuration of a backscatter link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BackscatterLink {
    /// Ambient FM power arriving at the tag (the experiment's power knob).
    pub ambient_at_tag: Dbm,
    /// Tag antenna.
    pub tag_antenna: Antenna,
    /// Receiver antenna.
    pub rx_antenna: Antenna,
    /// Carrier frequency in Hz.
    pub f_hz: f64,
    /// Extra reflection/modulation loss of the switch + antenna mismatch
    /// in dB (how far the real tag is from an ideal ±1 reflector).
    pub reflection_loss_db: Db,
    /// Receiver noise figure in dB.
    pub noise_figure: Db,
    /// Adjacent-channel rejection of the receiver toward the ambient host
    /// station (600 kHz away in the paper's setup).
    pub adjacent_rejection: Db,
    /// Ambient host power arriving at the *receiver*. The controlled
    /// experiments keep tag and receiver equidistant from the transmitter,
    /// so this defaults to `ambient_at_tag`.
    pub host_at_rx: Dbm,
}

impl BackscatterLink {
    /// The paper's smartphone setup at a given ambient power.
    pub fn smartphone(ambient_at_tag: Dbm) -> Self {
        BackscatterLink {
            ambient_at_tag,
            tag_antenna: Antenna::PosterDipole,
            rx_antenna: Antenna::HeadphoneWire,
            f_hz: 91.5e6,
            reflection_loss_db: Db(6.0),
            noise_figure: Db(13.0),
            adjacent_rejection: Db(60.0),
            host_at_rx: ambient_at_tag,
        }
    }

    /// The §5.4 car setup: whip antenna, otherwise identical physics.
    pub fn car(ambient_at_tag: Dbm) -> Self {
        BackscatterLink {
            rx_antenna: Antenna::CarWhip,
            ..BackscatterLink::smartphone(ambient_at_tag)
        }
    }

    /// The §6.2 smart-fabric setup: shirt antenna on the tag side.
    pub fn smart_fabric(ambient_at_tag: Dbm) -> Self {
        BackscatterLink {
            tag_antenna: Antenna::ShirtMeander,
            ..BackscatterLink::smartphone(ambient_at_tag)
        }
    }

    /// Computes the budget at a tag→receiver distance in feet.
    pub fn budget_at_feet(&self, distance_ft: f64) -> LinkBudget {
        self.budget_at_meters(feet_to_m(distance_ft))
    }

    /// Computes the budget at a tag→receiver distance in metres.
    pub fn budget_at_meters(&self, d_m: f64) -> LinkBudget {
        let fspl = free_space_path_loss_db(d_m, self.f_hz);
        let p_bs = self.ambient_at_tag + self.tag_antenna.effective_gain_db()
            - Db(CONVERSION_LOSS_DB)
            - self.reflection_loss_db
            - fspl
            + self.rx_antenna.effective_gain_db();
        let noise =
            effective_noise_floor(self.noise_figure, self.host_at_rx, self.adjacent_rejection);
        let cnr = p_bs - noise;
        LinkBudget {
            backscatter_at_rx: p_bs,
            noise_floor: noise,
            cnr,
            audio_snr: Db(audio_snr_from_cnr(cnr.0)),
        }
    }
}

/// Maps CNR (dB) to post-detection wideband audio SNR (dB), including the
/// FM threshold collapse.
pub fn audio_snr_from_cnr(cnr_db: f64) -> f64 {
    let linear_region = cnr_db + FM_PROCESSING_GAIN_DB;
    if cnr_db >= FM_THRESHOLD_CNR_DB {
        linear_region
    } else {
        // Below threshold, clicks take over: SNR falls quadratically with
        // the CNR deficit. Empirically ~3 dB of extra loss per dB² of
        // deficit reproduces the cliff in the paper's range curves.
        let deficit = FM_THRESHOLD_CNR_DB - cnr_db;
        linear_region - 1.5 * deficit * deficit
    }
}

/// Computed link budget at one geometry.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Backscatter carrier power at the receiver.
    pub backscatter_at_rx: Dbm,
    /// Effective in-channel noise floor.
    pub noise_floor: Dbm,
    /// Carrier-to-noise ratio.
    pub cnr: Db,
    /// Post-detection wideband audio SNR (the quantity behind Fig. 7).
    pub audio_snr: Db,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_loss_matches_square_wave_math() {
        let expected = -20.0 * ((4.0 / std::f64::consts::PI) / 2.0).log10();
        assert!((CONVERSION_LOSS_DB - expected).abs() < 0.01);
    }

    #[test]
    fn fig7_anchor_minus30dbm_20ft() {
        // Paper Fig. 7: ≈ 33 dB SNR at −30 dBm and 20 ft.
        let link = BackscatterLink::smartphone(Dbm(-30.0));
        let b = link.budget_at_feet(20.0);
        assert!(
            (b.audio_snr.0 - 33.0).abs() < 8.0,
            "audio SNR {} dB",
            b.audio_snr
        );
        assert!(b.cnr.0 >= FM_THRESHOLD_CNR_DB, "below FM threshold");
    }

    #[test]
    fn fig7_anchor_minus20dbm_4ft() {
        // Paper Fig. 6/7: ≈ 45–55 dB at −20 dBm close in.
        let link = BackscatterLink::smartphone(Dbm(-20.0));
        let b = link.budget_at_feet(4.0);
        assert!(
            b.audio_snr.0 > 38.0 && b.audio_snr.0 < 60.0,
            "audio SNR {} dB",
            b.audio_snr
        );
    }

    #[test]
    fn minus60dbm_works_close_but_dies_by_12ft() {
        // Fig. 8a: at −60 dBm, 100 bps is clean to ~6 ft and fails well
        // before 12 ft.
        let link = BackscatterLink::smartphone(Dbm(-60.0));
        let close = link.budget_at_feet(4.0);
        let far = link.budget_at_feet(14.0);
        assert!(close.cnr.0 > 10.0, "close CNR {}", close.cnr);
        assert!(far.audio_snr.0 < 10.0, "far audio SNR {}", far.audio_snr);
    }

    #[test]
    fn snr_decreases_monotonically_with_distance() {
        // Beyond the near-field clamp (λ/2 ≈ 5.4 ft at 91.5 MHz) the SNR
        // must fall strictly with distance.
        let link = BackscatterLink::smartphone(Dbm(-40.0));
        let mut prev = f64::INFINITY;
        for ft in [6.0, 8.0, 12.0, 16.0, 20.0] {
            let b = link.budget_at_feet(ft);
            assert!(b.audio_snr.0 < prev, "not monotone at {ft} ft");
            prev = b.audio_snr.0;
        }
    }

    #[test]
    fn snr_increases_with_ambient_power() {
        let mut prev = -f64::INFINITY;
        for p in [-60.0, -50.0, -40.0, -30.0, -20.0] {
            let b = BackscatterLink::smartphone(Dbm(p)).budget_at_feet(10.0);
            assert!(b.audio_snr.0 > prev, "not monotone at {p} dBm");
            prev = b.audio_snr.0;
        }
    }

    #[test]
    fn car_link_reaches_60ft() {
        // Fig. 14: the car receives well out to 60 ft at −20/−30 dBm.
        let link = BackscatterLink::car(Dbm(-30.0));
        let b = link.budget_at_feet(60.0);
        assert!(
            b.audio_snr.0 > 15.0,
            "car at 60 ft: audio SNR {}",
            b.audio_snr
        );
        // And the phone at the same geometry is far worse.
        let phone = BackscatterLink::smartphone(Dbm(-30.0)).budget_at_feet(60.0);
        assert!(b.audio_snr.0 > phone.audio_snr.0 + 8.0);
    }

    #[test]
    fn fabric_link_is_weaker_than_poster() {
        let poster = BackscatterLink::smartphone(Dbm(-35.0)).budget_at_feet(3.0);
        let shirt = BackscatterLink::smart_fabric(Dbm(-35.0)).budget_at_feet(3.0);
        assert!(shirt.audio_snr.0 < poster.audio_snr.0);
        // But still comfortably usable at phone-in-pocket range (§6.2).
        assert!(shirt.audio_snr.0 > 20.0, "shirt SNR {}", shirt.audio_snr);
    }

    #[test]
    fn threshold_collapse_is_steep() {
        // 6 dB below threshold must cost far more than 6 dB of SNR.
        let at = audio_snr_from_cnr(FM_THRESHOLD_CNR_DB);
        let below = audio_snr_from_cnr(FM_THRESHOLD_CNR_DB - 6.0);
        assert!(at - below > 20.0, "collapse {} → {}", at, below);
    }
}
