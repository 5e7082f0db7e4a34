//! Typed power and gain units.
//!
//! Link budgets are a classic source of silent unit bugs (adding dBm to
//! dBm, multiplying dB…). The `Dbm` and `Db` newtypes make the legal
//! operations explicit: `Dbm + Db = Dbm`, `Dbm − Dbm = Db`, and conversions
//! to and from linear milliwatts are spelled out.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// Absolute power in dB-milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Dbm(pub f64);

/// Relative power (gain/loss) in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Db(pub f64);

impl Dbm {
    /// Converts to linear milliwatts.
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates from linear milliwatts.
    pub fn from_milliwatts(mw: f64) -> Dbm {
        Dbm(10.0 * mw.log10())
    }

    /// Creates from watts.
    pub fn from_watts(w: f64) -> Dbm {
        Dbm::from_milliwatts(w * 1_000.0)
    }

    /// RMS voltage amplitude ratio relative to 0 dBm (1 mW): the linear
    /// amplitude scale factor a simulator applies to a unit-power signal
    /// to give it this power.
    pub fn amplitude_vs_0dbm(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl AddAssign<Db> for Dbm {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl SubAssign<Db> for Dbm {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl std::fmt::Display for Dbm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

impl std::fmt::Display for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

/// Sums several absolute powers (linear-domain addition).
pub fn sum_powers(powers: &[Dbm]) -> Dbm {
    Dbm::from_milliwatts(powers.iter().map(|p| p.to_milliwatts()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_dbm_is_one_milliwatt() {
        assert!((Dbm(0.0).to_milliwatts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_rules() {
        let p = Dbm(-30.0);
        let g = Db(6.0);
        assert_eq!((p + g).0, -24.0);
        assert_eq!((p - g).0, -36.0);
        assert_eq!((Dbm(-20.0) - Dbm(-50.0)).0, 30.0);
        assert_eq!((Db(3.0) + Db(4.0)).0, 7.0);
        assert_eq!((-Db(3.0)).0, -3.0);
    }

    #[test]
    fn linear_round_trips() {
        for v in [-60.0, -35.15, 0.0, 17.0] {
            assert!((Dbm::from_milliwatts(Dbm(v).to_milliwatts()).0 - v).abs() < 1e-10);
        }
    }

    #[test]
    fn doubling_power_is_3db() {
        let p = sum_powers(&[Dbm(-40.0), Dbm(-40.0)]);
        assert!((p.0 + 36.9897).abs() < 1e-3);
    }

    #[test]
    fn amplitude_is_sqrt_of_power() {
        let a = Dbm(-20.0).amplitude_vs_0dbm();
        assert!((a * a - Dbm(-20.0).to_milliwatts()).abs() < 1e-12);
    }
}
