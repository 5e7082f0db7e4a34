//! The US FM broadcast band plan.
//!
//! §3.2: "An FM radio station can operate on one of the 100 FM channels
//! between 88.1 to 108.1 MHz, each separated by 200 kHz." The tag's
//! frequency plan (choosing `f_back` so `fc + f_back` is the centre of an
//! unoccupied channel — §3.3) is computed in terms of this grid.

use serde::{Deserialize, Serialize};

/// Channel spacing of the US FM grid (200 kHz).
pub const FM_CHANNEL_SPACING_HZ: f64 = 200_000.0;

/// Centre frequency of the lowest US FM channel (88.1 MHz).
pub const FM_BAND_START_HZ: f64 = 88_100_000.0;

/// Number of channels in the band (88.1, 88.3, …, 107.9 MHz).
pub const FM_CHANNEL_COUNT: usize = 100;

/// A channel index on the US FM grid, 0 → 88.1 MHz … 99 → 107.9 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Channel(pub u8);

impl Channel {
    /// Returns the channel's centre frequency in Hz.
    pub fn frequency_hz(self) -> f64 {
        assert!((self.0 as usize) < FM_CHANNEL_COUNT, "channel out of band");
        FM_BAND_START_HZ + self.0 as f64 * FM_CHANNEL_SPACING_HZ
    }

    /// Returns the channel's centre frequency in MHz.
    pub fn frequency_mhz(self) -> f64 {
        self.frequency_hz() / 1e6
    }

    /// The nearest channel to a frequency in Hz, or `None` outside the
    /// band (with half-channel tolerance at the edges).
    pub fn from_frequency_hz(f: f64) -> Option<Channel> {
        let idx = ((f - FM_BAND_START_HZ) / FM_CHANNEL_SPACING_HZ).round();
        if idx < 0.0 || idx >= FM_CHANNEL_COUNT as f64 {
            return None;
        }
        let ch = Channel(idx as u8);
        if (ch.frequency_hz() - f).abs() <= FM_CHANNEL_SPACING_HZ / 2.0 {
            Some(ch)
        } else {
            None
        }
    }

    /// Signed distance to another channel in whole channels.
    pub fn channels_to(self, other: Channel) -> i32 {
        other.0 as i32 - self.0 as i32
    }

    /// Signed frequency offset to another channel in Hz. This is the
    /// `f_back` a tag sitting on `self`'s ambient signal must synthesise to
    /// land its backscatter on `other`.
    pub fn shift_to_hz(self, other: Channel) -> f64 {
        self.channels_to(other) as f64 * FM_CHANNEL_SPACING_HZ
    }

    /// Iterates over all 100 channels.
    pub fn all() -> impl Iterator<Item = Channel> {
        (0..FM_CHANNEL_COUNT as u8).map(Channel)
    }
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} MHz", self.frequency_mhz())
    }
}

/// Occupancy of the 100-channel grid: which channels carry a detectable
/// station. Used by the survey crate and the tag's frequency planner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandOccupancy {
    occupied: Vec<bool>,
}

impl BandOccupancy {
    /// Creates an all-free band.
    pub fn empty() -> Self {
        BandOccupancy {
            occupied: vec![false; FM_CHANNEL_COUNT],
        }
    }

    /// Creates occupancy from a list of occupied channels.
    pub fn from_channels(channels: &[Channel]) -> Self {
        let mut b = BandOccupancy::empty();
        for &c in channels {
            b.set_occupied(c, true);
        }
        b
    }

    /// Marks a channel occupied or free.
    pub fn set_occupied(&mut self, ch: Channel, occupied: bool) {
        self.occupied[ch.0 as usize] = occupied;
    }

    /// Whether a channel is occupied.
    pub fn is_occupied(&self, ch: Channel) -> bool {
        self.occupied[ch.0 as usize]
    }

    /// Number of occupied channels.
    pub fn occupied_count(&self) -> usize {
        self.occupied.iter().filter(|&&o| o).count()
    }

    /// All free channels.
    pub fn free_channels(&self) -> Vec<Channel> {
        Channel::all().filter(|c| !self.is_occupied(*c)).collect()
    }

    /// The minimum |shift| in Hz from `from` to any *free* channel — the
    /// quantity whose CDF is Fig. 4b. Returns `None` if the whole band is
    /// occupied.
    pub fn min_shift_hz(&self, from: Channel) -> Option<f64> {
        self.free_channels()
            .iter()
            .map(|c| from.shift_to_hz(*c).abs())
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_zero_is_88_1() {
        assert_eq!(Channel(0).frequency_hz(), 88_100_000.0);
    }

    #[test]
    fn channel_99_is_107_9() {
        assert_eq!(Channel(99).frequency_hz(), 107_900_000.0);
    }

    #[test]
    fn paper_frequencies_are_on_grid() {
        // The evaluation uses 91.5 MHz (USRP) shifted to 92.1 MHz, and the
        // poster deployment uses 94.9 → 95.3 MHz.
        let c915 = Channel::from_frequency_hz(91_500_000.0).unwrap();
        let c921 = Channel::from_frequency_hz(92_100_000.0).unwrap();
        assert_eq!(c915.shift_to_hz(c921), 600_000.0);
        let c949 = Channel::from_frequency_hz(94_900_000.0).unwrap();
        let c953 = Channel::from_frequency_hz(95_300_000.0).unwrap();
        assert_eq!(c949.shift_to_hz(c953), 400_000.0);
    }

    #[test]
    fn from_frequency_rejects_out_of_band() {
        assert!(Channel::from_frequency_hz(87_000_000.0).is_none());
        assert!(Channel::from_frequency_hz(109_000_000.0).is_none());
        assert!(Channel::from_frequency_hz(100_100_000.0).is_some());
    }

    #[test]
    fn round_trip_all_channels() {
        for ch in Channel::all() {
            assert_eq!(Channel::from_frequency_hz(ch.frequency_hz()), Some(ch));
        }
    }

    #[test]
    fn occupancy_counts() {
        let mut b = BandOccupancy::empty();
        assert_eq!(b.occupied_count(), 0);
        b.set_occupied(Channel(10), true);
        b.set_occupied(Channel(20), true);
        assert_eq!(b.occupied_count(), 2);
        assert_eq!(b.free_channels().len(), 98);
        assert!(b.is_occupied(Channel(10)));
        assert!(!b.is_occupied(Channel(11)));
    }

    #[test]
    fn min_shift_finds_adjacent_free_channel() {
        // Occupy 16 and 18, keep 17 free: a station on 17's neighbours
        // needs only 200 kHz.
        let b = BandOccupancy::from_channels(&[Channel(16), Channel(18)]);
        assert_eq!(b.min_shift_hz(Channel(16)), Some(200_000.0));
        // A station on a free channel has shift 0 (it IS free — but a real
        // station occupies its own channel; the survey marks it occupied).
        assert_eq!(b.min_shift_hz(Channel(50)), Some(0.0));
    }

    #[test]
    fn min_shift_on_full_band_is_none() {
        let b = BandOccupancy::from_channels(&Channel::all().collect::<Vec<_>>());
        assert_eq!(b.min_shift_hz(Channel(0)), None);
    }
}
