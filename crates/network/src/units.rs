//! Strongly-typed physical quantities.
//!
//! The paper discretises space with a resolution `r_s` and time with a
//! resolution `r_t`; mixing up metres, kilometres, seconds and steps is the
//! classic failure mode of such code, so every quantity gets a newtype.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A distance in metres.
///
/// # Examples
///
/// ```
/// use etcs_network::Meters;
/// let track = Meters::from_km(1.5);
/// assert_eq!(track.as_u64(), 1500);
/// assert_eq!(format!("{track}"), "1500 m");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Meters(pub u64);

impl Meters {
    /// Zero distance.
    pub const ZERO: Meters = Meters(0);

    /// Creates a distance from a kilometre value (rounded to whole metres).
    pub fn from_km(km: f64) -> Self {
        Meters((km * 1000.0).round() as u64)
    }

    /// The raw metre count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The distance in kilometres.
    pub fn as_km(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Ceiling division by another distance (e.g. train length / `r_s` →
    /// number of occupied segments).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    pub fn div_ceil(self, unit: Meters) -> u64 {
        assert!(unit.0 > 0, "division by a zero distance");
        self.0.div_ceil(unit.0)
    }

    /// Flooring division by another distance.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    pub fn div_floor(self, unit: Meters) -> u64 {
        assert!(unit.0 > 0, "division by a zero distance");
        self.0 / unit.0
    }
}

impl Add for Meters {
    type Output = Meters;
    fn add(self, rhs: Meters) -> Meters {
        Meters(self.0 + rhs.0)
    }
}

impl AddAssign for Meters {
    fn add_assign(&mut self, rhs: Meters) {
        self.0 += rhs.0;
    }
}

impl Sub for Meters {
    type Output = Meters;
    fn sub(self, rhs: Meters) -> Meters {
        Meters(self.0 - rhs.0)
    }
}

impl Mul<u64> for Meters {
    type Output = Meters;
    fn mul(self, rhs: u64) -> Meters {
        Meters(self.0 * rhs)
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} m", self.0)
    }
}

/// A speed in kilometres per hour.
///
/// # Examples
///
/// ```
/// use etcs_network::{KmPerHour, Meters, Seconds};
/// let v = KmPerHour(180);
/// // 180 km/h over 30 s covers 1.5 km.
/// assert_eq!(v.distance_in(Seconds(30)), Meters::from_km(1.5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct KmPerHour(pub u32);

impl KmPerHour {
    /// The raw km/h value.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Distance covered at this speed in the given duration (rounded to
    /// whole metres). A product past `u64::MAX` saturates instead of
    /// overflowing.
    pub fn distance_in(self, duration: Seconds) -> Meters {
        // km/h * s = (1000 m / 3600 s) * s
        let km_s = u64::from(self.0).saturating_mul(duration.0);
        Meters(km_s.saturating_mul(1000).div_ceil(3600))
    }
}

impl fmt::Display for KmPerHour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} km/h", self.0)
    }
}

/// A point in time or a duration, in whole seconds.
///
/// # Examples
///
/// ```
/// use etcs_network::Seconds;
/// let t = Seconds::parse_hms("0:04:30").expect("valid");
/// assert_eq!(t, Seconds(270));
/// assert_eq!(format!("{t}"), "0:04:30");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Seconds(pub u64);

impl Seconds {
    /// Zero / the scenario start.
    pub const ZERO: Seconds = Seconds(0);

    /// Creates a duration from whole minutes.
    pub fn from_minutes(m: u64) -> Self {
        Seconds(m * 60)
    }

    /// Creates a duration from fractional minutes (rounded to seconds).
    pub fn from_minutes_f64(m: f64) -> Self {
        Seconds((m * 60.0).round() as u64)
    }

    /// The raw second count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Parses `H:MM:SS` or `M:SS` (as used in the paper's schedule tables).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTimeError`] for anything that is not one or two
    /// colons separating decimal fields, and for a time past `u64::MAX`
    /// seconds.
    pub fn parse_hms(text: &str) -> Result<Self, ParseTimeError> {
        let parts: Vec<&str> = text.split(':').collect();
        let err = || ParseTimeError {
            input: text.to_owned(),
        };
        let nums: Vec<u64> = parts
            .iter()
            .map(|p| p.parse::<u64>().map_err(|_| err()))
            .collect::<Result<_, _>>()?;
        let seconds = match nums.as_slice() {
            [m, s] if *s < 60 => m.checked_mul(60).and_then(|t| t.checked_add(*s)),
            [h, m, s] if *m < 60 && *s < 60 => {
                h.checked_mul(3600).and_then(|t| t.checked_add(m * 60 + s))
            }
            _ => None,
        };
        seconds.map(Seconds).ok_or_else(err)
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<u64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: u64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{:02}:{:02}",
            self.0 / 3600,
            (self.0 % 3600) / 60,
            self.0 % 60
        )
    }
}

/// Error returned by [`Seconds::parse_hms`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTimeError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseTimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid time syntax `{}` (expected H:MM:SS or M:SS, at most {} seconds)",
            self.input,
            u64::MAX
        )
    }
}

impl std::error::Error for ParseTimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_km_roundtrip() {
        assert_eq!(Meters::from_km(0.5).as_u64(), 500);
        assert_eq!(Meters(2500).as_km(), 2.5);
    }

    #[test]
    fn meters_arithmetic() {
        assert_eq!(Meters(100) + Meters(200), Meters(300));
        assert_eq!(Meters(300) - Meters(100), Meters(200));
        assert_eq!(Meters(100) * 3, Meters(300));
        let mut m = Meters(1);
        m += Meters(2);
        assert_eq!(m, Meters(3));
    }

    #[test]
    fn div_ceil_and_floor() {
        assert_eq!(Meters(400).div_ceil(Meters(500)), 1);
        assert_eq!(Meters(700).div_ceil(Meters(500)), 2);
        assert_eq!(Meters(1000).div_ceil(Meters(500)), 2);
        assert_eq!(Meters(700).div_floor(Meters(500)), 1);
    }

    #[test]
    #[should_panic(expected = "zero distance")]
    fn div_by_zero_panics() {
        Meters(100).div_ceil(Meters(0));
    }

    #[test]
    fn speed_distance() {
        assert_eq!(KmPerHour(120).distance_in(Seconds(60)), Meters(2000));
        assert_eq!(KmPerHour(180).distance_in(Seconds(30)), Meters(1500));
        assert_eq!(KmPerHour(0).distance_in(Seconds(600)), Meters(0));
        assert_eq!(
            KmPerHour(120).distance_in(Seconds(4_000_000_000_000_000)),
            Meters(u64::MAX.div_ceil(3600)),
            "a product past u64::MAX saturates"
        );
    }

    #[test]
    fn parse_hms_variants() {
        assert_eq!(Seconds::parse_hms("0:00"), Ok(Seconds(0)));
        assert_eq!(Seconds::parse_hms("4:30"), Ok(Seconds(270)));
        assert_eq!(Seconds::parse_hms("0:04:30"), Ok(Seconds(270)));
        assert_eq!(Seconds::parse_hms("1:00:00"), Ok(Seconds(3600)));
    }

    #[test]
    fn parse_hms_rejects_garbage() {
        assert!(Seconds::parse_hms("").is_err());
        assert!(Seconds::parse_hms("12").is_err());
        assert!(Seconds::parse_hms("1:99").is_err());
        assert!(Seconds::parse_hms("1:2:3:4").is_err());
        assert!(Seconds::parse_hms("a:30").is_err());
    }

    #[test]
    fn parse_hms_rejects_overflow() {
        for text in [
            "99999999999999999:00:00",
            "307445734561825861:00",
            "5124095576030432:00:00",
            "18446744073709551615:00",
        ] {
            let err = Seconds::parse_hms(text).expect_err(text);
            assert_eq!(err.input, text);
        }
        // The largest representable times still parse, and print back.
        let max = Seconds::parse_hms("307445734561825860:15").expect("fits");
        assert_eq!(max, Seconds(u64::MAX));
        assert_eq!(Seconds::parse_hms(&max.to_string()), Ok(max));
        assert_eq!(
            Seconds::parse_hms("5124095576030431:00:15"),
            Ok(Seconds(u64::MAX))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Seconds(270)), "0:04:30");
        assert_eq!(format!("{}", Seconds(3661)), "1:01:01");
        assert_eq!(format!("{}", KmPerHour(120)), "120 km/h");
        assert_eq!(format!("{}", Meters(42)), "42 m");
    }

    #[test]
    fn minutes_constructors() {
        assert_eq!(Seconds::from_minutes(5), Seconds(300));
        assert_eq!(Seconds::from_minutes_f64(0.5), Seconds(30));
    }
}
