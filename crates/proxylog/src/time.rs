//! Minimal civil-time handling for log timestamps.
//!
//! The log format uses `YYYY-MM-DD HH:MM:SS` wall-clock timestamps (UTC).
//! Rather than pulling in a calendar crate, this module implements the
//! standard days-from-civil / civil-from-days algorithms (Howard Hinnant's
//! `chrono`-compatible formulation), which are exact over the proleptic
//! Gregorian calendar.

use std::fmt;
use std::str::FromStr;

/// Seconds since the Unix epoch (UTC), as used by every log record.
///
/// # Examples
///
/// ```
/// use proxylog::Timestamp;
///
/// let t: Timestamp = "2015-05-29 05:05:04".parse()?;
/// assert_eq!(t.to_string(), "2015-05-29 05:05:04");
/// assert_eq!((t + 56).to_string(), "2015-05-29 05:06:00");
/// # Ok::<(), proxylog::ParseTimestampError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Builds a timestamp from civil date and time components.
    ///
    /// # Panics
    ///
    /// Panics if the components do not form a valid date/time (month 1–12,
    /// day valid for the month, hour < 24, minute/second < 60).
    pub fn from_civil(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day {day} invalid for {year}-{month}"
        );
        assert!(hour < 24 && minute < 60 && second < 60, "invalid time {hour}:{minute}:{second}");
        let days = days_from_civil(year, month, day);
        Timestamp(
            days * 86_400 + i64::from(hour) * 3600 + i64::from(minute) * 60 + i64::from(second),
        )
    }

    /// Decomposes into `(year, month, day, hour, minute, second)`.
    pub fn to_civil(self) -> (i32, u32, u32, u32, u32, u32) {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        let hour = (secs / 3600) as u32;
        let minute = (secs % 3600 / 60) as u32;
        let second = (secs % 60) as u32;
        (y, m, d, hour, minute, second)
    }

    /// Raw seconds since the Unix epoch.
    pub fn as_secs(self) -> i64 {
        self.0
    }

    /// Day of week, 0 = Monday … 6 = Sunday.
    pub fn weekday(self) -> u32 {
        // 1970-01-01 was a Thursday (index 3).
        ((self.0.div_euclid(86_400) + 3).rem_euclid(7)) as u32
    }

    /// Seconds elapsed since local midnight.
    pub fn seconds_of_day(self) -> u32 {
        self.0.rem_euclid(86_400) as u32
    }
}

impl std::ops::Add<i64> for Timestamp {
    type Output = Timestamp;
    fn add(self, seconds: i64) -> Timestamp {
        Timestamp(self.0 + seconds)
    }
}

impl std::ops::Sub<Timestamp> for Timestamp {
    type Output = i64;
    fn sub(self, other: Timestamp) -> i64 {
        self.0 - other.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_civil();
        write!(f, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

/// Error parsing a `YYYY-MM-DD HH:MM:SS` timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimestampError {
    input: String,
}

impl fmt::Display for ParseTimestampError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid timestamp {:?}, expected YYYY-MM-DD HH:MM:SS", self.input)
    }
}

impl std::error::Error for ParseTimestampError {}

impl FromStr for Timestamp {
    type Err = ParseTimestampError;

    /// Parses `YYYY-MM-DD HH:MM:SS` in one pass over the bytes. Each of
    /// the six numbers is what `str::parse` accepts for it: one or more
    /// digits after an optional `+`, leading zeros and unpadded values
    /// (`2015-5-29 5:5:4`) included, without overflow of `u32` (`i32` for
    /// the year).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_civil(s.as_bytes()).ok_or_else(|| ParseTimestampError { input: s.to_owned() })
    }
}

/// The separator that ends each of the first five numbers of a
/// timestamp.
const SEPARATORS: [u8; 5] = *b"-- ::";

fn parse_civil(bytes: &[u8]) -> Option<Timestamp> {
    let mut numbers = [0u32; 6];
    let mut at = 0;
    let mut digits = 0;
    let mut signed = false;
    for &byte in bytes {
        match byte {
            b'0'..=b'9' => {
                numbers[at] = numbers[at].checked_mul(10)?.checked_add(u32::from(byte - b'0'))?;
                digits += 1;
            }
            b'+' if digits == 0 && !signed => signed = true,
            _ if at < SEPARATORS.len() && byte == SEPARATORS[at] && digits > 0 => {
                at += 1;
                digits = 0;
                signed = false;
            }
            _ => return None,
        }
    }
    if at != SEPARATORS.len() || digits == 0 {
        return None;
    }
    let [year, month, day, hour, minute, second] = numbers;
    let year = i32::try_from(year).ok()?;
    if !(1..=12).contains(&month)
        || day < 1
        || day > days_in_month(year, month)
        || hour >= 24
        || minute >= 60
        || second >= 60
    {
        return None;
    }
    Some(Timestamp::from_civil(year, month, day, hour, minute, second))
}

fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = i64::from(year) - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((month + 9) % 12); // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (Hinnant's algorithm).
fn civil_from_days(days: i64) -> (i32, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = ((mp + 2) % 12 + 1) as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(Timestamp(0).to_string(), "1970-01-01 00:00:00");
    }

    #[test]
    fn paper_example_round_trips() {
        let t: Timestamp = "2015-05-29 05:05:04".parse().unwrap();
        assert_eq!(t.to_string(), "2015-05-29 05:05:04");
        let (y, mo, d, h, mi, s) = t.to_civil();
        assert_eq!((y, mo, d, h, mi, s), (2015, 5, 29, 5, 5, 4));
    }

    #[test]
    fn leap_year_handling() {
        let t = Timestamp::from_civil(2016, 2, 29, 12, 0, 0);
        assert_eq!(t.to_string(), "2016-02-29 12:00:00");
        assert!("2015-02-29 00:00:00".parse::<Timestamp>().is_err());
        assert!("2000-02-29 00:00:00".parse::<Timestamp>().is_ok()); // 400-year rule
        assert!("1900-02-29 00:00:00".parse::<Timestamp>().is_err()); // 100-year rule
    }

    #[test]
    fn civil_round_trip_over_decades() {
        for days in (-20_000..40_000).step_by(17) {
            let t = Timestamp(i64::from(days) * 86_400 + 12_345);
            let (y, mo, d, h, mi, s) = t.to_civil();
            assert_eq!(Timestamp::from_civil(y, mo, d, h, mi, s), t);
        }
    }

    #[test]
    fn weekday_is_correct() {
        // 1970-01-01 was a Thursday.
        assert_eq!(Timestamp::from_civil(1970, 1, 1, 0, 0, 0).weekday(), 3);
        // 2015-05-29 was a Friday.
        assert_eq!(Timestamp::from_civil(2015, 5, 29, 10, 0, 0).weekday(), 4);
        // 2017-01-01 was a Sunday.
        assert_eq!(Timestamp::from_civil(2017, 1, 1, 0, 0, 0).weekday(), 6);
    }

    #[test]
    fn seconds_of_day() {
        let t = Timestamp::from_civil(2015, 6, 1, 1, 2, 3);
        assert_eq!(t.seconds_of_day(), 3723);
    }

    #[test]
    fn ordering_follows_time() {
        let a = Timestamp::from_civil(2015, 1, 1, 0, 0, 0);
        let b = Timestamp::from_civil(2015, 1, 1, 0, 0, 1);
        assert!(a < b);
        assert_eq!(b - a, 1);
        assert_eq!(a + 1, b);
    }

    #[test]
    fn rejects_malformed_strings() {
        for bad in [
            "",
            "2015-05-29",
            "2015/05/29 05:05:04",
            "2015-13-01 00:00:00",
            "2015-00-10 00:00:00",
            "2015-01-32 00:00:00",
            "2015-01-01 24:00:00",
            "2015-01-01 00:60:00",
            "not a date at all",
        ] {
            assert!(bad.parse::<Timestamp>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_error_mentions_format() {
        let err = "nope".parse::<Timestamp>().unwrap_err();
        assert!(err.to_string().contains("YYYY-MM-DD"));
    }
}
