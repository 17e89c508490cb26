//! Physical-unit newtypes shared across the guardband study.
//!
//! The characterization framework manipulates voltages in millivolt steps
//! (the X-Gene2 regulator granularity), frequencies in MHz and power in
//! watts. Newtypes keep these from being mixed up ([C-NEWTYPE]) and give a
//! single place for the conversions the paper's arithmetic relies on.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A supply voltage in millivolts.
///
/// The X-Gene2 PMD and SoC power domains are programmed in integer
/// millivolts; the paper's nominal PMD supply is 980 mV.
///
/// # Examples
///
/// ```
/// use power_model::units::Millivolts;
///
/// let nominal = Millivolts::XGENE2_NOMINAL;
/// let vmin = Millivolts::new(885);
/// assert_eq!((nominal - vmin).as_u32(), 95);
/// assert!(vmin < nominal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Millivolts(u32);

impl Millivolts {
    /// Nominal PMD supply voltage of the X-Gene2 (980 mV).
    pub const XGENE2_NOMINAL: Millivolts = Millivolts(980);

    /// Creates a voltage from a millivolt count.
    pub const fn new(mv: u32) -> Self {
        Millivolts(mv)
    }

    /// Returns the raw millivolt count.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Ratio of this voltage to `nominal` (dimensionless, e.g. `915/980`).
    pub fn ratio_to(self, nominal: Millivolts) -> f64 {
        f64::from(self.0) / f64::from(nominal.0)
    }

    /// Saturating subtraction of a millivolt step, used by undervolting
    /// loops that walk down from nominal.
    pub fn step_down(self, step_mv: u32) -> Millivolts {
        Millivolts(self.0.saturating_sub(step_mv))
    }

    /// Guardband (headroom) of this voltage relative to `vmin`, as a
    /// fraction of this voltage. The paper reports e.g. "at least 18.4 %"
    /// for the TTT chip: `(980 − 885) / 980` for its worst SPEC program
    /// (the computation is `guardband_fraction` of nominal w.r.t. vmin).
    pub fn guardband_fraction(self, vmin: Millivolts) -> f64 {
        if vmin >= self {
            return 0.0;
        }
        f64::from(self.0 - vmin.0) / f64::from(self.0)
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mV", self.0)
    }
}

impl Add for Millivolts {
    type Output = Millivolts;
    fn add(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0 + rhs.0)
    }
}

impl Sub for Millivolts {
    type Output = Millivolts;
    /// Saturating difference: undervolting below 0 mV is meaningless.
    fn sub(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0.saturating_sub(rhs.0))
    }
}

/// A clock frequency in megahertz.
///
/// # Examples
///
/// ```
/// use power_model::units::Megahertz;
///
/// let full = Megahertz::XGENE2_NOMINAL;
/// let half = Megahertz::XGENE2_HALF;
/// assert_eq!(full.as_u32(), 2400);
/// assert!((half.ratio_to(full) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Megahertz(u32);

impl Megahertz {
    /// Nominal X-Gene2 core clock (2.4 GHz).
    pub const XGENE2_NOMINAL: Megahertz = Megahertz(2400);
    /// The reduced PMD clock used in the paper's Fig. 5 trade-off (1.2 GHz).
    pub const XGENE2_HALF: Megahertz = Megahertz(1200);

    /// Creates a frequency from a megahertz count.
    pub const fn new(mhz: u32) -> Self {
        Megahertz(mhz)
    }

    /// Returns the raw megahertz count.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Ratio of this frequency to `nominal`.
    pub fn ratio_to(self, nominal: Megahertz) -> f64 {
        f64::from(self.0) / f64::from(nominal.0)
    }
}

impl fmt::Display for Megahertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(100) && self.0 >= 1000 {
            write!(f, "{:.1}GHz", f64::from(self.0) / 1000.0)
        } else {
            write!(f, "{}MHz", self.0)
        }
    }
}

/// Electrical power in watts.
///
/// # Examples
///
/// ```
/// use power_model::units::Watts;
///
/// let nominal = Watts::new(31.1);
/// let undervolted = Watts::new(24.8);
/// let savings = nominal.savings_to(undervolted);
/// assert!((savings - 0.2025).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Watts(f64);

impl Watts {
    /// Creates a power value.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or not finite.
    pub fn new(w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "power must be finite and non-negative, got {w}"
        );
        Watts(w)
    }

    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Returns the power in watts.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Fractional savings going from `self` (baseline) to `other`.
    ///
    /// Returns `0.0` when the baseline is zero.
    pub fn savings_to(self, other: Watts) -> f64 {
        if self.0 <= 0.0 {
            return 0.0;
        }
        (self.0 - other.0) / self.0
    }

    /// Scales the power by a dimensionless factor.
    pub fn scaled(self, factor: f64) -> Watts {
        Watts::new(self.0 * factor)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}W", self.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts((self.0 - rhs.0).max(0.0))
    }
}

impl std::iter::Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, Add::add)
    }
}

/// A temperature in degrees Celsius.
///
/// DRAM retention characterization in the paper runs at regulated 50 °C and
/// 60 °C set points.
///
/// # Examples
///
/// ```
/// use power_model::units::Celsius;
///
/// let t = Celsius::new(50.0);
/// assert!((t.as_f64() - 50.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not finite.
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite(), "temperature must be finite");
        Celsius(t)
    }

    /// Returns the temperature in °C.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Difference `self − other` in kelvin (== °C difference).
    pub fn delta(self, other: Celsius) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°C", self.0)
    }
}

/// A time span in milliseconds, used for DRAM refresh periods.
///
/// # Examples
///
/// ```
/// use power_model::units::Milliseconds;
///
/// let nominal = Milliseconds::DDR3_NOMINAL_TREFP;
/// let relaxed = nominal.relaxed(35.0);
/// assert!((relaxed.as_f64() - 2240.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Milliseconds(f64);

impl Milliseconds {
    /// The DDR3 nominal refresh period (64 ms for the whole array).
    pub const DDR3_NOMINAL_TREFP: Milliseconds = Milliseconds(64.0);
    /// The paper's 35.7× relaxed refresh period, 2.283 s.
    pub const DSN18_RELAXED_TREFP: Milliseconds = Milliseconds(2283.0);

    /// Creates a duration.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn new(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be finite and non-negative"
        );
        Milliseconds(ms)
    }

    /// Returns the duration in milliseconds.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Returns the duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1000.0
    }

    /// Multiplies the period by a relaxation factor (e.g. 35×).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or is negative.
    pub fn relaxed(self, factor: f64) -> Milliseconds {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "relaxation factor must be non-negative"
        );
        Milliseconds(self.0 * factor)
    }

    /// Relaxation factor of `self` relative to `nominal`.
    pub fn relaxation_factor(self, nominal: Milliseconds) -> f64 {
        if nominal.0 <= 0.0 {
            return 0.0;
        }
        self.0 / nominal.0
    }
}

impl fmt::Display for Milliseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.3}s", self.0 / 1000.0)
        } else {
            write!(f, "{:.1}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millivolt_ratio_matches_paper_fig5_first_point() {
        // (915/980)^2 = 0.872 is the paper's first Fig. 5 point.
        let r = Millivolts::new(915).ratio_to(Millivolts::XGENE2_NOMINAL);
        assert!((r * r - 0.872).abs() < 5e-4);
    }

    #[test]
    fn guardband_fraction_ttt_worst_spec() {
        // TTT worst-program Vmin is 885 mV → at least 9.7 % voltage headroom;
        // the 18.4 % figure in the paper is relative energy (V^2) headroom.
        let gb = Millivolts::XGENE2_NOMINAL.guardband_fraction(Millivolts::new(885));
        assert!((gb - 95.0 / 980.0).abs() < 1e-12);
    }

    #[test]
    fn guardband_fraction_is_zero_when_vmin_at_or_above() {
        let v = Millivolts::new(900);
        assert_eq!(v.guardband_fraction(Millivolts::new(900)), 0.0);
        assert_eq!(v.guardband_fraction(Millivolts::new(950)), 0.0);
    }

    #[test]
    fn step_down_saturates() {
        assert_eq!(Millivolts::new(5).step_down(10), Millivolts::new(0));
        assert_eq!(Millivolts::new(980).step_down(5), Millivolts::new(975));
    }

    #[test]
    fn millivolt_add_sub() {
        let a = Millivolts::new(900) + Millivolts::new(80);
        assert_eq!(a, Millivolts::XGENE2_NOMINAL);
        assert_eq!(
            Millivolts::new(100) - Millivolts::new(300),
            Millivolts::new(0)
        );
    }

    #[test]
    fn frequency_ratio_and_display() {
        assert_eq!(Megahertz::XGENE2_NOMINAL.to_string(), "2.4GHz");
        assert!((Megahertz::XGENE2_HALF.ratio_to(Megahertz::XGENE2_NOMINAL) - 0.5).abs() < 1e-12);
        assert_eq!(Megahertz::new(1333).to_string(), "1333MHz");
    }

    #[test]
    fn watts_savings_paper_headline() {
        let s = Watts::new(31.1).savings_to(Watts::new(24.8));
        assert!((s - 0.2026).abs() < 1e-3);
    }

    #[test]
    fn watts_sum_and_sub_saturate() {
        let total: Watts = [Watts::new(1.0), Watts::new(2.5)].into_iter().sum();
        assert!((total.as_f64() - 3.5).abs() < 1e-12);
        assert_eq!((Watts::new(1.0) - Watts::new(2.0)).as_f64(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power must be finite")]
    fn watts_rejects_negative() {
        let _ = Watts::new(-1.0);
    }

    #[test]
    fn refresh_relaxation_factor() {
        let f =
            Milliseconds::DSN18_RELAXED_TREFP.relaxation_factor(Milliseconds::DDR3_NOMINAL_TREFP);
        // 2283/64 = 35.67×; the paper rounds this to "35x".
        assert!((f - 35.67).abs() < 0.01);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Millivolts::new(980).to_string(), "980mV");
        assert_eq!(Watts::new(31.1).to_string(), "31.10W");
        assert_eq!(Celsius::new(50.0).to_string(), "50.0°C");
        assert_eq!(Milliseconds::new(2283.0).to_string(), "2.283s");
        assert_eq!(Milliseconds::new(64.0).to_string(), "64.0ms");
    }
}
