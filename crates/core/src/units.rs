//! Strongly-typed physical quantities used throughout the cost framework.
//!
//! The paper reasons about camera systems in terms of a small set of
//! physical quantities: data sizes, data rates, frame rates, times,
//! energies and powers. Mixing these up (e.g. treating a per-frame energy
//! as a power) is the classic failure mode of back-of-the-envelope
//! accelerator analysis, so each quantity gets a newtype with only the
//! physically meaningful arithmetic defined.
//!
//! All quantities are backed by `f64` in SI base units (bytes, seconds,
//! joules, watts, hertz) and are cheap `Copy` values.
//!
//! # Examples
//!
//! ```
//! use incam_core::units::{Bytes, Seconds, Joules};
//!
//! let frame = Bytes::from_mib(8.0);
//! let readout = Seconds::from_millis(10.0);
//! let rate = frame / readout; // BytesPerSec
//! assert!(rate.per_sec() > 800.0e6 * 0.99);
//!
//! let e = Joules::from_micro(120.0);
//! let p = e / Seconds::new(1.0);
//! assert!((p.watts() - 120.0e-6).abs() < 1e-12);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for an `f64`-backed quantity newtype.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $accessor:ident) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a new quantity from a raw value in base units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base units.
            #[inline]
            pub const fn $accessor(self) -> f64 {
                self.0
            }

            /// Returns the raw value in base units (alias of the named accessor).
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (not NaN/inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Dimensionless ratio of two like quantities.
            ///
            /// # Examples
            ///
            /// ```
            /// # use incam_core::units::*;
            #[doc = concat!("let a = ", stringify!($name), "::new(4.0);")]
            #[doc = concat!("let b = ", stringify!($name), "::new(2.0);")]
            /// assert_eq!(a.ratio(b), 2.0);
            /// ```
            #[inline]
            pub fn ratio(self, other: Self) -> f64 {
                self.0 / other.0
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// A quantity of data, in bytes.
    Bytes, "B", bytes
);
quantity!(
    /// A data rate, in bytes per second.
    BytesPerSec, "B/s", per_sec
);
quantity!(
    /// A frame rate / throughput, in frames per second.
    Fps, "FPS", fps
);
quantity!(
    /// A duration, in seconds.
    Seconds, "s", secs
);
quantity!(
    /// An energy, in joules.
    Joules, "J", joules
);
quantity!(
    /// A power, in watts.
    Watts, "W", watts
);
quantity!(
    /// A clock frequency, in hertz.
    Hertz, "Hz", hertz
);

impl Bytes {
    /// Creates a size from kibibytes (1024 bytes).
    pub fn from_kib(kib: f64) -> Self {
        Self(kib * 1024.0)
    }

    /// Creates a size from mebibytes.
    pub fn from_mib(mib: f64) -> Self {
        Self(mib * 1024.0 * 1024.0)
    }

    /// Creates a size from gibibytes.
    pub fn from_gib(gib: f64) -> Self {
        Self(gib * 1024.0 * 1024.0 * 1024.0)
    }

    /// Creates a size from a bit count (8 bits per byte).
    pub fn from_bits(bits: f64) -> Self {
        Self(bits / 8.0)
    }

    /// The size in bits.
    pub fn bits(self) -> f64 {
        self.0 * 8.0
    }

    /// The size in mebibytes.
    pub fn mib(self) -> f64 {
        self.0 / (1024.0 * 1024.0)
    }

    /// The size in gibibytes.
    pub fn gib(self) -> f64 {
        self.0 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Human-readable rendering with a binary-prefix unit.
    ///
    /// # Examples
    ///
    /// ```
    /// use incam_core::units::Bytes;
    /// assert_eq!(Bytes::from_mib(24.0).human(), "24.00 MiB");
    /// ```
    pub fn human(self) -> String {
        let b = self.0;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            format!("{:.2} GiB", self.gib())
        } else if b >= 1024.0 * 1024.0 {
            format!("{:.2} MiB", self.mib())
        } else if b >= 1024.0 {
            format!("{:.2} KiB", b / 1024.0)
        } else {
            format!("{:.0} B", b)
        }
    }
}

impl BytesPerSec {
    /// Creates a rate from bits per second.
    pub fn from_bits_per_sec(bps: f64) -> Self {
        Self(bps / 8.0)
    }

    /// Creates a rate from gigabits per second (decimal giga).
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bits_per_sec(gbps * 1e9)
    }

    /// The rate in bits per second.
    pub fn bits_per_sec(self) -> f64 {
        self.0 * 8.0
    }

    /// The rate in gigabits per second.
    pub fn gbps(self) -> f64 {
        self.bits_per_sec() / 1e9
    }
}

impl Fps {
    /// The per-frame period. Returns [`Seconds`] of `inf` for zero FPS.
    pub fn period(self) -> Seconds {
        Seconds(1.0 / self.0)
    }

    /// Creates a rate from a per-frame period.
    pub fn from_period(period: Seconds) -> Self {
        Self(1.0 / period.0)
    }
}

impl Seconds {
    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// The duration in milliseconds.
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The duration in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }
}

impl Joules {
    /// Creates an energy from millijoules.
    pub fn from_milli(mj: f64) -> Self {
        Self(mj * 1e-3)
    }

    /// Creates an energy from microjoules.
    pub fn from_micro(uj: f64) -> Self {
        Self(uj * 1e-6)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nano(nj: f64) -> Self {
        Self(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    pub fn from_pico(pj: f64) -> Self {
        Self(pj * 1e-12)
    }

    /// The energy in millijoules.
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The energy in microjoules.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The energy in nanojoules.
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Human-readable rendering with an SI prefix. A non-finite energy
    /// (such as energy per result with no results) prints as Rust prints
    /// the float, with no unit: `inf`, `-inf` or `NaN`.
    pub fn human(self) -> String {
        let j = self.0.abs();
        if !j.is_finite() {
            self.0.to_string()
        } else if j >= 1.0 {
            format!("{:.3} J", self.0)
        } else if j >= 1e-3 {
            format!("{:.3} mJ", self.0 * 1e3)
        } else if j >= 1e-6 {
            format!("{:.3} uJ", self.0 * 1e6)
        } else if j >= 1e-9 {
            format!("{:.3} nJ", self.0 * 1e9)
        } else {
            format!("{:.3} pJ", self.0 * 1e12)
        }
    }
}

impl Watts {
    /// Creates a power from milliwatts.
    pub fn from_milli(mw: f64) -> Self {
        Self(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    pub fn from_micro(uw: f64) -> Self {
        Self(uw * 1e-6)
    }

    /// The power in milliwatts.
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// The power in microwatts.
    pub fn microwatts(self) -> f64 {
        self.0 * 1e6
    }

    /// Human-readable rendering with an SI prefix.
    pub fn human(self) -> String {
        let w = self.0.abs();
        if w >= 1.0 {
            format!("{:.3} W", self.0)
        } else if w >= 1e-3 {
            format!("{:.3} mW", self.0 * 1e3)
        } else if w >= 1e-6 {
            format!("{:.3} uW", self.0 * 1e6)
        } else {
            format!("{:.3} nW", self.0 * 1e9)
        }
    }
}

impl Hertz {
    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// The frequency in megahertz.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// The period of one cycle.
    pub fn cycle(self) -> Seconds {
        Seconds(1.0 / self.0)
    }
}

// ---- Cross-quantity arithmetic -------------------------------------------

impl Div<Seconds> for Bytes {
    type Output = BytesPerSec;
    #[inline]
    fn div(self, rhs: Seconds) -> BytesPerSec {
        BytesPerSec(self.0 / rhs.0)
    }
}

impl Div<BytesPerSec> for Bytes {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: BytesPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for BytesPerSec {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Seconds) -> Bytes {
        Bytes(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for Fps {
    type Output = f64;
    /// Number of frames elapsing in a duration.
    #[inline]
    fn mul(self, rhs: Seconds) -> f64 {
        self.0 * rhs.0
    }
}

impl Div<Bytes> for BytesPerSec {
    type Output = Fps;
    /// Frames per second achievable when each frame carries `rhs` bytes.
    #[inline]
    fn div(self, rhs: Bytes) -> Fps {
        Fps(self.0 / rhs.0)
    }
}

impl Mul<Bytes> for Fps {
    type Output = BytesPerSec;
    /// Sustained data rate of a frame stream.
    #[inline]
    fn mul(self, rhs: Bytes) -> BytesPerSec {
        BytesPerSec(self.0 * rhs.0)
    }
}

impl Div<Fps> for BytesPerSec {
    type Output = Bytes;
    #[inline]
    fn div(self, rhs: Fps) -> Bytes {
        Bytes(self.0 / rhs.0)
    }
}

impl Mul<Fps> for Joules {
    type Output = Watts;
    /// Average power of an energy cost paid once per frame.
    #[inline]
    fn mul(self, rhs: Fps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Joules> for Fps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Joules) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_conversions_round_trip() {
        let b = Bytes::from_mib(12.0);
        assert!((b.mib() - 12.0).abs() < 1e-12);
        assert!((b.bytes() - 12.0 * 1024.0 * 1024.0).abs() < 1e-6);
        assert!((Bytes::from_bits(80.0).bytes() - 10.0).abs() < 1e-12);
        assert!((Bytes::from_gib(2.0).gib() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rate_and_fps_algebra() {
        // 25 GbE link, 1 Gb frames => 25 FPS
        let link = BytesPerSec::from_gbps(25.0);
        let frame = Bytes::from_bits(1e9);
        let fps = link / frame;
        assert!((fps.fps() - 25.0).abs() < 1e-9);
        // inverse: stream rate
        let rate = fps * frame;
        assert!((rate.gbps() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn energy_power_time_algebra() {
        let e = Joules::from_milli(2.0);
        let t = Seconds::from_millis(4.0);
        let p = e / t;
        assert!((p.watts() - 0.5).abs() < 1e-12);
        let back = p * t;
        assert!((back.joules() - e.joules()).abs() < 1e-15);
        // per-frame energy at 30 FPS => average power
        let avg = Joules::from_micro(10.0) * Fps::new(30.0);
        assert!((avg.microwatts() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_min_max() {
        let a = Fps::new(30.0);
        let b = Fps::new(15.8);
        assert!(b < a);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Joules = (1..=4).map(|i| Joules::new(i as f64)).sum();
        assert!((total.joules() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(Bytes::new(512.0).human(), "512 B");
        assert_eq!(Bytes::from_kib(2.0).human(), "2.00 KiB");
        assert_eq!(Watts::from_micro(320.0).human(), "320.000 uW");
        assert_eq!(Joules::from_nano(5.0).human(), "5.000 nJ");
        assert_eq!(Joules::new(f64::INFINITY).human(), "inf");
    }

    #[test]
    fn hertz_cycles() {
        let clk = Hertz::from_mhz(30.0);
        assert!((clk.cycle().secs() - 1.0 / 30.0e6).abs() < 1e-18);
        assert!((clk.mhz() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Fps::new(30.0)), "30 FPS");
        assert_eq!(format!("{}", Seconds::new(1.5)), "1.5 s");
    }
}
