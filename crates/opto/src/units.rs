//! Typed physical units.
//!
//! Thin `f64` newtypes that keep milliwatts, volts, milliamps, bit rates and
//! decibel quantities from being mixed up in the power models. Arithmetic is
//! provided only where physically meaningful (power adds; voltage × current
//! gives power; dB losses add; etc.).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! base_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.4}", $suffix), self.0)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            /// Dimensionless ratio of two like quantities.
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, Add::add)
            }
        }
    };
}

base_unit!(
    /// Electrical or dissipated power in milliwatts.
    MilliWatts,
    "mW"
);

base_unit!(
    /// Optical power in microwatts (receiver-side light levels are tens of µW).
    MicroWatts,
    "uW"
);

base_unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);

base_unit!(
    /// Electric current in milliamps.
    MilliAmps,
    "mA"
);

base_unit!(
    /// Link bit rate in gigabits per second.
    Gbps,
    "Gb/s"
);

base_unit!(
    /// A logarithmic power ratio in decibels (used for optical losses).
    Decibels,
    "dB"
);

impl MilliWatts {
    /// Constructs from milliwatts.
    pub const fn from_mw(mw: f64) -> Self {
        MilliWatts(mw)
    }

    /// The value in milliwatts.
    pub const fn as_mw(self) -> f64 {
        self.0
    }

    /// The value in watts.
    #[cfg(test)]
    pub(crate) fn as_watts(self) -> f64 {
        self.0 / 1e3
    }

    /// Converts to microwatts (e.g. for optical power bookkeeping).
    #[cfg(test)]
    fn to_micro(self) -> MicroWatts {
        MicroWatts(self.0 * 1e3)
    }
}

impl MicroWatts {
    /// Constructs from microwatts.
    pub const fn from_uw(uw: f64) -> Self {
        MicroWatts(uw)
    }

    /// The value in microwatts.
    pub const fn as_uw(self) -> f64 {
        self.0
    }

    /// Converts to milliwatts.
    #[cfg(test)]
    fn to_milli(self) -> MilliWatts {
        MilliWatts(self.0 / 1e3)
    }

    /// Expresses this power relative to 1 mW, in dBm.
    ///
    /// # Panics
    ///
    /// Panics if the power is not strictly positive.
    #[cfg(test)]
    fn as_dbm(self) -> Decibels {
        assert!(self.0 > 0.0, "dBm undefined for non-positive power");
        Decibels(10.0 * (self.0 / 1e3).log10())
    }

    /// Constructs an optical power from a dBm level.
    #[cfg(test)]
    fn from_dbm(dbm: Decibels) -> Self {
        MicroWatts(1e3 * 10f64.powf(dbm.0 / 10.0))
    }

    /// Attenuates this power by a positive dB loss.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is negative.
    pub fn attenuate(self, loss: Decibels) -> MicroWatts {
        assert!(loss.0 >= 0.0, "attenuation must be non-negative");
        MicroWatts(self.0 * 10f64.powf(-loss.0 / 10.0))
    }
}

impl Volts {
    /// Constructs from volts.
    pub const fn from_v(v: f64) -> Self {
        Volts(v)
    }

    /// The value in volts.
    pub const fn as_v(self) -> f64 {
        self.0
    }
}

impl MilliAmps {
    /// Constructs from milliamps.
    pub(crate) const fn from_ma(ma: f64) -> Self {
        MilliAmps(ma)
    }

    /// The value in milliamps.
    pub(crate) const fn as_ma(self) -> f64 {
        self.0
    }
}

impl Gbps {
    /// Constructs from Gb/s.
    pub const fn from_gbps(g: f64) -> Self {
        Gbps(g)
    }

    /// The value in Gb/s.
    pub const fn as_gbps(self) -> f64 {
        self.0
    }

    /// The value in bits per second.
    #[cfg(test)]
    pub(crate) fn as_bits_per_sec(self) -> f64 {
        self.0 * 1e9
    }

    /// Time to serialize `bits` at this rate, in picoseconds (rounded).
    ///
    /// # Panics
    ///
    /// Panics if the bit rate is not strictly positive.
    pub fn serialization_ps(self, bits: u32) -> u64 {
        assert!(self.0 > 0.0, "bit rate must be positive");
        // bits / (Gb/s) = nanoseconds·(bits/Gb) → ps = 1000·bits/rate
        (bits as f64 * 1000.0 / self.0).round() as u64
    }
}

impl Decibels {
    /// Constructs from a dB value.
    pub const fn from_db(db: f64) -> Self {
        Decibels(db)
    }

    /// The value in dB.
    pub const fn as_db(self) -> f64 {
        self.0
    }

    /// Constructs from a linear power ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive.
    pub(crate) fn from_linear(ratio: f64) -> Self {
        assert!(ratio > 0.0, "ratio must be positive for dB conversion");
        Decibels(10.0 * ratio.log10())
    }
}

impl Mul<MilliAmps> for Volts {
    type Output = MilliWatts;
    /// `P = V · I` (volts × milliamps = milliwatts).
    fn mul(self, rhs: MilliAmps) -> MilliWatts {
        MilliWatts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for MilliAmps {
    type Output = MilliWatts;
    fn mul(self, rhs: Volts) -> MilliWatts {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_arithmetic() {
        let a = MilliWatts::from_mw(100.0);
        let b = MilliWatts::from_mw(50.0);
        assert_eq!((a + b).as_mw(), 150.0);
        assert_eq!((a - b).as_mw(), 50.0);
        assert_eq!((a * 2.0).as_mw(), 200.0);
        assert_eq!((a / 4.0).as_mw(), 25.0);
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn v_times_i_is_power() {
        let p = Volts::from_v(1.8) * MilliAmps::from_ma(10.0);
        assert!((p.as_mw() - 18.0).abs() < 1e-12);
        let p2 = MilliAmps::from_ma(10.0) * Volts::from_v(1.8);
        assert_eq!(p, p2);
    }

    #[test]
    fn sum_powers() {
        let total: MilliWatts = [30.0, 10.0, 100.0, 150.0]
            .iter()
            .map(|&x| MilliWatts::from_mw(x))
            .sum();
        assert_eq!(total.as_mw(), 290.0);
    }

    #[test]
    fn micro_milli_round_trip() {
        let p = MilliWatts::from_mw(0.025);
        assert!((p.to_micro().as_uw() - 25.0).abs() < 1e-12);
        assert!((MicroWatts::from_uw(25.0).to_milli().as_mw() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn dbm_conversions() {
        // 1 mW = 0 dBm
        let p = MicroWatts::from_uw(1000.0);
        assert!(p.as_dbm().as_db().abs() < 1e-12);
        // 100 µW = -10 dBm
        let p = MicroWatts::from_uw(100.0);
        assert!((p.as_dbm().as_db() + 10.0).abs() < 1e-9);
        let back = MicroWatts::from_dbm(Decibels::from_db(-10.0));
        assert!((back.as_uw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn attenuation() {
        let p = MicroWatts::from_uw(1000.0);
        let out = p.attenuate(Decibels::from_db(3.0));
        assert!((out.as_uw() - 501.187).abs() < 0.01);
        // 1:16 splitting with 13.6 dB max insertion loss (paper footnote 1)
        let split = p.attenuate(Decibels::from_db(13.6));
        assert!(split.as_uw() > 1000.0 / 32.0 && split.as_uw() < 1000.0 / 16.0);
    }

    #[test]
    fn db_linear_round_trip() {
        let back = Decibels::from_linear(10f64.powf(0.6));
        assert!((back.as_db() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn serialization_time() {
        // 16-bit flit at 10 Gb/s = 1.6 ns = 1600 ps (one router cycle)
        assert_eq!(Gbps::from_gbps(10.0).serialization_ps(16), 1600);
        // at 5 Gb/s it takes two cycles
        assert_eq!(Gbps::from_gbps(5.0).serialization_ps(16), 3200);
        // at 7 Gb/s, a non-integral number of cycles
        assert_eq!(Gbps::from_gbps(7.0).serialization_ps(16), 2286);
    }

    #[test]
    #[should_panic(expected = "dBm undefined")]
    fn dbm_of_zero_panics() {
        let _ = MicroWatts::ZERO.as_dbm();
    }
}
