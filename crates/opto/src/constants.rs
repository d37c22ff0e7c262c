//! Physical constants used by the photonics models.
//!
//! Compiled for tests only, with the photodetector model that uses them.

/// Elementary charge, in coulombs.
pub(crate) const ELECTRON_CHARGE_C: f64 = 1.602_176_634e-19;

/// Planck constant, in joule-seconds.
pub(crate) const PLANCK_J_S: f64 = 6.626_070_15e-34;

/// Speed of light in vacuum, in meters per second.
pub(crate) const SPEED_OF_LIGHT_M_S: f64 = 2.997_924_58e8;

/// Telecom C-band wavelength used throughout the paper's link budget
/// (1550 nm InGaAlAs VCSELs / MQW modulators), in meters.
pub(crate) const WAVELENGTH_M: f64 = 1.55e-6;

/// Optical frequency ν = c / λ at the telecom wavelength, in hertz.
pub(crate) fn optical_frequency_hz() -> f64 {
    SPEED_OF_LIGHT_M_S / WAVELENGTH_M
}

/// Photon energy hν at the telecom wavelength, in joules.
pub(crate) fn photon_energy_j() -> f64 {
    PLANCK_J_S * optical_frequency_hz()
}

/// Responsivity upper bound q/(hν): amps of photocurrent per watt of light
/// for a unit-quantum-efficiency detector at the telecom wavelength.
pub(crate) fn ideal_responsivity_a_per_w() -> f64 {
    ELECTRON_CHARGE_C / photon_energy_j()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optical_frequency_is_193_thz() {
        let nu = optical_frequency_hz();
        assert!((nu - 1.934e14).abs() / 1.934e14 < 0.01, "nu = {nu}");
    }

    #[test]
    fn photon_energy_is_0_8_ev() {
        let ev = photon_energy_j() / ELECTRON_CHARGE_C;
        assert!((ev - 0.8).abs() < 0.01, "photon energy {ev} eV");
    }

    #[test]
    fn ideal_responsivity_about_1_25() {
        let r = ideal_responsivity_a_per_w();
        assert!((r - 1.25).abs() < 0.01, "responsivity {r} A/W");
    }
}
