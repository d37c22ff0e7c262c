//! Synthetic SPLASH2-like application traffic profiles.
//!
//! The paper evaluates on traffic traces extracted from SPLASH2 benchmarks
//! (FFT, LU, Radix) running on the RSIM multiprocessor simulator — traces
//! we do not have. What the paper's results depend on is the *temporal
//! variance structure* it describes (§4.3.3 and Fig. 7):
//!
//! - **FFT** — "its traffic peaks and troughs occur over a longer period of
//!   time, making it easier for the policy to accurately predict trends":
//!   slow, smooth alternation of communication and computation super-steps.
//! - **LU** — blocked dense factorization: a medium-period sawtooth as
//!   pivot-block broadcasts fan out, with communication intensity decaying
//!   across outer iterations.
//! - **Radix** — the integer sort's all-to-all key exchange: short, intense
//!   bursts separated by local counting phases, the hardest case for a
//!   history-based policy.
//!
//! These generators reproduce exactly those structures (deterministically,
//! as functions of the cycle index), with the paper's 48-flit average
//! packet size applied by the source layer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which synthetic SPLASH2 application profile to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SplashApp {
    /// Fast Fourier transform: slow long-period peaks/troughs.
    Fft,
    /// LU matrix decomposition: medium-period decaying sawtooth.
    Lu,
    /// Radix integer sort: rapid spiky bursts.
    Radix,
}

impl SplashApp {
    /// All three applications in the paper's order.
    pub const ALL: [SplashApp; 3] = [SplashApp::Fft, SplashApp::Lu, SplashApp::Radix];

    /// The profile's repetition period in router-core cycles.
    pub fn period_cycles(self) -> u64 {
        match self {
            SplashApp::Fft => 800_000,
            SplashApp::Lu => 200_000,
            SplashApp::Radix => 50_000,
        }
    }

    /// Network-wide injection rate (packets/cycle, 48-flit packets) at a
    /// cycle index.
    pub(crate) fn rate_at(self, cycle: u64) -> f64 {
        let period = self.period_cycles();
        let phase = (cycle % period) as f64 / period as f64;
        match self {
            // Smooth raised-cosine communication super-steps: troughs near
            // idle, broad peaks. Peak 0.18 pkt/cycle sits well below the
            // network's reduced-rate capacity, so the policy can track the
            // trend without saturating (the paper's "easier to predict").
            SplashApp::Fft => {
                // Broad raised-cosine-squared peaks: the load changes so
                // slowly that the policy tracks it with no transient
                // queueing — the paper's "easier to accurately predict
                // trends", and the reason FFT pays the smallest latency
                // penalty of the three applications.
                let s = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                0.004 + 0.085 * s * s
            }
            // Decaying sawtooth: a broadcast burst at the start of each
            // outer iteration, decaying as the active matrix shrinks.
            SplashApp::Lu => {
                let saw = 1.0 - phase;
                if phase < 0.3 {
                    0.01 + 0.13 * saw
                } else {
                    0.01 + 0.03 * saw
                }
            }
            // Spiky all-to-all exchanges: 20% duty-cycle bursts.
            SplashApp::Radix => {
                if phase < 0.2 {
                    0.13
                } else {
                    0.01
                }
            }
        }
    }

    /// Mean rate over one period.
    pub fn mean_rate(self) -> f64 {
        let period = self.period_cycles();
        let samples = 10_000u64;
        (0..samples)
            .map(|i| self.rate_at(i * period / samples))
            .sum::<f64>()
            / samples as f64
    }

    /// The paper's average packet size for these traces.
    pub fn packet_size_flits(self) -> u32 {
        48
    }
}

impl fmt::Display for SplashApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SplashApp::Fft => "FFT",
            SplashApp::Lu => "LU",
            SplashApp::Radix => "Radix",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods_ordered_fft_slowest() {
        assert!(SplashApp::Fft.period_cycles() > SplashApp::Lu.period_cycles());
        assert!(SplashApp::Lu.period_cycles() > SplashApp::Radix.period_cycles());
    }

    #[test]
    fn rates_positive_and_bounded() {
        for app in SplashApp::ALL {
            for cycle in (0..2_000_000).step_by(1000) {
                let r = app.rate_at(cycle);
                assert!(r > 0.0 && r < 1.0, "{app} rate {r} at {cycle}");
            }
        }
    }

    #[test]
    fn fft_is_smooth_radix_is_spiky() {
        // Maximum per-1000-cycle rate change: FFT must be far smoother
        // than Radix relative to its period.
        let max_delta = |app: SplashApp| {
            let mut max: f64 = 0.0;
            for c in (0..app.period_cycles()).step_by(1000) {
                let d = (app.rate_at(c + 1000) - app.rate_at(c)).abs();
                max = max.max(d);
            }
            max
        };
        assert!(max_delta(SplashApp::Fft) < 0.01);
        assert!(max_delta(SplashApp::Radix) > 0.1);
    }

    #[test]
    fn all_apps_fluctuate_substantially() {
        // Peak-to-trough ratio must be large (the paper's "large
        // fluctuations in injection rate").
        for app in SplashApp::ALL {
            let rates: Vec<f64> = (0..app.period_cycles())
                .step_by(500)
                .map(|c| app.rate_at(c))
                .collect();
            let max = rates.iter().cloned().fold(0.0, f64::max);
            let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(max / min > 4.0, "{app}: {min}..{max}");
        }
    }

    #[test]
    fn mean_rates_moderate() {
        // Loads must sit well below saturation (48-flit packets saturate
        // the 8×8 mesh near 0.67 pkt/cycle) but above idle.
        for app in SplashApp::ALL {
            let m = app.mean_rate();
            assert!(m > 0.025 && m < 0.25, "{app} mean {m}");
        }
    }

    #[test]
    fn profiles_are_periodic() {
        for app in SplashApp::ALL {
            let p = app.period_cycles();
            for c in [0, 123, 9999] {
                assert_eq!(app.rate_at(c), app.rate_at(c + p));
            }
        }
    }
}
