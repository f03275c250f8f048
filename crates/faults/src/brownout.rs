//! RF brownout traces for energy-harvesting cameras.
//!
//! WISPCam draws all its power from an RFID reader's carrier. In the
//! field that carrier is not steady: readers duty-cycle, people walk
//! through the beam, multipath fades the channel. The result is
//! *brownouts* — stretches of harvest periods delivering (near) zero
//! power, during which the storage capacitor only drains.
//!
//! [`BrownoutModel`] generates deterministic availability traces:
//! outages start with a per-period probability and persist with
//! geometrically distributed length (memoryless, like the fades they
//! model). [`BrownoutTrace`] is the replayable artifact a platform
//! simulation consumes period by period.

use incam_rng::rngs::StdRng;
use incam_rng::{Digest, Rng, SeedableRng};

/// Parameters of an RF brownout process.
///
/// # Examples
///
/// ```
/// use incam_faults::brownout::BrownoutModel;
///
/// let model = BrownoutModel::new(0.02, 5.0);
/// let trace = model.trace(2017, 10_000);
/// assert!(trace.availability() > 0.8 && trace.availability() < 0.95);
/// assert_eq!(trace, model.trace(2017, 10_000)); // seed-deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutModel {
    /// Per-period probability that an outage begins while power is up.
    pub outage_start_prob: f64,
    /// Mean outage length in harvest periods (geometric distribution).
    pub mean_outage_periods: f64,
    /// Harvested-power factor during an outage, in `[0, 1)`. Zero means
    /// the carrier disappears entirely; a small positive value models a
    /// deep fade that still trickles some charge.
    pub residual_power: f64,
}

impl BrownoutModel {
    /// Creates a brownout model with zero residual power during outages.
    ///
    /// # Panics
    ///
    /// Panics if `outage_start_prob` is outside `[0, 1]` or
    /// `mean_outage_periods < 1` (an outage lasts at least one period).
    pub fn new(outage_start_prob: f64, mean_outage_periods: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&outage_start_prob),
            "outage_start_prob must be in [0, 1], got {outage_start_prob}"
        );
        assert!(
            mean_outage_periods >= 1.0,
            "mean_outage_periods must be >= 1, got {mean_outage_periods}"
        );
        Self {
            outage_start_prob,
            mean_outage_periods,
            residual_power: 0.0,
        }
    }

    /// Sets the residual harvested-power factor during outages.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `[0, 1)`.
    #[must_use]
    pub fn with_residual_power(mut self, factor: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&factor),
            "residual_power must be in [0, 1), got {factor}"
        );
        self.residual_power = factor;
        self
    }

    /// A model that never browns out.
    pub fn steady() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Long-run fraction of periods with full power, from the renewal
    /// structure: mean up-stretch `1/p_start`, mean outage `L`.
    pub fn expected_availability(&self) -> f64 {
        if self.outage_start_prob <= 0.0 {
            return 1.0;
        }
        let mean_up = 1.0 / self.outage_start_prob;
        mean_up / (mean_up + self.mean_outage_periods)
    }

    /// Samples a `periods`-long availability trace. Deterministic per
    /// `(seed, periods)`.
    pub fn trace(&self, seed: u64, periods: usize) -> BrownoutTrace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C_0D0A_D00D_FADE);
        // geometric(p) with mean 1/p: each outage period continues with
        // probability 1 - p_end
        let p_end = 1.0 / self.mean_outage_periods;
        let mut down = false;
        let mut available = Vec::with_capacity(periods);
        for _ in 0..periods {
            available.push(!down);
            let u: f64 = rng.gen();
            if down {
                if u < p_end {
                    down = false;
                }
            } else if u < self.outage_start_prob {
                down = true;
            }
        }
        BrownoutTrace {
            available,
            residual_power: self.residual_power,
        }
    }
}

/// A sampled brownout trace: per-harvest-period power availability.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutTrace {
    available: Vec<bool>,
    residual_power: f64,
}

impl BrownoutTrace {
    /// A trace of `periods` fully powered periods.
    pub fn steady(periods: usize) -> Self {
        Self {
            available: vec![true; periods],
            residual_power: 0.0,
        }
    }

    /// Number of periods.
    pub fn len(&self) -> usize {
        self.available.len()
    }

    /// `true` if the trace has no periods.
    pub fn is_empty(&self) -> bool {
        self.available.is_empty()
    }

    /// Whether full power is available in period `index` (wraps modulo
    /// the trace length).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn available(&self, index: u64) -> bool {
        assert!(!self.available.is_empty(), "cannot index an empty trace");
        self.available[(index % self.available.len() as u64) as usize]
    }

    /// Harvested-power factor in period `index`: 1 when powered, the
    /// model's residual factor during an outage.
    pub fn power_factor(&self, index: u64) -> f64 {
        if self.available(index) {
            1.0
        } else {
            self.residual_power
        }
    }

    /// Fraction of periods with full power.
    pub fn availability(&self) -> f64 {
        if self.available.is_empty() {
            return 1.0;
        }
        self.available.iter().filter(|a| **a).count() as f64 / self.available.len() as f64
    }

    /// Number of distinct outages (maximal runs of unavailable periods).
    pub fn outage_count(&self) -> usize {
        let mut count = 0;
        let mut prev_up = true;
        for &up in &self.available {
            if prev_up && !up {
                count += 1;
            }
            prev_up = up;
        }
        count
    }

    /// Order-sensitive 64-bit digest (FNV-1a over the availability bits
    /// and residual factor) for cheap byte-identity checks.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        for &up in &self.available {
            h.write(&[u8::from(up)]);
        }
        h.write_f64(self.residual_power);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_model_never_drops() {
        let trace = BrownoutModel::steady().trace(1, 500);
        assert_eq!(trace.availability(), 1.0);
        assert_eq!(trace.outage_count(), 0);
        assert_eq!(trace.power_factor(123), 1.0);
    }

    #[test]
    fn availability_matches_renewal_formula() {
        let model = BrownoutModel::new(0.05, 4.0);
        let trace = model.trace(99, 50_000);
        let expected = model.expected_availability();
        assert!((expected - 1.0 / (1.0 + 0.05 * 4.0)).abs() < 1e-12);
        assert!(
            (trace.availability() - expected).abs() < 0.02,
            "sampled {} vs expected {expected}",
            trace.availability()
        );
    }

    #[test]
    fn outages_have_geometric_mean_length() {
        let model = BrownoutModel::new(0.05, 6.0);
        let trace = model.trace(42, 100_000);
        let down = trace.len() as f64 * (1.0 - trace.availability());
        let mean_len = down / trace.outage_count() as f64;
        assert!(
            (mean_len - 6.0).abs() < 0.6,
            "mean outage length {mean_len}"
        );
    }

    #[test]
    fn residual_power_applies_during_outage() {
        let model = BrownoutModel::new(1.0, 10.0).with_residual_power(0.2);
        let trace = model.trace(5, 50);
        // outage_start_prob = 1 means every up period immediately
        // transitions; find a down period and check its factor.
        let down = (0..50).find(|i| !trace.available(*i)).expect("some outage");
        assert_eq!(trace.power_factor(down), 0.2);
    }

    #[test]
    fn same_seed_identical_trace() {
        let model = BrownoutModel::new(0.1, 3.0);
        let a = model.trace(2017, 5000);
        let b = model.trace(2017, 5000);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), model.trace(2018, 5000).digest());
    }

    #[test]
    #[should_panic(expected = "mean_outage_periods")]
    fn rejects_subunit_outage_length() {
        let _ = BrownoutModel::new(0.1, 0.5);
    }
}
