//! Transient per-block compute faults.
//!
//! Accelerator blocks occasionally hiccup: a DVFS excursion slows a
//! stage down, an SEU or watchdog reset makes an execution produce
//! garbage that must be re-run. [`ComputeFaultModel`] injects both,
//! sampled *statelessly*: the condition for `(frame, stage, attempt)`
//! is a pure hash of the key and the model seed, never of call order.
//! That makes injection trivially deterministic under any thread
//! schedule — two runs at `INCAM_THREADS=1` and `=4` consult the very
//! same faults.

use incam_core::runtime::ComputeCondition;

/// Stateless keyed sampler for transient compute faults.
///
/// # Examples
///
/// ```
/// use incam_faults::compute::ComputeFaultModel;
/// use incam_core::runtime::ComputeCondition;
///
/// let model = ComputeFaultModel::new(2017, 0.01, 0.05, 3.0);
/// let c = model.condition(7, 2, 0);
/// assert_eq!(c, model.condition(7, 2, 0)); // pure function of the key
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeFaultModel {
    seed: u64,
    /// Probability an execution fails outright and must be retried.
    pub fail_prob: f64,
    /// Probability an execution runs slow (sampled after failure).
    pub slow_prob: f64,
    /// Slowdown factor applied to slow executions (≥ 1).
    pub slow_factor: f64,
}

impl ComputeFaultModel {
    /// Creates a fault model.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`, their sum
    /// exceeds 1, or `slow_factor < 1`.
    pub fn new(seed: u64, fail_prob: f64, slow_prob: f64, slow_factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fail_prob),
            "fail_prob must be in [0, 1], got {fail_prob}"
        );
        assert!(
            (0.0..=1.0).contains(&slow_prob),
            "slow_prob must be in [0, 1], got {slow_prob}"
        );
        assert!(
            fail_prob + slow_prob <= 1.0,
            "fail_prob + slow_prob must not exceed 1"
        );
        assert!(
            slow_factor >= 1.0,
            "slow_factor must be >= 1, got {slow_factor}"
        );
        Self {
            seed,
            fail_prob,
            slow_prob,
            slow_factor,
        }
    }

    /// A model that never faults.
    pub fn ideal() -> Self {
        Self::new(0, 0.0, 0.0, 1.0)
    }

    /// The model's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The condition for one execution attempt — a pure function of
    /// `(seed, frame, stage, attempt)`.
    pub fn condition(&self, frame: u64, stage: usize, attempt: u32) -> ComputeCondition {
        let u = unit_hash(key(self.seed, frame, stage, attempt));
        if u < self.fail_prob {
            ComputeCondition::Failed
        } else if u < self.fail_prob + self.slow_prob {
            ComputeCondition::Slowdown(self.slow_factor)
        } else {
            ComputeCondition::Nominal
        }
    }
}

/// Mixes the sampling coordinates into one 64-bit key. Odd multipliers
/// keep distinct coordinates from colliding under the finalizer.
fn key(seed: u64, frame: u64, stage: usize, attempt: u32) -> u64 {
    seed ^ frame
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stage as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(u64::from(attempt).wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// SplitMix64 finalizer mapped to `[0, 1)` — the same construction
/// `core::runtime` uses for backoff jitter.
fn unit_hash(key: u64) -> f64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_is_always_nominal() {
        let m = ComputeFaultModel::ideal();
        for frame in 0..200 {
            for stage in 0..4 {
                assert_eq!(m.condition(frame, stage, 0), ComputeCondition::Nominal);
            }
        }
    }

    #[test]
    fn condition_is_pure_in_its_key() {
        let m = ComputeFaultModel::new(7, 0.2, 0.3, 2.5);
        for frame in 0..50 {
            for stage in 0..3 {
                for attempt in 0..3 {
                    assert_eq!(
                        m.condition(frame, stage, attempt),
                        m.condition(frame, stage, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn observed_rates_track_probabilities() {
        let m = ComputeFaultModel::new(2017, 0.1, 0.2, 4.0);
        let mut fails = 0;
        let mut slows = 0;
        let n = 20_000u64;
        for frame in 0..n {
            match m.condition(frame, 0, 0) {
                ComputeCondition::Failed => fails += 1,
                ComputeCondition::Slowdown(f) => {
                    assert_eq!(f, 4.0);
                    slows += 1;
                }
                ComputeCondition::Nominal => {}
            }
        }
        let fail_rate = fails as f64 / n as f64;
        let slow_rate = slows as f64 / n as f64;
        assert!((fail_rate - 0.1).abs() < 0.01, "fail rate {fail_rate}");
        assert!((slow_rate - 0.2).abs() < 0.01, "slow rate {slow_rate}");
    }

    #[test]
    fn distinct_coordinates_decorrelate() {
        let m = ComputeFaultModel::new(1, 0.5, 0.0, 1.0);
        // across many frames, stage 0 and stage 1 must not fault in
        // lockstep (a collision in `key` would make them identical)
        let agree = (0..2000)
            .filter(|&f| m.condition(f, 0, 0) == m.condition(f, 1, 0))
            .count();
        assert!(
            (800..1200).contains(&agree),
            "stages agree on {agree}/2000 frames — keys collide or anti-correlate"
        );
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn rejects_overweight_probabilities() {
        let _ = ComputeFaultModel::new(0, 0.7, 0.6, 2.0);
    }
}
