//! The composed fault oracle a [`incam_core::runtime::Runtime`] consults.
//!
//! [`ChaosOracle`] glues a pre-sampled [`LinkTrace`] and a stateless
//! [`ComputeFaultModel`] behind the [`FaultOracle`] trait. Everything it
//! answers is a pure function of *(trace, model, frame, stage, attempt)*
//! — never of call order — so a runtime consulting it from any thread
//! schedule replays exactly the same faults.

use crate::compute::ComputeFaultModel;
use crate::gilbert::LinkTrace;
use incam_core::runtime::{ComputeCondition, FaultOracle, LinkCondition};

/// Deterministic composed oracle: bursty link loss + transient compute
/// faults.
///
/// Link conditions come from a finite [`LinkTrace`]: attempt `a` of
/// frame `f` reads slot `f × stride + a` (wrapping), so retries of the
/// same frame land in *adjacent* slots and experience the burst
/// structure of the channel — a retry during a bad burst most likely
/// fails again, which is exactly what makes bursty loss harder than
/// uniform loss.
///
/// # Examples
///
/// ```
/// use incam_core::runtime::FaultOracle;
/// use incam_faults::{ChaosOracle, ComputeFaultModel, GilbertElliott};
///
/// let trace = GilbertElliott::congested(0.05).trace(2017, 4096);
/// let oracle = ChaosOracle::new(trace, ComputeFaultModel::ideal());
/// let c = oracle.link(10, 0);
/// assert_eq!(c, oracle.link(10, 0)); // stateless
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOracle {
    link: LinkTrace,
    compute: ComputeFaultModel,
    stride: u64,
}

impl ChaosOracle {
    /// Creates an oracle over a sampled link trace and compute-fault
    /// model. The default attempt stride is 4 (a frame's retries occupy
    /// up to 4 consecutive trace slots before the next frame's start).
    ///
    /// # Panics
    ///
    /// Panics if the link trace is empty.
    pub fn new(link: LinkTrace, compute: ComputeFaultModel) -> Self {
        assert!(!link.is_empty(), "link trace must have at least one slot");
        Self {
            link,
            compute,
            stride: 4,
        }
    }

    /// An oracle that never faults (ideal link, ideal compute).
    pub fn ideal() -> Self {
        Self::new(LinkTrace::ideal(1), ComputeFaultModel::ideal())
    }

    /// Sets how many trace slots each frame's attempts span.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn with_attempt_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0, "attempt stride must be positive");
        self.stride = stride;
        self
    }
}

impl FaultOracle for ChaosOracle {
    fn link(&self, frame: u64, attempt: u32) -> LinkCondition {
        let slot = self.link.slot(
            frame
                .wrapping_mul(self.stride)
                .wrapping_add(u64::from(attempt)),
        );
        LinkCondition {
            delivered: !slot.lost,
            goodput: slot.goodput,
        }
    }

    fn compute(&self, frame: u64, stage: usize, attempt: u32) -> ComputeCondition {
        self.compute.condition(frame, stage, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gilbert::GilbertElliott;

    #[test]
    fn ideal_oracle_is_transparent() {
        let o = ChaosOracle::ideal();
        for frame in 0..100 {
            let c = o.link(frame, 0);
            assert!(c.delivered);
            assert_eq!(c.goodput, 1.0);
            assert_eq!(o.compute(frame, 0, 0), ComputeCondition::Nominal);
        }
    }

    #[test]
    fn link_conditions_mirror_trace_slots() {
        let trace = GilbertElliott::congested(0.2).trace(7, 1024);
        let o = ChaosOracle::new(trace.clone(), ComputeFaultModel::ideal());
        for frame in 0..200u64 {
            for attempt in 0..4u32 {
                let slot = trace.slot(frame * 4 + u64::from(attempt));
                let cond = o.link(frame, attempt);
                assert_eq!(cond.delivered, !slot.lost);
                assert_eq!(cond.goodput, slot.goodput);
            }
        }
    }

    #[test]
    fn stride_shifts_retry_slots() {
        let trace = GilbertElliott::congested(0.3).trace(3, 512);
        let narrow = ChaosOracle::new(trace.clone(), ComputeFaultModel::ideal());
        let wide = ChaosOracle::new(trace, ComputeFaultModel::ideal()).with_attempt_stride(8);
        // frame 0 attempt 0 is slot 0 either way; later frames diverge
        assert_eq!(narrow.link(0, 0), wide.link(0, 0));
        let differs = (1..100).any(|f| narrow.link(f, 0) != wide.link(f, 0));
        assert!(differs, "stride had no effect on slot mapping");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_trace_rejected() {
        let _ = ChaosOracle::new(LinkTrace::ideal(0), ComputeFaultModel::ideal());
    }
}
