//! Graceful degradation for the VR uplink.
//!
//! Fig. 10 assumes the 25 GbE uplink delivers its calibrated goodput on
//! every frame. A congested link does not, and a real-time system must
//! decide what to sacrifice: latency (retry and hope), frames (drop and
//! stay current), quality (coarser depth), or bandwidth (move the
//! offload cut). Each [`GracefulPolicy`] makes that choice explicit and
//! is evaluated by the same deterministic
//! [`Runtime`] executor against the same
//! fault trace, so policies are compared on identical failure
//! sequences.
//!
//! The policies:
//!
//! * [`GracefulPolicy::Retry`] — the baseline: keep the configuration,
//!   retransmit lost frames under the [`RetryPolicy`];
//! * [`GracefulPolicy::DropFrame`] — never retransmit; a lost frame is
//!   dropped so the stream stays live (lowest latency, lowest
//!   completion);
//! * [`GracefulPolicy::CoarseDepth`] — fall back to a coarser
//!   bilateral-grid depth solve: B3 runs ~4× faster and emits half the
//!   disparity data, relieving both compute and the uplink at a quality
//!   cost;
//! * [`GracefulPolicy::AdaptiveCut`] — re-choose the offload cut for
//!   the link's *observed* degraded goodput (the paper's Fig. 10
//!   analysis re-run at runtime), shifting work in- or out-of-camera to
//!   wherever the bytes still fit.

use crate::analysis::{VrModel, DATA_RATIOS};
use crate::backend::DepthBackend;
use crate::configs::PipelineConfig;
use incam_core::explore::IncrementalSearch;
use incam_core::link::Link;
use incam_core::runtime::{DegradationReport, RetryPolicy, Runtime};
use incam_faults::{ChaosOracle, ComputeFaultModel, LinkTrace};

/// Grid-coarsening factor of the [`GracefulPolicy::CoarseDepth`]
/// fallback (cells 2× larger per spatial axis ⇒ ~4× fewer vertices).
pub const COARSE_GRID_FACTOR: f64 = 2.0;

/// B3 output ratio under the coarse fallback: the disparity plane is
/// emitted at quarter resolution, so only the 8-bit reference plus a
/// quarter-size 16-bit map ships (half the nominal 3× ratio).
pub const COARSE_B3_RATIO: f64 = DATA_RATIOS[2] / 2.0;

/// How the pipeline responds to a degrading uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GracefulPolicy {
    /// Keep the configuration; retransmit lost frames per the retry
    /// policy.
    Retry,
    /// Never retransmit: a lost frame is dropped immediately.
    DropFrame,
    /// Coarsen the bilateral-grid depth solve (faster B3, half the B3
    /// output data), retrying as in [`GracefulPolicy::Retry`].
    CoarseDepth,
    /// Re-run the offload-cut analysis against the observed degraded
    /// goodput and execute at the cut it selects.
    AdaptiveCut,
}

impl GracefulPolicy {
    /// All policies, in presentation order.
    pub const ALL: [GracefulPolicy; 4] = [
        GracefulPolicy::Retry,
        GracefulPolicy::DropFrame,
        GracefulPolicy::CoarseDepth,
        GracefulPolicy::AdaptiveCut,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            GracefulPolicy::Retry => "retry",
            GracefulPolicy::DropFrame => "drop-frame",
            GracefulPolicy::CoarseDepth => "coarse-depth",
            GracefulPolicy::AdaptiveCut => "adaptive-cut",
        }
    }
}

/// A fault scenario for the VR uplink: a sampled link trace plus a
/// compute-fault model, applied identically to every policy.
#[derive(Debug, Clone)]
pub struct VrChaosScenario {
    /// The sampled channel conditions.
    pub trace: LinkTrace,
    /// Transient compute faults.
    pub compute: ComputeFaultModel,
    /// Frames to run.
    pub frames: u64,
    /// Retry semantics (ignored by [`GracefulPolicy::DropFrame`], which
    /// forces a single attempt).
    pub retry: RetryPolicy,
}

impl VrChaosScenario {
    /// The oracle this scenario presents to the runtime.
    pub fn oracle(&self) -> ChaosOracle {
        ChaosOracle::new(self.trace.clone(), self.compute)
    }

    /// The link-health estimate a runtime controller would observe: the
    /// trace's delivered fraction times its mean goodput.
    pub fn observed_goodput(&self) -> f64 {
        ((1.0 - self.trace.loss_rate()) * self.trace.mean_goodput()).clamp(1e-6, 1.0)
    }
}

/// Runs one policy over one scenario and reports the degradation.
///
/// All four policies consult the *same* oracle — the comparison isolates
/// the policy, not the luck of the draw.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`PipelineConfig::validate`]).
pub fn run_policy(
    model: &VrModel,
    config: &PipelineConfig,
    link: &Link,
    scenario: &VrChaosScenario,
    policy: GracefulPolicy,
) -> DegradationReport {
    config.validate();
    let backend = config.depth_backend.unwrap_or(DepthBackend::Fpga);
    let oracle = scenario.oracle();

    let (pipeline, cut, retry) = match policy {
        GracefulPolicy::Retry => (model.pipeline(backend), config.blocks, scenario.retry),
        GracefulPolicy::DropFrame => (
            model.pipeline(backend),
            config.blocks,
            RetryPolicy {
                max_attempts: 1,
                ..scenario.retry
            },
        ),
        GracefulPolicy::CoarseDepth => {
            let coarse = model.workload.coarsened(COARSE_GRID_FACTOR);
            (
                model.pipeline_custom(backend, &coarse, COARSE_B3_RATIO),
                config.blocks,
                scenario.retry,
            )
        }
        GracefulPolicy::AdaptiveCut => {
            // Re-search the configuration space against the *observed*
            // goodput, holding the depth/stitching bindings at the
            // configured backend so only the cut moves (the hardware is
            // already committed; the offload point is not). Ties resolve
            // to the earliest cut — least in-camera work. The search is
            // `IncrementalSearch` over the held-cut chain, the same
            // link-only re-ranking the fleet simulator's per-camera
            // re-selection uses; re-ranking a committed frontier returns
            // byte-identical winners to a from-scratch loop over the
            // held cuts (proptested in incam-core).
            let degraded = link.degraded(scenario.observed_goodput());
            let idx = backend.index();
            let space = model.binding_space();
            let held = IncrementalSearch::over_held_cuts(&space, &[0, 0, idx, idx]);
            let cut = held.best(&degraded).map_or(0, |point| point.config.cut());
            (model.pipeline(backend), cut, scenario.retry)
        }
    };

    let mut report = Runtime::new(&pipeline, link, cut, retry).run(scenario.frames, &oracle);
    report.label = format!("{} [{}]", report.label, policy.label());
    report
}

/// Evaluates every policy on the same scenario, in
/// [`GracefulPolicy::ALL`] order.
pub fn policy_sweep(
    model: &VrModel,
    config: &PipelineConfig,
    link: &Link,
    scenario: &VrChaosScenario,
) -> Vec<(GracefulPolicy, DegradationReport)> {
    GracefulPolicy::ALL
        .iter()
        .map(|&p| (p, run_policy(model, config, link, scenario, p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_faults::GilbertElliott;

    fn scenario(loss: f64, frames: u64) -> VrChaosScenario {
        VrChaosScenario {
            trace: GilbertElliott::congested(loss).trace(2017, 8192),
            compute: ComputeFaultModel::ideal(),
            frames,
            retry: RetryPolicy::default(),
        }
    }

    fn fig10_cut3_fpga() -> PipelineConfig {
        PipelineConfig::at_cut(3, DepthBackend::Fpga)
    }

    #[test]
    fn drop_frame_never_retries_and_drops_more() {
        let model = VrModel::paper_default();
        let link = Link::ethernet_25g();
        let s = scenario(0.15, 300);
        let retry = run_policy(&model, &fig10_cut3_fpga(), &link, &s, GracefulPolicy::Retry);
        let drop = run_policy(
            &model,
            &fig10_cut3_fpga(),
            &link,
            &s,
            GracefulPolicy::DropFrame,
        );
        assert_eq!(drop.link_retries, 0);
        assert!(retry.link_retries > 0);
        assert!(retry.frames_completed >= drop.frames_completed);
        assert!(drop.frames_dropped() > 0);
    }

    #[test]
    fn coarse_depth_raises_throughput() {
        let model = VrModel::paper_default();
        let link = Link::ethernet_25g();
        let s = scenario(0.05, 200);
        // CPU depth is hopelessly compute-bound at full quality; the
        // coarse grid relieves exactly that bottleneck
        let config = PipelineConfig::at_cut(3, DepthBackend::Cpu);
        let full = run_policy(&model, &config, &link, &s, GracefulPolicy::Retry);
        let coarse = run_policy(&model, &config, &link, &s, GracefulPolicy::CoarseDepth);
        assert!(
            coarse.effective_fps.fps() > full.effective_fps.fps(),
            "coarse {} vs full {}",
            coarse.effective_fps.fps(),
            full.effective_fps.fps()
        );
    }

    #[test]
    fn adaptive_cut_beats_fixed_raw_offload_under_loss() {
        let model = VrModel::paper_default();
        let link = Link::ethernet_25g();
        let s = scenario(0.3, 200);
        // raw offload (cut 0) is communication-bound; heavy loss makes it
        // worse, and the adaptive policy moves the cut in-camera
        let config = PipelineConfig::at_cut(0, DepthBackend::Fpga);
        let fixed = run_policy(&model, &config, &link, &s, GracefulPolicy::Retry);
        let adaptive = run_policy(&model, &config, &link, &s, GracefulPolicy::AdaptiveCut);
        assert!(
            adaptive.effective_fps.fps() > fixed.effective_fps.fps(),
            "adaptive {} vs fixed {}",
            adaptive.effective_fps.fps(),
            fixed.effective_fps.fps()
        );
    }

    #[test]
    fn policies_are_deterministic() {
        let model = VrModel::paper_default();
        let link = Link::ethernet_25g();
        let s = scenario(0.1, 100);
        for policy in GracefulPolicy::ALL {
            let a = run_policy(&model, &fig10_cut3_fpga(), &link, &s, policy);
            let b = run_policy(&model, &fig10_cut3_fpga(), &link, &s, policy);
            assert_eq!(a, b, "{} not deterministic", policy.label());
        }
    }

    #[test]
    fn sweep_covers_all_policies() {
        let model = VrModel::paper_default();
        let link = Link::ethernet_25g();
        let s = scenario(0.05, 50);
        let rows = policy_sweep(&model, &fig10_cut3_fpga(), &link, &s);
        assert_eq!(rows.len(), 4);
        for (policy, report) in &rows {
            assert!(report.label.contains(policy.label()));
            assert_eq!(report.frames_attempted, 50);
        }
    }
}
