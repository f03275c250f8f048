//! Chaos study — both case studies under injected faults.
//!
//! The canonical scenario pins one point in fault space so regressions
//! are caught exactly: the VR uplink at 5 % stationary bursty loss
//! ([`CANONICAL_LOSS`]), and the WISPCam at 2 m from the reader
//! ([`CANONICAL_DISTANCE_M`]) under a fading carrier. Around that point,
//! [`fault_sweep`] maps loss rate × harvest distance — the
//! deployment-facing question of how fast each system degrades.
//!
//! Everything here is a pure function of the seed: fault traces are
//! pre-sampled, point lookups are keyed hashes, and the executors are
//! sequential replays. The determinism suite diffs these reports across
//! `INCAM_THREADS` 1 vs 4.

use incam_core::link::Link;
use incam_core::report::{sig3, Table};
use incam_core::runtime::{DegradationReport, RetryPolicy};
use incam_faults::{BrownoutModel, ComputeFaultModel, GilbertElliott};
use incam_vr::analysis::VrModel;
use incam_vr::backend::DepthBackend;
use incam_vr::configs::PipelineConfig;
use incam_vr::degrade::{policy_sweep, run_policy, GracefulPolicy, VrChaosScenario};
use incam_wispcam::mcu::McuModel;
use incam_wispcam::pipeline::{FaPipelineConfig, FrameOutcome, Substrate};
use incam_wispcam::platform::WispCamPlatform;
use incam_wispcam::runtime::{
    simulate_degraded, DegradedReport, DegradedSimConfig, RecoveryPolicy,
};
use incam_wispcam::workload::{TrainEffort, Workload};

/// Stationary loss rate of the canonical VR fault scenario.
pub const CANONICAL_LOSS: f64 = 0.05;

/// Reader distance of the canonical WISPCam fault scenario.
pub const CANONICAL_DISTANCE_M: f64 = 2.0;

/// Capture cadence of the canonical WISPCam fault scenario. The MCU
/// pipeline averages ~19 µJ per frame while the 2 m harvester delivers
/// 100 µW, so at 4 FPS an active frame (~33 µJ) outruns its 25 µJ period
/// budget and spans periods — exactly the regime where an outage
/// interrupts work in flight and the recovery policy matters.
pub const CANONICAL_TARGET_FPS: f64 = 4.0;

/// The canonical VR chaos scenario: bursty 5 % loss, a trickle of
/// transient compute faults, default retry policy.
pub fn canonical_vr_scenario(seed: u64, frames: u64) -> VrChaosScenario {
    VrChaosScenario {
        trace: GilbertElliott::congested(CANONICAL_LOSS).trace(seed, 8192),
        compute: ComputeFaultModel::new(seed ^ 0x00C4_A05C, 0.002, 0.01, 2.0),
        frames,
        retry: RetryPolicy::default(),
    }
}

/// The Fig. 10 operating point the VR chaos runs degrade from: three
/// blocks in-camera with the FPGA depth solver.
pub fn canonical_vr_config() -> PipelineConfig {
    PipelineConfig::at_cut(3, DepthBackend::Fpga)
}

/// The canonical VR degradation report (retry policy at the canonical
/// scenario) — the object the golden regression pins.
pub fn canonical_vr_report(seed: u64, frames: u64) -> DegradationReport {
    run_policy(
        &VrModel::paper_default(),
        &canonical_vr_config(),
        &Link::ethernet_25g(),
        &canonical_vr_scenario(seed, frames),
        GracefulPolicy::Retry,
    )
}

/// The canonical RF fade: outages start in 10 % of periods and persist
/// for 4 periods on average (≈ 71 % availability).
pub fn canonical_brownout_model() -> BrownoutModel {
    BrownoutModel::new(0.1, 4.0)
}

/// Per-frame energy trace of the MD+FD+NN pipeline on the MCU substrate
/// — the input the degraded platform replays. The software substrate is
/// deliberate: accelerated frames (~2 µJ, sensor-dominated) complete
/// within any period that can start them, while MCU frames are heavy and
/// multi-block, so brownouts interrupt real work and block-granular
/// recovery is observable.
pub fn fa_frame_trace(seed: u64, frames: usize, effort: TrainEffort) -> Vec<FrameOutcome> {
    let workload = Workload::generate(seed, frames, effort);
    let config = FaPipelineConfig::full_accelerated()
        .on_substrate(Substrate::Mcu(McuModel::cortex_m_class()));
    let mut pipeline = workload.pipeline(config);
    pipeline.run_trace(&workload.frames).1
}

/// The canonical WISPCam degradation report: the FA trace replayed at
/// 2 m under the canonical fade with checkpoint/resume.
pub fn canonical_wispcam_report(outcomes: &[FrameOutcome], seed: u64) -> DegradedReport {
    wispcam_report(
        outcomes,
        seed,
        CANONICAL_DISTANCE_M,
        RecoveryPolicy::Checkpoint,
    )
}

/// Replays an FA frame trace at the given distance under the canonical
/// fade with the given recovery policy.
pub fn wispcam_report(
    outcomes: &[FrameOutcome],
    seed: u64,
    distance_m: f64,
    policy: RecoveryPolicy,
) -> DegradedReport {
    let mut platform = WispCamPlatform::wispcam_default();
    platform.harvester_mut().set_distance(distance_m);
    let brownouts = canonical_brownout_model().trace(seed ^ 0x0B10_C0A7, 8192);
    let config = DegradedSimConfig::at_fps(CANONICAL_TARGET_FPS, policy, outcomes.len());
    simulate_degraded(&mut platform, outcomes, &brownouts, &config)
}

/// Renders the VR policy comparison at the canonical scenario.
pub fn render_vr_policies(seed: u64, frames: u64) -> String {
    let model = VrModel::paper_default();
    let link = Link::ethernet_25g();
    let scenario = canonical_vr_scenario(seed, frames);
    let rows = policy_sweep(&model, &canonical_vr_config(), &link, &scenario);
    let mut table = Table::new(&[
        "policy",
        "completed",
        "dropped",
        "retries",
        "effective FPS",
        "vs ideal",
    ]);
    for (policy, r) in &rows {
        table.row_owned(vec![
            policy.label().to_string(),
            format!("{}/{}", r.frames_completed, r.frames_attempted),
            r.frames_dropped().to_string(),
            (r.compute_retries + r.link_retries).to_string(),
            sig3(r.effective_fps.fps()),
            format!("{:.3}", r.throughput_ratio()),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\n(Gilbert-Elliott uplink at {:.0} % stationary loss; all policies \
         replay the same fault trace)\n",
        CANONICAL_LOSS * 100.0
    ));
    out
}

/// Renders the WISPCam recovery-policy comparison at the canonical
/// scenario.
pub fn render_wispcam_recovery(outcomes: &[FrameOutcome], seed: u64) -> String {
    let mut table = Table::new(&[
        "recovery",
        "completed",
        "stalls",
        "restarts",
        "saves",
        "wasted",
        "achieved FPS",
    ]);
    for policy in [RecoveryPolicy::RestartFrame, RecoveryPolicy::Checkpoint] {
        let r = wispcam_report(outcomes, seed, CANONICAL_DISTANCE_M, policy);
        table.row_owned(vec![
            policy.label().to_string(),
            format!("{}/{}", r.frames_completed, r.frames_total),
            r.stalled_periods.to_string(),
            r.restarts.to_string(),
            r.checkpoint_saves.to_string(),
            r.wasted.human(),
            sig3(r.achieved_fps.fps()),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\n(FA pipeline at {CANONICAL_DISTANCE_M} m from the reader under a \
         fading carrier, block-granular execution)\n"
    ));
    out
}

/// The loss-rate × harvest-distance sweep behind `results/fault-sweep.txt`:
/// every VR graceful-degradation policy on a bursty uplink at four loss
/// rates, and both WISPCam recovery policies at four reader distances
/// under the canonical fade.
pub fn fault_sweep(seed: u64) -> String {
    let model = VrModel::paper_default();
    let link = Link::ethernet_25g();
    let mut vr = Table::new(&[
        "loss",
        "policy",
        "completed",
        "retries",
        "effective FPS",
        "vs ideal",
    ]);
    for &loss in &[0.02f64, 0.05, 0.10, 0.20] {
        let scenario = VrChaosScenario {
            trace: GilbertElliott::congested(loss).trace(seed, 8192),
            compute: ComputeFaultModel::ideal(),
            frames: 150,
            retry: RetryPolicy::default(),
        };
        for (policy, r) in policy_sweep(&model, &canonical_vr_config(), &link, &scenario) {
            vr.row_owned(vec![
                format!("{:.0}%", loss * 100.0),
                policy.label().to_string(),
                format!("{}/{}", r.frames_completed, r.frames_attempted),
                (r.compute_retries + r.link_retries).to_string(),
                sig3(r.effective_fps.fps()),
                format!("{:.3}", r.throughput_ratio()),
            ]);
        }
    }

    let outcomes = fa_frame_trace(seed, 60, TrainEffort::Quick);
    let mut fa = Table::new(&[
        "distance (m)",
        "recovery",
        "completed",
        "stalls",
        "restarts",
        "wasted",
        "achieved FPS",
    ]);
    for &distance in &[1.0f64, 2.0, 3.0, 4.0] {
        for policy in [RecoveryPolicy::RestartFrame, RecoveryPolicy::Checkpoint] {
            let r = wispcam_report(&outcomes, seed, distance, policy);
            fa.row_owned(vec![
                sig3(distance),
                policy.label().to_string(),
                format!("{}/{}", r.frames_completed, r.frames_total),
                r.stalled_periods.to_string(),
                r.restarts.to_string(),
                r.wasted.human(),
                sig3(r.achieved_fps.fps()),
            ]);
        }
    }

    format!(
        "fault sweep (seed {seed}): loss rate x harvest distance\n\n\
         VR pipeline (cut 3, FPGA depth) on a bursty 25GbE uplink:\n\n{}\n\
         WISPCam MD+FD+NN (MCU substrate) at {CANONICAL_TARGET_FPS} FPS under a fading \
         carrier:\n\n{}",
        vr.render(),
        fa.render()
    )
}

/// The full chaos study: canonical reports plus both policy comparisons.
pub fn run(seed: u64, quick: bool) -> String {
    let (fa_frames, vr_frames, effort) = if quick {
        (60, 150, TrainEffort::Quick)
    } else {
        (150, 400, TrainEffort::Quick)
    };
    let outcomes = fa_frame_trace(seed, fa_frames, effort);
    let mut out = String::new();
    out.push_str("--- canonical VR degradation (5% bursty loss, retry) ---\n\n");
    out.push_str(&canonical_vr_report(seed, vr_frames).render());
    out.push_str("\n--- VR graceful-degradation policies ---\n\n");
    out.push_str(&render_vr_policies(seed, vr_frames));
    out.push_str("\n--- WISPCam recovery across RF brownouts ---\n\n");
    out.push_str(&render_wispcam_recovery(&outcomes, seed));
    out
}
