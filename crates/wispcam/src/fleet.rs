//! The WISPCam camera class for fleet-scale simulation.
//!
//! One WISPCam is the paper's single-camera story; a *deployment* is
//! hundreds to thousands of them sharing one reader's carrier. This
//! module packages the face-authentication configuration space, the
//! all-ASIC committed design, and the backscatter uplink into an
//! [`incam_core::fleet::CameraProfile`] that `incam-fleet` instantiates
//! per camera.
//!
//! The profile boots at **cut 0** — the original WISPCam design that
//! backscatters every raw frame — so the fleet's online re-search has
//! exactly the decision the paper studies to make: as contention erodes
//! each camera's goodput, moving the cut in-camera (ultimately to the
//! one-byte verdict at cut 3) is what keeps the deployment alive.

use crate::mcu::McuModel;
use crate::radio::BackscatterRadio;
use crate::sensor::ImageSensor;
use crate::space::{fa_binding_space, FaBlockCosts};
use incam_core::fleet::CameraProfile;
use incam_core::units::Fps;

/// Capture cadence of a fleet WISPCam: the paper's 1 FPS duty-cycled
/// surveillance rate.
pub const FLEET_CAPTURE_FPS: f64 = 1.0;

/// Builds the WISPCam camera class at the paper's design point:
/// QQVGA sensor, Cortex-M-class MCU, all-ASIC committed bindings,
/// 256 kb/s backscatter uplink, booting at cut 0 (raw offload).
pub fn fleet_profile() -> CameraProfile {
    let capture = Fps::new(FLEET_CAPTURE_FPS);
    let profile = CameraProfile {
        name: "wispcam".to_string(),
        space: fa_binding_space(
            &FaBlockCosts::design_point(),
            &ImageSensor::wispcam_default(),
            &McuModel::cortex_m_class(),
            capture,
        ),
        committed: vec![0, 0, 0],
        initial_cut: 0,
        capture,
        uplink: BackscatterRadio::wispcam_default().link().clone(),
    };
    profile.validate();
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_core::block::Backend;
    use incam_core::explore::IncrementalSearch;
    use incam_core::link::Link;

    #[test]
    fn profile_is_valid_and_all_asic() {
        let p = fleet_profile();
        assert_eq!(p.space.len(), 3);
        assert_eq!(p.committed, vec![0, 0, 0]);
        for (block, &choice) in p.space.blocks().iter().zip(&p.committed) {
            assert_eq!(block.bindings()[choice].backend(), Backend::Asic);
        }
        assert_eq!(p.initial_cut, 0);
        assert_eq!(p.uplink.name(), "backscatter");
    }

    #[test]
    fn re_search_moves_the_cut_in_camera_as_goodput_drops() {
        let p = fleet_profile();
        // at full goodput the verdict cut already wins on this link; the
        // invariant that matters for the fleet is monotonicity: degrading
        // the link never moves the cut *out* of camera
        let held = IncrementalSearch::over_held_cuts(&p.space, &p.committed);
        let cut_at = |link: &Link| held.best_analysis(&p.space, link).unwrap().config.cut();
        let mut last = cut_at(&p.uplink);
        for goodput in [0.5, 0.1, 0.01] {
            let cut = cut_at(&p.uplink.degraded(goodput));
            assert!(cut >= last, "cut moved out of camera: {cut} < {last}");
            last = cut;
        }
        assert_eq!(last, 3, "a starved link must end at the verdict cut");
    }

    #[test]
    fn profile_is_deterministic() {
        assert_eq!(fleet_profile(), fleet_profile());
    }
}
