//! The VR-rig camera class for fleet-scale simulation.
//!
//! A broadcast deployment runs many 3D-360° rigs — one per venue or
//! vantage point — into the same ingest tier, each pushing tens of
//! gigabits of raw sensor data unless it processes in-camera. This
//! module packages the Fig. 10 configuration space, a committed depth
//! backend, and the 25 GbE uplink into an
//! [`incam_core::fleet::CameraProfile`] for `incam-fleet`.
//!
//! The profile boots at **cut 0** (raw offload): on an uncontended
//! 25 GbE link that is a defensible design, and it gives the fleet's
//! online re-search the same decision `vr::degrade`'s adaptive-cut
//! policy makes per rig — both re-rank the held-cut chain of
//! [`IncrementalSearch::over_held_cuts`](incam_core::explore::IncrementalSearch::over_held_cuts),
//! so the single-rig policy and the fleet simulator cannot diverge.

use crate::analysis::VrModel;
use crate::backend::DepthBackend;
use incam_core::fleet::CameraProfile;
use incam_core::link::Link;

/// Builds the VR-rig camera class: the paper-default model with the
/// depth and stitching blocks committed to `backend`, uplinked over
/// 25 GbE, booting at cut 0 (raw offload).
pub fn fleet_profile(backend: DepthBackend) -> CameraProfile {
    let model = VrModel::paper_default();
    let idx = backend.index();
    let space = model.binding_space();
    let capture = space.source().max_fps();
    let profile = CameraProfile {
        name: format!("vr-rig-{}", backend.letter().to_ascii_lowercase()),
        space,
        committed: vec![0, 0, idx, idx],
        initial_cut: 0,
        capture,
        uplink: Link::ethernet_25g(),
    };
    profile.validate();
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_core::explore::IncrementalSearch;

    #[test]
    fn profile_is_valid_for_every_backend() {
        for backend in [DepthBackend::Fpga, DepthBackend::Gpu, DepthBackend::Cpu] {
            let p = fleet_profile(backend);
            assert_eq!(p.space.len(), 4);
            assert_eq!(p.committed[2], backend.index());
            assert_eq!(p.committed[3], backend.index());
            assert_eq!(p.initial_cut, 0);
        }
    }

    #[test]
    fn profile_capture_matches_the_sensor() {
        let p = fleet_profile(DepthBackend::Fpga);
        assert_eq!(p.capture, p.space.source().max_fps());
    }

    #[test]
    fn fleet_re_search_agrees_with_the_degrade_policy_search() {
        // the fleet path and vr::degrade's adaptive cut share the
        // held-cut search; pin that the profile feeds it the same
        // committed bindings the policy uses
        let policy_space = VrModel::paper_default().binding_space();
        for backend in [DepthBackend::Fpga, DepthBackend::Gpu, DepthBackend::Cpu] {
            let p = fleet_profile(backend);
            let idx = backend.index();
            let fleet = IncrementalSearch::over_held_cuts(&p.space, &p.committed);
            let policy = IncrementalSearch::over_held_cuts(&policy_space, &[0, 0, idx, idx]);
            for goodput in [1.0, 0.3, 0.05] {
                let link = p.uplink.degraded(goodput);
                let fleet_cut = fleet.best_analysis(&p.space, &link).unwrap().config.cut();
                let policy_cut = policy
                    .best_analysis(&policy_space, &link)
                    .unwrap()
                    .config
                    .cut();
                assert_eq!(fleet_cut, policy_cut);
            }
        }
    }
}
