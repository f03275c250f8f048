//! Fleet study — the computation-communication tradeoff at deployment
//! scale.
//!
//! Three scenarios, all driven by the deterministic `incam-fleet`
//! simulator from one seed:
//!
//! * a **WISPCam deployment** — the canonical 1k-camera scenario the
//!   golden test pins: backscatter cameras booting at raw offload
//!   (cut 0) whose contention forces per-camera re-selection toward the
//!   one-byte verdict cut;
//! * a **VR rig farm** — a smaller fleet of 25 GbE rigs whose frames
//!   are big enough that even a fat spectrum congests;
//! * a **mixed fleet** — both classes interleaved on the same spectrum
//!   and ingest tier.
//!
//! Every report ends in its FNV digest, so the `repro --experiment
//! fleet` output is byte-comparable across runs and `INCAM_THREADS`
//! settings — the CI fleet-determinism gate does exactly that.
//! [`sweep`] (`repro --experiment fleet-sweep`) maps the WISPCam fleet
//! over fleet size × spectrum channels.

use incam_core::fleet::FleetReport;
use incam_core::report::{sig3, Table};
use incam_core::units::Seconds;
use incam_fleet::{FleetConfig, FleetSim};
use incam_vr::backend::DepthBackend;

/// Cameras in the canonical (golden-pinned) WISPCam deployment.
pub const CANONICAL_CAMERAS: u64 = 1000;

/// The canonical WISPCam deployment: `cameras` backscatter cameras on
/// the default shared spectrum and ingest tier.
pub fn wispcam_fleet(seed: u64, cameras: u64, horizon: Seconds) -> FleetReport {
    let mut config = FleetConfig::canonical("wispcam deployment", seed, cameras);
    config.horizon = horizon;
    FleetSim::new(config, vec![incam_wispcam::fleet_profile()]).run()
}

/// A VR rig farm: `rigs` rigs with FPGA depth backends sharing a
/// 16-channel aggregation spectrum.
pub fn vr_fleet(seed: u64, rigs: u64, horizon: Seconds) -> FleetReport {
    let mut config = FleetConfig::canonical("vr rig farm", seed, rigs);
    config.horizon = horizon;
    config.channels = 16;
    FleetSim::new(config, vec![incam_vr::fleet_profile(DepthBackend::Fpga)]).run()
}

/// A mixed fleet: WISPCams and VR rigs interleaved on one spectrum.
pub fn mixed_fleet(seed: u64, cameras: u64, horizon: Seconds) -> FleetReport {
    let mut config = FleetConfig::canonical("mixed fleet", seed, cameras);
    config.horizon = horizon;
    FleetSim::new(
        config,
        vec![
            incam_wispcam::fleet_profile(),
            incam_vr::fleet_profile(DepthBackend::Fpga),
        ],
    )
    .run()
}

/// The canonical 1k-camera report the golden regression pins.
pub fn canonical_report(seed: u64) -> FleetReport {
    wispcam_fleet(seed, CANONICAL_CAMERAS, Seconds::new(10.0))
}

/// Renders the three fleet scenarios behind `results/fleet.txt`.
pub fn run(seed: u64, quick: bool) -> String {
    let (wisp, rigs, mixed, horizon) = if quick {
        (200, 16, 120, Seconds::new(5.0))
    } else {
        (CANONICAL_CAMERAS, 48, 600, Seconds::new(10.0))
    };
    let mut out = String::new();
    for report in [
        wispcam_fleet(seed, wisp, horizon),
        vr_fleet(seed, rigs, horizon),
        mixed_fleet(seed, mixed, horizon),
    ] {
        out.push_str(&report.render());
        out.push('\n');
    }
    out.push_str(
        "(each camera re-selects its offload cut online via core::explore as its\n\
         observed goodput shifts; digests are FNV-1a over every counter, so two\n\
         runs agree iff the whole simulation agreed)\n",
    );
    out
}

/// The cameras × spectrum-channels grid behind `results/fleet-sweep.txt`:
/// WISPCam fleets of four sizes on spectra of three widths, asserting
/// frame conservation in every cell.
pub fn sweep(seed: u64) -> String {
    let horizon = Seconds::new(10.0);
    let mut table = Table::new(&[
        "cameras",
        "channels",
        "delivered FPS",
        "skip rate",
        "cut-changes",
        "at cut0",
        "at cut3",
    ]);
    for cameras in [100, 300, 1_000, 3_000] {
        for channels in [16, 64, 256] {
            let mut config = FleetConfig::canonical("fleet sweep", seed, cameras);
            config.horizon = horizon;
            config.channels = channels;
            let r = FleetSim::new(config, vec![incam_wispcam::fleet_profile()]).run();
            assert!(r.conserves(), "frame conservation must hold in every cell");
            let skip_rate = r.frames_skipped as f64 / r.frames_captured.max(1) as f64;
            table.row_owned(vec![
                cameras.to_string(),
                channels.to_string(),
                sig3(r.throughput().fps()),
                sig3(skip_rate),
                r.cut_changes.to_string(),
                r.cut_histogram[0].to_string(),
                r.cut_histogram[3].to_string(),
            ]);
        }
    }
    format!(
        "fleet sweep (seed {seed}): cameras x spectrum channels, WISPCam profile, \
         {:.0} s horizon\n\n{}\n\
         (each camera boots at raw offload — cut 0 — and re-selects its cut online\n\
         as observed goodput shifts; once contention starves a camera's share of\n\
         the spectrum, the one-byte verdict cut — cut 3 — wins its re-search. The\n\
         skip rate counts captures dropped at the camera because the previous\n\
         frame was still in flight: the fleet-scale cost of falling behind.)\n",
        horizon.secs(),
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_render_is_deterministic_and_complete() {
        let a = run(2017, true);
        let b = run(2017, true);
        assert_eq!(a, b);
        assert!(a.contains("wispcam deployment"));
        assert!(a.contains("vr rig farm"));
        assert!(a.contains("mixed fleet"));
        assert_eq!(a.matches("\ndigest").count(), 3);
    }

    #[test]
    fn scenarios_conserve_frames() {
        let horizon = Seconds::new(3.0);
        for r in [
            wispcam_fleet(2017, 60, horizon),
            vr_fleet(2017, 8, horizon),
            mixed_fleet(2017, 30, horizon),
        ] {
            assert!(r.conserves(), "{}: {r:?}", r.label);
        }
    }

    #[test]
    fn wispcam_contention_forces_verdict_cut() {
        let r = wispcam_fleet(2017, 300, Seconds::new(10.0));
        // raw backscatter offload cannot feed 300 cameras through 64
        // channels; the adapted majority must sit at the verdict cut
        assert!(
            r.cut_histogram[3] > r.cameras / 2,
            "cut histogram: {:?}",
            r.cut_histogram
        );
    }
}
