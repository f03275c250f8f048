//! Verify storm: how does the fail-closed authentication service
//! degrade as its uplink rots and its request load grows?
//!
//! Sweeps burst-loss rate against per-camera request load through the
//! `incam-auth` fleet driver (the same all-local plan and service
//! configuration the `repro --experiment verify` golden pins), then
//! writes the grid to `results/verify-storm.txt`. Every cell is a pure
//! function of the seed — rerunning reproduces the file byte for byte.
//! The canonical three-plan report itself lives in `results/verify.txt`
//! (regenerated by `repro --all --output results`).
//!
//! The claim under test: storms cost *recall* (more requests fall back
//! to the secondary factor), never *precision* (an injected fault can
//! only downgrade a verdict, so impostor accepts stay at zero in every
//! cell).
//!
//! ```text
//! cargo run --release --example verify_storm
//! ```

use incam::auth::embed::EmbeddingHead;
use incam::auth::fleet::{drive_fleet, FleetFaults, FleetLoad, FLEET_HEAD_SEED};
use incam::auth::service::ServiceConfig;
use incam::auth::space::{plan_for, verify_uplink, AuthBlockCosts, BIND_ASIC, WINDOW_SIDE};
use incam::core::report::{sig3, Table};
use incam::core::units::Seconds;

const SEED: u64 = 2017;

/// Gilbert–Elliott burst-loss rates swept on every camera's uplink.
const LOSSES: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

/// Per-camera request loads swept (8 cameras each).
const LOADS: [u64; 3] = [10, 40, 80];

fn main() -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str(&format!(
        "verify storm (seed {SEED}): burst loss x request load, all-local plan,\n\
         8 cameras, canonical compute-fault and brownout mix\n\n"
    ));

    let costs = AuthBlockCosts::design_point(&EmbeddingHead::new(WINDOW_SIDE, FLEET_HEAD_SEED));
    let plan = plan_for(&costs, &[BIND_ASIC; 3], 3, verify_uplink());

    let mut table = Table::new(&[
        "loss",
        "req/cam",
        "accepts",
        "fallbacks",
        "recall",
        "impostor-accepts",
        "link-retries",
        "energy/accept",
    ]);
    for loss in LOSSES {
        for requests in LOADS {
            let load = FleetLoad {
                cameras: 8,
                requests_per_camera: requests,
                users: 8,
                impostor_every: 5,
                deadline: Seconds::from_millis(400.0),
                probe_variants: 4,
                nuisance: 0.3,
            };
            let faults = FleetFaults {
                link_loss: loss,
                ..FleetFaults::chaos()
            };
            let r = drive_fleet(
                "verify storm",
                &load,
                &faults,
                plan.clone(),
                ServiceConfig::experiment_default(),
                SEED,
            );
            assert!(
                r.service.conserves(),
                "verdict conservation must hold in every cell"
            );
            assert_eq!(
                r.impostor.0, 0,
                "fail-closed: faults must never buy an impostor an accept"
            );
            table.row_owned(vec![
                sig3(loss),
                requests.to_string(),
                r.service.accepts.to_string(),
                r.service.total_fallbacks().to_string(),
                sig3(r.genuine.0 as f64 / r.genuine.1.max(1) as f64),
                r.impostor.0.to_string(),
                r.service.link_retries.to_string(),
                r.service.energy_per_accept().human(),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\n(every fault path ends in Fallback, never Accept: as loss climbs the\n\
         retry bill and fallback count grow and recall sags, but the impostor\n\
         column stays pinned at zero — the storm can deny service, not grant\n\
         it. energy/accept rises with loss because retransmissions burn camera\n\
         energy whether or not the verdict lands.)\n",
    );

    print!("{out}");
    std::fs::create_dir_all("results")?;
    std::fs::write("results/verify-storm.txt", &out)?;
    eprintln!("\nwrote results/verify-storm.txt");
    Ok(())
}
