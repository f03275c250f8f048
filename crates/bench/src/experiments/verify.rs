//! Verify service study — fault-tolerant face authentication end to
//! end, chaos-tested at fleet load.
//!
//! Four sections, all deterministic from one seed:
//!
//! 1. **Configuration space** — the align/embed/match pipeline through
//!    [`incam_core::explore`]: every distinct binding × cut
//!    configuration of the verify camera on the backscatter uplink,
//!    with its compute/communication rates and energy per verify.
//! 2. **Cut comparison** — three concrete offload plans (all-cloud,
//!    SNNAP-embed split, all-local) driven through the full service at
//!    fleet load, ideal and chaos side by side: precision, recall,
//!    fallback counts, and energy per accepted verify.
//! 3. **Canonical transcripts** — the all-local plan's ideal and chaos
//!    [`incam_auth::service::ServiceReport`]s with exact counters and
//!    digests; the golden test pins the chaos counters, and the CI
//!    determinism gate byte-compares this whole output across
//!    `INCAM_THREADS` settings.
//! 4. **Fleet SLOs** — per-camera accept/fallback/deadline-hit
//!    counters under chaos, with the fleet digest.

use incam_auth::embed::EmbeddingHead;
use incam_auth::fleet::{drive_fleet, FleetFaults, FleetLoad, FleetVerifyReport, FLEET_HEAD_SEED};
use incam_auth::service::{ServiceConfig, VerifyPlan};
use incam_auth::space::{
    plan_for, verify_binding_space, verify_uplink, AuthBlockCosts, BIND_ASIC, BIND_SNNAP,
    WINDOW_SIDE,
};
use incam_core::report::{sig3, Table};
use incam_core::units::Fps;

/// Cameras in the canonical (golden-pinned) verify deployment.
pub const CANONICAL_CAMERAS: u64 = 16;

/// Requests each camera issues in the canonical run.
pub const CANONICAL_REQUESTS: u64 = 40;

/// The canonical fleet load: genuine probes at nuisance 0.3 with every
/// fifth request an impostor, against a 400 ms deadline.
pub fn canonical_load(quick: bool) -> FleetLoad {
    let (cameras, requests) = if quick {
        (8, 12)
    } else {
        (CANONICAL_CAMERAS, CANONICAL_REQUESTS)
    };
    FleetLoad {
        cameras,
        requests_per_camera: requests,
        users: 8,
        impostor_every: 5,
        deadline: incam_core::units::Seconds::from_millis(400.0),
        probe_variants: 4,
        nuisance: 0.3,
    }
}

/// The design-point stage costs (shared by every section).
fn costs() -> AuthBlockCosts {
    AuthBlockCosts::design_point(&EmbeddingHead::new(WINDOW_SIDE, FLEET_HEAD_SEED))
}

/// The three offload plans the cut comparison drives.
pub fn comparison_plans() -> Vec<VerifyPlan> {
    let costs = costs();
    vec![
        // ship the raw probe, verify entirely in the cloud
        plan_for(&costs, &[BIND_ASIC; 3], 0, verify_uplink()),
        // align on the ASIC, embed on the NPU, match in the cloud
        plan_for(
            &costs,
            &[BIND_ASIC, BIND_SNNAP, BIND_ASIC],
            2,
            verify_uplink(),
        ),
        // fully local, one-byte verdict upload
        plan_for(&costs, &[BIND_ASIC; 3], 3, verify_uplink()),
    ]
}

/// The all-local plan whose chaos transcript the golden test pins.
pub fn canonical_plan() -> VerifyPlan {
    let costs = costs();
    plan_for(&costs, &[BIND_ASIC; 3], 3, verify_uplink())
}

/// The canonical chaos run: all-local plan, canonical load, canonical
/// chaos mix. The golden test pins its exact counters.
pub fn canonical_chaos_report(seed: u64) -> FleetVerifyReport {
    drive_fleet(
        "chaos canonical",
        &canonical_load(false),
        &FleetFaults::chaos(),
        canonical_plan(),
        ServiceConfig::experiment_default(),
        seed,
    )
}

/// Precision over all accepts (`n/a` with no accepts at all).
fn precision(report: &FleetVerifyReport) -> String {
    let accepted = report.genuine.0 + report.impostor.0;
    if accepted == 0 {
        "n/a".into()
    } else {
        sig3(report.genuine.0 as f64 / accepted as f64)
    }
}

/// Recall over issued genuine requests.
fn recall(report: &FleetVerifyReport) -> String {
    if report.genuine.1 == 0 {
        "n/a".into()
    } else {
        sig3(report.genuine.0 as f64 / report.genuine.1 as f64)
    }
}

/// Renders the full verify study behind `results/verify.txt`.
pub fn run(seed: u64, quick: bool) -> String {
    let mut out = String::new();
    let load = canonical_load(quick);
    let config = ServiceConfig::experiment_default();

    // 1. the configuration space on the backscatter uplink
    out.push_str("== verify configuration space (backscatter uplink) ==\n");
    let space = verify_binding_space(&costs(), Fps::new(1.0));
    let link = verify_uplink();
    let mut table = Table::new(&[
        "configuration",
        "compute",
        "comm",
        "upload",
        "energy/verify",
    ]);
    for analysis in space.explore(&link) {
        table.row_owned(vec![
            analysis.label.clone(),
            format!("{} fps", sig3(analysis.compute.fps())),
            format!("{} fps", sig3(analysis.communication.fps())),
            analysis.upload.human(),
            analysis.energy.human(),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');

    // 2. cut comparison at fleet load, ideal vs chaos
    out.push_str("== cut comparison: service accuracy and energy ==\n");
    let mut cmp = Table::new(&[
        "plan",
        "condition",
        "accepts",
        "rejects",
        "fallbacks",
        "precision",
        "recall",
        "energy/accept",
    ]);
    let mut reports = Vec::new();
    for plan in comparison_plans() {
        for (condition, faults) in [
            ("ideal", FleetFaults::ideal()),
            ("chaos", FleetFaults::chaos()),
        ] {
            let report = drive_fleet(
                &format!("{} {}", plan.label, condition),
                &load,
                &faults,
                plan.clone(),
                config.clone(),
                seed,
            );
            cmp.row_owned(vec![
                plan.label.clone(),
                condition.into(),
                report.service.accepts.to_string(),
                report.service.rejects.to_string(),
                report.service.total_fallbacks().to_string(),
                precision(&report),
                recall(&report),
                report.service.energy_per_accept().human(),
            ]);
            reports.push(report);
        }
    }
    out.push_str(&cmp.render());
    out.push('\n');

    // 3. canonical transcripts: the all-local plan's exact counters
    out.push_str("== canonical transcripts (all-local plan) ==\n");
    for report in reports.iter().rev().take(2).rev() {
        out.push_str(&format!("--- {} ---\n", report.label));
        out.push_str(&report.service.render());
        out.push('\n');
    }

    // 4. per-camera SLOs under chaos
    let chaos = reports.last().expect("comparison ran"); // incam-lint: allow(fallible-unwrap) — reports is populated unconditionally above
    out.push_str("== fleet SLOs under chaos (all-local plan) ==\n");
    out.push_str(&chaos.render());
    out
}
