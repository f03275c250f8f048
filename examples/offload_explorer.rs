//! Offload explorer: enumerate the VR configuration space, then sweep
//! uplink bandwidth and accelerator provisioning to map where the
//! compute/communication crossover falls — the design-space walk behind
//! the paper's closing argument, driven through `core::explore`.
//!
//! ```text
//! cargo run --release --example offload_explorer
//! ```

use incam::core::explore::{first_best, pareto_frontier};
use incam::core::link::Link;
use incam::core::report::{sig3, Table};
use incam::core::units::BytesPerSec;
use incam::fpga::compute_unit::ComputeUnitSpec;
use incam::fpga::design::FpgaDesign;
use incam::fpga::device::FpgaDevice;
use incam::vr::analysis::VrModel;
use incam::vr::backend::DepthBackend;
use incam::vr::configs::PipelineConfig;

fn main() {
    let mut model = VrModel::paper_default();

    // ---- sweep 0: the whole configuration space on the paper's uplink ---
    let space = model.binding_space();
    let link25 = Link::ethernet_25g();
    let analyses: Vec<_> = space
        .explore(&link25)
        .filter(|a| PipelineConfig::paper_coupling(&a.config))
        .collect();
    println!(
        "VR configuration space: {} full / {} distinct configurations, {} under the paper's coupling\n",
        space.cardinality(),
        space.distinct_cardinality(),
        analyses.len()
    );
    let best = first_best(analyses.iter(), |a| a.total()).expect("the VR space is non-empty");
    println!(
        "best configuration on 25GbE: {} at {} FPS",
        PipelineConfig::from_configuration(&best.config),
        sig3(best.total().fps())
    );
    println!("Pareto frontier (total FPS vs upload):");
    for a in pareto_frontier(analyses) {
        println!(
            "  {:<14} {} FPS, {:.1} MB up",
            PipelineConfig::from_configuration(&a.config).label(),
            sig3(a.total().fps()),
            a.upload.mib()
        );
    }
    println!();

    // ---- sweep 1: how fast must the uplink be before raw offload wins? --
    println!("uplink sweep (full-FPGA pipeline vs. raw offload):\n");
    let mut t = Table::new(&["link Gb/s", "raw sensor FPS", "full pipeline FPS", "winner"]);
    for gbps in [10.0, 25.0, 50.0, 100.0, 200.0, 400.0] {
        let link = Link::new(format!("{gbps}GbE"), BytesPerSec::from_gbps(gbps), 0.671);
        let raw = model
            .evaluate_config(
                &PipelineConfig {
                    blocks: 0,
                    depth_backend: None,
                },
                &link,
            )
            .total;
        let full = model
            .evaluate_config(
                &PipelineConfig {
                    blocks: 4,
                    depth_backend: Some(DepthBackend::Fpga),
                },
                &link,
            )
            .total;
        t.row_owned(vec![
            sig3(gbps),
            sig3(raw.fps()),
            sig3(full.fps()),
            if raw.fps() >= 30.0 {
                "offload everything"
            } else if full.fps() >= 30.0 {
                "process in-camera"
            } else {
                "neither is real-time"
            }
            .into(),
        ]);
    }
    println!("{}", t.render());

    // ---- sweep 2: how many FPGAs does real-time depth need? -------------
    println!("FPGA provisioning sweep (25 GbE, full pipeline):\n");
    let mut t = Table::new(&["FPGAs", "depth FPS", "pipeline total FPS", "real-time?"]);
    for count in [2usize, 4, 8, 12, 16] {
        model.calibration.fpga_count = count;
        let depth = model
            .calibration
            .depth_fps(&model.rig, &model.workload, DepthBackend::Fpga);
        let row = model.evaluate_config(
            &PipelineConfig {
                blocks: 4,
                depth_backend: Some(DepthBackend::Fpga),
            },
            &Link::ethernet_25g(),
        );
        t.row_owned(vec![
            count.to_string(),
            sig3(depth.fps()),
            sig3(row.total.fps()),
            if row.real_time() { "yes" } else { "no" }.into(),
        ]);
    }
    println!("{}", t.render());
    model.calibration.fpga_count = 16;

    // ---- sweep 3: would a mid-range FPGA per pair suffice? --------------
    println!("device sweep (one FPGA per camera pair):\n");
    let mut t = Table::new(&["device", "compute units", "DSP util %", "depth FPS"]);
    for device in [
        FpgaDevice::zynq_7020(),
        FpgaDevice::virtex_ultrascale_plus(),
    ] {
        let design = FpgaDesign::max_units(device, ComputeUnitSpec::paper_default());
        model.calibration.fpga_design = design.clone();
        let depth = model
            .calibration
            .depth_fps(&model.rig, &model.workload, DepthBackend::Fpga);
        t.row_owned(vec![
            design.device().name().to_string(),
            design.units().to_string(),
            format!("{:.2}", design.utilization().dsp_pct),
            sig3(depth.fps()),
        ]);
    }
    println!("{}", t.render());
}
