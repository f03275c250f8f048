//! The VR case study's experiments: Fig. 6 (bilateral filter demo),
//! Fig. 7 (quality vs. grid size), Fig. 9 (compute distribution & data
//! sizes), Fig. 10 (pipeline configurations) and Table I (FPGA
//! resources), plus the 400 GbE link sensitivity.

use incam_bilateral::signal::{
    bilateral_filter_1d, edge_sharpness, moving_average, region_noise, step_signal,
};
use incam_bilateral::sweep::{grid_quality_sweep, GridQualityPoint, GridSweepConfig, Resolution};
use incam_core::link::Link;
use incam_core::report::{sig3, Table};
use incam_fpga::report::table1;
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use incam_vr::analysis::{fig9, VrModel};
use incam_vr::configs::PipelineConfig;
use incam_vr::network::{link_sweep, standard_links};

/// Fig. 6 — the edge-aware-filter demonstration, as a table of noise
/// suppression and edge retention for the three signals.
pub fn fig6(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let signal = step_signal(100, 50, 20.0, 80.0, 6.0, &mut rng);
    let averaged = moving_average(&signal, 9);
    let bilateral = bilateral_filter_1d(&signal, 3.0, 20.0);

    let mut table = Table::new(&["signal", "flat-region noise (sd)", "edge step (of 60)"]);
    for (name, s) in [
        ("a) input", &signal),
        ("b) moving average", &averaged),
        ("d) bilateral filter", &bilateral),
    ] {
        table.row_owned(vec![
            name.to_string(),
            format!("{:.2}", region_noise(s, 5, 40)),
            format!("{:.1}", edge_sharpness(s, 50, 3)),
        ]);
    }
    table.render()
}

/// Fig. 7 — depth quality (MS-SSIM) vs. bilateral-grid size for the three
/// input resolutions. `scale_divisor` sets the decimation between the
/// nominal resolution and the working measurement (8 = full study, 16 =
/// quick).
pub fn fig7(seed: u64, scale_divisor: f64) -> Vec<GridQualityPoint> {
    let config = GridSweepConfig {
        scale_divisor,
        ..Default::default()
    };
    let ppv = [4.0, 8.0, 16.0, 32.0, 64.0];
    let mut points = Vec::new();
    for resolution in Resolution::PAPER_SET {
        // same scene per resolution series (same seed) isolates the grid
        // effect, as in the paper's fixed test content
        let mut rng = StdRng::seed_from_u64(seed);
        points.extend(grid_quality_sweep(resolution, &ppv, &config, &mut rng));
    }
    points
}

/// Renders Fig. 7.
pub fn render_fig7(points: &[GridQualityPoint]) -> String {
    let mut table = Table::new(&[
        "resolution",
        "px/vertex",
        "grid size (GB)",
        "quality (MS-SSIM)",
    ]);
    for p in points {
        table.row_owned(vec![
            p.resolution.to_string(),
            sig3(p.pixels_per_vertex),
            format!("{:.3}", p.grid_memory.gib()),
            format!("{:.3}", p.quality),
        ]);
    }
    table.render()
}

/// Fig. 9 — per-block compute distribution and output data size.
pub fn render_fig9(model: &VrModel) -> String {
    let mut table = Table::new(&["block", "computation time %", "output (MB/rig frame)"]);
    for row in fig9(model) {
        table.row_owned(vec![
            row.block.to_string(),
            if row.compute_share == 0.0 {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * row.compute_share)
            },
            format!("{:.1}", row.output.mib()),
        ]);
    }
    table.render()
}

/// Fig. 10 — the nine pipeline configurations on the 25 GbE uplink.
pub fn render_fig10(model: &VrModel) -> String {
    let link = Link::ethernet_25g();
    let mut table = Table::new(&[
        "config",
        "description",
        "compute FPS",
        "comm FPS",
        "total FPS",
        "binding",
        "30 FPS?",
    ]);
    for row in model.fig10(&link) {
        table.row_owned(vec![
            row.label.clone(),
            row.description.clone(),
            sig3(row.compute.fps()),
            sig3(row.communication.fps()),
            sig3(row.total.fps()),
            row.binding.to_string(),
            if row.real_time() { "yes" } else { "no" }.to_string(),
        ]);
    }
    let mut out = table.render();
    let fps400 = model.sensor_upload_fps(&Link::ethernet_400g());
    out.push_str(&format!(
        "\nsensitivity: at 400GbE the raw 16-camera stream uploads at {} FPS\n",
        sig3(fps400.fps())
    ));
    out.push_str(&format!("\n{}", render_fig10_frontier(model, &link)));
    out
}

/// The Pareto frontier of the VR configuration space over a link: the
/// nine Fig. 10 configurations reduced to the ones not dominated on
/// total FPS and upload bytes (the VR rig is wall-powered, so the energy
/// objective is identically zero and drops out).
pub fn render_fig10_frontier(model: &VrModel, link: &Link) -> String {
    let space = model.binding_space();
    let analyses: Vec<_> = space
        .explore(link)
        .filter(|a| PipelineConfig::paper_coupling(&a.config))
        .collect();
    let total = analyses.len();
    let frontier = incam_core::explore::pareto_frontier(analyses);
    let mut table = Table::new(&["config", "total FPS", "upload (MB/frame)", "binding"]);
    for analysis in &frontier {
        let config = PipelineConfig::from_configuration(&analysis.config);
        table.row_owned(vec![
            config.label(),
            sig3(analysis.total().fps()),
            format!("{:.1}", analysis.upload.mib()),
            analysis.constraint().to_string(),
        ]);
    }
    format!(
        "-- Pareto frontier over {} (total FPS vs upload) --\n{}{} of {total} configurations survive\n",
        link.name(),
        table.render(),
        frontier.len()
    )
}

/// The link sweep behind the paper's closing network-bandwidth argument.
pub fn render_link_sweep(model: &VrModel) -> String {
    let mut table = Table::new(&[
        "link",
        "raw Gb/s",
        "sensor upload FPS",
        "processed upload FPS",
        "raw offload real-time?",
    ]);
    for row in link_sweep(model, &standard_links()) {
        table.row_owned(vec![
            row.link.clone(),
            sig3(row.raw_gbps),
            sig3(row.sensor_fps.fps()),
            sig3(row.processed_fps.fps()),
            if row.raw_offload_real_time {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    table.render()
}

/// Table I — FPGA platform requirements.
pub fn render_table1() -> String {
    let mut table = Table::new(&["resource", "Evaluation", "Target"]);
    let rows = table1();
    let (eval, target) = (&rows[0], &rows[1]);
    let fmt_pct = |v: f64| format!("{v:.2}%");
    table.row(&["System: FPGA model", &eval.fpga_model, &target.fpga_model]);
    table.row_owned(vec![
        "FPGA (#)".into(),
        eval.fpga_count.to_string(),
        target.fpga_count.to_string(),
    ]);
    table.row_owned(vec![
        "Cameras".into(),
        eval.cameras.to_string(),
        target.cameras.to_string(),
    ]);
    table.row_owned(vec![
        "Per FPGA: Logic".into(),
        fmt_pct(eval.logic_pct),
        fmt_pct(target.logic_pct),
    ]);
    table.row_owned(vec![
        "RAM".into(),
        fmt_pct(eval.ram_pct),
        fmt_pct(target.ram_pct),
    ]);
    table.row_owned(vec![
        "DSP".into(),
        fmt_pct(eval.dsp_pct),
        fmt_pct(target.dsp_pct),
    ]);
    table.row_owned(vec![
        "Clock (MHz)".into(),
        format!("{:.0}", eval.clock_mhz),
        format!("{:.0}", target.clock_mhz),
    ]);
    table.row_owned(vec![
        "Compute units".into(),
        eval.compute_units.to_string(),
        target.compute_units.to_string(),
    ]);
    table.render()
}
