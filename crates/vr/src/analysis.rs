//! The VR case study's analyses: Fig. 9 (compute shares and data sizes)
//! and Fig. 10 (compute/communication/total FPS for the nine pipeline
//! configurations), built on top of `incam-core`'s offload framework.

use crate::backend::{BackendCalibration, DepthBackend};
use crate::blocks::depth::DepthWorkload;
use crate::blocks::{align, preprocess, stitch};
use crate::configs::PipelineConfig;
use crate::rig::CameraRig;
use incam_core::block::{Backend, BlockSpec, DataTransform};
use incam_core::explore::{Binding, BlockSpace, ConfigAnalysis, PipelineSpace};
use incam_core::link::Link;
use incam_core::offload::Constraint;
use incam_core::pipeline::{Pipeline, Source};
use incam_core::units::{Bytes, Fps, Seconds};

/// Per-block data-size ratios relative to the raw sensor stream.
///
/// B1 demosaics in place (8-bit planes in and out); B2 emits 32-bit float
/// rectified views (4×); B3 emits a 16-bit disparity plus the 8-bit
/// reference per pixel (3×); B4's stereo panorama covers half the rig's
/// pixel budget at 8 bits (0.5×).
pub const DATA_RATIOS: [f64; 4] = [1.0, 4.0, 3.0, 0.5];

/// The assembled analytical model.
#[derive(Debug, Clone)]
pub struct VrModel {
    /// The camera rig.
    pub rig: CameraRig,
    /// The depth-solver workload.
    pub workload: DepthWorkload,
    /// Backend calibration.
    pub calibration: BackendCalibration,
}

impl VrModel {
    /// The paper's system: 16×4K rig, paper depth workload, calibrated
    /// backends.
    pub fn paper_default() -> Self {
        Self {
            rig: CameraRig::paper_rig(),
            workload: DepthWorkload::paper_default(),
            calibration: BackendCalibration::paper_default(),
        }
    }

    /// Serial ARM compute time per block for one rig frame (the Fig. 9
    /// breakdown's basis).
    pub fn serial_block_seconds(&self) -> [Seconds; 4] {
        let cams = self.rig.cameras as f64;
        let pairs = self.rig.stereo_pairs() as f64;
        let px = self.rig.pixels_per_camera();
        let cpu = self.calibration.cpu_ops_per_sec;
        let b1 = preprocess::ops_for(px) * cams / cpu;
        let b2 = align::ops_for(px) * pairs / cpu;
        let b3 = self.workload.blur_ops(self.rig.width, self.rig.height) * pairs / cpu;
        // stereo panorama: both eyes together cover the rig's pixel budget
        let pano_px = self.rig.pixels_per_camera() * self.rig.cameras;
        let b4 = stitch::ops_for(pano_px) / cpu;
        [
            Seconds::new(b1),
            Seconds::new(b2),
            Seconds::new(b3),
            Seconds::new(b4),
        ]
    }

    /// Fractional compute share per block (Fig. 9's 5/20/70/5 split).
    pub fn compute_shares(&self) -> [f64; 4] {
        let secs = self.serial_block_seconds();
        let total: f64 = secs.iter().map(|s| s.secs()).sum();
        [
            secs[0].secs() / total,
            secs[1].secs() / total,
            secs[2].secs() / total,
            secs[3].secs() / total,
        ]
    }

    /// Rig-frame data size after `k` blocks (`k = 0` is the raw sensor).
    /// The ratios are each block's output relative to the *sensor* stream,
    /// so only the last included block's ratio applies.
    pub fn data_after(&self, k: usize) -> Bytes {
        assert!(k <= 4, "at most four blocks");
        if k == 0 {
            self.rig.rig_frame_bytes()
        } else {
            self.rig.rig_frame_bytes() * DATA_RATIOS[k - 1]
        }
    }

    /// The VR configuration space: B1/B2 each have their single calibrated
    /// CPU binding, B3 declares one binding per [`DepthBackend`] (in
    /// [`DepthBackend::ALL`] order, so binding indices equal
    /// [`DepthBackend::index`]), and B4 declares the same three backends at
    /// the calibrated stitching rate. The paper's Fig. 10 is this space's
    /// distinct enumeration under [`PipelineConfig::paper_coupling`].
    pub fn binding_space(&self) -> PipelineSpace {
        self.binding_space_custom(&self.workload, DATA_RATIOS[2])
    }

    /// Like [`VrModel::binding_space`] but with an explicit depth workload
    /// and B3 output ratio — the hook graceful-degradation policies use to
    /// swap in a coarser bilateral-grid solve (faster B3, smaller
    /// disparity output) without touching the calibrated defaults.
    pub fn binding_space_custom(
        &self,
        workload: &DepthWorkload,
        b3_output_ratio: f64,
    ) -> PipelineSpace {
        assert!(
            b3_output_ratio > 0.0 && b3_output_ratio.is_finite(),
            "B3 output ratio must be positive and finite"
        );
        let cal = &self.calibration;
        PipelineSpace::new(Source::new("S", self.rig.rig_frame_bytes(), cal.sensor_fps))
            .with_block(BlockSpace::new(
                BlockSpec::core("B1", DataTransform::Scale(DATA_RATIOS[0])),
                vec![Binding::new(Backend::Cpu, cal.b1_stage_fps)],
            ))
            .with_block(BlockSpace::new(
                BlockSpec::core("B2", DataTransform::Scale(DATA_RATIOS[1])),
                vec![Binding::new(Backend::Cpu, cal.b2_stage_fps)],
            ))
            .with_block(BlockSpace::new(
                BlockSpec::core("B3", DataTransform::Scale(b3_output_ratio / DATA_RATIOS[1])),
                DepthBackend::ALL
                    .iter()
                    .map(|&b| Binding::new(b.core(), cal.depth_fps(&self.rig, workload, b)))
                    .collect(),
            ))
            .with_block(BlockSpace::new(
                BlockSpec::core("B4", DataTransform::Scale(DATA_RATIOS[3] / b3_output_ratio)),
                DepthBackend::ALL
                    .iter()
                    .map(|&b| Binding::new(b.core(), cal.b4_stage_fps))
                    .collect(),
            ))
    }

    /// Builds the `incam-core` pipeline for a given depth backend — the
    /// full-cut realization of [`VrModel::binding_space`] with B3 and B4
    /// bound to `depth_backend`.
    pub fn pipeline(&self, depth_backend: DepthBackend) -> Pipeline {
        self.pipeline_custom(depth_backend, &self.workload, DATA_RATIOS[2])
    }

    /// Like [`VrModel::pipeline`] but over
    /// [`VrModel::binding_space_custom`].
    pub fn pipeline_custom(
        &self,
        depth_backend: DepthBackend,
        workload: &DepthWorkload,
        b3_output_ratio: f64,
    ) -> Pipeline {
        let space = self.binding_space_custom(workload, b3_output_ratio);
        space.realize(&PipelineConfig::at_cut(4, depth_backend).to_configuration())
    }

    /// One Fig. 10 row, evaluated through the configuration space.
    pub fn evaluate_config(&self, config: &PipelineConfig, link: &Link) -> Fig10Row {
        config.validate();
        let space = self.binding_space();
        let analysis = space.evaluate(&config.to_configuration(), link);
        Fig10Row::from_analysis(config, &analysis)
    }

    /// The full Fig. 10 table: the distinct configuration space pruned by
    /// the paper's B3/B4 backend coupling, in enumeration order — which
    /// is exactly the figure's nine-configuration order.
    pub fn fig10(&self, link: &Link) -> Vec<Fig10Row> {
        let space = self.binding_space();
        space
            .explore(link)
            .filter(|analysis| PipelineConfig::paper_coupling(&analysis.config))
            .map(|analysis| {
                let config = PipelineConfig::from_configuration(&analysis.config);
                Fig10Row::from_analysis(&config, &analysis)
            })
            .collect()
    }

    /// Raw-sensor upload rate on a link (the paper's 400 GbE
    /// sensitivity: a fast enough link removes the incentive for
    /// in-camera processing).
    pub fn sensor_upload_fps(&self, link: &Link) -> Fps {
        link.upload_fps(self.rig.rig_frame_bytes())
    }
}

/// One row of the Fig. 10 table.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Figure-style label (`SB1B2B3F~`).
    pub label: String,
    /// Human-readable configuration.
    pub description: String,
    /// In-camera compute throughput.
    pub compute: Fps,
    /// Uplink throughput for this cut's output.
    pub communication: Fps,
    /// End-to-end rate (the binding minimum).
    pub total: Fps,
    /// Data uploaded per rig frame.
    pub upload_size: Bytes,
    /// Which cost binds.
    pub binding: Constraint,
}

impl Fig10Row {
    /// Builds a row from a configuration-space analysis, labeled in the
    /// figure's style.
    pub fn from_analysis(config: &PipelineConfig, analysis: &ConfigAnalysis) -> Self {
        Fig10Row {
            label: config.label(),
            description: config.description(),
            compute: analysis.compute,
            communication: analysis.communication,
            total: analysis.total(),
            upload_size: analysis.upload,
            binding: analysis.constraint(),
        }
    }

    /// Whether the configuration sustains the 30 FPS real-time target.
    pub fn real_time(&self) -> bool {
        self.total.fps() >= 30.0
    }
}

/// One row of the Fig. 9 report.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Block name.
    pub block: &'static str,
    /// Share of serial compute time.
    pub compute_share: f64,
    /// Output data per rig frame.
    pub output: Bytes,
}

/// The Fig. 9 table: per-block compute share and output size (plus the
/// sensor row).
pub fn fig9(model: &VrModel) -> Vec<Fig9Row> {
    let shares = model.compute_shares();
    let names = [
        "B1 pre-processing",
        "B2 image alignment",
        "B3 depth estimation",
        "B4 image stitching",
    ];
    let mut rows = vec![Fig9Row {
        block: "Sensor",
        compute_share: 0.0,
        output: model.data_after(0),
    }];
    for (i, name) in names.iter().enumerate() {
        rows.push(Fig9Row {
            block: name,
            compute_share: shares[i],
            output: model.data_after(i + 1),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VrModel {
        VrModel::paper_default()
    }

    #[test]
    fn compute_shares_match_fig9() {
        let shares = model().compute_shares();
        assert!((shares[0] - 0.05).abs() < 0.02, "B1 {}", shares[0]);
        assert!((shares[1] - 0.20).abs() < 0.03, "B2 {}", shares[1]);
        assert!((shares[2] - 0.70).abs() < 0.03, "B3 {}", shares[2]);
        assert!((shares[3] - 0.05).abs() < 0.02, "B4 {}", shares[3]);
    }

    #[test]
    fn data_sizes_rise_at_b2_and_fall_after() {
        let m = model();
        let sizes: Vec<f64> = (0..=4).map(|k| m.data_after(k).bytes()).collect();
        assert_eq!(sizes[0], sizes[1]); // B1 identity
        assert!((sizes[2] / sizes[0] - 4.0).abs() < 1e-9); // B2 expands 4x
        assert!((sizes[3] / sizes[0] - 3.0).abs() < 1e-9); // B3 3x
        assert!((sizes[4] / sizes[0] - 0.5).abs() < 1e-9); // B4 0.5x
    }

    #[test]
    fn fig10_totals_match_paper_bars() {
        let rows = model().fig10(&Link::ethernet_25g());
        let totals: Vec<f64> = rows.iter().map(|r| r.total.fps()).collect();
        let expected = [15.8, 15.8, 3.95, 0.09, 5.27, 5.27, 0.09, 11.2, 31.6];
        for (i, (&got, &want)) in totals.iter().zip(&expected).enumerate() {
            let tolerance = f64::max(want * 0.05, 0.01);
            assert!(
                (got - want).abs() < tolerance,
                "row {i} ({}): got {got}, paper {want}",
                rows[i].label
            );
        }
    }

    #[test]
    fn only_full_fpga_pipeline_is_real_time() {
        let rows = model().fig10(&Link::ethernet_25g());
        let real_time: Vec<&Fig10Row> = rows.iter().filter(|r| r.real_time()).collect();
        assert_eq!(real_time.len(), 1, "exactly one real-time config");
        assert_eq!(real_time[0].label, "SB1B2B3FB4F~");
    }

    #[test]
    fn binding_constraints() {
        let rows = model().fig10(&Link::ethernet_25g());
        // raw offload is communication-bound
        assert_eq!(rows[0].binding, Constraint::Communication);
        // full CPU pipeline is compute-bound (0.09 FPS)
        assert_eq!(rows[6].binding, Constraint::Computation);
    }

    #[test]
    fn four_hundred_gig_ethernet_restores_offload() {
        let m = model();
        let fps = m.sensor_upload_fps(&Link::ethernet_400g());
        // the paper quotes ~395 FPS; our 400GbE efficiency setting lands
        // in the same hundreds-of-FPS regime
        assert!(fps.fps() > 300.0, "got {}", fps.fps());
    }

    #[test]
    fn fig9_rows_structure() {
        let rows = fig9(&model());
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].block, "Sensor");
        // B2 output is the peak
        let peak = rows
            .iter()
            .max_by(|a, b| a.output.bytes().total_cmp(&b.output.bytes()))
            .unwrap();
        assert_eq!(peak.block, "B2 image alignment");
    }
}
