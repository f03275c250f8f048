//! Offload-cut analysis: where should the pipeline hand data to the cloud?
//!
//! For each *cut point* `k` (offload after the first `k` blocks), the
//! system's sustained frame rate is limited by two costs:
//!
//! * **computation** — the pipelined throughput of the in-camera blocks,
//! * **communication** — the rate at which the cut's output data fits
//!   through the uplink.
//!
//! The paper's Fig. 10 plots exactly these two bars (plus their minimum,
//! the *total*) for nine pipeline configurations; only the configuration
//! that computes everything in-camera with FPGA-accelerated depth
//! estimation passes a 30 FPS requirement on both axes.

use crate::explore::{ConfigAnalysis, Configuration};
use crate::link::Link;
use crate::pipeline::Pipeline;
use core::fmt;

/// Which cost limits a configuration's frame rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// In-camera compute is the bottleneck.
    Computation,
    /// The uplink is the bottleneck.
    Communication,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Computation => f.write_str("compute-bound"),
            Constraint::Communication => f.write_str("comm-bound"),
        }
    }
}

/// Analyzes offload cut `k` of `pipeline` over `link`: the one per-cut
/// cost function behind both [`crate::explore::PipelineSpace::evaluate`]
/// and [`crate::runtime::Runtime::run`].
///
/// A fixed pipeline is the space with one binding per block, so the
/// row's configuration is cut `k` with every binding index 0 — the
/// same row exploring `PipelineSpace::from(pipeline)` yields. To
/// analyze every cut, or pick the best one, search that space.
///
/// # Examples
///
/// ```
/// use incam_core::block::{Backend, BlockSpec, DataTransform};
/// use incam_core::link::Link;
/// use incam_core::offload::analyze_cut;
/// use incam_core::pipeline::{Pipeline, Source, Stage};
/// use incam_core::units::{Bytes, BytesPerSec, Fps};
///
/// let p = Pipeline::new(Source::new("sensor", Bytes::from_mib(8.0), Fps::new(100.0)))
///     .then(Stage::new(BlockSpec::core("reduce", DataTransform::Scale(0.25)),
///                      Backend::Asic, Fps::new(60.0)));
/// let link = Link::new("uplink", BytesPerSec::from_gbps(1.0), 1.0);
/// let (raw, reduced) = (analyze_cut(&p, &link, 0), analyze_cut(&p, &link, 1));
/// assert_eq!(reduced.label, "S+reduce(A)");
/// // reducing data 4x quadruples the communication rate
/// assert!((reduced.communication.fps() / raw.communication.fps() - 4.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `k` exceeds the number of stages.
pub fn analyze_cut(pipeline: &Pipeline, link: &Link, k: usize) -> ConfigAnalysis {
    assert!(
        k <= pipeline.len(),
        "cut {k} out of range for a {}-stage pipeline",
        pipeline.len()
    );
    let upload = pipeline.data_after(k);
    ConfigAnalysis {
        config: Configuration::new(vec![0; pipeline.len()], k),
        label: cut_label(pipeline, k),
        compute: pipeline.compute_fps_through(k),
        communication: link.upload_fps(upload),
        upload,
        energy: pipeline.energy_per_frame_through(k),
    }
}

/// Human-readable label for the in-camera prefix of cut `k`, e.g.
/// `S+B1(C)+B2(C)+B3(F)`. Every backend tags its stage with
/// [`crate::block::Backend::letter`].
pub fn cut_label(pipeline: &Pipeline, k: usize) -> String {
    let mut label = String::from("S");
    for stage in pipeline.stages().iter().take(k) {
        label.push('+');
        label.push_str(stage.spec().name());
        label.push('(');
        label.push(stage.backend().letter());
        label.push(')');
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Backend, BlockSpec, DataTransform};
    use crate::explore::PipelineSpace;
    use crate::pipeline::{Source, Stage};
    use crate::units::{Bytes, BytesPerSec, Fps};

    fn vr_like() -> (Pipeline, Link) {
        let p = Pipeline::new(Source::new("S", Bytes::new(1000.0), Fps::new(100.0)))
            .then(Stage::new(
                BlockSpec::core("B1", DataTransform::Identity),
                Backend::Cpu,
                Fps::new(174.0),
            ))
            .then(Stage::new(
                BlockSpec::core("B2", DataTransform::Scale(4.0)),
                Backend::Cpu,
                Fps::new(174.0),
            ))
            .then(Stage::new(
                BlockSpec::core("B3", DataTransform::Scale(0.75)),
                Backend::Fpga,
                Fps::new(31.6),
            ))
            .then(Stage::new(
                BlockSpec::core("B4", DataTransform::Scale(1.0 / 6.0)),
                Backend::Fpga,
                Fps::new(140.0),
            ));
        // effective 15_800 B/s so raw sensor uploads at 15.8 FPS
        let link = Link::new("L", BytesPerSec::new(15_800.0), 1.0);
        (p, link)
    }

    #[test]
    fn cut_count_and_labels() {
        let (p, link) = vr_like();
        assert_eq!(PipelineSpace::from(&p).explore(&link).count(), 5);
        assert_eq!(analyze_cut(&p, &link, 0).label, "S");
        let row = analyze_cut(&p, &link, 3);
        assert_eq!(row.label, "S+B1(C)+B2(C)+B3(F)");
        assert_eq!(row.config, Configuration::new(vec![0; 4], 3));
    }

    #[test]
    fn raw_offload_is_comm_bound() {
        let (p, link) = vr_like();
        let raw = analyze_cut(&p, &link, 0);
        assert!((raw.communication.fps() - 15.8).abs() < 1e-9);
        assert_eq!(raw.constraint(), Constraint::Communication);
        assert!((raw.total().fps() - 15.8).abs() < 1e-9);
    }

    #[test]
    fn expansion_block_hurts_communication() {
        let (p, link) = vr_like();
        // B2 expands data 4x, so comm FPS drops 4x
        let cut2 = analyze_cut(&p, &link, 2);
        assert!((cut2.communication.fps() - 15.8 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn full_pipeline_wins() {
        let (p, link) = vr_like();
        let best = PipelineSpace::from(&p).best(&link).unwrap();
        assert_eq!(best.config.cut(), 4);
        assert!((best.total().fps() - 31.6).abs() < 1e-6);
        assert!(best.meets(Fps::new(30.0)));
    }

    #[test]
    fn compute_bound_detection() {
        let (p, link) = vr_like();
        let cut3 = analyze_cut(&p, &link, 3);
        // B3 FPGA at 31.6 > comm 5.27 => comm-bound
        assert_eq!(cut3.constraint(), Constraint::Communication);
        let cut4 = analyze_cut(&p, &link, 4);
        // data after B4: 1000 * 4 * 0.75 / 6 = 500 B => comm = 31.6 FPS
        assert!((cut4.communication.fps() - 31.6).abs() < 0.01);
    }

    #[test]
    fn best_of_tied_cuts_is_the_earliest() {
        // An identity block leaves the upload size unchanged, so cuts 0
        // and 1 have identical communication FPS; with compute far above
        // the link both cuts' totals tie *exactly* and the doc promises
        // the earliest (least in-camera work) wins.
        let p =
            Pipeline::new(Source::new("S", Bytes::new(1000.0), Fps::new(100.0))).then(Stage::new(
                BlockSpec::core("B1", DataTransform::Identity),
                Backend::Cpu,
                Fps::new(174.0),
            ));
        let link = Link::new("L", BytesPerSec::new(10_000.0), 1.0);
        assert_eq!(
            analyze_cut(&p, &link, 0).total(),
            analyze_cut(&p, &link, 1).total(),
            "cuts must tie exactly"
        );
        let best = PipelineSpace::from(&p).best(&link).unwrap();
        assert_eq!(best.config.cut(), 0);
    }

    #[test]
    fn cut_label_tags_every_backend() {
        let p = Pipeline::new(Source::new("S", Bytes::new(1000.0), Fps::new(100.0)))
            .then(Stage::new(
                BlockSpec::optional("MD", DataTransform::Scale(0.1)),
                Backend::Asic,
                Fps::new(1000.0),
            ))
            .then(Stage::new(
                BlockSpec::core("NN", DataTransform::Fixed(Bytes::new(1.0))),
                Backend::Mcu,
                Fps::new(2.0),
            ));
        assert_eq!(cut_label(&p, 2), "S+MD(A)+NN(M)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cut_out_of_range_panics() {
        let (p, link) = vr_like();
        let _ = analyze_cut(&p, &link, 9);
    }
}
