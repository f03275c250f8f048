//! `vr_rig`: one frame of the paper's 16-camera rig through the
//! functional VR pipeline (B1 pre-process → B2 align → B3 bilateral-space
//! depth → B4 stitch), at 128×96 per camera.

use crate::harness::{LayerPoint, Tally, Timings, Unit};
use crate::report::Metric;
use incam_bilateral::stereo::block_match;
use incam_imaging::image::GrayImage;
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use incam_vr::blocks::align::{align_pair, AlignedPair};
use incam_vr::blocks::depth::{estimate_depth, scaled_config};
use incam_vr::blocks::preprocess::preprocess;
use incam_vr::blocks::run_functional_pipeline;
use incam_vr::blocks::stitch::{stitch, PairDepth, StereoPanorama};
use incam_vr::frame::{synthetic_capture, RigCapture};
use incam_vr::rig::CameraRig;

/// Cameras in the rig (one stereo pair per camera).
const CAMERAS: usize = 16;

/// Largest disparity in the synthetic captures, pixels.
const MAX_DISPARITY: usize = 8;

/// The seeded rig capture and the reference panorama.
pub struct Vr {
    capture: RigCapture,
    reference: Option<StereoPanorama>,
}

impl Vr {
    /// Renders the seeded rig capture.
    pub fn setup(seed: u64) -> Self {
        let rig = CameraRig::scaled(CAMERAS, 128, 96);
        let capture = synthetic_capture(&rig, MAX_DISPARITY, &mut StdRng::seed_from_u64(seed));
        Self {
            capture,
            reference: None,
        }
    }
}

/// Bit-exact equality of two panoramas.
fn same(a: &StereoPanorama, b: &StereoPanorama) -> bool {
    let bits = |x: &GrayImage, y: &GrayImage| {
        x.dims() == y.dims()
            && x.pixels()
                .iter()
                .zip(y.pixels())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    };
    bits(&a.left, &b.left) && bits(&a.right, &b.right)
}

impl Unit for Vr {
    fn items(&self) -> f64 {
        1.0
    }

    fn run(&mut self, tally: &Tally) {
        let panorama = run_functional_pipeline(&self.capture);
        match &self.reference {
            None => {
                tally.check(
                    panorama.left.pixels().iter().all(|p| p.is_finite()),
                    "vr panorama is finite",
                );
                self.reference = Some(panorama);
            }
            Some(reference) => tally.check(
                same(&panorama, reference),
                "vr panorama matches the reference",
            ),
        }
    }
}

/// Per-layer inputs: every intermediate of the reference frame.
pub struct Prep {
    luma: Vec<(GrayImage, GrayImage)>,
    aligned: Vec<AlignedPair>,
    depths: Vec<PairDepth>,
}

impl Vr {
    /// The B1–B3 intermediates of every pair, so each block is timed on
    /// its real input.
    pub fn prep(&self) -> Prep {
        let pairs = &self.capture.pairs;
        let luma: Vec<(GrayImage, GrayImage)> = pairs
            .iter()
            .map(|p| (preprocess(&p.reference_raw), preprocess(&p.neighbour_raw)))
            .collect();
        let aligned: Vec<AlignedPair> = pairs
            .iter()
            .zip(&luma)
            .map(|(p, (r, n))| align_pair(r, n, &p.calibration))
            .collect();
        let depths = aligned
            .iter()
            .map(|a| PairDepth {
                reference: a.reference.clone(),
                disparity: estimate_depth(a, self.capture.max_disparity).disparity,
            })
            .collect();
        Prep {
            luma,
            aligned,
            depths,
        }
    }

    /// One harness point per block (B1–B3 per pair, B4 per frame), the
    /// block-matching part of B3, and the whole frame.
    pub fn points<'a>(&'a self, prep: &'a Prep, tally: &'a Tally) -> Vec<LayerPoint<'a>> {
        let pairs = &self.capture.pairs;
        let max_disparity = self.capture.max_disparity;
        let matching = scaled_config(max_disparity).matching;
        let overlap = pairs[0].reference_raw.width() / 8;
        let reference = self
            .reference
            .as_ref()
            .expect("the reference pass runs first");
        let (mut b1, mut b2, mut b3, mut bm) = (0, 0, 0, 0);
        vec![
            LayerPoint::new("vr.b1", move || {
                b1 = (b1 + 1) % pairs.len();
                (
                    preprocess(&pairs[b1].reference_raw),
                    preprocess(&pairs[b1].neighbour_raw),
                )
            }),
            LayerPoint::new("vr.b2", move || {
                b2 = (b2 + 1) % pairs.len();
                let (r, n) = &prep.luma[b2];
                align_pair(r, n, &pairs[b2].calibration)
            }),
            LayerPoint::new("vr.b3", move || {
                b3 = (b3 + 1) % prep.aligned.len();
                estimate_depth(&prep.aligned[b3], max_disparity)
            }),
            LayerPoint::new("vr.block_match", move || {
                bm = (bm + 1) % prep.aligned.len();
                let a = &prep.aligned[bm];
                block_match(&a.neighbour, &a.reference, &matching)
            }),
            LayerPoint::new("vr.b4", move || stitch(&prep.depths, overlap, 0.5)),
            LayerPoint::new("vr.frame", move || {
                let panorama = run_functional_pipeline(&self.capture);
                tally.check(
                    same(&panorama, reference),
                    "vr panorama matches the reference",
                );
            }),
        ]
    }

    /// Per-layer metrics: per-pair block times, the per-frame stitch, and
    /// the share of the frame the blocks account for.
    pub fn metrics(&self, t: &Timings) -> Vec<Metric> {
        let pairs = self.capture.pairs.len() as f64;
        let attributed = pairs * (t.ns("vr.b1") + t.ns("vr.b2") + t.ns("vr.b3")) + t.ns("vr.b4");
        vec![
            Metric::new("vr.b1_preprocess_ms", t.ns("vr.b1") / 1e6, "ms"),
            Metric::new("vr.b2_align_ms", t.ns("vr.b2") / 1e6, "ms"),
            Metric::new("vr.b3_depth_ms", t.ns("vr.b3") / 1e6, "ms"),
            Metric::new(
                "bilateral.block_match_ms",
                t.ns("vr.block_match") / 1e6,
                "ms",
            ),
            Metric::new("vr.b4_stitch_ms", t.ns("vr.b4") / 1e6, "ms"),
            Metric::new("vr.attributed_frac", attributed / t.ns("vr.frame"), "frac"),
        ]
    }
}
