//! The four VR pipeline blocks (paper Fig. 5): B1 pre-processing, B2
//! image alignment, B3 depth estimation, B4 image stitching — each with a
//! functional implementation for the scaled simulator and the work
//! constants the analytical cost models use.

pub mod align;
pub mod depth;
pub mod preprocess;
pub mod stitch;

use crate::frame::RigCapture;
use stitch::{PairDepth, StereoPanorama};

/// Runs the full functional pipeline over a rig capture: B1 → B2 → B3 →
/// B4.
///
/// # Examples
///
/// ```
/// use incam_vr::blocks::run_functional_pipeline;
/// use incam_vr::frame::synthetic_capture;
/// use incam_vr::rig::CameraRig;
/// use incam_rng::SeedableRng;
///
/// let rig = CameraRig::scaled(4, 64, 48);
/// let mut rng = incam_rng::rngs::StdRng::seed_from_u64(5);
/// let capture = synthetic_capture(&rig, 5, &mut rng);
/// let pano = run_functional_pipeline(&capture);
/// assert_eq!(pano.left.height(), 48);
/// ```
pub fn run_functional_pipeline(capture: &RigCapture) -> StereoPanorama {
    // Camera pairs are independent through B1–B3, so they fan out across
    // the worker pool (the paper's per-camera parallelism); results come
    // back in rig order and each pair's chain is a pure function of its
    // capture, so the panorama is byte-identical at any thread count.
    // This is the workspace's one parallel unit: every kernel inside a
    // pair, and every kernel elsewhere, is a sequential loop.
    let pair_depths: Vec<PairDepth> = incam_parallel::par_map(capture.pairs.len(), |i| {
        let pair = &capture.pairs[i];
        // B1: demosaic each raw view
        let reference = preprocess::preprocess(&pair.reference_raw);
        let neighbour = preprocess::preprocess(&pair.neighbour_raw);
        // B2: rectify the neighbour; the reference view moves in as is
        let aligned = align::AlignedPair {
            neighbour: align::rectify(&neighbour, &pair.calibration),
            reference,
        };
        // B3: bilateral-space stereo
        let depth = depth::estimate_depth(&aligned, capture.max_disparity);
        PairDepth {
            reference: aligned.reference,
            disparity: depth.disparity,
        }
    });
    // B4: panoramic stitch with a modest overlap and IPD scale
    let overlap = capture.pairs[0].reference_raw.width() / 8;
    stitch::stitch(&pair_depths, overlap, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::synthetic_capture;
    use crate::rig::CameraRig;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    #[test]
    fn end_to_end_produces_stereo_panorama() {
        let rig = CameraRig::scaled(4, 64, 48);
        let mut rng = StdRng::seed_from_u64(71);
        let capture = synthetic_capture(&rig, 5, &mut rng);
        let pano = run_functional_pipeline(&capture);
        let step = 64 - 8;
        assert_eq!(pano.left.dims(), (4 * step + 8, 48));
        // the two eyes differ somewhere (parallax was synthesized)
        let diff: f32 = pano
            .left
            .pixels()
            .iter()
            .zip(pano.right.pixels())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1.0, "eyes identical: no parallax rendered");
        // outputs stay in a sane range
        let (lo, hi) = pano.left.min_max();
        assert!(lo >= -0.01 && hi <= 1.01);
    }
}
