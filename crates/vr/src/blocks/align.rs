//! Block B2 — image alignment: undo each pair's mount misalignment and
//! emit the rectified float views the stereo block consumes.
//!
//! B2 is the pipeline's *data expander* (the key structural fact behind
//! Fig. 10): each 8-bit camera plane becomes rectified 32-bit float
//! views, quadrupling the bytes in flight. The paper's conclusion —
//! "computational stages that expand the data size are inefficient in
//! isolation, and can be better optimized in concert with their
//! down-stream components" — is about exactly this block.

use crate::frame::{affine_warp, PairCalibration};
use incam_imaging::image::GrayImage;

/// Effective arithmetic operations per output pixel (inverse affine map +
/// bilinear fetch) — calibrated so B2 is ~20 % of the serial ARM pipeline
/// (Fig. 9).
pub const OPS_PER_PIXEL: f64 = 38.0;

/// Byte expansion of this block: 8-bit planes in, 32-bit float rectified
/// planes out.
pub const DATA_EXPANSION: f64 = 4.0;

/// A rectified stereo pair ready for depth estimation.
#[derive(Debug, Clone)]
pub struct AlignedPair {
    /// Reference view (already rectified by construction).
    pub reference: GrayImage,
    /// Neighbour view, warped back into the reference frame.
    pub neighbour: GrayImage,
}

/// Rectifies a pair: copies the reference view and warps the neighbour
/// view back into the reference frame.
///
/// # Panics
///
/// Panics if the two views' dimensions differ.
pub fn align_pair(
    reference: &GrayImage,
    neighbour: &GrayImage,
    calibration: &PairCalibration,
) -> AlignedPair {
    assert_eq!(
        reference.dims(),
        neighbour.dims(),
        "pair views must have equal dimensions"
    );
    AlignedPair {
        reference: reference.clone(),
        neighbour: rectify(neighbour, calibration),
    }
}

/// Applies the inverse of the known calibration warp to the neighbour
/// view, bringing it into the reference view's frame.
pub(crate) fn rectify(neighbour: &GrayImage, calibration: &PairCalibration) -> GrayImage {
    // invert the rotation+translation the mount introduced:
    // forward is p = R(rot)(q - c) + c + t, so the inverse warp uses
    // rotation -rot and translation -R(-rot)·t
    let (sin, cos) = calibration.rotation.sin_cos();
    let inv_tx = -(cos * calibration.tx + sin * calibration.ty);
    let inv_ty = -(-sin * calibration.tx + cos * calibration.ty);
    affine_warp(neighbour, -calibration.rotation, inv_tx, inv_ty)
}

/// Arithmetic work of aligning one pair of `pixels`-pixel views.
pub fn ops_for(pixels: usize) -> f64 {
    // both views are resampled into the rectified frame
    OPS_PER_PIXEL * (2 * pixels) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::image::Image;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    #[test]
    fn alignment_restores_misaligned_view() {
        let mut rng = StdRng::seed_from_u64(31);
        let original = Image::from_fn(64, 64, |x, y| ((x * 5 + y * 3) % 17) as f32 / 17.0);
        let cal = PairCalibration::sample(&mut rng);
        let misaligned = affine_warp(&original, cal.rotation, cal.tx, cal.ty);
        let aligned = align_pair(&original, &misaligned, &cal);
        let mut err_aligned = 0.0f32;
        let mut err_misaligned = 0.0f32;
        let mut n = 0;
        for y in 8..56 {
            for x in 8..56 {
                err_aligned += (aligned.neighbour.get(x, y) - original.get(x, y)).abs();
                err_misaligned += (misaligned.get(x, y) - original.get(x, y)).abs();
                n += 1;
            }
        }
        let (ea, em) = (err_aligned / n as f32, err_misaligned / n as f32);
        assert!(ea < em * 0.5, "aligned {ea} vs misaligned {em}");
    }

    #[test]
    fn identity_calibration_is_noop() {
        let img = Image::from_fn(16, 16, |x, _| x as f32 / 16.0);
        let out = align_pair(&img, &img, &PairCalibration::identity());
        for (a, b) in out.neighbour.pixels().iter().zip(img.pixels()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn expansion_factor_is_four() {
        // 8-bit in, f32 out
        assert_eq!(DATA_EXPANSION, 4.0);
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn mismatched_views_rejected() {
        let _ = align_pair(
            &GrayImage::zeros(8, 8),
            &GrayImage::zeros(9, 8),
            &PairCalibration::identity(),
        );
    }
}
