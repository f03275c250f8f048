//! Synthetic rig captures for the functional pipeline.
//!
//! We cannot record a real 16×4K rig, so the functional simulator models
//! what the blocks actually consume: per-pair raw Bayer captures of
//! overlapping views with known ground-truth disparity, plus a small
//! known mount misalignment that the alignment block (B2) must remove.
//! Data-volume and throughput accounting use the analytical
//! [`crate::rig::CameraRig`] model at full scale; the functional path runs
//! at a scaled resolution.
//!
//! [`affine_warp`] (the capture's misalignment and B2's rectification)
//! computes its inverse map's column terms once per column and row terms
//! once per row, which is the map's own left-to-right evaluation order,
//! and samples through row slices; [`to_bayer_raw`] tints only the channel
//! the mosaic keeps. Both are bit-equal to their per-pixel formulations.

use crate::rig::CameraRig;
use incam_imaging::color::{bayer_channel_at, BayerChannel};
use incam_imaging::image::GrayImage;
use incam_imaging::scenes::stereo_scene;
use incam_rng::Rng;

/// Mount misalignment of a camera pair, removed by block B2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCalibration {
    /// Rotation of the second view, radians.
    pub rotation: f32,
    /// Horizontal translation of the second view, pixels.
    pub tx: f32,
    /// Vertical translation of the second view, pixels.
    pub ty: f32,
}

impl PairCalibration {
    /// Perfect alignment.
    pub fn identity() -> Self {
        Self {
            rotation: 0.0,
            tx: 0.0,
            ty: 0.0,
        }
    }

    /// Samples a small random misalignment.
    pub fn sample(rng: &mut impl Rng) -> Self {
        Self {
            rotation: rng.gen_range(-0.02..0.02),
            tx: rng.gen_range(-1.5..1.5),
            ty: rng.gen_range(-1.5..1.5),
        }
    }
}

/// One adjacent-camera pair's capture.
#[derive(Debug, Clone)]
pub struct PairCapture {
    /// Raw Bayer mosaic of the reference camera.
    pub reference_raw: GrayImage,
    /// Raw Bayer mosaic of the neighbour camera (misaligned by
    /// `calibration`).
    pub neighbour_raw: GrayImage,
    /// The misalignment applied to the neighbour view.
    pub calibration: PairCalibration,
    /// Ground-truth disparity of the (aligned) pair.
    pub truth_disparity: GrayImage,
}

/// A full rig capture: one entry per adjacent stereo pair.
#[derive(Debug, Clone)]
pub struct RigCapture {
    /// Pairwise captures (ring order).
    pub pairs: Vec<PairCapture>,
    /// Maximum disparity present in the ground truth.
    pub max_disparity: usize,
}

/// Applies a rotation + translation to an image (bilinear, replicate
/// border) around the image center.
///
/// Each output pixel samples the source at `(cx + cos·dx + sin·dy,
/// cy − sin·dx + cos·dy)`. Evaluated left to right, those sums are
/// `(cx + cos·dx) + sin·dy` and `(cy − sin·dx) + cos·dy`, so the column
/// terms are computed once per column and the row terms once per row
/// without changing a bit of any coordinate.
pub fn affine_warp(img: &GrayImage, rotation: f32, tx: f32, ty: f32) -> GrayImage {
    let (w, h) = img.dims();
    let (cx, cy) = (w as f32 / 2.0, h as f32 / 2.0);
    let (sin, cos) = rotation.sin_cos();
    // inverse map: rotate by -rotation, subtract translation
    let columns: Vec<(f32, f32)> = (0..w)
        .map(|x| {
            let dx = x as f32 - cx - tx;
            (cx + cos * dx, cy - sin * dx)
        })
        .collect();
    let mut out = vec![0.0f32; w * h];
    for (y, orow) in out.chunks_mut(w).enumerate() {
        let dy = y as f32 - cy - ty;
        let (sin_dy, cos_dy) = (sin * dy, cos * dy);
        for (o, &(col_x, col_y)) in orow.iter_mut().zip(&columns) {
            *o = sample_bilinear(img, col_x + sin_dy, col_y + cos_dy);
        }
    }
    GrayImage::from_vec(w, h, out)
}

/// Bilinear sample with replicate border. The two source rows are sliced
/// once; the clamped coordinates are never negative, so truncating them
/// with `as usize` gives the cells `floor()` does, without a libm call.
#[inline]
pub fn sample_bilinear(img: &GrayImage, x: f32, y: f32) -> f32 {
    let (w, h) = img.dims();
    let fx = x.clamp(0.0, (w - 1) as f32);
    let fy = y.clamp(0.0, (h - 1) as f32);
    let x0 = fx as usize;
    let y0 = fy as usize;
    let x1 = (x0 + 1).min(w - 1);
    let y1 = (y0 + 1).min(h - 1);
    let tx = fx - x0 as f32;
    let ty = fy - y0 as f32;
    let (upper, lower) = (img.row(y0), img.row(y1));
    let top = upper[x0] * (1.0 - tx) + upper[x1] * tx;
    let bot = lower[x0] * (1.0 - tx) + lower[x1] * tx;
    top * (1.0 - ty) + bot * ty
}

/// Converts a grayscale view into a tinted RGB scene and samples its
/// Bayer mosaic — the raw format the sensors emit. Only the channel the
/// mosaic keeps at each pixel is tinted, so no RGB image is built.
pub fn to_bayer_raw(gray: &GrayImage) -> GrayImage {
    GrayImage::from_fn(gray.width(), gray.height(), |x, y| {
        let g = gray.get(x, y);
        match bayer_channel_at(x, y) {
            BayerChannel::Red => (g * 1.08 - 0.02).clamp(0.0, 1.0),
            BayerChannel::Green => g,
            BayerChannel::Blue => (g * 0.92 + 0.02).clamp(0.0, 1.0),
        }
    })
}

/// Generates a synthetic capture for every pair of the rig.
///
/// # Panics
///
/// Panics if the rig frames are smaller than 32×32 or `max_disparity` is
/// out of range for the width.
pub fn synthetic_capture(rig: &CameraRig, max_disparity: usize, rng: &mut impl Rng) -> RigCapture {
    let pairs = (0..rig.stereo_pairs())
        .map(|_| {
            let scene = stereo_scene(rig.width, rig.height, max_disparity, 4, rng);
            let calibration = PairCalibration::sample(rng);
            let misaligned = affine_warp(
                &scene.left,
                calibration.rotation,
                calibration.tx,
                calibration.ty,
            );
            PairCapture {
                reference_raw: to_bayer_raw(&scene.right),
                neighbour_raw: to_bayer_raw(&misaligned),
                calibration,
                truth_disparity: scene.disparity,
            }
        })
        .collect();
    RigCapture {
        pairs,
        max_disparity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    #[test]
    fn capture_has_one_pair_per_camera() {
        let rig = CameraRig::scaled(6, 64, 48);
        let mut rng = StdRng::seed_from_u64(21);
        let cap = synthetic_capture(&rig, 5, &mut rng);
        assert_eq!(cap.pairs.len(), 6);
        assert_eq!(cap.pairs[0].reference_raw.dims(), (64, 48));
    }

    #[test]
    fn warp_round_trip_is_identity_in_interior() {
        // smooth texture: resampling error stays small, so residual error
        // measures the transform inverse, not interpolation aliasing
        let img = GrayImage::from_fn(64, 64, |x, y| {
            0.5 + 0.25 * (x as f32 * 0.2).sin() + 0.25 * (y as f32 * 0.15).cos()
        });
        let cal = PairCalibration {
            rotation: 0.01,
            tx: 1.0,
            ty: -0.5,
        };
        let warped = affine_warp(&img, cal.rotation, cal.tx, cal.ty);
        // inverse: rotate by -rot and translate by -R(-rot)·t
        let (sin, cos) = cal.rotation.sin_cos();
        let inv_tx = -(cos * cal.tx + sin * cal.ty);
        let inv_ty = -(-sin * cal.tx + cos * cal.ty);
        let restored = affine_warp(&warped, -cal.rotation, inv_tx, inv_ty);
        let mut err = 0.0f32;
        let mut n = 0;
        for y in 8..56 {
            for x in 8..56 {
                err += (restored.get(x, y) - img.get(x, y)).abs();
                n += 1;
            }
        }
        assert!(err / (n as f32) < 0.03, "mean err {}", err / n as f32);
    }

    #[test]
    fn zero_warp_is_identity() {
        let img = GrayImage::from_fn(16, 16, |x, y| (x + y) as f32 / 32.0);
        let same = affine_warp(&img, 0.0, 0.0, 0.0);
        for (a, b) in img.pixels().iter().zip(same.pixels()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn bayer_raw_round_trips_through_preprocess() {
        let gray = GrayImage::from_fn(32, 32, |x, y| ((x + 2 * y) % 11) as f32 / 11.0);
        let raw = to_bayer_raw(&gray);
        assert_eq!(raw.dims(), gray.dims());
        // raw is a single-channel mosaic, values still in [0,1]
        let (lo, hi) = raw.min_max();
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn sample_bilinear_interpolates() {
        let img = GrayImage::from_fn(2, 1, |x, _| x as f32);
        assert!((sample_bilinear(&img, 0.5, 0.0) - 0.5).abs() < 1e-6);
        // clamped outside
        assert_eq!(sample_bilinear(&img, -5.0, 0.0), 0.0);
    }
}
