//! Block B1 — pre-processing: demosaic the raw Bayer capture and convert
//! to the luma plane the geometric blocks consume.
//!
//! B1 is cheap (≈5 % of the serial compute, paper Fig. 9) and leaves the
//! data volume unchanged (8-bit Bayer in, 8-bit luma out).
//!
//! The block never builds the RGB image: [`incam_imaging::color::demosaic_luma`]
//! interpolates each pixel's missing channels and reduces them to luma in
//! one pass over three raw rows, bit-equal to demosaicing to RGB and then
//! converting (`rgb_to_gray(&demosaic_bilinear(raw))`, the oracle its
//! proptest checks against).

use incam_imaging::color::demosaic_luma;
use incam_imaging::image::GrayImage;

/// Effective arithmetic operations per pixel (demosaic interpolation +
/// color conversion) — calibrated so B1 is ~5 % of the serial ARM
/// pipeline (Fig. 9).
pub const OPS_PER_PIXEL: f64 = 19.0;

/// Demosaics a raw Bayer mosaic and converts to luma.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::GrayImage;
/// use incam_vr::blocks::preprocess;
///
/// let raw = GrayImage::new(16, 16, 0.5);
/// let luma = preprocess::preprocess(&raw);
/// assert_eq!(luma.dims(), (16, 16));
/// ```
pub fn preprocess(raw: &GrayImage) -> GrayImage {
    demosaic_luma(raw)
}

/// Arithmetic work of preprocessing one frame of `pixels` pixels.
pub fn ops_for(pixels: usize) -> f64 {
    OPS_PER_PIXEL * pixels as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::to_bayer_raw;
    use incam_imaging::image::Image;

    #[test]
    fn recovers_smooth_luma() {
        let gray = Image::from_fn(32, 32, |x, y| ((x + y) as f32 / 64.0).clamp(0.0, 1.0));
        let raw = to_bayer_raw(&gray);
        let luma = preprocess(&raw);
        let mut err = 0.0f32;
        let mut n = 0;
        for y in 2..30 {
            for x in 2..30 {
                err += (luma.get(x, y) - gray.get(x, y)).abs();
                n += 1;
            }
        }
        assert!(err / (n as f32) < 0.05, "mean error {}", err / n as f32);
    }

    #[test]
    fn ops_scale_with_pixels() {
        assert_eq!(ops_for(100), 1900.0);
    }
}
