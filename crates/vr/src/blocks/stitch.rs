//! Block B4 — image stitching: composite the pairwise depth results into
//! a 3D-360° stereo panorama.
//!
//! The left-eye panorama concatenates the reference views with blended
//! seams; the right eye is synthesized by depth-image-based rendering
//! (pixels shift with disparity), which is what makes the output *stereo*
//! 360° video. B4's compute is marginal (~5 %, Fig. 9) but its data
//! reduction is decisive: it emits the only payload small enough to
//! upload in real time (Fig. 10).
//!
//! [`stitch`] runs every pass over row slices, with the feather and the
//! summed blend weight computed once per column; [`stitch_reference`]
//! keeps the per-pixel formulation as its bit-exact oracle.

use incam_imaging::image::GrayImage;

/// Effective arithmetic operations per output pixel (feathered blend plus
/// DIBR resampling for the second eye) — calibrated so B4 is ~5 % of the
/// serial ARM pipeline (Fig. 9).
pub const OPS_PER_PIXEL: f64 = 18.0;

/// One pair's contribution to the panorama.
#[derive(Debug, Clone)]
pub struct PairDepth {
    /// The rectified reference view.
    pub reference: GrayImage,
    /// Its refined disparity map.
    pub disparity: GrayImage,
}

/// A stereo panorama: one image per eye.
#[derive(Debug, Clone)]
pub struct StereoPanorama {
    /// Left-eye panorama.
    pub left: GrayImage,
    /// Right-eye panorama (disparity-shifted).
    pub right: GrayImage,
}

/// Stitches the pairwise results into a stereo panorama.
///
/// `overlap` columns of each segment blend linearly into the next;
/// `ipd_scale` converts disparity into the inter-eye pixel shift.
///
/// Every pass runs over row slices. The feather depends only on the
/// column within a segment and the summed blend weight only on the
/// panorama column, so both are computed once per column (the weight
/// with the same pair-order adds). Each panorama pixel still accumulates
/// its segments in pair order and divides by that weight, and the right
/// eye samples the left with the bilinear expression of
/// [`crate::frame::sample_bilinear`] at the pixel's own row (`ty = 0`),
/// so the panorama is bit-equal to [`stitch_reference`].
///
/// # Panics
///
/// Panics if `pairs` is empty, segments differ in size, or `overlap` is
/// not smaller than the segment width.
pub fn stitch(pairs: &[PairDepth], overlap: usize, ipd_scale: f32) -> StereoPanorama {
    let (w, h) = check_segments(pairs, overlap);
    let step = w - overlap;
    let pano_w = step * pairs.len() + overlap;
    let feathers: Vec<f32> = (0..w).map(|x| feather(x, w, overlap)).collect();
    let mut column_weight = vec![0.0f32; pano_w];
    for i in 0..pairs.len() {
        for (cw, &f) in column_weight[i * step..][..w].iter_mut().zip(&feathers) {
            *cw += f;
        }
    }

    let mut left = vec![0.0f32; pano_w * h];
    let mut disparity = vec![0.0f32; pano_w * h];
    for (i, pair) in pairs.iter().enumerate() {
        let rows = left
            .chunks_mut(pano_w)
            .zip(disparity.chunks_mut(pano_w))
            .enumerate();
        for (y, (lrow, drow)) in rows {
            let segment = lrow[i * step..][..w]
                .iter_mut()
                .zip(&mut drow[i * step..][..w]);
            let sources = pair.reference.row(y).iter().zip(pair.disparity.row(y));
            for (((l, d), &f), (&r, &p)) in segment.zip(&feathers).zip(sources) {
                *l += f * r;
                *d += f * p;
            }
        }
    }
    for (lrow, drow) in left.chunks_mut(pano_w).zip(disparity.chunks_mut(pano_w)) {
        for ((l, d), &cw) in lrow.iter_mut().zip(drow).zip(&column_weight) {
            let wt = cw.max(1e-6);
            *l /= wt;
            *d /= wt;
        }
    }

    // right eye: DIBR shift by scaled disparity, sampled along the row
    let mut right = vec![0.0f32; pano_w * h];
    let max_x = (pano_w - 1) as f32;
    for (y, (rrow, drow)) in right
        .chunks_mut(pano_w)
        .zip(disparity.chunks(pano_w))
        .enumerate()
    {
        let upper = &left[y * pano_w..][..pano_w];
        let lower = &left[(y + 1).min(h - 1) * pano_w..][..pano_w];
        let ty = 0.0f32;
        for (x, (out, &d)) in rrow.iter_mut().zip(drow).enumerate() {
            let shift = d * ipd_scale;
            let fx = (x as f32 + shift).clamp(0.0, max_x);
            // never negative after the clamp: truncation is `floor()`
            let x0 = fx as usize;
            let x1 = (x0 + 1).min(pano_w - 1);
            let tx = fx - x0 as f32;
            let top = upper[x0] * (1.0 - tx) + upper[x1] * tx;
            let bot = lower[x0] * (1.0 - tx) + lower[x1] * tx;
            *out = top * (1.0 - ty) + bot * ty;
        }
    }

    StereoPanorama {
        left: GrayImage::from_vec(pano_w, h, left),
        right: GrayImage::from_vec(pano_w, h, right),
    }
}

/// The original per-pixel stitch (feather, accumulate and weight every
/// pixel of every segment through bounds-checked accessors, then one
/// `sample_bilinear` per right-eye pixel) — correctness oracle for
/// [`stitch`] and the "before" side of its kernel microbenchmark.
///
/// # Panics
///
/// As [`stitch`].
pub fn stitch_reference(pairs: &[PairDepth], overlap: usize, ipd_scale: f32) -> StereoPanorama {
    let (w, h) = check_segments(pairs, overlap);
    let step = w - overlap;
    let pano_w = step * pairs.len() + overlap;
    let mut left = GrayImage::zeros(pano_w, h);
    let mut weight = GrayImage::zeros(pano_w, h);
    let mut disparity = GrayImage::zeros(pano_w, h);

    for (i, pair) in pairs.iter().enumerate() {
        let x0 = i * step;
        for y in 0..h {
            for x in 0..w {
                // linear feather across the overlap bands
                let wx = feather(x, w, overlap);
                let px = x0 + x;
                left.set(px, y, left.get(px, y) + wx * pair.reference.get(x, y));
                disparity.set(px, y, disparity.get(px, y) + wx * pair.disparity.get(x, y));
                weight.set(px, y, weight.get(px, y) + wx);
            }
        }
    }
    for i in 0..left.len() {
        let w = weight.pixels()[i].max(1e-6);
        left.pixels_mut()[i] /= w;
        disparity.pixels_mut()[i] /= w;
    }

    // right eye: DIBR shift by scaled disparity
    let right = GrayImage::from_fn(pano_w, h, |x, y| {
        let shift = disparity.get(x, y) * ipd_scale;
        crate::frame::sample_bilinear(&left, x as f32 + shift, y as f32)
    });

    StereoPanorama { left, right }
}

/// Checks the stitch preconditions and returns the segment size.
fn check_segments(pairs: &[PairDepth], overlap: usize) -> (usize, usize) {
    assert!(!pairs.is_empty(), "need at least one pair");
    let (w, h) = pairs[0].reference.dims();
    for p in pairs {
        assert_eq!(p.reference.dims(), (w, h), "segments must match");
        assert_eq!(p.disparity.dims(), (w, h), "disparity must match view");
    }
    assert!(overlap < w, "overlap must be smaller than segment width");
    (w, h)
}

fn feather(x: usize, width: usize, overlap: usize) -> f32 {
    if overlap == 0 {
        return 1.0;
    }
    let x = x as f32;
    let ov = overlap as f32;
    let rise = ((x + 1.0) / ov).min(1.0);
    let fall = ((width as f32 - x) / ov).min(1.0);
    rise.min(fall)
}

/// Arithmetic work of stitching a panorama of `output_pixels`.
pub fn ops_for(output_pixels: usize) -> f64 {
    OPS_PER_PIXEL * output_pixels as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::image::Image;

    fn pair_of(value: f32, disparity: f32, w: usize, h: usize) -> PairDepth {
        PairDepth {
            reference: GrayImage::new(w, h, value),
            disparity: GrayImage::new(w, h, disparity),
        }
    }

    #[test]
    fn panorama_width_accounts_for_overlap() {
        let pairs = vec![pair_of(0.5, 0.0, 32, 16); 4];
        let pano = stitch(&pairs, 8, 0.5);
        assert_eq!(pano.left.dims(), (4 * 24 + 8, 16));
        assert_eq!(pano.right.dims(), pano.left.dims());
    }

    #[test]
    fn seams_blend_smoothly() {
        // alternate dark / bright segments: the seam must be intermediate
        let pairs = vec![pair_of(0.2, 0.0, 32, 8), pair_of(0.8, 0.0, 32, 8)];
        let pano = stitch(&pairs, 8, 0.0);
        // find the value at the center of the overlap band
        let seam_x = 32 - 4;
        let v = pano.left.get(seam_x, 4);
        assert!(v > 0.3 && v < 0.7, "seam value {v}");
        // interiors keep their own values
        assert!((pano.left.get(8, 4) - 0.2).abs() < 0.05);
        assert!((pano.left.get(48, 4) - 0.8).abs() < 0.05);
    }

    #[test]
    fn right_eye_shifts_by_disparity() {
        // a vertical bright bar; constant disparity shifts it in the right eye
        let mut reference = GrayImage::zeros(64, 16);
        for y in 0..16 {
            for x in 30..34 {
                reference.set(x, y, 1.0);
            }
        }
        let pairs = vec![PairDepth {
            reference,
            disparity: GrayImage::new(64, 16, 4.0),
        }];
        let pano = stitch(&pairs, 0, 1.0);
        // right eye samples left at x+4: the bar appears shifted left by 4
        assert!(pano.right.get(26, 8) > 0.9, "bar missing at shifted pos");
        assert!(pano.right.get(32, 8) < 0.6, "bar not shifted");
    }

    #[test]
    fn zero_ipd_gives_identical_eyes() {
        let pairs = vec![PairDepth {
            reference: Image::from_fn(32, 8, |x, _| (x % 7) as f32 / 7.0),
            disparity: GrayImage::new(32, 8, 3.0),
        }];
        let pano = stitch(&pairs, 0, 0.0);
        for (l, r) in pano.left.pixels().iter().zip(pano.right.pixels()) {
            assert!((l - r).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_input_rejected() {
        let _ = stitch(&[], 4, 1.0);
    }
}
