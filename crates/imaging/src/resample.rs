//! Image resampling: bilinear sampling and integer downscale.
//!
//! Used by the FA pipeline, which samples every NN window straight from
//! the frame, by the NN training-set generators, and by the MS-SSIM
//! pyramid. [`BilinearSampler`] interpolates each source row a window
//! reads once, in a row pass, and blends the rows in contiguous sweeps.

use crate::image::GrayImage;

/// One output coordinate's bilinear taps along an axis: the two source
/// indices, relative to the sampled rectangle, and the weight of the
/// second.
#[derive(Debug, Clone, Copy)]
struct Tap {
    i0: usize,
    i1: usize,
    t: f32,
}

/// Fills `taps` for resampling `len` source pixels to `out_len`, with the
/// expressions of [`resize_bilinear_reference`]: sample at the center of
/// each destination pixel, clamped to the source span.
fn fill_taps(taps: &mut Vec<Tap>, len: usize, out_len: usize) {
    let s = len as f32 / out_len as f32;
    taps.clear();
    taps.extend((0..out_len).map(|i| {
        let f = ((i as f32 + 0.5) * s - 0.5).clamp(0.0, (len - 1) as f32);
        let i0 = f.floor() as usize;
        Tap {
            i0,
            i1: (i0 + 1).min(len - 1),
            t: f - i0 as f32,
        }
    }));
}

/// A bilinear sampler that reads a rectangle of an image straight into a
/// caller-owned buffer.
///
/// It runs in two passes. The row pass interpolates the source rows the
/// output reads along x, each into one of the two rows of a buffer; the
/// taps never decrease, so a source row stays in the buffer for as long
/// as output rows read it. The column pass blends each output row from
/// its two interpolated source rows in one contiguous sweep. The sampler
/// owns its per-axis tap tables, kept while the rectangle and output
/// sizes repeat, and the two-row buffer, so a sampler reused across calls
/// allocates nothing once these have grown to the widest output. Taps are
/// clamped to the rectangle, not the image, which makes a sampled
/// rectangle bit-identical to cropping it and then resizing the crop.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::Image;
/// use incam_imaging::resample::{resize_bilinear, BilinearSampler};
///
/// let img = Image::from_fn(8, 6, |x, y| (x * 3 + y) as f32 / 30.0);
/// let mut window = vec![0.0; 4 * 4];
/// BilinearSampler::default().sample_into(&img, (2, 1, 5, 5), (4, 4), &mut window);
/// let resized = resize_bilinear(&img.crop(2, 1, 5, 5), 4, 4);
/// assert_eq!(window, resized.pixels());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BilinearSampler {
    x: Vec<Tap>,
    y: Vec<Tap>,
    /// The `(w, h, out_w, out_h)` the taps were filled for.
    sizes: (usize, usize, usize, usize),
    /// Two x-interpolated source rows of `out_w` values each.
    rows: Vec<f32>,
}

impl BilinearSampler {
    /// Samples the `rect = (x, y, w, h)` rectangle of `img` at
    /// `out = (out_w, out_h)` into `dst`, row-major.
    ///
    /// # Panics
    ///
    /// Panics if either output dimension is zero, the rectangle is empty
    /// or does not fit within `img`, or `dst.len() != out_w * out_h`.
    pub fn sample_into(
        &mut self,
        img: &GrayImage,
        rect: (usize, usize, usize, usize),
        out: (usize, usize),
        dst: &mut [f32],
    ) {
        let (rx, ry, w, h) = rect;
        let (out_w, out_h) = out;
        assert!(out_w > 0 && out_h > 0, "target dimensions must be nonzero");
        assert!(
            w > 0
                && h > 0
                && w <= img.width().saturating_sub(rx)
                && h <= img.height().saturating_sub(ry),
            "rectangle {w}x{h}+{rx}+{ry} is empty or exceeds {}x{}",
            img.width(),
            img.height()
        );
        assert_eq!(dst.len(), out_w * out_h, "destination length mismatch");
        if self.sizes != (w, h, out_w, out_h) {
            fill_taps(&mut self.x, w, out_w);
            fill_taps(&mut self.y, h, out_h);
            self.sizes = (w, h, out_w, out_h);
            self.rows.resize(2 * out_w, 0.0);
        }
        let (mut a, mut b) = self.rows.split_at_mut(out_w);
        // the source rows `a` and `b` hold
        let (mut in_a, mut in_b) = (usize::MAX, usize::MAX);
        let source = |i: usize| &img.row(ry + i)[rx..rx + w];
        for (row, ty) in dst.chunks_exact_mut(out_w).zip(&self.y) {
            if in_a != ty.i0 {
                if in_b == ty.i0 {
                    std::mem::swap(&mut a, &mut b);
                    std::mem::swap(&mut in_a, &mut in_b);
                } else {
                    interpolate_row(source(ty.i0), &self.x, a);
                    in_a = ty.i0;
                }
            }
            if in_b != ty.i1 {
                interpolate_row(source(ty.i1), &self.x, b);
                in_b = ty.i1;
            }
            for ((d, &top), &bot) in row.iter_mut().zip(&*a).zip(&*b) {
                *d = top * (1.0 - ty.t) + bot * ty.t;
            }
        }
    }
}

/// The row pass: `src` interpolated along x at `taps` into `dst`.
fn interpolate_row(src: &[f32], taps: &[Tap], dst: &mut [f32]) {
    for (d, tx) in dst.iter_mut().zip(taps) {
        *d = src[tx.i0] * (1.0 - tx.t) + src[tx.i1] * tx.t;
    }
}

/// Resizes `img` to `new_w × new_h` with bilinear interpolation.
///
/// # Panics
///
/// Panics if either target dimension is zero.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::Image;
/// use incam_imaging::resample::resize_bilinear;
///
/// let img = Image::from_fn(4, 4, |x, _| x as f32 / 3.0);
/// let small = resize_bilinear(&img, 2, 2);
/// assert_eq!(small.dims(), (2, 2));
/// // horizontal ramp survives resizing
/// assert!(small.get(1, 0) > small.get(0, 0));
/// ```
pub fn resize_bilinear(img: &GrayImage, new_w: usize, new_h: usize) -> GrayImage {
    let mut data = vec![0.0; new_w * new_h];
    BilinearSampler::default().sample_into(
        img,
        (0, 0, img.width(), img.height()),
        (new_w, new_h),
        &mut data,
    );
    GrayImage::from_vec(new_w, new_h, data)
}

/// The original per-pixel formulation of [`resize_bilinear`], kept as the
/// bitwise oracle for [`BilinearSampler::sample_into`].
///
/// # Panics
///
/// Panics if either target dimension is zero.
pub fn resize_bilinear_reference(img: &GrayImage, new_w: usize, new_h: usize) -> GrayImage {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be nonzero");
    let (w, h) = img.dims();
    let sx = w as f32 / new_w as f32;
    let sy = h as f32 / new_h as f32;
    GrayImage::from_fn(new_w, new_h, |x, y| {
        // sample at the center of the destination pixel
        let fx = ((x as f32 + 0.5) * sx - 0.5).clamp(0.0, (w - 1) as f32);
        let fy = ((y as f32 + 0.5) * sy - 0.5).clamp(0.0, (h - 1) as f32);
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let x1 = (x0 + 1).min(w - 1);
        let y1 = (y0 + 1).min(h - 1);
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let top = img.get(x0, y0) * (1.0 - tx) + img.get(x1, y0) * tx;
        let bot = img.get(x0, y1) * (1.0 - tx) + img.get(x1, y1) * tx;
        top * (1.0 - ty) + bot * ty
    })
}

/// Downscales by an integer `factor` by averaging `factor × factor` blocks
/// (a clean low-pass + decimate, used between MS-SSIM scales).
///
/// Trailing rows/columns that do not fill a complete block are dropped.
///
/// # Panics
///
/// Panics if `factor` is zero or the image is smaller than one block.
pub fn downscale_by(img: &GrayImage, factor: usize) -> GrayImage {
    assert!(factor > 0, "downscale factor must be nonzero");
    let (w, h) = img.dims();
    let nw = w / factor;
    let nh = h / factor;
    assert!(
        nw > 0 && nh > 0,
        "image {w}x{h} too small for factor {factor}"
    );
    let norm = 1.0 / (factor * factor) as f32;
    GrayImage::from_fn(nw, nh, |x, y| {
        let mut sum = 0.0f32;
        for dy in 0..factor {
            for dx in 0..factor {
                sum += img.get(x * factor + dx, y * factor + dy);
            }
        }
        sum * norm
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    #[test]
    fn identity_resize_preserves_pixels() {
        let img = Image::from_fn(5, 4, |x, y| (x * 7 + y * 3) as f32 / 40.0);
        let same = resize_bilinear(&img, 5, 4);
        for y in 0..4 {
            for x in 0..5 {
                assert!((same.get(x, y) - img.get(x, y)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn downscale_averages_blocks() {
        let img = Image::from_vec(4, 2, vec![0.0, 1.0, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5]);
        let half = downscale_by(&img, 2);
        assert_eq!(half.dims(), (2, 1));
        assert!((half.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((half.get(1, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn downscale_preserves_mean() {
        let img = Image::from_fn(8, 8, |x, y| ((x * y) % 5) as f32 / 5.0);
        let half = downscale_by(&img, 2);
        assert!((half.mean() - img.mean()).abs() < 1e-5);
    }

    #[test]
    fn upscale_is_smooth_ramp() {
        let img = Image::from_vec(2, 1, vec![0.0f32, 1.0]);
        let big = resize_bilinear(&img, 8, 1);
        // values are monotone nondecreasing along the ramp
        for x in 1..8 {
            assert!(big.get(x, 0) >= big.get(x - 1, 0) - 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn zero_factor_panics() {
        let _ = downscale_by(&GrayImage::zeros(4, 4), 0);
    }
}
