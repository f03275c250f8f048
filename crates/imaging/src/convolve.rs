//! Separable convolution and the small set of kernels the workspace needs
//! (box, Gaussian). Borders use pixel replication.
//!
//! The one fast path is the fused separable pass, one sequential sweep
//! over the output rows in reused buffers.
//!
//! ## Kernel microarchitecture
//!
//! The row pass is **tap-major**: it copies the source row between `r`
//! replicas of each edge pixel into a padded row, then, starting from a
//! zeroed output row, adds `k[t] · src[x + t − r]` into every `dst[x]`
//! one tap at a time — one contiguous slice sweep per tap, with no
//! clamping in the loop — so it vectorizes across `x`, as the column
//! pass (a per-tap sweep over row slices) already does. Per pixel both
//! passes still evaluate `+0.0 + k0·s0 + k1·s1 + …` in tap order — the
//! op sequence of the clamped per-pixel formulation (kept as
//! [`convolve_h_reference`]/[`convolve_v_reference`], the two halves of
//! [`convolve_separable_reference`], for tests and benches) — so outputs
//! are byte-identical to it.
//! [`convolve_separable_into`] fuses the H and V passes through a
//! rolling ring of H-filtered rows in caller-owned buffers instead of
//! materializing a full intermediate image per pass;
//! [`convolve_separable`] runs it on a fresh scratch.

use crate::image::GrayImage;

/// Convolves one source row into `dst` with replicate borders, tap by
/// tap. `pad` (`w + k − 1` long) receives the row between `r` copies of
/// its first and `r` of its last pixel, so `pad[x + t]` is
/// `src[clamp(x + t − r)]` and each tap is one contiguous sweep
/// `dst[x] += k[t] · pad[x + t]` from a zeroed `dst`. Per pixel this is
/// `+0.0 + k0·s0 + k1·s1 + …` in tap order, the op sequence of the
/// clamped per-pixel formulation, at any width (narrower than the kernel
/// too).
fn convolve_row(src: &[f32], kernel: &[f32], pad: &mut [f32], dst: &mut [f32]) {
    let (w, r) = (src.len(), kernel.len() / 2);
    pad[..r].fill(src[0]);
    pad[r..r + w].copy_from_slice(src);
    pad[r + w..].fill(src[w - 1]);
    dst.fill(0.0);
    for (t, &kv) in kernel.iter().enumerate() {
        for (out, &sv) in dst.iter_mut().zip(&pad[t..t + w]) {
            *out += kv * sv;
        }
    }
}

/// Separable convolution: horizontal then vertical pass with the same
/// 1-D kernel, fused through a ring of H-filtered rows
/// ([`convolve_separable_into`] on a fresh [`SeparableScratch`]).
/// Byte-identical to [`convolve_separable_reference`].
///
/// # Panics
///
/// Panics if the kernel is empty or of even length.
pub fn convolve_separable(img: &GrayImage, kernel: &[f32]) -> GrayImage {
    let mut scratch = SeparableScratch::default();
    convolve_separable_into(img, kernel, &mut scratch);
    GrayImage::from_vec(img.width(), img.height(), scratch.out)
}

/// Reusable buffers for [`convolve_separable_into`]: the ring of
/// H-filtered rows (with the row pass's padded row) and the output
/// image. One scratch serves images and kernels of any size; it grows to
/// the largest it has seen.
#[derive(Debug, Clone, Default)]
pub struct SeparableScratch {
    ring: Vec<f32>,
    out: Vec<f32>,
}

/// The fused separable convolution into caller-owned buffers, returning
/// the row-major `width × height` result. Once `scratch` has grown,
/// nothing is allocated.
///
/// # Panics
///
/// Panics if the kernel is empty or of even length.
pub fn convolve_separable_into<'s>(
    img: &GrayImage,
    kernel: &[f32],
    scratch: &'s mut SeparableScratch,
) -> &'s [f32] {
    check_kernel(kernel);
    let SeparableScratch { ring, out } = scratch;
    out.clear();
    out.resize(img.len(), 0.0);
    separable_pass(img, kernel, out, ring);
    out
}

/// The fused separable pass into `out` (zeroed, `width × height`): one
/// sweep over the output rows keeps a rolling ring of the `k` H-filtered
/// rows the V-pass needs, so no full intermediate image is materialized.
/// `ring` holds the `k` ring slots and the row pass's padded row. Slot
/// `j % k` holds the H-convolved row `j`; the window of live rows for
/// output row `y` is `[y−r, y+r]` clamped, which spans at most `k` real
/// rows, so every slot is written before it is read.
fn separable_pass(img: &GrayImage, kernel: &[f32], out: &mut [f32], ring: &mut Vec<f32>) {
    let (w, h) = img.dims();
    let k = kernel.len();
    let r = k / 2;
    ring.resize(k * w + w + k - 1, 0.0);
    let (slots, pad) = ring.split_at_mut(k * w);
    let mut top = r.min(h - 1);
    for j in 0..=top {
        convolve_row(img.row(j), kernel, pad, &mut slots[(j % k) * w..][..w]);
    }
    for (y, dst) in out.chunks_mut(w).enumerate() {
        let need = (y + r).min(h - 1);
        while top < need {
            top += 1;
            convolve_row(img.row(top), kernel, pad, &mut slots[(top % k) * w..][..w]);
        }
        for (t, &kv) in kernel.iter().enumerate() {
            let sy = (y + t) as isize - r as isize;
            let sy = sy.clamp(0, h as isize - 1) as usize % k;
            for (o, &sv) in dst.iter_mut().zip(&slots[sy * w..(sy + 1) * w]) {
                *o += kv * sv;
            }
        }
    }
}

/// The original clamped per-pixel horizontal convolution: the first half
/// of [`convolve_separable_reference`], the oracle that proptests pin the
/// fused pass bit-equal to.
pub fn convolve_h_reference(img: &GrayImage, kernel: &[f32]) -> GrayImage {
    check_kernel(kernel);
    let r = (kernel.len() / 2) as isize;
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        let mut acc = 0.0f32;
        for (i, &k) in kernel.iter().enumerate() {
            let sx = x as isize + i as isize - r;
            acc += k * img.get_clamped(sx, y as isize);
        }
        acc
    })
}

/// The original clamped per-pixel vertical convolution: the second half
/// of [`convolve_separable_reference`]; see [`convolve_h_reference`].
pub fn convolve_v_reference(img: &GrayImage, kernel: &[f32]) -> GrayImage {
    check_kernel(kernel);
    let r = (kernel.len() / 2) as isize;
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        let mut acc = 0.0f32;
        for (i, &k) in kernel.iter().enumerate() {
            let sy = y as isize + i as isize - r;
            acc += k * img.get_clamped(x as isize, sy);
        }
        acc
    })
}

/// The unfused two-pass separable convolution — oracle and bench
/// baseline for the fused [`convolve_separable`].
pub fn convolve_separable_reference(img: &GrayImage, kernel: &[f32]) -> GrayImage {
    convolve_v_reference(&convolve_h_reference(img, kernel), kernel)
}

fn check_kernel(kernel: &[f32]) {
    assert!(!kernel.is_empty(), "kernel must be non-empty");
    assert!(
        kernel.len() % 2 == 1,
        "kernel length must be odd, got {}",
        kernel.len()
    );
}

/// A normalized box kernel of the given (odd) length.
///
/// # Examples
///
/// ```
/// use incam_imaging::convolve::box_kernel;
/// let k = box_kernel(3);
/// assert_eq!(k, vec![1.0 / 3.0; 3]);
/// ```
pub fn box_kernel(len: usize) -> Vec<f32> {
    assert!(len % 2 == 1 && len > 0, "box kernel length must be odd");
    vec![1.0 / len as f32; len]
}

/// A normalized Gaussian kernel with standard deviation `sigma`, truncated
/// at `±3σ`.
///
/// # Panics
///
/// Panics if `sigma` is not positive.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    let mut taps = Vec::new();
    gaussian_kernel_into(sigma, &mut taps);
    taps
}

/// [`gaussian_kernel`] written into a caller-owned buffer (replacing its
/// contents), so a per-call blur allocates nothing once `taps` has grown.
///
/// # Panics
///
/// Panics if `sigma` is not positive.
pub fn gaussian_kernel_into(sigma: f32, taps: &mut Vec<f32>) {
    assert!(sigma > 0.0, "sigma must be positive");
    let r = (3.0 * sigma).ceil() as isize;
    taps.clear();
    taps.extend((-r..=r).map(|i| (-0.5 * (i as f32 / sigma).powi(2)).exp()));
    let sum: f32 = taps.iter().sum();
    for v in taps.iter_mut() {
        *v /= sum;
    }
}

/// Gaussian blur with standard deviation `sigma` (separable).
///
/// # Examples
///
/// ```
/// use incam_imaging::convolve::gaussian_blur;
/// use incam_imaging::image::Image;
///
/// let mut img = Image::new(9, 9, 0.0f32);
/// img.set(4, 4, 1.0);
/// let blurred = gaussian_blur(&img, 1.0);
/// // energy spreads but the center stays the peak
/// assert!(blurred.get(4, 4) < 1.0);
/// assert!(blurred.get(4, 4) > blurred.get(0, 0));
/// ```
pub fn gaussian_blur(img: &GrayImage, sigma: f32) -> GrayImage {
    convolve_separable(img, &gaussian_kernel(sigma))
}

/// Moving-average (box) blur of the given odd window length — the
/// non-edge-aware smoother contrasted with the bilateral filter in the
/// paper's Fig. 6.
pub fn box_blur(img: &GrayImage, len: usize) -> GrayImage {
    convolve_separable(img, &box_kernel(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    #[test]
    fn box_blur_preserves_constant_image() {
        let img = GrayImage::new(6, 6, 0.4);
        let out = box_blur(&img, 3);
        for &p in out.pixels() {
            assert!((p - 0.4).abs() < 1e-6);
        }
    }

    #[test]
    fn gaussian_kernel_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert_eq!(k.len() % 2, 1);
        let n = k.len();
        for i in 0..n / 2 {
            assert!((k[i] - k[n - 1 - i]).abs() < 1e-7);
        }
    }

    #[test]
    fn blur_preserves_total_mass_interior() {
        // away from borders, blurring conserves the sum
        let mut img = GrayImage::zeros(15, 15);
        img.set(7, 7, 1.0);
        let out = gaussian_blur(&img, 1.0);
        let total: f32 = out.pixels().iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn horizontal_and_vertical_are_directional() {
        let mut img = GrayImage::zeros(7, 7);
        img.set(3, 3, 1.0);
        let h = convolve_h_reference(&img, &box_kernel(3));
        assert!(h.get(2, 3) > 0.0 && h.get(3, 2) == 0.0);
        let v = convolve_v_reference(&img, &box_kernel(3));
        assert!(v.get(3, 2) > 0.0 && v.get(2, 3) == 0.0);
    }

    #[test]
    fn box_blur_smooths_edge() {
        let img = Image::from_fn(10, 1, |x, _| if x < 5 { 0.0 } else { 1.0 });
        let out = box_blur(&img, 3);
        // edge pixel becomes intermediate
        assert!(out.get(4, 0) > 0.0 && out.get(4, 0) < 1.0);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let _ = convolve_separable(&GrayImage::zeros(3, 3), &[0.5, 0.5]);
    }
}
