//! Property-based tests of the VR blocks' fast paths: the hoisted affine
//! warp (B2) and the row-slice stitch (B4) are bit-exact against the
//! per-pixel formulations they replaced, at threads 1 and 4.

use incam_imaging::image::{GrayImage, Image};
use incam_rng::prelude::*;
use incam_vr::blocks::stitch::{stitch, stitch_reference, PairDepth};
use incam_vr::frame::{affine_warp, sample_bilinear};

/// The original bilinear sampler: clamp, `floor()`, and four
/// bounds-checked reads.
fn sample_reference(img: &GrayImage, x: f32, y: f32) -> f32 {
    let (w, h) = img.dims();
    let fx = x.clamp(0.0, (w - 1) as f32);
    let fy = y.clamp(0.0, (h - 1) as f32);
    let x0 = fx.floor() as usize;
    let y0 = fy.floor() as usize;
    let x1 = (x0 + 1).min(w - 1);
    let y1 = (y0 + 1).min(h - 1);
    let tx = fx - x0 as f32;
    let ty = fy - y0 as f32;
    let top = img.get(x0, y0) * (1.0 - tx) + img.get(x1, y0) * tx;
    let bot = img.get(x0, y1) * (1.0 - tx) + img.get(x1, y1) * tx;
    top * (1.0 - ty) + bot * ty
}

/// The original warp: the inverse map evaluated per pixel, sampled
/// through [`sample_reference`].
fn warp_reference(img: &GrayImage, rotation: f32, tx: f32, ty: f32) -> GrayImage {
    let (w, h) = img.dims();
    let (cx, cy) = (w as f32 / 2.0, h as f32 / 2.0);
    let (sin, cos) = rotation.sin_cos();
    GrayImage::from_fn(w, h, |x, y| {
        let dx = x as f32 - cx - tx;
        let dy = y as f32 - cy - ty;
        let sx = cx + cos * dx + sin * dy;
        let sy = cy - sin * dx + cos * dy;
        sample_reference(img, sx, sy)
    })
}

fn pattern(w: usize, h: usize, seed: u64) -> GrayImage {
    Image::from_fn(w, h, move |x, y| {
        (((x * 31 + y * 17 + seed as usize * 13) % 97) as f32) / 97.0
    })
}

proptest! {
    /// The warp with its column and row terms hoisted, and the sampler
    /// reading row slices with a truncating cast, are bit-exact against
    /// the per-pixel map and the `floor()` sampler — under rotations of
    /// any angle and translations that push samples well off the image,
    /// at sizes down to 1×1, at threads 1 and 4.
    #[test]
    fn affine_warp_bitwise_equal_per_pixel_sampling(
        w in 1usize..40,
        h in 1usize..40,
        rotation in -3.2f32..3.2,
        tx in -60.0f32..60.0,
        ty in -60.0f32..60.0,
        seed in 0u64..5000,
    ) {
        let img = pattern(w, h, seed);
        let reference = warp_reference(&img, rotation, tx, ty);
        for threads in [1usize, 4] {
            incam_parallel::set_thread_override(Some(threads));
            let fast = affine_warp(&img, rotation, tx, ty);
            incam_parallel::set_thread_override(None);
            for (a, b) in fast.pixels().iter().zip(reference.pixels()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
            }
        }
        for (x, y) in [(tx, ty), (-tx, ty * 0.5), (f32::NAN, ty), (tx, f32::INFINITY)] {
            prop_assert_eq!(
                sample_bilinear(&img, x, y).to_bits(),
                sample_reference(&img, x, y).to_bits(),
                "sample at ({}, {})",
                x,
                y
            );
        }
    }

    /// The row-slice stitch is bit-exact against the per-pixel stitch:
    /// one to four segments, overlap zero and positive, IPD scales zero,
    /// negative and positive, disparities that shift samples off the
    /// panorama, at threads 1 and 4.
    #[test]
    fn stitch_bitwise_equal_reference(
        segments in 1usize..5,
        w in 2usize..24,
        h in 1usize..12,
        overlap_frac in 0.0f32..1.0,
        zero_overlap in any::<bool>(),
        ipd in -2.0f32..2.0,
        zero_ipd in any::<bool>(),
        seed in 0u64..5000,
    ) {
        let overlap = if zero_overlap {
            0
        } else {
            ((overlap_frac * w as f32) as usize).min(w - 1)
        };
        let ipd = if zero_ipd { 0.0 } else { ipd };
        let pairs: Vec<PairDepth> = (0..segments as u64)
            .map(|i| PairDepth {
                reference: pattern(w, h, seed + i),
                disparity: pattern(w, h, seed * 3 + i).map(|d| d * 24.0 - 8.0),
            })
            .collect();
        let reference = stitch_reference(&pairs, overlap, ipd);
        for threads in [1usize, 4] {
            incam_parallel::set_thread_override(Some(threads));
            let fast = stitch(&pairs, overlap, ipd);
            incam_parallel::set_thread_override(None);
            prop_assert_eq!(fast.left.dims(), reference.left.dims());
            for (eye, got, want) in [
                ("left", &fast.left, &reference.left),
                ("right", &fast.right, &reference.right),
            ] {
                for (a, b) in got.pixels().iter().zip(want.pixels()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} eye, threads={}", eye, threads);
                }
            }
        }
    }
}
