//! Property-based tests of the imaging substrate.

use incam_imaging::color::{demosaic_bilinear, demosaic_luma, rgb_to_gray};
use incam_imaging::convolve::{
    box_blur, convolve_separable, convolve_separable_into, convolve_separable_reference,
    gaussian_blur, gaussian_kernel, SeparableScratch,
};
use incam_imaging::image::{GrayImage, Image};
use incam_imaging::integral::IntegralImage;
use incam_imaging::quality::{mse, psnr, ssim, SsimConfig};
use incam_imaging::resample::{
    downscale_by, resize_bilinear, resize_bilinear_reference, BilinearSampler,
};
use incam_rng::prelude::*;
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};
use std::cell::RefCell;

thread_local! {
    /// One separable-convolution scratch that every case of
    /// `separable_into_bitwise_equal_reference` reuses, so each case starts
    /// from buffers an image and kernel of another size left behind.
    static SEPARABLE: RefCell<SeparableScratch> = RefCell::new(SeparableScratch::default());
}

fn arbitrary_image() -> impl Strategy<Value = GrayImage> {
    (4usize..32, 4usize..32, 0u64..10_000).prop_map(|(w, h, seed)| {
        Image::from_fn(w, h, move |x, y| {
            (((x * 31 + y * 17 + seed as usize * 13) % 97) as f32) / 97.0
        })
    })
}

proptest! {
    /// Cropping then reading equals reading with offset.
    #[test]
    fn crop_is_a_view(img in arbitrary_image()) {
        let (w, h) = img.dims();
        let (cw, ch) = (w / 2 + 1, h / 2 + 1);
        let (x0, y0) = (w - cw, h - ch);
        let crop = img.crop(x0, y0, cw, ch);
        for y in 0..ch {
            for x in 0..cw {
                prop_assert_eq!(crop.get(x, y), img.get(x0 + x, y0 + y));
            }
        }
    }

    /// Normalization is idempotent up to float tolerance.
    #[test]
    fn normalization_idempotent(img in arbitrary_image()) {
        let once = img.normalized();
        let twice = once.normalized();
        for (a, b) in once.pixels().iter().zip(twice.pixels()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    /// Integral-image total equals the pixel sum, and any rectangle's sum
    /// is bounded by the total for non-negative images.
    #[test]
    fn integral_total_and_bounds(img in arbitrary_image()) {
        let (w, h) = img.dims();
        let ii = IntegralImage::new(&img);
        let total = ii.rect_sum(0, 0, w, h);
        let naive: f64 = img.pixels().iter().map(|&p| p as f64).sum();
        prop_assert!((total - naive).abs() < 1e-4);
        let sub = ii.rect_sum(w / 4, h / 4, w / 2, h / 2);
        prop_assert!(sub <= total + 1e-9);
        prop_assert!(sub >= -1e-9);
    }

    /// Blur preserves the mean of periodic-ish content within tolerance
    /// and never exceeds the input range.
    #[test]
    fn blur_range_preservation(img in arbitrary_image()) {
        let out = box_blur(&img, 3);
        let (lo, hi) = img.min_max();
        let (olo, ohi) = out.min_max();
        prop_assert!(olo >= lo - 1e-5 && ohi <= hi + 1e-5);
    }

    /// Convolution is linear: conv(a·x) = a·conv(x).
    #[test]
    fn convolution_linearity(img in arbitrary_image(), scale in 0.1f32..3.0) {
        let kernel = [0.25f32, 0.5, 0.25];
        let direct = convolve_separable(&img.map(|p| p * scale), &kernel);
        let scaled = convolve_separable(&img, &kernel).map(|p| p * scale);
        for (a, b) in direct.pixels().iter().zip(scaled.pixels()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Gaussian blur with larger sigma reduces variance at least as much.
    #[test]
    fn blur_monotone_in_sigma(img in arbitrary_image()) {
        let light = gaussian_blur(&img, 0.6).variance();
        let heavy = gaussian_blur(&img, 2.5).variance();
        prop_assert!(heavy <= light + 1e-6);
    }

    /// Identity resize is exact; downscale preserves the mean.
    #[test]
    fn resample_invariants(img in arbitrary_image()) {
        let (w, h) = img.dims();
        let same = resize_bilinear(&img, w, h);
        for (a, b) in same.pixels().iter().zip(img.pixels()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
        if w >= 8 && h >= 8 {
            let half = downscale_by(&img, 2);
            // exact mean preservation when dims are even; cropped
            // remainder rows otherwise shift it slightly
            if w % 2 == 0 && h % 2 == 0 {
                prop_assert!((half.mean() - img.mean()).abs() < 1e-4);
            }
        }
    }

    /// The separable fast path equals the naive dense 2-D convolution
    /// with the same replicate border — the factorization identity the
    /// parallel convolution relies on.
    #[test]
    fn separable_equals_naive_2d(img in arbitrary_image(), sigma in 0.5f32..2.0) {
        let kernel = gaussian_kernel(sigma);
        let fast = convolve_separable(&img, &kernel);
        let r = (kernel.len() / 2) as isize;
        let (w, h) = img.dims();
        let naive = Image::from_fn(w, h, |x, y| {
            let mut acc = 0.0f64;
            for (j, &kv) in kernel.iter().enumerate() {
                for (i, &kh) in kernel.iter().enumerate() {
                    let sx = x as isize + i as isize - r;
                    let sy = y as isize + j as isize - r;
                    acc += kv as f64 * kh as f64 * img.get_clamped(sx, sy) as f64;
                }
            }
            acc as f32
        });
        for (a, b) in fast.pixels().iter().zip(naive.pixels()) {
            prop_assert!((a - b).abs() < 1e-4, "separable {} vs naive {}", a, b);
        }
    }

    /// The fused separable convolution is bit-exact against the original
    /// clamped per-pixel formulation, across random sizes (including
    /// 1×N / N×1 degenerate shapes and widths smaller than the kernel
    /// radius) and random odd kernels.
    #[test]
    fn convolve_fast_paths_bitwise_equal_reference(
        w in 1usize..40,
        h in 1usize..40,
        radius in 0usize..7,
        seed in 0u64..10_000,
    ) {
        let img = Image::from_fn(w, h, move |x, y| {
            (((x * 31 + y * 17 + seed as usize * 13) % 97) as f32) / 97.0 - 0.3
        });
        let kernel: Vec<f32> = (0..2 * radius + 1)
            .map(|i| ((i * 7 + seed as usize) % 11) as f32 / 11.0 - 0.2)
            .collect();
        let fast = convolve_separable(&img, &kernel);
        let reference = convolve_separable_reference(&img, &kernel);
        for (a, b) in fast.pixels().iter().zip(reference.pixels()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
    }

    /// The fused separable convolution into reused buffers is bit-exact
    /// against the unfused clamped per-pixel formulation: images from 1×1
    /// to 64×64 (sides shorter than the kernel included), asymmetric odd
    /// kernels of 1 to 11 taps, and one scratch shared by every case.
    #[test]
    fn separable_into_bitwise_equal_reference(
        dims in (1usize..=64, 1usize..=64),
        radius in 0usize..=5,
        seed in 0u64..10_000,
    ) {
        let (w, h) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let img = Image::from_fn(w, h, |_, _| rng.gen_range(-0.5f32..1.5));
        let kernel: Vec<f32> = (0..2 * radius + 1).map(|_| rng.gen_range(-0.3f32..0.7)).collect();
        let fast = SEPARABLE.with_borrow_mut(|scratch| {
            convolve_separable_into(&img, &kernel, scratch).to_vec()
        });
        let reference = convolve_separable_reference(&img, &kernel);
        prop_assert_eq!(fast.len(), reference.len());
        for (a, b) in fast.iter().zip(reference.pixels()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{}x{} kernel {}", w, h, kernel.len());
        }
    }

    /// The single-pass integral-image construction is bit-exact against
    /// the original two-pass bounds-checked formulation, at threads 1 and
    /// 4 and on degenerate shapes, and so is one table of each kind
    /// rebuilt in place: from empty, after a larger image (shrinking) and
    /// after a 1×1 image (growing).
    #[test]
    fn integral_fast_path_bitwise_equal_reference(
        w in 1usize..48,
        h in 1usize..48,
        seed in 0u64..10_000,
    ) {
        let img = Image::from_fn(w, h, move |x, y| {
            (((x * 13 + y * 29 + seed as usize * 7) % 83) as f32) / 83.0
        });
        for threads in [1usize, 4] {
            incam_parallel::set_thread_override(Some(threads));
            let pairs = [
                (IntegralImage::new(&img), IntegralImage::new_reference(&img)),
                (IntegralImage::squared(&img), IntegralImage::squared_reference(&img)),
            ];
            incam_parallel::set_thread_override(None);
            for (fast, reference) in &pairs {
                for (a, b) in fast.table().iter().zip(reference.table()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
                }
            }
        }
        let larger = Image::from_fn(w + 5, h + 3, |x, y| (x + 2 * y + 1) as f32 / 9.0);
        let tiny = Image::new(1, 1, 0.75f32);
        let mut plain = IntegralImage::default();
        let mut squared = IntegralImage::default();
        for prior in [None, Some(&larger), Some(&tiny)] {
            if let Some(prior) = prior {
                plain.rebuild(prior);
                squared.rebuild_squared(prior);
            }
            plain.rebuild(&img);
            squared.rebuild_squared(&img);
            let pairs = [
                (&plain, IntegralImage::new_reference(&img)),
                (&squared, IntegralImage::squared_reference(&img)),
            ];
            for (rebuilt, reference) in &pairs {
                prop_assert_eq!(
                    (rebuilt.width(), rebuilt.height(), rebuilt.table().len()),
                    (reference.width(), reference.height(), reference.table().len())
                );
                for (a, b) in rebuilt.table().iter().zip(reference.table()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "rebuilt after {:?}", prior.map(|p| p.dims()));
                }
            }
        }
    }

    /// Sampling a rectangle straight from the image is bit-identical to
    /// cropping it and resizing the crop with the original per-pixel
    /// formulation: on images up to 64×64, rectangles down to one pixel on
    /// a side, output sizes above and below the rectangle's, a sampler
    /// whose tap tables a different shape left behind, and then the
    /// rectangle's width, its height, the output width and the output
    /// height changed one at a time, so taps the sampler keeps are checked
    /// against every size. The whole-image wrapper `resize_bilinear`
    /// matches the reference too.
    #[test]
    fn sampler_bitwise_equal_crop_then_resize_reference(
        dims in (1usize..=64, 1usize..=64),
        corner in (0usize..64, 0usize..64),
        size in (1usize..=64, 1usize..=64),
        thin in 0u8..4,
        out in (1usize..=48, 1usize..=48),
        seed in 0u64..10_000,
    ) {
        let (w, h) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let img = Image::from_fn(w, h, |_, _| rng.gen_range(-0.5f32..1.5));
        let (x, y) = (corner.0 % w, corner.1 % h);
        let rw = if thin & 1 == 1 { 1 } else { 1 + (size.0 - 1) % (w - x) };
        let rh = if thin & 2 == 2 { 1 } else { 1 + (size.1 - 1) % (h - y) };
        let (ow, oh) = out;

        let mut sampler = BilinearSampler::default();
        sampler.sample_into(&img, (0, 0, w, h), (oh, ow), &mut vec![0.0; oh * ow]);
        let (rw2, rh2) = (1 + rw % (w - x), 1 + rh % (h - y));
        for (rw, rh, ow, oh) in [
            (rw, rh, ow, oh),
            (rw2, rh, ow, oh),
            (rw2, rh2, ow, oh),
            (rw2, rh2, ow + 1, oh),
            (rw2, rh2, ow + 1, oh + 1),
        ] {
            let mut dst = vec![0.0; oh * ow];
            sampler.sample_into(&img, (x, y, rw, rh), (ow, oh), &mut dst);
            let reference = resize_bilinear_reference(&img.crop(x, y, rw, rh), ow, oh);
            for (a, b) in dst.iter().zip(reference.pixels()) {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rect {}x{}+{}+{} -> {}x{}",
                    rw,
                    rh,
                    x,
                    y,
                    ow,
                    oh
                );
            }
        }
        let whole = resize_bilinear(&img, ow, oh);
        let whole_reference = resize_bilinear_reference(&img, ow, oh);
        for (a, b) in whole.pixels().iter().zip(whole_reference.pixels()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// B1's fused demosaic-to-luma is bit-exact against demosaicing to
    /// RGB and converting, at sizes 1–40 — every case also checks the
    /// 1- or 2-wide and 1- or 2-tall variants, where most or all pixels
    /// take the border rule — on mosaics with negative zeros and values
    /// outside [0, 1], at threads 1 and 4.
    #[test]
    fn demosaic_luma_bitwise_equal_reference(
        w in 1usize..41,
        h in 1usize..41,
        seed in 0u64..5000,
    ) {
        for (w, h) in [(w, h), (1 + w % 2, h), (w, 1 + h % 2)] {
            let raw = Image::from_fn(w, h, move |x, y| {
                match (x * 29 + y * 13 + seed as usize * 7) % 61 {
                    5 => -0.0,
                    k => k as f32 / 50.0 - 0.1,
                }
            });
            let reference = rgb_to_gray(&demosaic_bilinear(&raw));
            for threads in [1usize, 4] {
                incam_parallel::set_thread_override(Some(threads));
                let fast = demosaic_luma(&raw);
                incam_parallel::set_thread_override(None);
                prop_assert_eq!(fast.dims(), (w, h));
                for (i, (a, b)) in fast.pixels().iter().zip(reference.pixels()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{}x{} pixel ({}, {}), threads={}",
                        w,
                        h,
                        i % w,
                        i / w,
                        threads
                    );
                }
            }
        }
    }

    /// Quality metrics: identity scores perfectly; MSE is symmetric;
    /// SSIM is bounded.
    #[test]
    fn quality_metric_axioms(a in arbitrary_image(), seed in 0u64..1000) {
        prop_assert_eq!(mse(&a, &a), 0.0);
        prop_assert!(psnr(&a, &a).is_infinite());
        let (w, h) = a.dims();
        let b = Image::from_fn(w, h, |x, y| {
            (((x * 7 + y * 23 + seed as usize) % 89) as f32) / 89.0
        });
        prop_assert!((mse(&a, &b) - mse(&b, &a)).abs() < 1e-12);
        let s = ssim(&a, &b, &SsimConfig::default());
        prop_assert!((-1.0..=1.0 + 1e-9).contains(&s));
    }
}
