//! Property-based tests of the bilateral-grid pipeline.

use incam_bilateral::grid::{BilateralGrid, GridParams};
use incam_bilateral::signal::{bilateral_filter_1d, moving_average};
use incam_bilateral::stereo::{
    block_match, block_match_reference, refine_in_bilateral_space, MatchParams, SolverParams,
};
use incam_imaging::image::{GrayImage, Image};
use incam_rng::prelude::*;

fn arbitrary_guide() -> impl Strategy<Value = GrayImage> {
    (8usize..36, 8usize..36, 0u64..5000).prop_map(|(w, h, seed)| {
        Image::from_fn(w, h, move |x, y| {
            (((x * 13 + y * 7 + seed as usize * 3) % 53) as f32) / 53.0
        })
    })
}

/// The bilateral-space solver as a chain of the reference kernels: the
/// per-tap splat of the data term (copied out), a unit-weight state
/// blurred — values and weights — by the per-axis blur each iteration,
/// the Jacobi update with its weight reset, and the per-pixel slice.
fn refine_reference(
    guide: &GrayImage,
    estimate: &GrayImage,
    confidence: Option<&GrayImage>,
    params: GridParams,
    solver: &SolverParams,
) -> GrayImage {
    let (w, h) = guide.dims();
    let mut data = BilateralGrid::new(w, h, params);
    data.splat_reference(guide, estimate, confidence);
    let (b_times_w, weight) = {
        let (values, weights) = data.raw();
        (values.to_vec(), weights.to_vec())
    };
    let mut state = BilateralGrid::new(w, h, params);
    {
        let (values, weights) = state.raw_mut();
        for i in 0..values.len() {
            values[i] = if weight[i] > 1e-8 {
                b_times_w[i] / weight[i]
            } else {
                0.0
            };
            weights[i] = 1.0;
        }
    }
    let lambda = solver.lambda.max(0.0);
    for _ in 0..solver.iterations {
        state.blur_reference(solver.blur_per_iteration);
        let (values, weights) = state.raw_mut();
        for i in 0..values.len() {
            values[i] = (b_times_w[i] + lambda * values[i]) / (weight[i] + lambda);
            weights[i] = 1.0;
        }
    }
    state.slice_reference(guide)
}

proptest! {
    /// 1-D filters are shift-equivariant on interior samples and preserve
    /// constants exactly.
    #[test]
    fn one_d_filters_preserve_constants(value in -50.0f32..50.0, len in 8usize..64) {
        let signal = vec![value; len];
        for out in [
            moving_average(&signal, 5),
            bilateral_filter_1d(&signal, 2.0, 10.0),
        ] {
            for v in out {
                prop_assert!((v - value).abs() < 1e-3);
            }
        }
    }

    /// The bilateral filter's output is a convex combination of inputs:
    /// it never exceeds the input range.
    #[test]
    fn bilateral_range_bounded(
        samples in prop::collection::vec(-100.0f32..100.0, 8..64),
    ) {
        let out = bilateral_filter_1d(&samples, 2.5, 15.0);
        let lo = samples.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = samples.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for v in out {
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
        }
    }

    /// Grid round trip: splat → slice (no blur) reproduces smooth values
    /// closely, and output is bounded by the splatted value range.
    #[test]
    fn grid_slice_bounded(guide in arbitrary_guide(), sigma in 2.0f32..10.0) {
        let (w, h) = guide.dims();
        let values = Image::from_fn(w, h, |x, _| x as f32 / w as f32 * 4.0);
        let mut grid = BilateralGrid::new(w, h, GridParams::new(sigma, 0.2));
        grid.splat(&guide, &values, None);
        let out = grid.slice(&guide);
        let (lo, hi) = values.min_max();
        for &p in out.pixels() {
            prop_assert!(p >= lo - 1e-3 && p <= hi + 1e-3);
        }
    }

    /// Blur is idempotent on constants and total mass is conserved for
    /// any iteration count.
    #[test]
    fn grid_blur_conservation(guide in arbitrary_guide(), iters in 1usize..4) {
        let (w, h) = guide.dims();
        let mut grid = BilateralGrid::new(w, h, GridParams::new(4.0, 0.15));
        grid.splat(&guide, &guide, None);
        let before = grid.total_weight();
        grid.blur(iters);
        prop_assert!((grid.total_weight() - before).abs() < before * 1e-4);
    }

    /// Block matching output respects the disparity search range and
    /// confidence stays in [0, 1].
    #[test]
    fn block_match_ranges(guide in arbitrary_guide(), max_d in 1usize..6) {
        let (w, h) = guide.dims();
        prop_assume!(w > 4 * max_d);
        let right = Image::from_fn(w, h, |x, y| {
            guide.get_clamped(x as isize + max_d as isize / 2, y as isize)
        });
        let init = block_match(&guide, &right, &MatchParams {
            max_disparity: max_d,
            block_radius: 1,
        });
        let (dlo, dhi) = init.disparity.min_max();
        prop_assert!(dlo >= 0.0 && dhi <= max_d as f32);
        let (clo, chi) = init.confidence.min_max();
        prop_assert!(clo >= 0.0 && chi <= 1.0);
    }

    /// Vertex counts shrink monotonically as cells grow, in every axis.
    #[test]
    fn grid_size_monotone(w in 16usize..128, h in 16usize..128, s in 2.0f32..16.0) {
        let fine = BilateralGrid::new(w, h, GridParams::new(s, 0.1));
        let coarse_spatial = BilateralGrid::new(w, h, GridParams::new(s * 2.0, 0.1));
        let coarse_range = BilateralGrid::new(w, h, GridParams::new(s, 0.2));
        prop_assert!(coarse_spatial.vertex_count() <= fine.vertex_count());
        prop_assert!(coarse_range.vertex_count() <= fine.vertex_count());
    }

    /// The tap-table splat, fused xyz blur, and tap-table slice are each
    /// bit-exact against the original per-tap formulations, and so is the
    /// bilateral-space solver (values-only blur in one scratch) against
    /// the per-iteration chain it replaced, built here from the
    /// reference kernels. Random image sizes (including 1×N / N×1), grid
    /// resolutions, λ (zero and clamped-negative included), 1–4 solver
    /// iterations of 0–3 blurs, confidence maps, and threads 1 and 4.
    #[test]
    fn grid_fast_paths_bitwise_equal_reference(
        w in 1usize..40,
        h in 1usize..40,
        sigma_s in 1.0f32..9.0,
        sigma_r in 0.05f32..0.9,
        iterations in 0usize..4,
        with_conf in any::<bool>(),
        seed in 0u64..5000,
        solver_knobs in (-0.5f32..4.0, any::<bool>(), 1usize..5, 0usize..4),
    ) {
        let (lambda, zero_lambda, solver_iterations, blur_per_iteration) = solver_knobs;
        let guide = Image::from_fn(w, h, move |x, y| {
            (((x * 13 + y * 7 + seed as usize * 3) % 53) as f32) / 53.0
        });
        let values = Image::from_fn(w, h, move |x, y| {
            (((x * 5 + y * 11 + seed as usize) % 23) as f32) / 23.0
        });
        let conf = Image::from_fn(w, h, |x, y| ((x + y) % 4) as f32 / 3.0);
        let conf = with_conf.then_some(&conf);
        let p = GridParams::new(sigma_s, sigma_r);
        let solver = SolverParams {
            lambda: if zero_lambda { 0.0 } else { lambda },
            iterations: solver_iterations,
            blur_per_iteration,
        };
        let disparity = values.map(|v| v * 8.0);
        let refined_reference = refine_reference(&guide, &disparity, conf, p, &solver);
        for threads in [1usize, 4] {
            incam_parallel::set_thread_override(Some(threads));
            let mut fast = BilateralGrid::new(w, h, p);
            let mut reference = BilateralGrid::new(w, h, p);
            fast.splat(&guide, &values, conf);
            reference.splat_reference(&guide, &values, conf);
            let splat_ok = fast == reference;
            fast.blur(iterations);
            reference.blur_reference(iterations);
            let blur_ok = fast == reference;
            let sliced = fast.slice(&guide);
            let sliced_reference = reference.slice_reference(&guide);
            let (refined, _) = refine_in_bilateral_space(&guide, &disparity, conf, p, &solver);
            incam_parallel::set_thread_override(None);
            prop_assert!(splat_ok, "splat diverged, threads={}", threads);
            prop_assert!(blur_ok, "blur diverged, threads={}", threads);
            for (a, b) in sliced.pixels().iter().zip(sliced_reference.pixels()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
            }
            for (a, b) in refined.pixels().iter().zip(refined_reference.pixels()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "solver, threads={}", threads);
            }
        }
    }

    /// The row-slice block matcher is bit-exact against the per-pixel
    /// search, in both maps, across image sizes narrower than a tile, a
    /// window or the disparity range, and threads 1 and 4.
    #[test]
    fn block_match_bitwise_equal_reference(
        w in 1usize..40,
        h in 1usize..40,
        block_radius in 0usize..4,
        max_disparity in 1usize..48,
        seed in 0u64..5000,
    ) {
        let right = Image::from_fn(w, h, move |x, y| {
            (((x * 13 + y * 7 + seed as usize * 3) % 53) as f32) / 53.0
        });
        // the left view is the right one shifted by a few pixels, plus a
        // small pattern, so both close and distinct minima occur
        let left = Image::from_fn(w, h, |x, y| {
            right.get_clamped(x as isize - (seed % 5) as isize, y as isize)
                + ((x * 3 + y) % 7) as f32 / 70.0
        });
        let params = MatchParams { max_disparity, block_radius };
        let reference = block_match_reference(&left, &right, &params);
        for threads in [1usize, 4] {
            incam_parallel::set_thread_override(Some(threads));
            let fast = block_match(&left, &right, &params);
            incam_parallel::set_thread_override(None);
            for (fast, reference) in [
                (&fast.disparity, &reference.disparity),
                (&fast.confidence, &reference.confidence),
            ] {
                for (a, b) in fast.pixels().iter().zip(reference.pixels()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
                }
            }
        }
    }
}
