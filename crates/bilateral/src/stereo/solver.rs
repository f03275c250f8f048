//! Bilateral-space refinement: the iterative solver that smooths the
//! rough disparity estimate *in the grid*, where local filtering is
//! equivalent to global edge-aware regularization in pixel space.
//!
//! The refinement solves a weighted-least-squares problem
//! `min_v Σ w·(v − b)² + λ·‖∇v‖²` over grid vertices, where `b` is the
//! splatted block-matching estimate and `w` its splatted confidence. We
//! iterate the damped Jacobi form
//! `v ← (w·b + λ·blur(v)) / (w + λ)`,
//! which is exactly the "millions of blurs applied to the bilateral grid"
//! the paper maps onto streaming FPGA compute units (§IV-B).
//!
//! Only that arithmetic runs: the data term is read from the splatted
//! grid in place, the state carries weight 1 at every vertex (which the
//! blur maps to exactly 1), so each iteration blurs the state's values
//! alone through one scratch kept for the whole solve, and the Jacobi
//! update runs in place. The refined map is bit-equal to the chain of
//! per-tap splat, homogeneous blur of values and weights, weight reset
//! and per-pixel slice that the grid's `*_reference` kernels spell out.

use crate::grid::{BilateralGrid, BlurScratch, GridParams};
use incam_imaging::image::GrayImage;

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverParams {
    /// Smoothness weight λ (larger = smoother surfaces).
    pub lambda: f32,
    /// Jacobi/blur iterations.
    pub iterations: usize,
    /// Blur passes per iteration.
    pub blur_per_iteration: usize,
}

impl Default for SolverParams {
    fn default() -> Self {
        Self {
            lambda: 1.0,
            iterations: 8,
            blur_per_iteration: 1,
        }
    }
}

/// Work accounting for one solve — feeds the FPGA throughput model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// Grid vertices processed.
    pub vertices: usize,
    /// Total vertex-blur operations executed (vertices × axes × passes ×
    /// iterations).
    pub blur_ops: u64,
}

/// Refines a disparity estimate in bilateral space.
///
/// `guide` supplies the intensity axis (the reference image), `estimate`
/// and `confidence` the data term. Returns the refined pixel-space
/// disparity and the work stats.
///
/// # Panics
///
/// Panics if dimensions disagree or `iterations == 0`.
pub fn refine_in_bilateral_space(
    guide: &GrayImage,
    estimate: &GrayImage,
    confidence: Option<&GrayImage>,
    grid_params: GridParams,
    solver: &SolverParams,
) -> (GrayImage, SolveStats) {
    assert!(solver.iterations > 0, "need at least one iteration");
    assert_eq!(guide.dims(), estimate.dims(), "guide/estimate must match");

    // data term: splat b (disparity) and w (confidence), read in place
    let mut data = BilateralGrid::new(guide.width(), guide.height(), grid_params);
    data.splat(guide, estimate, confidence);
    let n = data.vertex_count();
    let (b_times_w, w) = data.raw();

    // iterate: v <- (w*b + lambda * blur(v)) / (w + lambda)
    // `state` reuses a grid for its blur and slice kernels; its weights
    // carry a constant 1 so slicing normalizes correctly afterwards. A
    // blur maps unit weights to `(1 + 2·1 + 1)/4 = 1` exactly, so only
    // the values are blurred, through one scratch for the whole solve.
    let mut state = BilateralGrid::new(guide.width(), guide.height(), grid_params);
    {
        let (values, weights) = state.raw_mut();
        for (((v, unit), &bw), &wi) in values.iter_mut().zip(weights).zip(b_times_w).zip(w) {
            // initialize with the normalized data estimate where observed
            *v = if wi > 1e-8 { bw / wi } else { 0.0 };
            *unit = 1.0;
        }
    }
    let lambda = solver.lambda.max(0.0);
    let mut scratch = BlurScratch::new(state.dims());
    for _ in 0..solver.iterations {
        state.blur_values(solver.blur_per_iteration, &mut scratch);
        let (values, _) = state.raw_mut();
        for ((v, &bw), &wi) in values.iter_mut().zip(b_times_w).zip(w) {
            *v = (bw + lambda * *v) / (wi + lambda);
        }
    }

    let refined = state.slice(guide);
    let stats = SolveStats {
        vertices: n,
        blur_ops: (n as u64) * 3 * solver.blur_per_iteration as u64 * solver.iterations as u64,
    };
    (refined, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::image::Image;
    use incam_imaging::noise::add_gaussian_noise;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    #[test]
    fn denoises_flat_disparity() {
        let mut rng = StdRng::seed_from_u64(71);
        let guide = GrayImage::new(48, 48, 0.5);
        let truth = GrayImage::new(48, 48, 3.0);
        let noisy = {
            // add noise directly (disparities are not in [0,1])
            let mut img = truth.clone();
            for p in img.pixels_mut() {
                *p += 0.8 * incam_imaging::noise::gaussian_sample(&mut rng);
            }
            img
        };
        let (refined, _) = refine_in_bilateral_space(
            &guide,
            &noisy,
            None,
            GridParams::new(8.0, 0.2),
            &SolverParams::default(),
        );
        let err_before: f32 =
            noisy.pixels().iter().map(|&p| (p - 3.0).abs()).sum::<f32>() / noisy.len() as f32;
        let err_after: f32 = refined
            .pixels()
            .iter()
            .map(|&p| (p - 3.0).abs())
            .sum::<f32>()
            / refined.len() as f32;
        assert!(
            err_after < err_before * 0.5,
            "before {err_before} after {err_after}"
        );
    }

    #[test]
    fn preserves_disparity_discontinuity_at_intensity_edge() {
        // intensity edge coincides with a depth edge (the BSSA assumption)
        let guide = Image::from_fn(48, 16, |x, _| if x < 24 { 0.15 } else { 0.85 });
        let truth = Image::from_fn(48, 16, |x, _| if x < 24 { 1.0 } else { 6.0 });
        let mut rng = StdRng::seed_from_u64(72);
        let noisy = {
            let mut img = truth.clone();
            for p in img.pixels_mut() {
                *p += 0.7 * incam_imaging::noise::gaussian_sample(&mut rng);
            }
            img
        };
        let (refined, _) = refine_in_bilateral_space(
            &guide,
            &noisy,
            None,
            GridParams::new(6.0, 0.25),
            &SolverParams::default(),
        );
        assert!(refined.get(6, 8) < 2.0, "left {}", refined.get(6, 8));
        assert!(refined.get(42, 8) > 5.0, "right {}", refined.get(42, 8));
        // sharp transition: adjacent to the edge the values stay separated
        assert!(refined.get(27, 8) - refined.get(20, 8) > 3.0);
    }

    #[test]
    fn confidence_zero_regions_are_inpainted() {
        let guide = GrayImage::new(40, 40, 0.5);
        // estimate is garbage in the middle but confidence marks it
        let mut estimate = GrayImage::new(40, 40, 2.0);
        let mut conf = GrayImage::new(40, 40, 1.0);
        for y in 15..25 {
            for x in 15..25 {
                estimate.set(x, y, 50.0);
                conf.set(x, y, 0.0);
            }
        }
        let (refined, _) = refine_in_bilateral_space(
            &guide,
            &estimate,
            Some(&conf),
            GridParams::new(8.0, 0.2),
            &SolverParams {
                lambda: 2.0,
                iterations: 12,
                blur_per_iteration: 1,
            },
        );
        // the garbage region is filled from its trusted surroundings
        assert!(
            (refined.get(20, 20) - 2.0).abs() < 0.5,
            "center {}",
            refined.get(20, 20)
        );
    }

    #[test]
    fn stats_count_work() {
        let guide = GrayImage::new(32, 32, 0.5);
        let est = GrayImage::new(32, 32, 1.0);
        let (_, stats) = refine_in_bilateral_space(
            &guide,
            &est,
            None,
            GridParams::new(4.0, 0.1),
            &SolverParams {
                lambda: 1.0,
                iterations: 5,
                blur_per_iteration: 2,
            },
        );
        assert_eq!(stats.blur_ops, stats.vertices as u64 * 3 * 2 * 5);
    }

    #[test]
    fn noise_shrinks_with_more_iterations() {
        let mut rng = StdRng::seed_from_u64(73);
        let guide = GrayImage::new(40, 40, 0.5);
        let truth = GrayImage::new(40, 40, 4.0);
        let noisy = add_gaussian_noise(
            &truth.map(|p| p / 8.0), // scale into [0,1] for the noise helper
            0.1,
            &mut rng,
        )
        .map(|p| p * 8.0);
        let run = |iters: usize| {
            let (out, _) = refine_in_bilateral_space(
                &guide,
                &noisy,
                None,
                GridParams::new(4.0, 0.2),
                &SolverParams {
                    lambda: 1.0,
                    iterations: iters,
                    blur_per_iteration: 1,
                },
            );
            out.pixels().iter().map(|&p| (p - 4.0).abs()).sum::<f32>() / out.len() as f32
        };
        assert!(run(10) < run(1) + 1e-6);
    }
}
