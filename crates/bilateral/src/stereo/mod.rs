//! Bilateral-space stereo (BSSA): the paper's depth-estimation block B3.
//!
//! The full flow (Barron et al., the paper's ref. 4, as deployed in the VR pipeline):
//! block-matching produces a rough per-pixel disparity with confidence
//! ([`block_match`]); the estimate is resampled into a bilateral grid and
//! refined there with an iterative smoothing solver
//! ([`refine_in_bilateral_space`]); slicing returns the edge-aware,
//! denoised depth map.

mod matchcost;
mod solver;

pub use matchcost::{
    block_match, block_match_reference, disparity_mae, InitialDisparity, MatchParams,
};
pub use solver::{refine_in_bilateral_space, SolveStats, SolverParams};

use crate::grid::GridParams;
use incam_core::units::Bytes;
use incam_imaging::image::GrayImage;

/// Full-pipeline configuration for depth from a stereo pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BssaConfig {
    /// Block-matching parameters.
    pub matching: MatchParams,
    /// Bilateral-grid resolution (the Fig. 7 knob).
    pub grid: GridParams,
    /// Refinement solver parameters.
    pub solver: SolverParams,
}

impl Default for BssaConfig {
    fn default() -> Self {
        Self {
            matching: MatchParams::default(),
            grid: GridParams::new(8.0, 0.1),
            solver: SolverParams::default(),
        }
    }
}

/// Output of a BSSA depth computation.
#[derive(Debug, Clone)]
pub struct DepthResult {
    /// The refined disparity map.
    pub disparity: GrayImage,
    /// The raw block-matching disparity (before refinement).
    pub initial: GrayImage,
    /// Grid dimensions used.
    pub grid_dims: (usize, usize, usize),
    /// Grid memory under full-solver accounting (per-vertex cost-volume
    /// slices — the Fig. 7 x-axis; see `EXPERIMENTS.md`).
    pub grid_memory: Bytes,
    /// Solver work statistics.
    pub solve_stats: SolveStats,
}

/// Computes a depth map from a rectified stereo pair with BSSA.
///
/// # Panics
///
/// Panics if the pair's dimensions differ.
///
/// # Examples
///
/// ```
/// use incam_bilateral::stereo::{bssa_depth, BssaConfig};
/// use incam_imaging::scenes::stereo_scene;
/// use incam_rng::SeedableRng;
///
/// let mut rng = incam_rng::rngs::StdRng::seed_from_u64(4);
/// let scene = stereo_scene(64, 48, 6, 3, &mut rng);
/// let result = bssa_depth(&scene.left, &scene.right, &BssaConfig::default());
/// assert_eq!(result.disparity.dims(), (64, 48));
/// ```
pub fn bssa_depth(left: &GrayImage, right: &GrayImage, config: &BssaConfig) -> DepthResult {
    let init = block_match(left, right, &config.matching);
    let (refined, solve_stats) = refine_in_bilateral_space(
        right,
        &init.disparity,
        Some(&init.confidence),
        config.grid,
        &config.solver,
    );
    // full-solver accounting: a float per disparity hypothesis plus the
    // homogeneous (value, weight) pair per vertex
    let per_vertex = 4 * (config.matching.max_disparity + 1) + 8;
    DepthResult {
        disparity: refined,
        initial: init.disparity,
        grid_dims: config.grid.dims(left.width(), left.height()),
        grid_memory: Bytes::new((solve_stats.vertices * per_vertex) as f64),
        solve_stats,
    }
}

/// Normalizes a disparity map to `[0, 1]` by `max_disparity` (for quality
/// metrics that expect unit-range images).
pub fn normalize_disparity(disparity: &GrayImage, max_disparity: usize) -> GrayImage {
    assert!(max_disparity > 0, "max_disparity must be nonzero");
    disparity.map(|d| (d / max_disparity as f32).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::quality::{ms_ssim, MsSsimConfig};
    use incam_imaging::scenes::stereo_scene;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    #[test]
    fn refinement_improves_over_block_matching() {
        // independent per-view sensor noise makes the local block-matching
        // estimate noisy — the regime bilateral-space refinement targets
        let mut rng = StdRng::seed_from_u64(81);
        let scene = stereo_scene(128, 96, 6, 4, &mut rng);
        let left = incam_imaging::noise::add_gaussian_noise(&scene.left, 0.08, &mut rng);
        let right = incam_imaging::noise::add_gaussian_noise(&scene.right, 0.08, &mut rng);
        let cfg = BssaConfig {
            matching: MatchParams {
                max_disparity: 6,
                block_radius: 1,
            },
            grid: GridParams::new(4.0, 0.2),
            solver: SolverParams {
                lambda: 2.0,
                iterations: 10,
                blur_per_iteration: 1,
            },
        };
        let result = bssa_depth(&left, &right, &cfg);
        // MS-SSIM is the paper's depth-quality metric; refinement trades
        // pixel-exactness for structural fidelity, so that is what must
        // improve
        let truth = normalize_disparity(&scene.disparity, 6);
        let q_init = ms_ssim(
            &normalize_disparity(&result.initial, 6),
            &truth,
            &MsSsimConfig::default(),
        );
        let q_refined = ms_ssim(
            &normalize_disparity(&result.disparity, 6),
            &truth,
            &MsSsimConfig::default(),
        );
        assert!(
            q_refined > q_init + 0.05,
            "refined {q_refined} vs initial {q_init}"
        );
    }

    #[test]
    fn finer_grid_gives_higher_quality_depth() {
        let mut rng = StdRng::seed_from_u64(82);
        let scene = stereo_scene(128, 96, 6, 4, &mut rng);
        let quality_at = |sigma: f32| {
            let cfg = BssaConfig {
                matching: MatchParams {
                    max_disparity: 6,
                    block_radius: 2,
                },
                grid: GridParams::new(sigma, 0.12),
                solver: SolverParams::default(),
            };
            let result = bssa_depth(&scene.left, &scene.right, &cfg);
            let est = normalize_disparity(&result.disparity, 6);
            let truth = normalize_disparity(&scene.disparity, 6);
            ms_ssim(&est, &truth, &MsSsimConfig::default())
        };
        let fine = quality_at(4.0);
        let coarse = quality_at(32.0);
        assert!(fine > coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn grid_memory_shrinks_with_coarser_grid() {
        let mut rng = StdRng::seed_from_u64(83);
        let scene = stereo_scene(64, 64, 5, 3, &mut rng);
        let mem_at = |sigma: f32| {
            let cfg = BssaConfig {
                grid: GridParams::new(sigma, 0.1),
                ..Default::default()
            };
            bssa_depth(&scene.left, &scene.right, &cfg).grid_memory
        };
        assert!(mem_at(4.0).bytes() > 10.0 * mem_at(16.0).bytes());
    }

    #[test]
    fn normalize_clamps_to_unit_range() {
        let d = GrayImage::new(4, 4, 12.0);
        let n = normalize_disparity(&d, 8);
        assert_eq!(n.get(0, 0), 1.0);
    }
}
