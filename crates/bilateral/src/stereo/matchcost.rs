//! Block-matching disparity initialization.
//!
//! Global stereo pipelines start from a noisy local estimate: for each
//! pixel, slide a window along the epipolar line and take the disparity
//! minimizing the sum of absolute differences. BSSA then *refines* this
//! rough map in bilateral space. The per-pixel confidence (cost-ratio
//! test) lets the refinement trust textured regions and smooth over
//! ambiguous ones.
//!
//! ## Kernel microarchitecture
//!
//! [`block_match`] runs over row slices instead of clamped per-pixel
//! reads. For each output row it copies the `2r+1` window rows of both
//! images once into replicate-padded rows (the padding is exactly
//! `get_clamped`'s clamp in x and y). For each disparity `d`, ascending,
//! it forms one absolute-difference row per window row and sums the
//! window over 16-column tiles in a fixed-size accumulator that the
//! autovectorizer keeps in registers; a one-column tail covers `w % 16`.
//! The strict-`<` best/second update then runs per column.
//!
//! The output is bit-identical to the per-pixel search, kept as
//! [`block_match_reference`]: every `(x, y, d)` cost adds the same
//! `(2r+1)²` operands from `+0.0` in the same dy-major, dx-minor order
//! (a lane-wise f32 add is the same IEEE operation as a scalar one, and
//! Rust never contracts to FMA), and every column sees `d` ascend under
//! the same comparisons, so ties resolve the same way. One scratch
//! buffer per call holds the padded rows, the abs-diff rows and the
//! per-column cost, best and second-best.

use incam_imaging::image::GrayImage;

/// Result of block matching.
#[derive(Debug, Clone)]
pub struct InitialDisparity {
    /// Per-pixel disparity estimate (in pixels, `0..=max_disparity`).
    pub disparity: GrayImage,
    /// Per-pixel confidence in `[0, 1]` (ratio test of the two best
    /// costs).
    pub confidence: GrayImage,
}

/// Block-matching parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchParams {
    /// Largest disparity searched.
    pub max_disparity: usize,
    /// Half-width of the SAD window.
    pub block_radius: usize,
}

impl Default for MatchParams {
    fn default() -> Self {
        Self {
            max_disparity: 8,
            block_radius: 3,
        }
    }
}

/// Computes a rough disparity map from a rectified stereo pair.
///
/// Matching convention follows [`incam_imaging::scenes::stereo_scene`]:
/// `right(x) = left(x + d)`, so for each right-image pixel the window is
/// compared against left-image windows shifted by each candidate `d`.
///
/// # Panics
///
/// Panics if image dimensions differ or `max_disparity == 0`.
///
/// # Examples
///
/// ```
/// use incam_bilateral::stereo::{block_match, MatchParams};
/// use incam_imaging::scenes::stereo_scene;
/// use incam_rng::SeedableRng;
///
/// let mut rng = incam_rng::rngs::StdRng::seed_from_u64(3);
/// let scene = stereo_scene(64, 48, 6, 3, &mut rng);
/// let init = block_match(&scene.left, &scene.right, &MatchParams {
///     max_disparity: 6, block_radius: 2,
/// });
/// assert_eq!(init.disparity.dims(), (64, 48));
/// ```
pub fn block_match(left: &GrayImage, right: &GrayImage, params: &MatchParams) -> InitialDisparity {
    assert_eq!(left.dims(), right.dims(), "stereo pair must match");
    assert!(params.max_disparity > 0, "max_disparity must be nonzero");
    let (w, h) = left.dims();
    let r = params.block_radius;
    let taps = 2 * r + 1;
    // padded right and abs-diff rows span every dx; padded left rows
    // also span every d
    let wp = w + 2 * r;
    let wl = wp + params.max_disparity;

    let mut disparity = GrayImage::zeros(w, h);
    let mut confidence = GrayImage::zeros(w, h);
    let mut scratch = vec![0.0f32; taps * (2 * wp + wl) + 3 * w];
    let (rp, rest) = scratch.split_at_mut(taps * wp);
    let (lp, rest) = rest.split_at_mut(taps * wl);
    let (ad, rest) = rest.split_at_mut(taps * wp);
    let (cost, rest) = rest.split_at_mut(w);
    let (best, second) = rest.split_at_mut(w);
    for y in 0..h {
        let row = y * w;
        let disp = &mut disparity.pixels_mut()[row..row + w];
        let window_rows = rp.chunks_exact_mut(wp).zip(lp.chunks_exact_mut(wl));
        for (k, (rrow, lrow)) in window_rows.enumerate() {
            let sy = (y + k).saturating_sub(r).min(h - 1);
            pad_row(rrow, right.row(sy), r);
            pad_row(lrow, left.row(sy), r);
        }
        best.fill(f32::INFINITY);
        second.fill(f32::INFINITY);
        for d in 0..=params.max_disparity {
            let window_rows = rp.chunks_exact(wp).zip(lp.chunks_exact(wl));
            for (adrow, (rrow, lrow)) in ad.chunks_exact_mut(wp).zip(window_rows) {
                for ((a, &rv), &lv) in adrow.iter_mut().zip(rrow).zip(&lrow[d..]) {
                    *a = (rv - lv).abs();
                }
            }
            let mut tiles = cost.chunks_exact_mut(LANES);
            for (x0, c) in (0..).step_by(LANES).zip(&mut tiles) {
                c.copy_from_slice(&window_sad::<LANES>(ad, wp, x0));
            }
            let tail = tiles.into_remainder();
            for (x, c) in (w - tail.len()..).zip(tail) {
                *c = window_sad::<1>(ad, wp, x)[0];
            }
            for (((&c, b), s), bd) in cost
                .iter()
                .zip(&mut *best)
                .zip(&mut *second)
                .zip(&mut *disp)
            {
                if c < *b {
                    *s = *b;
                    *b = c;
                    *bd = d as f32;
                } else if c < *s {
                    *s = c;
                }
            }
        }
        let conf = &mut confidence.pixels_mut()[row..row + w];
        for ((c, &b), &s) in conf.iter_mut().zip(&*best).zip(&*second) {
            // ratio test: distinct minima are trustworthy
            *c = if s.is_finite() && s > 1e-6 {
                (1.0 - b / s).clamp(0.0, 1.0)
            } else {
                0.0
            };
        }
    }
    InitialDisparity {
        disparity,
        confidence,
    }
}

/// Columns summed per tile by [`block_match`]: one fixed-size f32
/// accumulator the autovectorizer keeps in registers.
const LANES: usize = 16;

/// Copies `src` into `dst` with `pad` replicated border pixels on the
/// left and the last pixel replicated to the end: `dst[i]` is
/// `src[clamp(i - pad)]`.
fn pad_row(dst: &mut [f32], src: &[f32], pad: usize) {
    let (head, rest) = dst.split_at_mut(pad);
    head.fill(src[0]);
    let (mid, tail) = rest.split_at_mut(src.len());
    mid.copy_from_slice(src);
    tail.fill(src[src.len() - 1]);
}

/// The window sums of `N` adjacent columns from `x0`: each adds the
/// `taps × taps` abs-diffs (`taps` rows of stride `wp` in `ad`) from
/// `+0.0` in dy-major, dx-minor order.
#[inline(always)]
fn window_sad<const N: usize>(ad: &[f32], wp: usize, x0: usize) -> [f32; N] {
    let taps = ad.len() / wp;
    let mut acc = [0.0f32; N];
    for k in 0..taps {
        let row = &ad[k * wp + x0..(k + 1) * wp];
        for j in 0..taps {
            for (a, &v) in acc.iter_mut().zip(&row[j..j + N]) {
                *a += v;
            }
        }
    }
    acc
}

/// The original per-pixel search (`(2r+1)²` clamped reads per pixel per
/// disparity), kept as the correctness oracle for [`block_match`]
/// (proptests pin the two bit-equal) and as the "before" side of the
/// kernel microbenchmarks.
///
/// # Panics
///
/// Panics if image dimensions differ or `max_disparity == 0`.
pub fn block_match_reference(
    left: &GrayImage,
    right: &GrayImage,
    params: &MatchParams,
) -> InitialDisparity {
    assert_eq!(left.dims(), right.dims(), "stereo pair must match");
    assert!(params.max_disparity > 0, "max_disparity must be nonzero");
    let (w, h) = left.dims();
    let r = params.block_radius as isize;

    let mut disparity = GrayImage::zeros(w, h);
    let mut confidence = GrayImage::zeros(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut best_d = 0usize;
            let mut best_cost = f32::INFINITY;
            let mut second = f32::INFINITY;
            for d in 0..=params.max_disparity {
                let mut cost = 0.0f32;
                for dy in -r..=r {
                    for dx in -r..=r {
                        let rv = right.get_clamped(x as isize + dx, y as isize + dy);
                        let lv = left.get_clamped(x as isize + dx + d as isize, y as isize + dy);
                        cost += (rv - lv).abs();
                    }
                }
                if cost < best_cost {
                    second = best_cost;
                    best_cost = cost;
                    best_d = d;
                } else if cost < second {
                    second = cost;
                }
            }
            disparity.set(x, y, best_d as f32);
            // ratio test: distinct minima are trustworthy
            let conf = if second.is_finite() && second > 1e-6 {
                (1.0 - best_cost / second).clamp(0.0, 1.0)
            } else {
                0.0
            };
            confidence.set(x, y, conf);
        }
    }
    InitialDisparity {
        disparity,
        confidence,
    }
}

/// Mean absolute disparity error against ground truth, optionally ignoring
/// a border of `margin` pixels (occlusion/border effects).
pub fn disparity_mae(estimate: &GrayImage, truth: &GrayImage, margin: usize) -> f64 {
    assert_eq!(estimate.dims(), truth.dims(), "dimensions must match");
    let (w, h) = estimate.dims();
    assert!(2 * margin < w && 2 * margin < h, "margin too large");
    let mut err = 0.0f64;
    let mut n = 0usize;
    for y in margin..h - margin {
        for x in margin..w - margin {
            err += (estimate.get(x, y) - truth.get(x, y)).abs() as f64;
            n += 1;
        }
    }
    err / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::scenes::stereo_scene;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    #[test]
    fn recovers_synthetic_disparity_roughly() {
        let mut rng = StdRng::seed_from_u64(41);
        let scene = stereo_scene(96, 72, 6, 3, &mut rng);
        let init = block_match(
            &scene.left,
            &scene.right,
            &MatchParams {
                max_disparity: 6,
                block_radius: 3,
            },
        );
        let mae = disparity_mae(&init.disparity, &scene.disparity, 8);
        assert!(mae < 1.5, "MAE {mae}");
    }

    #[test]
    fn confidence_higher_on_textured_regions() {
        let mut rng = StdRng::seed_from_u64(42);
        let scene = stereo_scene(96, 72, 5, 2, &mut rng);
        let init = block_match(&scene.left, &scene.right, &MatchParams::default());
        // mean confidence should be decidedly positive on textured scenes
        assert!(init.confidence.mean() > 0.2);
    }

    #[test]
    fn zero_disparity_for_identical_pair() {
        let mut rng = StdRng::seed_from_u64(43);
        let scene = stereo_scene(64, 48, 4, 2, &mut rng);
        let init = block_match(&scene.left, &scene.left, &MatchParams::default());
        // matching an image against itself: disparity collapses to zero
        let mae = disparity_mae(&init.disparity, &GrayImage::zeros(64, 48), 4);
        assert!(mae < 0.2, "MAE {mae}");
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_pair_rejected() {
        let _ = block_match(
            &GrayImage::zeros(10, 10),
            &GrayImage::zeros(12, 10),
            &MatchParams::default(),
        );
    }
}
