//! Multi-scale sliding-window scanning — the loop of the paper's Fig. 4a
//! pseudocode, with the two parameters Fig. 4c sweeps: the **scale
//! factor** between pyramid levels and the **step size** (static pixels,
//! or adaptive as a fraction of the current window).
//!
//! A scan sweeps each scale's window rows in one sequential loop over
//! integral tables and compiled stumps held in a [`ScanScratch`], which a
//! caller scanning frame after frame keeps ([`scan_with`]); raw hits are
//! then grouped in one forward pass. [`scan_reference`] keeps the
//! original per-feature evaluation as the oracle.

use crate::cascade::Cascade;
use crate::compiled::CompiledScale;
use incam_imaging::image::GrayImage;
use incam_imaging::integral::IntegralImage;

/// How far the window advances between evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSize {
    /// A fixed pixel stride at every scale.
    Static(usize),
    /// A fraction of the current window side (larger windows stride
    /// further) — Fig. 4c's "Step Size (adaptive)" axis.
    Adaptive(f64),
}

impl StepSize {
    /// The pixel stride for a window of the given side.
    ///
    /// # Panics
    ///
    /// Panics if a static step is zero or an adaptive fraction is not in
    /// `(0, 1]` (an adaptive fraction of 0.0 is clamped to a 1-pixel step,
    /// matching the figure's 0.0 endpoint).
    pub fn stride(self, window_side: usize) -> usize {
        match self {
            StepSize::Static(s) => {
                assert!(s > 0, "static step must be nonzero");
                s
            }
            StepSize::Adaptive(f) => {
                assert!((0.0..=1.0).contains(&f), "adaptive step must be in [0,1]");
                ((f * window_side as f64).round() as usize).max(1)
            }
        }
    }
}

/// Scan parameters (Fig. 4a/4c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanParams {
    /// Multiplicative window growth between scales (paper sweep:
    /// 1.25–2.0).
    pub scale_factor: f64,
    /// Window stride policy (paper sweep: static 4–16 px, adaptive
    /// 0.0–0.4).
    pub step: StepSize,
    /// Smallest window side, as a multiple of the cascade base window.
    pub min_scale: f64,
    /// Minimum raw hits a cluster needs to become a detection — the
    /// classic false-positive suppressor (a real face is accepted at
    /// several neighbouring windows/scales; isolated hits are noise).
    pub min_neighbors: usize,
}

impl Default for ScanParams {
    fn default() -> Self {
        Self {
            scale_factor: 1.25,
            step: StepSize::Adaptive(0.1),
            min_scale: 1.0,
            min_neighbors: 2,
        }
    }
}

/// A detected face window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Top-left x.
    pub x: usize,
    /// Top-left y.
    pub y: usize,
    /// Window side in pixels.
    pub side: usize,
}

impl Detection {
    /// Intersection-over-union with another detection.
    pub fn iou(&self, other: &Detection) -> f64 {
        let x0 = self.x.max(other.x) as f64;
        let y0 = self.y.max(other.y) as f64;
        let x1 = (self.x + self.side).min(other.x + other.side) as f64;
        let y1 = (self.y + self.side).min(other.y + other.side) as f64;
        let inter = (x1 - x0).max(0.0) * (y1 - y0).max(0.0);
        let union = (self.side * self.side + other.side * other.side) as f64 - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// Work accounting for a scan — the quantities the hardware model charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Windows evaluated across all scales.
    pub windows: u64,
    /// Haar features evaluated (cascade early-exit included).
    pub features: u64,
    /// Pyramid scales visited.
    pub scales: u32,
}

/// Result of scanning one frame.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    /// Raw (ungrouped) accepted windows.
    pub raw: Vec<Detection>,
    /// Overlap-merged detections, strongest support first.
    pub detections: Vec<Detection>,
    /// Raw-window count behind each detection (parallel to
    /// `detections`) — the confidence proxy used for ranking.
    pub support: Vec<usize>,
    /// Work done.
    pub stats: ScanStats,
}

/// Buffers one scan rebuilds for every frame it is handed: the plain and
/// squared integral tables, the per-scale compiled stumps and one row of
/// window stats. Reusing one across scans (see [`scan_with`]) leaves a
/// scan to allocate only for grouping its hits and for its result; the
/// default allocates nothing.
#[derive(Debug, Default)]
pub struct ScanScratch {
    ii: IntegralImage,
    sq: IntegralImage,
    compiled: CompiledScale,
}

/// Scans `image` with the cascade at every scale and position.
///
/// Equivalent to [`scan_with`] on a fresh [`ScanScratch`].
///
/// # Panics
///
/// Panics if `scale_factor <= 1.0` or `min_scale < 1.0`.
///
/// # Examples
///
/// ```
/// use incam_imaging::faces::{render_face, Identity, Nuisance};
/// use incam_imaging::draw::blit;
/// use incam_imaging::image::GrayImage;
/// # // scanning needs a trained cascade; see `incam_viola::train`
/// ```
pub fn scan(cascade: &Cascade, image: &GrayImage, params: &ScanParams) -> ScanResult {
    scan_with(cascade, image, params, &mut ScanScratch::default())
}

/// [`scan`] in caller-owned scratch: the integral tables are rebuilt and
/// the stumps recompiled into `scratch`'s buffers, so a caller scanning
/// frame after frame allocates them once. The result does not depend on
/// what an earlier scan left in `scratch`.
///
/// # Panics
///
/// Panics if `scale_factor <= 1.0` or `min_scale < 1.0`.
pub fn scan_with(
    cascade: &Cascade,
    image: &GrayImage,
    params: &ScanParams,
    scratch: &mut ScanScratch,
) -> ScanResult {
    assert!(params.scale_factor > 1.0, "scale factor must exceed 1.0");
    assert!(params.min_scale >= 1.0, "min_scale must be >= 1.0");
    let ScanScratch { ii, sq, compiled } = scratch;
    ii.rebuild(image);
    sq.rebuild_squared(image);
    let (w, h) = image.dims();
    let base = cascade.base_window();

    let mut result = ScanResult::default();
    let mut scale = params.min_scale;
    loop {
        let side = ((base as f64) * scale).round() as usize;
        if side > w || side > h {
            break;
        }
        result.stats.scales += 1;
        let stride = params.step.stride(side);
        // All stump geometry at this scale is constant, so compile it
        // once into flat integral-table offsets; the per-window loop is
        // then pure table reads (border windows fall back to the original
        // per-feature evaluation, keeping every verdict bit-identical —
        // see [`crate::compiled`]). Hits land in scale-major, then y,
        // then x order.
        compiled.compile(cascade, ii, scale, stride);
        let mut y = 0;
        while y + side <= h {
            compiled.classify_row(cascade, ii, sq, y, |x, verdict| {
                result.stats.windows += 1;
                result.stats.features += verdict.features_evaluated as u64;
                if verdict.accepted {
                    result.raw.push(Detection { x, y, side });
                }
            });
            y += stride;
        }
        scale *= params.scale_factor;
    }
    finish_scan(result, params)
}

/// The original scan loop evaluating every window through
/// [`Cascade::classify_window`]'s per-feature coordinate math —
/// correctness oracle for the compiled [`scan`] (proptests pin the two
/// bit-identical) and the "before" side of the kernel microbenchmarks.
///
/// # Panics
///
/// Panics if `scale_factor <= 1.0` or `min_scale < 1.0`.
pub fn scan_reference(cascade: &Cascade, image: &GrayImage, params: &ScanParams) -> ScanResult {
    assert!(params.scale_factor > 1.0, "scale factor must exceed 1.0");
    assert!(params.min_scale >= 1.0, "min_scale must be >= 1.0");
    let ii = IntegralImage::new(image);
    let sq = IntegralImage::squared(image);
    let (w, h) = image.dims();
    let base = cascade.base_window();

    let mut result = ScanResult::default();
    let mut scale = params.min_scale;
    loop {
        let side = ((base as f64) * scale).round() as usize;
        if side > w || side > h {
            break;
        }
        result.stats.scales += 1;
        let stride = params.step.stride(side);
        let mut y = 0;
        while y + side <= h {
            let mut x = 0;
            while x + side <= w {
                let verdict = cascade.classify_window(&ii, &sq, x, y, scale);
                result.stats.windows += 1;
                result.stats.features += verdict.features_evaluated as u64;
                if verdict.accepted {
                    result.raw.push(Detection { x, y, side });
                }
                x += stride;
            }
            y += stride;
        }
        scale *= params.scale_factor;
    }
    finish_scan(result, params)
}

/// Shared tail of [`scan_with`]/[`scan_reference`]: cluster raw hits and
/// rank detections by support.
fn finish_scan(mut result: ScanResult, params: &ScanParams) -> ScanResult {
    let min_support = params.min_neighbors.max(1);
    let mut ranked: Vec<(Detection, usize)> = Vec::new();
    group_clusters(&result.raw, 0.3, |members| {
        if members.len() >= min_support {
            ranked.push((average_box(members), members.len()));
        }
    });
    ranked.sort_by_key(|(_, support)| std::cmp::Reverse(*support));
    result.detections = ranked.iter().map(|(d, _)| *d).collect();
    result.support = ranked.iter().map(|(_, s)| *s).collect();
    result
}

/// Greedy overlap grouping: clusters raw windows with IoU above
/// `iou_threshold` and emits each cluster's average box.
pub fn group_detections(raw: &[Detection], iou_threshold: f64) -> Vec<Detection> {
    let mut grouped = Vec::new();
    group_clusters(raw, iou_threshold, |members| {
        grouped.push(average_box(members))
    });
    grouped
}

/// Greedy clustering in one forward sweep, handing each cluster's members
/// to `emit` in seed order through one reused buffer.
///
/// Each unassigned hit, in index order, seeds a cluster; every later
/// unassigned hit joins it if its IoU with any member reaches
/// `iou_threshold`. A hit outside the cluster's running bounding box has
/// IoU 0 with every member, so it is skipped before any IoU is computed.
/// Members are tried newest first: `any` does not depend on the order,
/// and a later hit most often overlaps the hit that joined just before
/// it.
fn group_clusters(raw: &[Detection], iou_threshold: f64, mut emit: impl FnMut(&[Detection])) {
    if raw.is_empty() {
        return;
    }
    if iou_threshold <= 0.0 {
        // Degenerate threshold: every pair "overlaps", one big cluster.
        emit(raw);
        return;
    }
    let mut assigned = vec![false; raw.len()];
    let mut members = Vec::new();
    for (i, seed) in raw.iter().enumerate() {
        if assigned[i] {
            continue;
        }
        members.clear();
        members.push(*seed);
        let (mut bx0, mut bx1) = (seed.x, seed.x + seed.side);
        let (mut by0, mut by1) = (seed.y, seed.y + seed.side);
        for (j, other) in raw.iter().enumerate().skip(i + 1) {
            let boxed = other.x < bx1
                && other.x + other.side > bx0
                && other.y < by1
                && other.y + other.side > by0;
            if boxed && !assigned[j] && members.iter().rev().any(|m| m.iou(other) >= iou_threshold)
            {
                assigned[j] = true;
                members.push(*other);
                bx0 = bx0.min(other.x);
                bx1 = bx1.max(other.x + other.side);
                by0 = by0.min(other.y);
                by1 = by1.max(other.y + other.side);
            }
        }
        emit(&members);
    }
}

fn average_box(group: &[Detection]) -> Detection {
    let n = group.len() as f64;
    Detection {
        x: (group.iter().map(|d| d.x).sum::<usize>() as f64 / n).round() as usize,
        y: (group.iter().map(|d| d.y).sum::<usize>() as f64 / n).round() as usize,
        side: (group.iter().map(|d| d.side).sum::<usize>() as f64 / n).round() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Stage;
    use crate::feature::{HaarFeature, HaarKind};
    use crate::weak::WeakClassifier;

    /// Cascade accepting windows whose bottom half is brighter.
    fn toy_cascade(base: usize) -> Cascade {
        let features = vec![HaarFeature {
            kind: HaarKind::TwoRectVertical,
            x: 0,
            y: 0,
            cell_w: base,
            cell_h: base / 2,
        }];
        let stage = Stage {
            weak: vec![WeakClassifier {
                feature: 0,
                threshold: 0.5,
                polarity: -1,
                alpha: 1.0,
            }],
            threshold: 0.9,
        };
        Cascade::new(features, vec![stage], base)
    }

    fn target_image() -> GrayImage {
        // 40x40 mid-gray with one strong dark-over-light 8x8 patch at (16,16)
        let mut img = GrayImage::new(40, 40, 0.5);
        for y in 16..24 {
            for x in 16..24 {
                img.set(x, y, if y < 20 { 0.0 } else { 1.0 });
            }
        }
        img
    }

    #[test]
    fn finds_planted_pattern() {
        let cascade = toy_cascade(8);
        let result = scan(
            &cascade,
            &target_image(),
            &ScanParams {
                scale_factor: 1.5,
                step: StepSize::Static(2),
                min_scale: 1.0,
                min_neighbors: 1,
            },
        );
        assert!(!result.detections.is_empty());
        let hit = result.detections.iter().any(|d| {
            d.iou(&Detection {
                x: 16,
                y: 16,
                side: 8,
            }) > 0.25
        });
        assert!(hit, "detections: {:?}", result.detections);
    }

    #[test]
    fn larger_steps_evaluate_fewer_windows() {
        let cascade = toy_cascade(8);
        let img = target_image();
        let windows_at = |step: usize| {
            scan(
                &cascade,
                &img,
                &ScanParams {
                    scale_factor: 1.5,
                    step: StepSize::Static(step),
                    min_scale: 1.0,
                    min_neighbors: 1,
                },
            )
            .stats
            .windows
        };
        assert!(windows_at(2) > windows_at(4));
        assert!(windows_at(4) > windows_at(8));
    }

    #[test]
    fn coarser_scale_factor_visits_fewer_scales() {
        let cascade = toy_cascade(8);
        let img = GrayImage::new(64, 64, 0.5);
        let scales_at = |sf: f64| {
            scan(
                &cascade,
                &img,
                &ScanParams {
                    scale_factor: sf,
                    step: StepSize::Static(4),
                    min_scale: 1.0,
                    min_neighbors: 1,
                },
            )
            .stats
            .scales
        };
        assert!(scales_at(1.25) > scales_at(2.0));
    }

    #[test]
    fn adaptive_step_scales_with_window() {
        assert_eq!(StepSize::Adaptive(0.1).stride(20), 2);
        assert_eq!(StepSize::Adaptive(0.1).stride(100), 10);
        assert_eq!(StepSize::Adaptive(0.0).stride(20), 1);
        assert_eq!(StepSize::Static(4).stride(999), 4);
    }

    #[test]
    fn grouping_merges_overlaps() {
        let raw = vec![
            Detection {
                x: 10,
                y: 10,
                side: 10,
            },
            Detection {
                x: 11,
                y: 10,
                side: 10,
            },
            Detection {
                x: 12,
                y: 11,
                side: 10,
            },
            Detection {
                x: 40,
                y: 40,
                side: 10,
            },
        ];
        let grouped = group_detections(&raw, 0.3);
        assert_eq!(grouped.len(), 2);
    }

    /// The naive all-pairs greedy pass the windowed sweep replaced.
    fn naive_clusters(raw: &[Detection], iou_threshold: f64) -> Vec<Vec<Detection>> {
        let mut assigned = vec![false; raw.len()];
        let mut groups = Vec::new();
        for (i, det) in raw.iter().enumerate() {
            if assigned[i] {
                continue;
            }
            assigned[i] = true;
            let mut group = vec![*det];
            for (j, other) in raw.iter().enumerate().skip(i + 1) {
                if !assigned[j] && group.iter().any(|g| g.iou(other) >= iou_threshold) {
                    assigned[j] = true;
                    group.push(*other);
                }
            }
            groups.push(group);
        }
        groups
    }

    /// A dense frame's raw hits in scan order: windows on the adaptive
    /// grid of three adjacent 1.25× scales of a 160×120 frame, most of
    /// those centred near one of three faces (two of them overlapping)
    /// and a few stray ones.
    fn dense_hits(rng: &mut incam_rng::rngs::StdRng) -> Vec<Detection> {
        use incam_rng::Rng;
        let faces = [(40usize, 50usize), (52, 58), (110, 40)];
        let mut raw = Vec::new();
        for side in [20usize, 25, 31] {
            let stride = StepSize::Adaptive(0.1).stride(side);
            for y in (0..=120 - side).step_by(stride) {
                for x in (0..=160 - side).step_by(stride) {
                    let (cx, cy) = (x + side / 2, y + side / 2);
                    let near = faces
                        .iter()
                        .any(|&(fx, fy)| cx.abs_diff(fx) <= 8 && cy.abs_diff(fy) <= 8);
                    if (near && rng.gen_bool(0.7)) || rng.gen_bool(0.01) {
                        raw.push(Detection { x, y, side });
                    }
                }
            }
        }
        raw
    }

    #[test]
    fn grouping_matches_naive_reference() {
        use incam_rng::rngs::StdRng;
        use incam_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let scattered: Vec<Detection> = (0..150)
            .map(|_| Detection {
                x: rng.gen_range(0..160),
                y: rng.gen_range(0..160),
                side: rng.gen_range(5..40),
            })
            .collect();
        let dense = dense_hits(&mut rng);
        assert!(
            (200..600).contains(&dense.len()),
            "{} dense hits",
            dense.len()
        );
        for raw in [&scattered, &dense] {
            for threshold in [0.0, 0.05, 0.3, 0.6, 0.9] {
                let mut fast: Vec<Vec<Detection>> = Vec::new();
                group_clusters(raw, threshold, |members| fast.push(members.to_vec()));
                assert_eq!(fast, naive_clusters(raw, threshold), "t={threshold}");
            }
        }
    }

    #[test]
    fn iou_identity_and_disjoint() {
        let a = Detection {
            x: 0,
            y: 0,
            side: 10,
        };
        assert!((a.iou(&a) - 1.0).abs() < 1e-9);
        let b = Detection {
            x: 20,
            y: 20,
            side: 5,
        };
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn unit_scale_factor_rejected() {
        let cascade = toy_cascade(8);
        let _ = scan(
            &cascade,
            &GrayImage::new(32, 32, 0.5),
            &ScanParams {
                scale_factor: 1.0,
                step: StepSize::Static(4),
                min_scale: 1.0,
                min_neighbors: 1,
            },
        );
    }
}
