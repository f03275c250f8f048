//! Multi-scale sliding-window scanning — the loop of the paper's Fig. 4a
//! pseudocode, with the two parameters Fig. 4c sweeps: the **scale
//! factor** between pyramid levels and the **step size** (static pixels,
//! or adaptive as a fraction of the current window).

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

/// Scans `image` with the cascade at every scale and position.
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
        // All feature geometry at this scale is constant, so compile it
        // once into flat integral-table offsets; the per-window loop is
        // then pure table reads (border windows fall back to the original
        // per-feature evaluation, keeping every verdict bit-identical —
        // see [`crate::compiled`]).
        let compiled = CompiledScale::new(cascade, &ii, scale);
        // Window rows at this scale are independent sweeps; evaluate them
        // on the pool and stitch per-row hits back in row order, so the
        // raw-detection order (scale-major, then y, then x) matches the
        // sequential scan exactly. The work counters are integer sums and
        // therefore order-insensitive.
        let row_count = (h - side) / stride + 1;
        let rows = incam_parallel::par_map(row_count, |r| {
            let y = r * stride;
            let mut hits = Vec::new();
            let (mut windows, mut features) = (0u64, 0u64);
            let mut x = 0;
            while x + side <= w {
                let verdict = compiled.classify_window(cascade, &ii, &sq, x, y, scale);
                windows += 1;
                features += verdict.features_evaluated as u64;
                if verdict.accepted {
                    hits.push(Detection { x, y, side });
                }
                x += stride;
            }
            (hits, windows, features)
        });
        for (hits, windows, features) in rows {
            result.raw.extend(hits);
            result.stats.windows += windows;
            result.stats.features += features;
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
        let row_count = (h - side) / stride + 1;
        let rows = incam_parallel::par_map(row_count, |r| {
            let y = r * stride;
            let mut hits = Vec::new();
            let (mut windows, mut features) = (0u64, 0u64);
            let mut x = 0;
            while x + side <= w {
                let verdict = cascade.classify_window(&ii, &sq, x, y, scale);
                windows += 1;
                features += verdict.features_evaluated as u64;
                if verdict.accepted {
                    hits.push(Detection { x, y, side });
                }
                x += stride;
            }
            (hits, windows, features)
        });
        for (hits, windows, features) in rows {
            result.raw.extend(hits);
            result.stats.windows += windows;
            result.stats.features += features;
        }
        scale *= params.scale_factor;
    }
    finish_scan(result, params)
}

/// Shared tail of [`scan`]/[`scan_reference`]: cluster raw hits and rank
/// detections by support.
fn finish_scan(mut result: ScanResult, params: &ScanParams) -> ScanResult {
    let mut ranked: Vec<(Detection, usize)> = group_clusters(&result.raw, 0.3)
        .into_iter()
        .filter(|group| group.len() >= params.min_neighbors.max(1))
        .map(|group| (average_box(&group), group.len()))
        .collect();
    ranked.sort_by_key(|(_, support)| std::cmp::Reverse(*support));
    result.detections = ranked.iter().map(|(d, _)| *d).collect();
    result.support = ranked.iter().map(|(_, s)| *s).collect();
    result
}

/// Greedy overlap grouping: clusters raw windows with IoU above
/// `iou_threshold` and emits each cluster's average box.
pub fn group_detections(raw: &[Detection], iou_threshold: f64) -> Vec<Detection> {
    group_clusters(raw, iou_threshold)
        .into_iter()
        .map(|group| average_box(&group))
        .collect()
}

/// Greedy single-pass clustering, identical in output to the naive
/// all-pairs sweep but without its O(n²) IoU evaluations.
///
/// The original algorithm examined every remaining detection for every
/// group. Here detections are sorted by left edge once; each group keeps
/// a running bounding box and only ever enqueues candidates whose
/// x-interval can intersect it (positive IoU with any member requires
/// intersecting the members' bounding box). Candidates are drained in
/// original index order, so every join decision sees exactly the group
/// state the naive pass would have seen: a detection outside the box at
/// the moment its index came up has zero IoU with every member and would
/// have been rejected anyway. Detections far from every cluster are never
/// touched after the sort.
fn group_clusters(raw: &[Detection], iou_threshold: f64) -> Vec<Vec<&Detection>> {
    let n = raw.len();
    let mut assigned = vec![false; n];
    let mut groups: Vec<Vec<&Detection>> = Vec::new();
    if n == 0 {
        return groups;
    }
    if iou_threshold <= 0.0 {
        // Degenerate threshold: every pair "overlaps", one big cluster.
        groups.push(raw.iter().collect());
        return groups;
    }

    // Detection indices sorted by left edge, for windowed candidate
    // lookups. `max_side` bounds how far left of a window a still-
    // intersecting detection can start.
    let mut by_x: Vec<usize> = (0..n).collect();
    by_x.sort_by_key(|&i| raw[i].x);
    let xs: Vec<usize> = by_x.iter().map(|&i| raw[i].x).collect();
    let max_side = raw.iter().map(|d| d.side).max().unwrap_or(0);

    // `stamp[j] == i` marks j as already enqueued for the group seeded at
    // i, so window re-expansions never enqueue a candidate twice.
    let mut stamp = vec![usize::MAX; n];
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
        std::collections::BinaryHeap::new();

    for (i, det) in raw.iter().enumerate() {
        if assigned[i] {
            continue;
        }
        assigned[i] = true;
        let mut group = vec![det];
        // Group bounding box (union of member boxes).
        let (mut bx0, mut bx1) = (det.x, det.x + det.side);
        let (mut by0, mut by1) = (det.y, det.y + det.side);
        heap.clear();
        let enqueue = |lo: usize,
                       hi: usize,
                       heap: &mut std::collections::BinaryHeap<std::cmp::Reverse<usize>>,
                       stamp: &mut [usize],
                       assigned: &[bool]| {
            for &j in &by_x[lo..hi] {
                if j > i && !assigned[j] && stamp[j] != i {
                    stamp[j] = i;
                    heap.push(std::cmp::Reverse(j));
                }
            }
        };
        let window = |bx0: usize, bx1: usize| -> (usize, usize) {
            let lo = xs.partition_point(|&x| x + max_side <= bx0);
            let hi = xs.partition_point(|&x| x < bx1);
            (lo, hi.max(lo))
        };
        // Positions of `by_x` already enqueued for this group.
        let (mut wlo, mut whi) = window(bx0, bx1);
        enqueue(wlo, whi, &mut heap, &mut stamp, &assigned);
        let mut cursor = i;
        while let Some(std::cmp::Reverse(j)) = heap.pop() {
            // A candidate enqueued by a later box expansion but indexed
            // before the current pass position was already implicitly
            // rejected (it had zero overlap when its turn came).
            if j <= cursor || assigned[j] {
                continue;
            }
            cursor = j;
            let other = &raw[j];
            let boxed = other.x < bx1
                && other.x + other.side > bx0
                && other.y < by1
                && other.y + other.side > by0;
            if boxed && group.iter().any(|g| g.iou(other) >= iou_threshold) {
                assigned[j] = true;
                group.push(other);
                bx0 = bx0.min(other.x);
                bx1 = bx1.max(other.x + other.side);
                by0 = by0.min(other.y);
                by1 = by1.max(other.y + other.side);
                let (nlo, nhi) = window(bx0, bx1);
                if nlo < wlo {
                    enqueue(nlo, wlo, &mut heap, &mut stamp, &assigned);
                    wlo = nlo;
                }
                if nhi > whi {
                    enqueue(whi, nhi, &mut heap, &mut stamp, &assigned);
                    whi = nhi;
                }
            }
        }
        groups.push(group);
    }
    groups
}

fn average_box(group: &[&Detection]) -> Detection {
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

    #[test]
    fn grouping_matches_naive_reference() {
        use incam_rng::rngs::StdRng;
        use incam_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let raw: Vec<Detection> = (0..150)
            .map(|_| Detection {
                x: rng.gen_range(0..160),
                y: rng.gen_range(0..160),
                side: rng.gen_range(5..40),
            })
            .collect();
        for threshold in [0.05, 0.3, 0.6, 0.9] {
            let fast: Vec<Vec<Detection>> = group_clusters(&raw, threshold)
                .into_iter()
                .map(|g| g.into_iter().copied().collect())
                .collect();
            assert_eq!(fast, naive_clusters(&raw, threshold), "t={threshold}");
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
