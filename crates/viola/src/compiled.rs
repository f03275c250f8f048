//! Per-scale compiled cascade stumps for the sliding-window scan.
//!
//! [`crate::feature::HaarFeature::evaluate`] re-derives every scaled cell
//! size, rounded offset and rectangle corner — plus four bounds-checked
//! [`IntegralImage::rect_sum`] asserts — for every feature of every
//! window. At a fixed scale all of that geometry is constant: each
//! rectangle corner is a fixed flat offset into the integral table
//! relative to the window's base index `wy · tw + wx`. [`CompiledScale`]
//! precomputes those offsets once per scale for the stumps the stages
//! actually read, in stage order, so the per-window inner loop is pure
//! table reads and the exact floating-point combination the original
//! formulation performs. Features of the pool that no stage references
//! are never compiled.
//!
//! Windows close enough to the right/bottom image border that any
//! referenced feature's clamped footprint would shift (`evaluate`'s
//! `.min()` clamp) fall back to
//! [`crate::cascade::Cascade::classify_window`] verbatim, so every
//! verdict — interior fast path or border fallback — is bit-identical to
//! the uncompiled scan.

use crate::cascade::{Cascade, WindowVerdict};
use crate::feature::HaarKind;
use crate::weak::WeakClassifier;
use incam_imaging::integral::IntegralImage;

/// One Haar rectangle as four flat integral-table corner offsets relative
/// to the window base index, ordered `(a, b, c, d)` to reproduce
/// `rect_sum`'s `d - b - c + a` combination.
type RectOffsets = [usize; 4];

/// One weak classifier compiled for one scale: its feature's flat
/// rectangle corners and normalization area, and the stump that
/// thresholds the response.
#[derive(Debug, Clone, Copy)]
struct CompiledStump {
    kind: HaarKind,
    rects: [RectOffsets; 4],
    area: f64,
    stump: WeakClassifier,
}

impl CompiledStump {
    /// Evaluates the feature at window base index `wb`, replicating
    /// `HaarFeature::evaluate`'s exact expression tree: each rectangle is
    /// `d - b - c + a`, the rectangles combine per kind, and the result is
    /// `raw / (area · max(stddev, 1e-6))`.
    #[inline]
    fn evaluate(&self, t: &[f64], wb: usize, stddev: f64) -> f64 {
        let rect = |r: &RectOffsets| t[wb + r[3]] - t[wb + r[1]] - t[wb + r[2]] + t[wb + r[0]];
        let raw = match self.kind {
            HaarKind::TwoRectHorizontal | HaarKind::TwoRectVertical => {
                rect(&self.rects[1]) - rect(&self.rects[0])
            }
            HaarKind::ThreeRectHorizontal | HaarKind::ThreeRectVertical => {
                rect(&self.rects[1]) - rect(&self.rects[0]) - rect(&self.rects[2])
            }
            HaarKind::FourRect => {
                (rect(&self.rects[0]) + rect(&self.rects[3]))
                    - (rect(&self.rects[1]) + rect(&self.rects[2]))
            }
        };
        raw / (self.area * stddev.max(1e-6))
    }
}

/// One stage over the compiled stumps: it owns `stumps[previous end..end]`
/// and passes when their vote reaches `threshold`.
#[derive(Debug, Clone, Copy)]
struct CompiledStage {
    end: usize,
    threshold: f64,
}

/// A cascade compiled for one pyramid scale over one integral-image pair.
/// [`CompiledScale::compile`] refills the same buffers at every scale, so
/// a scratch that keeps one compiles without allocating after its first
/// scan; the default holds no buffers.
#[derive(Debug, Default)]
pub(crate) struct CompiledScale {
    /// Every stage's stumps, stage after stage, in `Stage::passes` order.
    stumps: Vec<CompiledStump>,
    stages: Vec<CompiledStage>,
    /// Normalization stddev of each window of the row being classified.
    stddevs: Vec<f64>,
    scale: f64,
    /// Window side and stride at this scale.
    side: usize,
    stride: usize,
    /// Integral-table row stride.
    tw: usize,
    /// Fast-path bounds: a window at `(wx, wy)` uses the compiled path
    /// iff `wx + max_ext_x <= width && wy + max_ext_y <= height`.
    max_ext_x: usize,
    max_ext_y: usize,
}

impl CompiledScale {
    /// Compiles `cascade`'s stumps for windows of side
    /// `base_window × scale`, `stride` pixels apart, over integral images
    /// shaped like `ii`. A feature two stumps share is compiled once for
    /// each.
    pub(crate) fn compile(
        &mut self,
        cascade: &Cascade,
        ii: &IntegralImage,
        scale: f64,
        stride: usize,
    ) {
        let tw = ii.table_width();
        let side = ((cascade.base_window() as f64) * scale).round() as usize;
        self.scale = scale;
        self.side = side;
        self.stride = stride;
        self.tw = tw;
        self.max_ext_x = side;
        self.max_ext_y = side;
        self.stumps.clear();
        self.stages.clear();
        for stage in cascade.stages() {
            for wc in &stage.weak {
                let f = &cascade.features()[wc.feature];
                // Same rounding pipeline as HaarFeature::evaluate.
                let cw = (((f.cell_w as f64) * scale).floor() as usize).max(1);
                let ch = (((f.cell_h as f64) * scale).floor() as usize).max(1);
                let (cells_x, cells_y) = f.kind.cells();
                let fw = cw * cells_x;
                let fh = ch * cells_y;
                let rx = ((f.x as f64) * scale).round() as usize;
                let ry = ((f.y as f64) * scale).round() as usize;
                self.max_ext_x = self.max_ext_x.max(rx + fw);
                self.max_ext_y = self.max_ext_y.max(ry + fh);
                // Cell top-left positions in evaluate's evaluation order.
                let cells: &[(usize, usize)] = match f.kind {
                    HaarKind::TwoRectHorizontal => &[(0, 0), (1, 0)],
                    HaarKind::TwoRectVertical => &[(0, 0), (0, 1)],
                    HaarKind::ThreeRectHorizontal => &[(0, 0), (1, 0), (2, 0)],
                    HaarKind::ThreeRectVertical => &[(0, 0), (0, 1), (0, 2)],
                    HaarKind::FourRect => &[(0, 0), (1, 0), (0, 1), (1, 1)],
                };
                let mut rects = [[0usize; 4]; 4];
                for (slot, &(gx, gy)) in rects.iter_mut().zip(cells) {
                    let x = rx + gx * cw;
                    let y = ry + gy * ch;
                    *slot = [
                        y * tw + x,
                        y * tw + (x + cw),
                        (y + ch) * tw + x,
                        (y + ch) * tw + (x + cw),
                    ];
                }
                self.stumps.push(CompiledStump {
                    kind: f.kind,
                    rects,
                    area: (fw * fh) as f64,
                    stump: *wc,
                });
            }
            self.stages.push(CompiledStage {
                end: self.stumps.len(),
                threshold: stage.threshold,
            });
        }
    }

    /// Classifies every window of row `wy`, left to right, handing each
    /// window's x and verdict to `visit`. Interior windows — those no
    /// referenced feature's `evaluate` border `.min()` clamp would touch
    /// — take the compiled stages; the rest fall back to the original
    /// [`Cascade::classify_window`]. Bit-identical to the original either
    /// way.
    ///
    /// The row's window stats come first, in one sweep with no
    /// data-dependent branch: each sum is `rect_sum`'s `d - b - c + a`
    /// over the right, down and down-right corners, followed by the
    /// identical mean/variance expressions. The cascade's early exits
    /// then no longer stall that arithmetic.
    pub(crate) fn classify_row(
        &mut self,
        cascade: &Cascade,
        ii: &IntegralImage,
        sq: &IntegralImage,
        wy: usize,
        mut visit: impl FnMut(usize, WindowVerdict),
    ) {
        let (t, st) = (ii.table(), sq.table());
        let (side, tw) = (self.side, self.tw);
        let (o_r, o_d) = (side, side * tw);
        let o_dr = o_d + o_r;
        let n = (side * side) as f64;
        let windows = (ii.width() - side) / self.stride + 1;
        let bases = (0..windows).map(|k| wy * tw + k * self.stride);
        self.stddevs.clear();
        self.stddevs.extend(bases.map(|wb| {
            let sum = t[wb + o_dr] - t[wb + o_r] - t[wb + o_d] + t[wb];
            let sq_sum = st[wb + o_dr] - st[wb + o_r] - st[wb + o_d] + st[wb];
            let mean = sum / n;
            let var = (sq_sum / n - mean * mean).max(0.0);
            var.sqrt().max(1e-6)
        }));
        let row_interior = wy + self.max_ext_y <= ii.height();
        for (k, &stddev) in self.stddevs.iter().enumerate() {
            let wx = k * self.stride;
            let verdict = if row_interior && wx + self.max_ext_x <= ii.width() {
                self.classify_interior(t, wy * tw + wx, stddev)
            } else {
                cascade.classify_window(ii, sq, wx, wy, self.scale)
            };
            visit(wx, verdict);
        }
    }

    /// The compiled stages on the interior window at base index `wb`:
    /// the votes sum in the stage's order, the same `vote < threshold`
    /// test exits, and the feature count is every stage's length up to
    /// the exit, as `Cascade::classify_window` counts it.
    #[inline]
    fn classify_interior(&self, t: &[f64], wb: usize, stddev: f64) -> WindowVerdict {
        let mut start = 0;
        for (si, stage) in self.stages.iter().enumerate() {
            let mut vote = 0.0;
            for s in &self.stumps[start..stage.end] {
                if s.stump.classify_response(s.evaluate(t, wb, stddev)) {
                    vote += s.stump.alpha;
                }
            }
            if vote < stage.threshold {
                return WindowVerdict {
                    accepted: false,
                    stages_evaluated: si + 1,
                    features_evaluated: stage.end,
                };
            }
            start = stage.end;
        }
        WindowVerdict {
            accepted: true,
            stages_evaluated: self.stages.len(),
            features_evaluated: self.stumps.len(),
        }
    }
}
