//! Haar-like rectangular features over integral images.
//!
//! The Viola-Jones detector's features are differences of sums of adjacent
//! rectangles — two-, three- and four-rectangle patterns (the paper's
//! Fig. 4b "rectangular features"). Each evaluates in a handful of
//! integral-image lookups, independent of rectangle size, which is the
//! property that makes the cascade cheap enough for an in-camera
//! accelerator.

use incam_imaging::integral::IntegralImage;

/// The rectangle-pattern kind of a Haar feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaarKind {
    /// Two rectangles side by side: `right - left`.
    TwoRectHorizontal,
    /// Two rectangles stacked: `bottom - top` (the classic eyes-vs-cheeks
    /// cue).
    TwoRectVertical,
    /// Three rectangles side by side: `center - outer` (the nose-bridge
    /// cue).
    ThreeRectHorizontal,
    /// Three rectangles stacked.
    ThreeRectVertical,
    /// Four rectangles in a checkerboard: `diag - antidiag`.
    FourRect,
}

impl HaarKind {
    /// All feature kinds.
    pub const ALL: [HaarKind; 5] = [
        HaarKind::TwoRectHorizontal,
        HaarKind::TwoRectVertical,
        HaarKind::ThreeRectHorizontal,
        HaarKind::ThreeRectVertical,
        HaarKind::FourRect,
    ];

    /// Number of unit cells the pattern spans horizontally and vertically.
    pub fn cells(self) -> (usize, usize) {
        match self {
            HaarKind::TwoRectHorizontal => (2, 1),
            HaarKind::TwoRectVertical => (1, 2),
            HaarKind::ThreeRectHorizontal => (3, 1),
            HaarKind::ThreeRectVertical => (1, 3),
            HaarKind::FourRect => (2, 2),
        }
    }
}

/// A Haar feature positioned inside a base detection window.
///
/// Coordinates are relative to the window's top-left corner at the base
/// window size; at scan time the feature is scaled to the current window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaarFeature {
    /// Pattern kind.
    pub kind: HaarKind,
    /// X offset inside the base window.
    pub x: usize,
    /// Y offset inside the base window.
    pub y: usize,
    /// Width of one unit cell at base scale.
    pub cell_w: usize,
    /// Height of one unit cell at base scale.
    pub cell_h: usize,
}

impl HaarFeature {
    /// Total feature footprint at base scale.
    pub fn extent(&self) -> (usize, usize) {
        let (cx, cy) = self.kind.cells();
        (self.cell_w * cx, self.cell_h * cy)
    }

    /// Evaluates the feature in a window at `(wx, wy)` scaled by `scale`,
    /// normalized by window area and contrast (`stddev`).
    ///
    /// The normalization makes the response invariant to window size and
    /// global illumination, as in the original detector.
    pub fn evaluate(
        &self,
        ii: &IntegralImage,
        wx: usize,
        wy: usize,
        scale: f64,
        stddev: f64,
    ) -> f64 {
        // cell sizes floor (so the scaled footprint never exceeds the
        // scaled window); positions round; the footprint is then clamped
        // into the integral image so border windows stay in bounds
        let cw = (((self.cell_w as f64) * scale).floor() as usize).max(1);
        let ch = (((self.cell_h as f64) * scale).floor() as usize).max(1);
        let (cells_x, cells_y) = self.kind.cells();
        let fw = cw * cells_x;
        let fh = ch * cells_y;
        let x =
            (wx + ((self.x as f64) * scale).round() as usize).min(ii.width().saturating_sub(fw));
        let y =
            (wy + ((self.y as f64) * scale).round() as usize).min(ii.height().saturating_sub(fh));
        let raw = match self.kind {
            HaarKind::TwoRectHorizontal => {
                let left = ii.rect_sum(x, y, cw, ch);
                let right = ii.rect_sum(x + cw, y, cw, ch);
                right - left
            }
            HaarKind::TwoRectVertical => {
                let top = ii.rect_sum(x, y, cw, ch);
                let bottom = ii.rect_sum(x, y + ch, cw, ch);
                bottom - top
            }
            HaarKind::ThreeRectHorizontal => {
                let a = ii.rect_sum(x, y, cw, ch);
                let b = ii.rect_sum(x + cw, y, cw, ch);
                let c = ii.rect_sum(x + 2 * cw, y, cw, ch);
                b - a - c
            }
            HaarKind::ThreeRectVertical => {
                let a = ii.rect_sum(x, y, cw, ch);
                let b = ii.rect_sum(x, y + ch, cw, ch);
                let c = ii.rect_sum(x, y + 2 * ch, cw, ch);
                b - a - c
            }
            HaarKind::FourRect => {
                let tl = ii.rect_sum(x, y, cw, ch);
                let tr = ii.rect_sum(x + cw, y, cw, ch);
                let bl = ii.rect_sum(x, y + ch, cw, ch);
                let br = ii.rect_sum(x + cw, y + ch, cw, ch);
                (tl + br) - (tr + bl)
            }
        };
        let area = (fw * fh) as f64;
        raw / (area * stddev.max(1e-6))
    }
}

/// Enumerates a feature pool over a `base × base` window.
///
/// `position_stride` and `size_stride` subsample the exhaustive set (the
/// full pool over 24×24 exceeds 160 000 features; training needs only a
/// representative few thousand).
///
/// # Panics
///
/// Panics if `base < 8` or either stride is zero.
///
/// # Examples
///
/// ```
/// use incam_viola::feature::feature_pool;
///
/// let pool = feature_pool(24, 2, 2);
/// assert!(pool.len() > 1000);
/// // every feature fits in the window
/// for f in &pool {
///     let (w, h) = f.extent();
///     assert!(f.x + w <= 24 && f.y + h <= 24);
/// }
/// ```
pub fn feature_pool(base: usize, position_stride: usize, size_stride: usize) -> Vec<HaarFeature> {
    assert!(base >= 8, "base window too small");
    assert!(
        position_stride > 0 && size_stride > 0,
        "strides must be nonzero"
    );
    let mut pool = Vec::new();
    for kind in HaarKind::ALL {
        let (cx, cy) = kind.cells();
        let mut cell_w = 1;
        while cell_w * cx <= base {
            let mut cell_h = 1;
            while cell_h * cy <= base {
                let fw = cell_w * cx;
                let fh = cell_h * cy;
                let mut y = 0;
                while y + fh <= base {
                    let mut x = 0;
                    while x + fw <= base {
                        pool.push(HaarFeature {
                            kind,
                            x,
                            y,
                            cell_w,
                            cell_h,
                        });
                        x += position_stride;
                    }
                    y += position_stride;
                }
                cell_h += size_stride;
            }
            cell_w += size_stride;
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::image::{GrayImage, Image};

    fn ii_of(img: &GrayImage) -> IntegralImage {
        IntegralImage::new(img)
    }

    #[test]
    fn two_rect_vertical_detects_dark_over_light() {
        // top half dark (0), bottom half light (1): bottom - top > 0
        let img = Image::from_fn(8, 8, |_, y| if y < 4 { 0.0 } else { 1.0 });
        let f = HaarFeature {
            kind: HaarKind::TwoRectVertical,
            x: 0,
            y: 0,
            cell_w: 8,
            cell_h: 4,
        };
        let v = f.evaluate(&ii_of(&img), 0, 0, 1.0, 1.0);
        assert!(v > 0.0);
        // inverted image flips the sign
        let inv = img.map(|p| 1.0 - p);
        assert!(f.evaluate(&ii_of(&inv), 0, 0, 1.0, 1.0) < 0.0);
    }

    #[test]
    fn three_rect_detects_bright_center() {
        let img = Image::from_fn(9, 3, |x, _| if (3..6).contains(&x) { 1.0 } else { 0.0 });
        let f = HaarFeature {
            kind: HaarKind::ThreeRectHorizontal,
            x: 0,
            y: 0,
            cell_w: 3,
            cell_h: 3,
        };
        assert!(f.evaluate(&ii_of(&img), 0, 0, 1.0, 1.0) > 0.0);
    }

    #[test]
    fn four_rect_detects_checkerboard() {
        let img = Image::from_fn(4, 4, |x, y| if (x < 2) == (y < 2) { 1.0 } else { 0.0 });
        let f = HaarFeature {
            kind: HaarKind::FourRect,
            x: 0,
            y: 0,
            cell_w: 2,
            cell_h: 2,
        };
        assert!(f.evaluate(&ii_of(&img), 0, 0, 1.0, 1.0) > 0.0);
    }

    #[test]
    fn response_invariant_to_uniform_brightness() {
        let a = Image::from_fn(8, 8, |x, _| if x < 4 { 0.2 } else { 0.6 });
        let b = a.map(|p| p + 0.3);
        let f = HaarFeature {
            kind: HaarKind::TwoRectHorizontal,
            x: 0,
            y: 0,
            cell_w: 4,
            cell_h: 8,
        };
        let va = f.evaluate(&ii_of(&a), 0, 0, 1.0, 1.0);
        let vb = f.evaluate(&ii_of(&b), 0, 0, 1.0, 1.0);
        assert!((va - vb).abs() < 1e-5, "{va} vs {vb}");
    }

    #[test]
    fn scaled_evaluation_matches_resized_pattern() {
        // a feature at scale 2 reads the same relative region
        let img = Image::from_fn(16, 16, |_, y| if y < 8 { 0.0 } else { 1.0 });
        let f = HaarFeature {
            kind: HaarKind::TwoRectVertical,
            x: 0,
            y: 0,
            cell_w: 8,
            cell_h: 4,
        };
        let v = f.evaluate(&ii_of(&img), 0, 0, 2.0, 1.0);
        assert!(v > 0.4, "scaled response {v}");
    }

    #[test]
    fn pool_density_controlled_by_strides() {
        let dense = feature_pool(24, 1, 1);
        let sparse = feature_pool(24, 4, 4);
        assert!(dense.len() > 10 * sparse.len());
        assert!(!sparse.is_empty());
    }

    #[test]
    #[should_panic(expected = "strides")]
    fn zero_stride_rejected() {
        let _ = feature_pool(24, 0, 1);
    }
}
