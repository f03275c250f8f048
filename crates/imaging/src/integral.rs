//! Summed-area tables (integral images).
//!
//! The Viola-Jones detector evaluates thousands of rectangular Haar
//! features per window; the integral image makes any axis-aligned
//! rectangle sum an O(1) four-corner lookup, which is also exactly the
//! structure the paper's in-camera face-detection accelerator exploits.
//!
//! Both a plain and a *squared* integral image are provided; the pair
//! yields per-window mean and variance for the variance normalization that
//! Viola-Jones applies to every candidate window.

use crate::image::GrayImage;
#[cfg(test)]
use crate::image::Image;

/// A summed-area table over a grayscale image.
///
/// Internally stores an `(w+1) × (h+1)` table of `f64` prefix sums so
/// rectangle queries need no edge-case branches.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::Image;
/// use incam_imaging::integral::IntegralImage;
///
/// let img = Image::from_fn(4, 4, |_, _| 1.0f32);
/// let ii = IntegralImage::new(&img);
/// assert_eq!(ii.rect_sum(1, 1, 2, 2), 4.0);
/// assert_eq!(ii.rect_sum(0, 0, 4, 4), 16.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntegralImage {
    width: usize,
    height: usize,
    /// (width+1) x (height+1) prefix sums, row-major.
    table: Vec<f64>,
}

impl IntegralImage {
    /// Builds the integral image of `img`.
    pub fn new(img: &GrayImage) -> Self {
        Self::from_mapped(img, |p| p as f64)
    }

    /// Builds the integral image of the *squared* intensities of `img`,
    /// used together with [`IntegralImage::new`] for window variance.
    pub fn squared(img: &GrayImage) -> Self {
        Self::from_mapped(img, |p| (p as f64) * (p as f64))
    }

    fn from_mapped(img: &GrayImage, f: impl Fn(f32) -> f64 + Sync) -> Self {
        let (w, h) = img.dims();
        let tw = w + 1;
        let mut table = vec![0.0f64; tw * (h + 1)];
        if incam_parallel::num_threads() == 1 || incam_parallel::in_parallel_region() {
            // Fused single pass over flat row slices: one sweep carrying
            // the row prefix sum and adding the previous table row.
            // Bit-equal to the two-pass construction below: each table
            // entry pairs the same two values (row carry + previous row)
            // and IEEE-754 addition is commutative; the carry can never
            // be -0.0 (it starts at +0.0 and additions of mapped pixels
            // preserve that), so adding the all-zero row 0 is exact.
            for y in 1..=h {
                let (head, tail) = table.split_at_mut(y * tw);
                let prev = &head[(y - 1) * tw..];
                let cur = &mut tail[..tw];
                let mut carry = 0.0f64;
                for ((slot, &up), &p) in cur[1..].iter_mut().zip(&prev[1..]).zip(img.row(y - 1)) {
                    carry += f(p);
                    *slot = up + carry;
                }
            }
        } else {
            // Pass 1 (parallel rows): table row y+1 holds the running
            // prefix sums of image row y, computed over flat row slices.
            // Rows are independent, so the pool computes them
            // byte-identically at any thread count.
            let (_, rows) = table.split_at_mut(tw);
            incam_parallel::par_chunks(rows, tw, |y, row| {
                let mut row_sum = 0.0f64;
                for (slot, &p) in row[1..].iter_mut().zip(img.row(y)) {
                    row_sum += f(p);
                    *slot = row_sum;
                }
            });
            // Pass 2 (sequential): vertical accumulation over flat
            // slices, pairing the same two values as the fused pass.
            for y in 2..=h {
                let (head, tail) = table.split_at_mut(y * tw);
                let prev = &head[(y - 1) * tw..];
                let cur = &mut tail[..tw];
                for (slot, &up) in cur[1..].iter_mut().zip(&prev[1..]) {
                    *slot += up;
                }
            }
        }
        Self {
            width: w,
            height: h,
            table,
        }
    }

    /// The original bounds-checked per-pixel two-pass construction —
    /// correctness oracle (proptests pin [`IntegralImage::new`] bit-equal
    /// to it) and the "before" side of the kernel microbenchmarks.
    pub fn new_reference(img: &GrayImage) -> Self {
        Self::from_mapped_reference(img, |p| p as f64)
    }

    /// Reference construction of the squared table; see
    /// [`IntegralImage::new_reference`].
    pub fn squared_reference(img: &GrayImage) -> Self {
        Self::from_mapped_reference(img, |p| (p as f64) * (p as f64))
    }

    fn from_mapped_reference(img: &GrayImage, f: impl Fn(f32) -> f64 + Sync) -> Self {
        let (w, h) = img.dims();
        let tw = w + 1;
        let mut table = vec![0.0f64; tw * (h + 1)];
        let (_, rows) = table.split_at_mut(tw);
        incam_parallel::par_chunks(rows, tw, |y, row| {
            let mut row_sum = 0.0f64;
            for x in 0..w {
                row_sum += f(img.get(x, y));
                row[x + 1] = row_sum;
            }
        });
        for y in 2..=h {
            let (head, tail) = table.split_at_mut(y * tw);
            let prev = &head[(y - 1) * tw..];
            let cur = &mut tail[..tw];
            for x in 1..=w {
                cur[x] += prev[x];
            }
        }
        Self {
            width: w,
            height: h,
            table,
        }
    }

    /// The raw `(width+1) × (height+1)` prefix-sum table, row-major —
    /// lets scanners (e.g. the Viola-Jones compiled cascade) read window
    /// sums through precomputed flat corner offsets instead of per-query
    /// coordinate math. Entry `(x, y)` lives at `y * table_width() + x`.
    #[inline]
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// Row stride of [`IntegralImage::table`] (`width + 1`).
    #[inline]
    pub fn table_width(&self) -> usize {
        self.width + 1
    }

    /// Source image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Source image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sum of pixels in the `w × h` rectangle with top-left `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle extends outside the image.
    #[inline]
    pub fn rect_sum(&self, x: usize, y: usize, w: usize, h: usize) -> f64 {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "rect {}x{}+{}+{} exceeds {}x{}",
            w,
            h,
            x,
            y,
            self.width,
            self.height
        );
        let tw = self.width + 1;
        let a = self.table[y * tw + x];
        let b = self.table[y * tw + (x + w)];
        let c = self.table[(y + h) * tw + x];
        let d = self.table[(y + h) * tw + (x + w)];
        d - b - c + a
    }
}

/// Per-window mean and standard deviation computed from a plain/squared
/// integral-image pair — the normalization statistics Viola-Jones applies
/// to every scanned window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Mean intensity of the window.
    pub mean: f64,
    /// Standard deviation of the window (clamped to a small positive
    /// minimum so flat windows do not divide by zero).
    pub stddev: f64,
}

/// Computes [`WindowStats`] for the given window.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::Image;
/// use incam_imaging::integral::{window_stats, IntegralImage};
///
/// let img = Image::from_fn(4, 1, |x, _| x as f32); // 0 1 2 3
/// let ii = IntegralImage::new(&img);
/// let sq = IntegralImage::squared(&img);
/// let stats = window_stats(&ii, &sq, 0, 0, 4, 1);
/// assert!((stats.mean - 1.5).abs() < 1e-9);
/// assert!((stats.stddev - 1.118).abs() < 1e-3);
/// ```
pub fn window_stats(
    ii: &IntegralImage,
    sq: &IntegralImage,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
) -> WindowStats {
    let n = (w * h) as f64;
    let mean = ii.rect_sum(x, y, w, h) / n;
    let var = (sq.rect_sum(x, y, w, h) / n - mean * mean).max(0.0);
    WindowStats {
        mean,
        stddev: var.sqrt().max(1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sum(img: &GrayImage, x: usize, y: usize, w: usize, h: usize) -> f64 {
        let mut s = 0.0;
        for yy in y..y + h {
            for xx in x..x + w {
                s += img.get(xx, yy) as f64;
            }
        }
        s
    }

    #[test]
    fn matches_naive_sums() {
        let img = Image::from_fn(7, 5, |x, y| ((x * 31 + y * 17) % 13) as f32 / 13.0);
        let ii = IntegralImage::new(&img);
        for (x, y, w, h) in [(0, 0, 7, 5), (1, 1, 3, 2), (6, 4, 1, 1), (0, 2, 7, 1)] {
            let expected = naive_sum(&img, x, y, w, h);
            assert!(
                (ii.rect_sum(x, y, w, h) - expected).abs() < 1e-9,
                "rect {x},{y},{w},{h}"
            );
        }
    }

    #[test]
    fn squared_integral() {
        let img = Image::from_vec(2, 1, vec![2.0f32, 3.0]);
        let sq = IntegralImage::squared(&img);
        assert!((sq.rect_sum(0, 0, 2, 1) - 13.0).abs() < 1e-9);
    }

    #[test]
    fn window_stats_flat_window() {
        let img = GrayImage::new(4, 4, 0.5);
        let ii = IntegralImage::new(&img);
        let sq = IntegralImage::squared(&img);
        let stats = window_stats(&ii, &sq, 0, 0, 4, 4);
        assert!((stats.mean - 0.5).abs() < 1e-9);
        assert!(stats.stddev > 0.0 && stats.stddev < 1e-5);
    }

    #[test]
    #[should_panic(expected = "rect")]
    fn out_of_bounds_rect_panics() {
        let ii = IntegralImage::new(&GrayImage::zeros(4, 4));
        let _ = ii.rect_sum(2, 2, 4, 4);
    }

    #[test]
    fn empty_rect_is_zero() {
        let ii = IntegralImage::new(&GrayImage::new(3, 3, 1.0));
        assert_eq!(ii.rect_sum(1, 1, 0, 0), 0.0);
    }
}
