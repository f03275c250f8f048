//! A minimal, dense, row-major image container.
//!
//! [`Image<T>`] is the pixel substrate shared by every vision component in
//! the workspace: integral images, Haar features, bilateral grids, quality
//! metrics and the synthetic workload generators all operate on it. It is a
//! deliberately simple `Vec`-backed buffer with bounds-checked accessors and
//! a handful of bulk operations; per-algorithm logic lives in the algorithm
//! modules.

use core::fmt;

/// A dense, row-major 2-D image with pixels of type `T`.
///
/// Most of the workspace uses `Image<f32>` with intensities in `[0, 1]`
/// (the [`GrayImage`] alias); raw sensor models use `Image<u8>`/`Image<u16>`.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::Image;
///
/// let mut img = Image::new(4, 3, 0.0f32);
/// img.set(2, 1, 0.5);
/// assert_eq!(img.get(2, 1), 0.5);
/// assert_eq!(img.width(), 4);
/// assert_eq!(img.len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

/// Grayscale floating-point image with intensities nominally in `[0, 1]`.
pub type GrayImage = Image<f32>;

impl<T: Copy> Image<T> {
    /// Creates an image filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows or either dimension is zero.
    pub fn new(width: usize, height: usize, fill: T) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow"); // incam-lint: allow(fallible-unwrap) — dimension overflow is a construction bug worth aborting on
        Self {
            width,
            height,
            data: vec![fill; len],
        }
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    ///
    /// # Examples
    ///
    /// ```
    /// use incam_imaging::image::Image;
    /// let ramp = Image::from_fn(3, 2, |x, y| (x + y) as f32);
    /// assert_eq!(ramp.get(2, 1), 3.0);
    /// ```
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major pixel buffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert_eq!(
            data.len(),
            width * height,
            "buffer length {} does not match {}x{}",
            data.len(),
            width,
            height
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: images have nonzero dimensions by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Reads the pixel at `(x, y)`, or `None` if out of bounds.
    #[inline]
    pub fn try_get(&self, x: usize, y: usize) -> Option<T> {
        (x < self.width && y < self.height).then(|| self.data[y * self.width + x])
    }

    /// Reads the pixel at `(x, y)` with coordinates clamped into bounds —
    /// the standard replicate border policy used by the filters here.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: T) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// The raw row-major pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the raw row-major pixel buffer.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One row of pixels.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Applies `f` to every pixel, producing a new image.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| f(p)).collect(),
        }
    }

    /// Extracts a `w × h` sub-image with top-left corner `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit within the image.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Image<T> {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "crop {}x{}+{}+{} exceeds {}x{}",
            w,
            h,
            x,
            y,
            self.width,
            self.height
        );
        Image::from_fn(w, h, |cx, cy| self.get(x + cx, y + cy))
    }

    /// Overwrites all pixels with `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }
}

impl GrayImage {
    /// Creates a black (all-zero) grayscale image.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self::new(width, height, 0.0)
    }

    /// Mean intensity.
    pub fn mean(&self) -> f32 {
        let sum: f64 = self.data.iter().map(|&p| p as f64).sum();
        (sum / self.data.len() as f64) as f32
    }

    /// Population variance of intensity.
    pub fn variance(&self) -> f32 {
        let mean = self.mean() as f64;
        let var: f64 = self
            .data
            .iter()
            .map(|&p| {
                let d = p as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64;
        var as f32
    }

    /// Minimum and maximum intensity.
    pub fn min_max(&self) -> (f32, f32) {
        self.data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &p| {
                (lo.min(p), hi.max(p))
            })
    }

    /// Clamps every pixel into `[0, 1]`.
    pub fn clamp01(&mut self) {
        for p in &mut self.data {
            *p = p.clamp(0.0, 1.0);
        }
    }

    /// Normalizes the image to zero mean and unit variance. Constant images
    /// map to all zeros.
    pub fn normalized(&self) -> GrayImage {
        let mean = self.mean();
        let sd = self.variance().sqrt();
        if sd <= f32::EPSILON {
            return GrayImage::zeros(self.width, self.height);
        }
        self.map(|p| (p - mean) / sd)
    }

    /// Quantizes to 8-bit pixels (clamping into `[0, 1]` first).
    pub fn to_u8(&self) -> Image<u8> {
        self.map(|p| (p.clamp(0.0, 1.0) * 255.0).round() as u8)
    }

    /// Flattens the image to a row-major `f32` feature vector (used as NN
    /// input).
    pub fn to_vec_f32(&self) -> Vec<f32> {
        self.data.clone()
    }
}

impl Image<u8> {
    /// Converts an 8-bit image to floating point in `[0, 1]`.
    pub fn to_gray(&self) -> GrayImage {
        self.map(|p| p as f32 / 255.0)
    }
}

impl<T> fmt::Display for Image<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Image({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = Image::new(3, 2, 1u8);
        assert_eq!(img.dims(), (3, 2));
        assert_eq!(img.len(), 6);
        img.set(0, 1, 7);
        assert_eq!(img.get(0, 1), 7);
        assert_eq!(img.try_get(3, 0), None);
        assert_eq!(img.try_get(2, 1), Some(1));
    }

    #[test]
    fn from_fn_row_major() {
        let img = Image::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(img.pixels(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(img.row(1), &[10, 11, 12]);
    }

    #[test]
    fn clamped_border_access() {
        let img = Image::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(img.get_clamped(-5, -5), 0.0);
        assert_eq!(img.get_clamped(10, 10), 3.0);
        assert_eq!(img.get_clamped(1, 0), 1.0);
    }

    #[test]
    fn crop_extracts_window() {
        let img = Image::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let c = img.crop(1, 2, 2, 2);
        assert_eq!(c.pixels(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "crop")]
    fn crop_out_of_bounds_panics() {
        let img = GrayImage::zeros(4, 4);
        let _ = img.crop(3, 3, 2, 2);
    }

    #[test]
    fn statistics() {
        let img = Image::from_vec(2, 2, vec![0.0f32, 1.0, 0.0, 1.0]);
        assert!((img.mean() - 0.5).abs() < 1e-6);
        assert!((img.variance() - 0.25).abs() < 1e-6);
        assert_eq!(img.min_max(), (0.0, 1.0));
    }

    #[test]
    fn normalization_zero_mean_unit_var() {
        let img = Image::from_vec(2, 2, vec![0.0f32, 2.0, 0.0, 2.0]);
        let n = img.normalized();
        assert!(n.mean().abs() < 1e-6);
        assert!((n.variance() - 1.0).abs() < 1e-5);
        // constant image normalizes to zeros rather than NaN
        let flat = GrayImage::new(2, 2, 0.7);
        assert_eq!(flat.normalized().pixels(), &[0.0; 4]);
    }

    #[test]
    fn u8_round_trip() {
        let img = Image::from_vec(2, 1, vec![0.25f32, 1.5]);
        let q = img.to_u8();
        assert_eq!(q.pixels(), &[64, 255]);
        let back = q.to_gray();
        assert!((back.get(0, 0) - 0.251).abs() < 0.01);
    }

    #[test]
    fn map_changes_type() {
        let img = Image::new(2, 2, 2u8);
        let doubled: Image<u16> = img.map(|p| p as u16 * 2);
        assert_eq!(doubled.get(1, 1), 4);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_rejected() {
        let _ = Image::new(0, 5, 0u8);
    }

    #[test]
    #[should_panic(expected = "image dimensions must be nonzero")]
    fn from_vec_rejects_zero_dimension() {
        let _ = Image::<f32>::from_vec(0, 48, Vec::new());
    }
}
