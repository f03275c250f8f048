//! Frame-differencing motion detection.
//!
//! The paper's face-authentication pipeline uses motion detection as its
//! first *optional* block: it runs on every frame but costs almost nothing,
//! and when the scene is static it prevents the expensive face-detection
//! and NN-authentication blocks from running at all. That progressive
//! filtering is the headline energy optimization of the low-power case
//! study.

use crate::image::GrayImage;

/// A simple frame-differencing motion detector with a reference frame.
///
/// A pixel is *changed* if its absolute difference from the reference
/// exceeds `pixel_threshold`; the frame contains *motion* if the fraction
/// of changed pixels exceeds `area_threshold`. The reference is updated to
/// each observed frame (previous-frame differencing), matching the
/// streaming, constant-memory implementation an in-sensor ASIC would use.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::GrayImage;
/// use incam_imaging::motion::MotionDetector;
///
/// let mut md = MotionDetector::new(0.1, 0.02);
/// let dark = GrayImage::new(8, 8, 0.2);
/// let bright = GrayImage::new(8, 8, 0.8);
/// assert!(!md.observe(&dark));  // first frame: no reference yet
/// assert!(!md.observe(&dark));  // unchanged scene
/// assert!(md.observe(&bright)); // scene changed
/// ```
#[derive(Debug, Clone)]
pub struct MotionDetector {
    pixel_threshold: f32,
    area_threshold: f32,
    reference: Option<GrayImage>,
}

impl MotionDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is outside `[0, 1]`.
    pub fn new(pixel_threshold: f32, area_threshold: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&pixel_threshold),
            "pixel threshold must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&area_threshold),
            "area threshold must be in [0, 1]"
        );
        Self {
            pixel_threshold,
            area_threshold,
            reference: None,
        }
    }

    /// Per-pixel change threshold.
    pub fn pixel_threshold(&self) -> f32 {
        self.pixel_threshold
    }

    /// Changed-area fraction required to report motion.
    pub fn area_threshold(&self) -> f32 {
        self.area_threshold
    }

    /// Observes a frame, returning `true` if motion is detected relative to
    /// the previous frame. The first frame never reports motion. Later
    /// frames are copied into the held reference, so only the first frame
    /// after [`MotionDetector::new`] or [`MotionDetector::reset`] allocates.
    ///
    /// # Panics
    ///
    /// Panics if the frame's dimensions differ from the reference's.
    pub fn observe(&mut self, frame: &GrayImage) -> bool {
        let motion = match &self.reference {
            None => false,
            Some(reference) => self.changed_fraction(reference, frame) > self.area_threshold,
        };
        match &mut self.reference {
            Some(reference) => reference.pixels_mut().copy_from_slice(frame.pixels()),
            None => self.reference = Some(frame.clone()),
        }
        motion
    }

    /// Fraction of pixels whose change exceeds the pixel threshold.
    fn changed_fraction(&self, reference: &GrayImage, frame: &GrayImage) -> f32 {
        assert_eq!(
            reference.dims(),
            frame.dims(),
            "frame dimensions changed mid-stream"
        );
        let changed = reference
            .pixels()
            .iter()
            .zip(frame.pixels())
            .filter(|(a, b)| (**a - **b).abs() > self.pixel_threshold)
            .count();
        changed as f32 / frame.len() as f32
    }

    /// Resets the detector, forgetting the reference frame.
    pub fn reset(&mut self) {
        self.reference = None;
    }

    /// Number of fundamental operations per frame (one subtract/compare per
    /// pixel plus the area accumulation) — used by the energy model.
    pub fn ops_per_frame(width: usize, height: usize) -> u64 {
        (width * height) as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    #[test]
    fn static_scene_no_motion() {
        let mut md = MotionDetector::new(0.05, 0.01);
        let frame = Image::from_fn(16, 16, |x, y| ((x + y) % 7) as f32 / 7.0);
        assert!(!md.observe(&frame));
        for _ in 0..5 {
            assert!(!md.observe(&frame));
        }
    }

    #[test]
    fn localized_change_respects_area_threshold() {
        let mut md = MotionDetector::new(0.1, 0.05);
        let quiet = GrayImage::new(10, 10, 0.5);
        md.observe(&quiet);
        // 4 of 100 pixels change: below the 5% area threshold
        let mut small = quiet.clone();
        for i in 0..4 {
            small.set(i, 0, 1.0);
        }
        assert!(!md.observe(&small));
        // 10 more pixels change relative to `small`
        let mut big = small.clone();
        for i in 0..10 {
            big.set(i, 5, 1.0);
        }
        assert!(md.observe(&big));
    }

    #[test]
    fn reference_updates_each_frame() {
        let mut md = MotionDetector::new(0.1, 0.01);
        let a = GrayImage::new(8, 8, 0.1);
        let b = GrayImage::new(8, 8, 0.9);
        md.observe(&a);
        assert!(md.observe(&b)); // a -> b is motion
        assert!(!md.observe(&b)); // b -> b is not
    }

    #[test]
    fn reset_forgets_reference() {
        let mut md = MotionDetector::new(0.1, 0.01);
        let a = GrayImage::new(4, 4, 0.0);
        let b = GrayImage::new(4, 4, 1.0);
        md.observe(&a);
        md.reset();
        assert!(!md.observe(&b)); // first frame after reset
    }

    #[test]
    fn ops_scale_with_pixels() {
        assert_eq!(MotionDetector::ops_per_frame(10, 10), 200);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn dimension_change_panics() {
        let mut md = MotionDetector::new(0.1, 0.01);
        md.observe(&GrayImage::zeros(4, 4));
        md.observe(&GrayImage::zeros(5, 5));
    }
}
