//! Eye-landmark face alignment: similarity transform + bilinear warp.
//!
//! Verification compares a probe face against enrolled templates, so both
//! must be brought into a *canonical pose* first: the two eye centers are
//! mapped onto fixed canonical positions by a four-parameter similarity
//! transform (rotation + uniform scale + translation), and the probe is
//! resampled through that transform with a bilinear warp. Downscaling
//! warps are pre-smoothed with a Gaussian blur so decimation does not
//! alias — the same resample discipline as
//! [`incam_imaging::resample::resize_bilinear`], whose pixel-center
//! convention the warp follows exactly.
//!
//! [`align_face_into`] is the serving path: it writes the Gaussian taps,
//! the blurred probe ([`convolve_separable_into`]) and the warped window
//! into an [`AlignScratch`] the caller reuses, so a steady-state
//! alignment allocates nothing. [`align_face`] wraps it with a fresh
//! scratch; [`align_face_reference`] keeps the allocating
//! blur-then-warp formulation as its bitwise oracle.
//!
//! Alignment is a *fallible* stage: landmarks that are degenerate
//! (coincident eyes, non-finite coordinates) or that imply an extreme
//! rescale return [`AlignError`] instead of a silently wrong window, and
//! the verify service maps that error to a fail-closed `Fallback` — never
//! an `Accept` on a garbage crop.

use incam_imaging::convolve::{
    convolve_separable_into, gaussian_blur, gaussian_kernel_into, SeparableScratch,
};
use incam_imaging::faces::{Identity, Nuisance};
use incam_imaging::image::GrayImage;

/// Detected (or, for the synthetic workload, analytically known) eye
/// centers of a face patch, in pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeLandmarks {
    /// Center of the subject's left eye (viewer's left, smaller x).
    pub left: (f32, f32),
    /// Center of the subject's right eye (viewer's right, larger x).
    pub right: (f32, f32),
}

impl EyeLandmarks {
    /// Inter-ocular distance in pixels.
    pub fn eye_distance(&self) -> f32 {
        let dx = self.right.0 - self.left.0;
        let dy = self.right.1 - self.left.1;
        (dx * dx + dy * dy).sqrt()
    }

    /// The ground-truth eye centers of a face rendered by
    /// [`incam_imaging::faces::render_face`] for `identity` under
    /// `nuisance` on a `size × size` patch — the synthetic workload's
    /// substitute for a landmark detector. Derived from the renderer's
    /// geometry: head center, half-extent, and eye line are all closed
    /// forms of the identity and nuisance parameters.
    pub fn from_render_geometry(identity: &Identity, nuisance: &Nuisance, size: usize) -> Self {
        let s = size as f32;
        let scale = nuisance.scale.clamp(0.6, 1.5);
        let cx = s / 2.0 + nuisance.shift_x;
        let cy = s / 2.0 + nuisance.shift_y;
        let hw = identity.face_width * s / 2.0 * scale;
        let hh = identity.face_height * s / 2.0 * scale;
        let eye_y = cy - hh + 2.0 * hh * identity.eye_y;
        let eye_dx = identity.eye_spacing * hw;
        Self {
            left: (cx - eye_dx, eye_y),
            right: (cx + eye_dx, eye_y),
        }
    }
}

/// Why alignment refused to produce a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignError {
    /// Landmarks are non-finite or the eyes (near-)coincide, so no
    /// similarity transform is defined.
    DegenerateLandmarks,
    /// The implied rescale falls outside the plausible range for a real
    /// face capture — upstream detection almost certainly failed.
    ImplausibleScale,
}

impl core::fmt::Display for AlignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AlignError::DegenerateLandmarks => write!(f, "degenerate eye landmarks"),
            AlignError::ImplausibleScale => write!(f, "implausible alignment scale"),
        }
    }
}

/// Minimum inter-ocular distance (pixels) for a usable similarity fit.
pub const MIN_EYE_DISTANCE: f32 = 2.0;

/// Admissible per-axis magnification range of the warp. A probe whose
/// eyes must be blown up or shrunk beyond this to reach the canonical
/// pose is treated as a detection failure, not stretched heroically.
pub const SCALE_RANGE: (f32, f32) = (0.2, 8.0);

/// Canonical eye positions on an `side × side` aligned window: the eye
/// line sits at 38 % height with 40 % of the width between the eyes —
/// the usual verification crop (forehead trimmed, chin retained).
pub fn canonical_eyes(side: usize) -> EyeLandmarks {
    let s = side as f32;
    EyeLandmarks {
        left: (0.30 * s, 0.38 * s),
        right: (0.70 * s, 0.38 * s),
    }
}

/// A four-parameter similarity transform mapping *canonical* (output)
/// coordinates to *source* (probe) coordinates:
/// `x' = a·x − b·y + tx`, `y' = b·x + a·y + ty`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityTransform {
    /// Cosine-like term (scale × cos θ).
    pub a: f32,
    /// Sine-like term (scale × sin θ).
    pub b: f32,
    /// Translation, x.
    pub tx: f32,
    /// Translation, y.
    pub ty: f32,
}

impl SimilarityTransform {
    /// The exact similarity mapping the canonical eye pair onto the
    /// source landmarks (two point pairs determine all four parameters).
    ///
    /// # Errors
    ///
    /// [`AlignError::DegenerateLandmarks`] if either pair is non-finite
    /// or closer than [`MIN_EYE_DISTANCE`];
    /// [`AlignError::ImplausibleScale`] if the implied magnification
    /// leaves [`SCALE_RANGE`].
    pub fn from_eye_pairs(
        source: &EyeLandmarks,
        canonical: &EyeLandmarks,
    ) -> Result<Self, AlignError> {
        let finite = |p: (f32, f32)| p.0.is_finite() && p.1.is_finite();
        if !(finite(source.left) && finite(source.right)) {
            return Err(AlignError::DegenerateLandmarks);
        }
        if source.eye_distance() < MIN_EYE_DISTANCE || canonical.eye_distance() < MIN_EYE_DISTANCE {
            return Err(AlignError::DegenerateLandmarks);
        }
        let (dx0, dy0) = (
            canonical.right.0 - canonical.left.0,
            canonical.right.1 - canonical.left.1,
        );
        let (dx, dy) = (
            source.right.0 - source.left.0,
            source.right.1 - source.left.1,
        );
        let norm = dx0 * dx0 + dy0 * dy0;
        let a = (dx * dx0 + dy * dy0) / norm;
        let b = (dy * dx0 - dx * dy0) / norm;
        let tx = source.left.0 - (a * canonical.left.0 - b * canonical.left.1);
        let ty = source.left.1 - (b * canonical.left.0 + a * canonical.left.1);
        let transform = Self { a, b, tx, ty };
        let scale = transform.scale();
        if !scale.is_finite() || scale < SCALE_RANGE.0 || scale > SCALE_RANGE.1 {
            return Err(AlignError::ImplausibleScale);
        }
        Ok(transform)
    }

    /// Uniform magnification of the transform (source pixels advanced
    /// per canonical pixel).
    pub fn scale(&self) -> f32 {
        (self.a * self.a + self.b * self.b).sqrt()
    }

    /// Maps a canonical-space point into source coordinates.
    pub fn apply(&self, x: f32, y: f32) -> (f32, f32) {
        (
            self.a * x - self.b * y + self.tx,
            self.b * x + self.a * y + self.ty,
        )
    }
}

/// Gaussian sigma that pre-smooths a warp of magnification `scale`, or
/// `None` when the warp does not decimate. Matched like a mipmap: sigma
/// covers the source footprint of one canonical pixel.
fn antialias_sigma(scale: f32) -> Option<f32> {
    (scale > 1.0).then(|| 0.5 * (scale * scale - 1.0).sqrt())
}

/// Reusable buffers for [`align_face_into`]: the blur's taps, its ring
/// and output, and the warped window. One scratch serves probes and
/// windows of any size; it grows to the largest it has seen.
#[derive(Debug, Clone, Default)]
pub struct AlignScratch {
    taps: Vec<f32>,
    blur: SeparableScratch,
    window: Vec<f32>,
}

/// Aligns a probe face to the `side × side` canonical pose given its eye
/// landmarks, in caller-owned buffers, returning the row-major window.
///
/// Bit-identical to [`align_face_reference`]: the blur is the same fused
/// separable convolution with the same taps, and the warp truncates its
/// source coordinate with `as usize` where the reference calls
/// `floor()`, which is the same integer because the coordinate is
/// clamped to `[0, w − 1]` just before.
///
/// # Errors
///
/// Propagates [`SimilarityTransform::from_eye_pairs`] errors — the
/// caller (the verify service) maps them to a fail-closed fallback.
pub fn align_face_into<'s>(
    probe: &GrayImage,
    landmarks: &EyeLandmarks,
    side: usize,
    scratch: &'s mut AlignScratch,
) -> Result<&'s [f32], AlignError> {
    let transform = SimilarityTransform::from_eye_pairs(landmarks, &canonical_eyes(side))?;
    let AlignScratch { taps, blur, window } = scratch;
    let sampled = match antialias_sigma(transform.scale()) {
        Some(sigma) => {
            gaussian_kernel_into(sigma, taps);
            convolve_separable_into(probe, taps, blur)
        }
        None => probe.pixels(),
    };
    let (w, h) = probe.dims();
    window.clear();
    for y in 0..side {
        for x in 0..side {
            let (fx, fy) = transform.apply(x as f32 + 0.5, y as f32 + 0.5);
            let fx = (fx - 0.5).clamp(0.0, (w - 1) as f32);
            let fy = (fy - 0.5).clamp(0.0, (h - 1) as f32);
            let x0 = fx as usize;
            let y0 = fy as usize;
            let x1 = (x0 + 1).min(w - 1);
            let y1 = (y0 + 1).min(h - 1);
            let tx = fx - x0 as f32;
            let ty = fy - y0 as f32;
            let (r0, r1) = (&sampled[y0 * w..][..w], &sampled[y1 * w..][..w]);
            let top = r0[x0] * (1.0 - tx) + r0[x1] * tx;
            let bot = r1[x0] * (1.0 - tx) + r1[x1] * tx;
            window.push(top * (1.0 - ty) + bot * ty);
        }
    }
    Ok(window)
}

/// Aligns a probe face to the `side × side` canonical pose given its eye
/// landmarks: [`align_face_into`] with a fresh scratch.
///
/// # Errors
///
/// Propagates [`SimilarityTransform::from_eye_pairs`] errors — the
/// caller (the verify service) maps them to a fail-closed fallback.
pub fn align_face(
    probe: &GrayImage,
    landmarks: &EyeLandmarks,
    side: usize,
) -> Result<GrayImage, AlignError> {
    let mut scratch = AlignScratch::default();
    align_face_into(probe, landmarks, side, &mut scratch)?;
    Ok(GrayImage::from_vec(side, side, scratch.window))
}

/// The original allocating alignment (Gaussian blur into a new image,
/// then a `floor`-based bilinear warp into another) — the bitwise oracle
/// for [`align_face_into`] and the "before" side of its microbenchmark.
///
/// # Errors
///
/// Propagates [`SimilarityTransform::from_eye_pairs`] errors.
pub fn align_face_reference(
    probe: &GrayImage,
    landmarks: &EyeLandmarks,
    side: usize,
) -> Result<GrayImage, AlignError> {
    let transform = SimilarityTransform::from_eye_pairs(landmarks, &canonical_eyes(side))?;
    Ok(warp_bilinear(probe, &transform, side))
}

/// Warps `src` through `transform` onto a `side × side` canonical
/// window with clamped bilinear sampling. Downscaling transforms
/// (scale > 1) are pre-smoothed with a Gaussian matched to the
/// decimation factor so the warp does not alias.
fn warp_bilinear(src: &GrayImage, transform: &SimilarityTransform, side: usize) -> GrayImage {
    let smoothed;
    let sampled: &GrayImage = match antialias_sigma(transform.scale()) {
        Some(sigma) => {
            smoothed = gaussian_blur(src, sigma);
            &smoothed
        }
        None => src,
    };
    let (w, h) = sampled.dims();
    GrayImage::from_fn(side, side, |x, y| {
        // sample at the center of the destination pixel (the
        // resize_bilinear convention), then pull back through the map
        let (fx, fy) = transform.apply(x as f32 + 0.5, y as f32 + 0.5);
        let fx = (fx - 0.5).clamp(0.0, (w - 1) as f32);
        let fy = (fy - 0.5).clamp(0.0, (h - 1) as f32);
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let x1 = (x0 + 1).min(w - 1);
        let y1 = (y0 + 1).min(h - 1);
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let top = sampled.get(x0, y0) * (1.0 - tx) + sampled.get(x1, y0) * tx;
        let bot = sampled.get(x0, y1) * (1.0 - tx) + sampled.get(x1, y1) * tx;
        top * (1.0 - ty) + bot * ty
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::faces::render_face;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    fn jittered_nuisance() -> Nuisance {
        Nuisance {
            gain: 1.0,
            offset: 0.0,
            shift_x: 3.0,
            shift_y: -2.0,
            scale: 1.2,
            noise_sigma: 0.0,
        }
    }

    #[test]
    fn transform_maps_canonical_eyes_onto_source_eyes() {
        let source = EyeLandmarks {
            left: (11.0, 19.0),
            right: (30.0, 23.0),
        };
        let canon = canonical_eyes(20);
        let t = SimilarityTransform::from_eye_pairs(&source, &canon).unwrap();
        for (from, to) in [(canon.left, source.left), (canon.right, source.right)] {
            let (x, y) = t.apply(from.0, from.1);
            assert!((x - to.0).abs() < 1e-4 && (y - to.1).abs() < 1e-4);
        }
    }

    #[test]
    fn aligning_cancels_pose_jitter() {
        // The same identity rendered nominally and with shift/scale
        // jitter must land much closer after alignment than before.
        let mut rng = StdRng::seed_from_u64(11);
        let id = Identity::sample(&mut rng);
        let clean = render_face(&id, &Nuisance::none(), 48, &mut rng);
        let jit = jittered_nuisance();
        let moved = render_face(&id, &jit, 48, &mut rng);

        let l1 = |a: &GrayImage, b: &GrayImage| -> f32 {
            a.pixels()
                .iter()
                .zip(b.pixels())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        let raw_gap = l1(&clean, &moved);

        let side = 20;
        let a = align_face(
            &clean,
            &EyeLandmarks::from_render_geometry(&id, &Nuisance::none(), 48),
            side,
        )
        .unwrap();
        let b = align_face(
            &moved,
            &EyeLandmarks::from_render_geometry(&id, &jit, 48),
            side,
        )
        .unwrap();
        let aligned_gap = l1(&a, &b);
        // normalize by pixel count before comparing across resolutions
        let raw = raw_gap / (48.0 * 48.0);
        let aligned = aligned_gap / (side as f32 * side as f32);
        assert!(
            aligned < raw * 0.5,
            "alignment did not help: {aligned} vs {raw}"
        );
    }

    #[test]
    fn degenerate_landmarks_refused() {
        let coincident = EyeLandmarks {
            left: (10.0, 10.0),
            right: (10.5, 10.0),
        };
        assert_eq!(
            SimilarityTransform::from_eye_pairs(&coincident, &canonical_eyes(20)),
            Err(AlignError::DegenerateLandmarks)
        );
        let nan = EyeLandmarks {
            left: (f32::NAN, 10.0),
            right: (20.0, 10.0),
        };
        assert_eq!(
            SimilarityTransform::from_eye_pairs(&nan, &canonical_eyes(20)),
            Err(AlignError::DegenerateLandmarks)
        );
    }

    #[test]
    fn implausible_scale_refused() {
        // eyes 3 px apart mapped onto a 200 px canonical spread: a 66x
        // blow-up, far outside SCALE_RANGE
        let tiny = EyeLandmarks {
            left: (10.0, 10.0),
            right: (13.0, 10.0),
        };
        assert_eq!(
            SimilarityTransform::from_eye_pairs(&tiny, &canonical_eyes(500)),
            Err(AlignError::ImplausibleScale)
        );
    }

    #[test]
    fn warp_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let id = Identity::sample(&mut rng);
        let img = render_face(&id, &jittered_nuisance(), 48, &mut rng);
        let lm = EyeLandmarks::from_render_geometry(&id, &jittered_nuisance(), 48);
        let a = align_face(&img, &lm, 20).unwrap();
        let b = align_face(&img, &lm, 20).unwrap();
        assert_eq!(a.pixels(), b.pixels());
    }

    #[test]
    fn geometry_landmarks_sit_on_dark_eye_pixels() {
        // The analytic landmarks must land inside the rendered eye
        // blobs: the pixel at each landmark is darker than skin.
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let id = Identity::sample(&mut rng);
            let img = render_face(&id, &Nuisance::none(), 48, &mut rng);
            let lm = EyeLandmarks::from_render_geometry(&id, &Nuisance::none(), 48);
            for eye in [lm.left, lm.right] {
                let v = img.get(eye.0.round() as usize, eye.1.round() as usize);
                assert!(
                    v < id.skin_tone - 0.1,
                    "landmark ({}, {}) not on an eye: {v} vs skin {}",
                    eye.0,
                    eye.1,
                    id.skin_tone
                );
            }
        }
    }
}
