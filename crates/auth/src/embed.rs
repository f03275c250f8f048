//! Embedding head: aligned face window → L2-normalized feature vector.
//!
//! The head is a small random-projection MLP on [`incam_nn::Mlp`] —
//! random (seeded) hidden layers act as a locality-sensitive projection
//! of the pixel window, which is enough for the synthetic renderer's
//! identity manifold and keeps the head fully deterministic without a
//! training loop in the serving path. The network is packed once at
//! construction ([`Mlp::pack`]) and shared by every clone of the head;
//! [`EmbeddingHead::embed_into`] runs mean-face and DC removal, the
//! packed forward pass and the debias in an [`EmbedScratch`] the caller
//! reuses, so only the returned [`Embedding`] allocates.
//! [`EmbeddingHead::embed_reference`] keeps the allocating formulation
//! (through [`Mlp::forward`]) as its bitwise oracle.
//!
//! Embeddings are unit-normalized at construction; matching is a plain
//! dot product (cosine similarity). A window whose activation collapses
//! to the zero vector cannot be normalized and returns [`EmbedError`] —
//! the service maps that to a fail-closed fallback rather than
//! matching against garbage.

use crate::align::{align_face, EyeLandmarks};
use incam_imaging::faces::{render_face, Identity, Nuisance};
use incam_imaging::image::GrayImage;
use incam_nn::mlp::{ActivationBuffers, PackedMlp};
use incam_nn::{Mlp, Sigmoid, Topology};
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use std::sync::Arc;

/// Why an embedding could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedError {
    /// Input window size does not match the head's expected side.
    BadWindow {
        /// Pixels the head expects.
        expected: usize,
        /// Pixels actually supplied.
        got: usize,
    },
    /// The head produced a zero or non-finite vector — nothing to
    /// normalize, nothing safe to match.
    DegenerateVector,
}

impl core::fmt::Display for EmbedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EmbedError::BadWindow { expected, got } => {
                write!(f, "bad embed window: expected {expected} px, got {got}")
            }
            EmbedError::DegenerateVector => write!(f, "degenerate embedding vector"),
        }
    }
}

/// A unit-norm feature vector for one aligned face window.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(Vec<f32>);

impl Embedding {
    /// Normalizes `raw` onto the unit sphere.
    ///
    /// # Errors
    ///
    /// [`EmbedError::DegenerateVector`] when the norm is zero, tiny, or
    /// non-finite.
    pub fn from_raw(raw: Vec<f32>) -> Result<Self, EmbedError> {
        let norm_sq: f32 = raw.iter().map(|v| v * v).sum();
        if !norm_sq.is_finite() || norm_sq < 1e-12 {
            return Err(EmbedError::DegenerateVector);
        }
        let inv = norm_sq.sqrt().recip();
        Ok(Self(raw.into_iter().map(|v| v * inv).collect()))
    }

    /// The normalized components.
    pub fn components(&self) -> &[f32] {
        &self.0
    }

    /// Cosine similarity with another embedding (both unit norm, so
    /// this is the dot product), in [-1, 1].
    pub fn cosine(&self, other: &Embedding) -> f32 {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Dimensionality of the feature space.
    pub fn dim(&self) -> usize {
        self.0.len()
    }
}

/// Feature dimensionality of the default head.
pub const EMBED_DIM: usize = 32;

/// Hidden width of the default head.
pub const HIDDEN_DIM: usize = 64;

/// Identities sampled into the mean-face template at head construction.
const MEAN_FACE_SAMPLES: usize = 16;

/// Deterministic embedding head: `side² → 64 → 32` MLP with seeded
/// random weights, evaluated with the exact sigmoid.
#[derive(Debug, Clone)]
pub struct EmbeddingHead {
    mlp: Mlp,
    /// `mlp` packed once; clones share it.
    packed: Arc<PackedMlp>,
    side: usize,
    sigmoid: Sigmoid,
    baseline: Vec<f32>,
    mean_face: Vec<f32>,
}

impl EmbeddingHead {
    /// Builds the head for `side × side` aligned windows from `seed`.
    /// The same `(side, seed)` always yields the same weights.
    pub fn new(side: usize, seed: u64) -> Self {
        assert!(side > 0, "embed window side must be nonzero");
        let topology = Topology::new(vec![side * side, HIDDEN_DIM, EMBED_DIM]);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE3BE_DD1C_FACE_0001);
        let mlp = Mlp::random(topology, &mut rng);
        let sigmoid = Sigmoid::Exact;
        // the head's response to a flat (all-zero centered) window: a
        // bias-driven common-mode vector shared by every embedding;
        // subtracting it keeps impostor cosines honest
        let baseline = mlp.forward(&vec![0.0; side * side], &sigmoid);
        let mean_face = mean_face(side, &mut rng);
        Self {
            packed: Arc::new(mlp.pack()),
            mlp,
            side,
            sigmoid,
            baseline,
            mean_face,
        }
    }

    /// Side length of the aligned windows this head consumes.
    pub fn side(&self) -> usize {
        self.side
    }

    /// The underlying network (for cost-model sizing).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Embeds one aligned window: [`EmbeddingHead::embed_into`] with a
    /// fresh scratch.
    ///
    /// # Errors
    ///
    /// [`EmbedError::BadWindow`] on a size mismatch,
    /// [`EmbedError::DegenerateVector`] if normalization fails.
    pub fn embed(&self, window: &GrayImage) -> Result<Embedding, EmbedError> {
        self.embed_into(window.pixels(), &mut EmbedScratch::default())
    }

    /// Embeds a batch of aligned windows through one reused scratch. Any
    /// window failing size or normalization checks fails the whole batch —
    /// callers embed per-request batches, so one bad probe must not be
    /// silently dropped. Every window's size is checked before any is
    /// embedded, so a size error wins over a normalization error.
    ///
    /// # Errors
    ///
    /// The first [`EmbedError::BadWindow`] across the batch, else the
    /// first [`EmbedError::DegenerateVector`].
    pub fn embed_batch(&self, windows: &[GrayImage]) -> Result<Vec<Embedding>, EmbedError> {
        for window in windows {
            self.check_window(window.pixels())?;
        }
        let mut scratch = EmbedScratch::default();
        windows
            .iter()
            .map(|window| self.embed_into(window.pixels(), &mut scratch))
            .collect()
    }

    /// Embeds one row-major aligned window in caller-owned buffers:
    /// mean-face and DC removal, the packed forward pass and the debias
    /// run in `scratch`, so only the returned [`Embedding`] allocates.
    /// Bit-identical to [`EmbeddingHead::embed_reference`].
    ///
    /// # Errors
    ///
    /// [`EmbedError::BadWindow`] on a size mismatch,
    /// [`EmbedError::DegenerateVector`] if normalization fails.
    pub fn embed_into(
        &self,
        window: &[f32],
        scratch: &mut EmbedScratch,
    ) -> Result<Embedding, EmbedError> {
        self.check_window(window)?;
        let EmbedScratch { input, buffers } = scratch;
        input.clear();
        input.extend(window.iter().zip(&self.mean_face).map(|(p, m)| p - m));
        let mean = input.iter().sum::<f32>() / input.len() as f32;
        for v in input.iter_mut() {
            *v -= mean;
        }
        Embedding::from_raw(self.debias(self.packed.forward_into(input, &self.sigmoid, buffers)))
    }

    /// The original allocating embed (preprocess into a new `Vec`,
    /// [`Mlp::forward`], debias, normalize) — the bitwise oracle for
    /// [`EmbeddingHead::embed_into`].
    ///
    /// # Errors
    ///
    /// As [`EmbeddingHead::embed`].
    pub fn embed_reference(&self, window: &GrayImage) -> Result<Embedding, EmbedError> {
        self.check_window(window.pixels())?;
        let input = self.preprocess(window);
        Embedding::from_raw(self.debias(&self.mlp.forward(&input, &self.sigmoid)))
    }

    /// Rejects a window whose pixel count is not `side²`.
    fn check_window(&self, window: &[f32]) -> Result<(), EmbedError> {
        let expected = self.side * self.side;
        if window.len() == expected {
            Ok(())
        } else {
            Err(EmbedError::BadWindow {
                expected,
                got: window.len(),
            })
        }
    }

    /// Subtracts the head's flat-window baseline from a raw forward
    /// pass. Raw sigmoids live in (0, 1) and every output carries the
    /// same bias-driven offset; left in place it would pin all
    /// embeddings near one point of the sphere and inflate impostor
    /// cosines.
    fn debias(&self, raw: &[f32]) -> Vec<f32> {
        raw.iter().zip(&self.baseline).map(|(v, b)| v - b).collect()
    }

    /// Turns a window into an MLP input: subtracts the mean face (all
    /// rendered faces share the same gross structure — eyes, mouth,
    /// oval — and a projection of that shared structure would dominate
    /// every embedding and crush identity separation), then removes the
    /// residual DC term so the renderer's gain/offset nuisance cancels.
    fn preprocess(&self, window: &GrayImage) -> Vec<f32> {
        let deltas: Vec<f32> = window
            .pixels()
            .iter()
            .zip(&self.mean_face)
            .map(|(p, m)| p - m)
            .collect();
        let mean = deltas.iter().sum::<f32>() / deltas.len() as f32;
        deltas.into_iter().map(|v| v - mean).collect()
    }
}

/// Reusable buffers for [`EmbeddingHead::embed_into`]: the preprocessed
/// input and the forward pass's activations. One scratch serves heads of
/// any size; it grows to the largest it has seen.
#[derive(Debug, Clone, Default)]
pub struct EmbedScratch {
    input: Vec<f32>,
    buffers: ActivationBuffers,
}

/// The population mean face: `MEAN_FACE_SAMPLES` clean identities
/// rendered, aligned, and averaged pixelwise. Deterministic given the
/// rng state, so the same `(side, seed)` head always subtracts the
/// same template.
fn mean_face(side: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut acc = vec![0.0f32; side * side];
    let mut count = 0u32;
    for _ in 0..MEAN_FACE_SAMPLES {
        let id = Identity::sample(rng);
        let image = render_face(&id, &Nuisance::none(), 48, rng);
        let landmarks = EyeLandmarks::from_render_geometry(&id, &Nuisance::none(), 48);
        let Ok(window) = align_face(&image, &landmarks, side) else {
            continue;
        };
        for (a, p) in acc.iter_mut().zip(window.pixels()) {
            *a += p;
        }
        count += 1;
    }
    if count > 0 {
        let inv = 1.0 / count as f32;
        for a in &mut acc {
            *a *= inv;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{align_face, EyeLandmarks};
    use incam_imaging::faces::{render_face, Identity, Nuisance};
    use incam_rng::Rng;

    const SIDE: usize = 20;

    fn aligned_window(id: &Identity, nuisance: &Nuisance, rng: &mut impl Rng) -> GrayImage {
        let img = render_face(id, nuisance, 48, rng);
        let lm = EyeLandmarks::from_render_geometry(id, nuisance, 48);
        align_face(&img, &lm, SIDE).unwrap()
    }

    #[test]
    fn embeddings_are_unit_norm_and_deterministic() {
        let head = EmbeddingHead::new(SIDE, 7);
        let mut rng = StdRng::seed_from_u64(5);
        let id = Identity::sample(&mut rng);
        let win = aligned_window(&id, &Nuisance::none(), &mut rng);
        let a = head.embed(&win).unwrap();
        let b = head.embed(&win).unwrap();
        assert_eq!(a, b);
        let norm: f32 = a.components().iter().map(|v| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(a.dim(), EMBED_DIM);
    }

    #[test]
    fn batch_matches_single() {
        let head = EmbeddingHead::new(SIDE, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let wins: Vec<GrayImage> = (0..5)
            .map(|_| {
                let id = Identity::sample(&mut rng);
                aligned_window(&id, &Nuisance::none(), &mut rng)
            })
            .collect();
        let batch = head.embed_batch(&wins).unwrap();
        for (w, e) in wins.iter().zip(&batch) {
            assert_eq!(head.embed(w).unwrap(), *e);
        }
    }

    #[test]
    fn same_identity_scores_above_impostors() {
        // The separation the matcher depends on: genuine pairs under
        // moderate nuisance must score above cross-identity pairs on
        // average, with a usable margin.
        let head = EmbeddingHead::new(SIDE, 7);
        let mut rng = StdRng::seed_from_u64(2017);
        let mut genuine = Vec::new();
        let mut impostor = Vec::new();
        for _ in 0..12 {
            let id = Identity::sample(&mut rng);
            let other = Identity::sample(&mut rng);
            let base = head
                .embed(&aligned_window(&id, &Nuisance::none(), &mut rng))
                .unwrap();
            let n = Nuisance::sample(&mut rng, 0.5);
            let probe = head.embed(&aligned_window(&id, &n, &mut rng)).unwrap();
            let fake = head
                .embed(&aligned_window(&other, &Nuisance::none(), &mut rng))
                .unwrap();
            genuine.push(base.cosine(&probe));
            impostor.push(base.cosine(&fake));
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let (g, i) = (mean(&genuine), mean(&impostor));
        assert!(
            g > i + 0.1,
            "no identity separation: genuine {g:.3} vs impostor {i:.3}"
        );
    }

    #[test]
    fn bad_window_and_degenerate_vectors_refused() {
        let head = EmbeddingHead::new(SIDE, 7);
        let wrong = GrayImage::zeros(SIDE + 1, SIDE);
        assert!(matches!(
            head.embed(&wrong),
            Err(EmbedError::BadWindow { .. })
        ));
        assert_eq!(
            Embedding::from_raw(vec![0.0; EMBED_DIM]),
            Err(EmbedError::DegenerateVector)
        );
        assert_eq!(
            Embedding::from_raw(vec![f32::NAN; EMBED_DIM]),
            Err(EmbedError::DegenerateVector)
        );
        // the mean face centres to the all-zero input, whose debiased
        // output is the zero vector; a batch reports the size error first
        let flat = GrayImage::from_vec(SIDE, SIDE, head.mean_face.clone());
        assert_eq!(head.embed(&flat), Err(EmbedError::DegenerateVector));
        assert!(matches!(
            head.embed_batch(&[flat, wrong]),
            Err(EmbedError::BadWindow { .. })
        ));
    }
}
