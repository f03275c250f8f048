//! The verify request path in reused scratch against the allocating
//! formulations it replaced, bit for bit: `align_face_into` against
//! `align_face_reference`, and `EmbeddingHead::embed_into` against
//! `EmbeddingHead::embed_reference` (preprocess → `Mlp::forward` →
//! debias → normalize).

use std::cell::RefCell;
use std::sync::OnceLock;

use incam_auth::align::{
    align_face, align_face_into, align_face_reference, canonical_eyes, AlignScratch, EyeLandmarks,
};
use incam_auth::embed::{EmbedError, EmbedScratch, EmbeddingHead};
use incam_auth::space::WINDOW_SIDE;
use incam_imaging::faces::{render_face, Identity, Nuisance};
use incam_imaging::image::{GrayImage, Image};
use incam_rng::prelude::*;
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};

thread_local! {
    /// One scratch per path that every case reuses, so each case starts
    /// from buffers a probe, window or network of another size left.
    static ALIGN: RefCell<AlignScratch> = RefCell::new(AlignScratch::default());
    static EMBED: RefCell<EmbedScratch> = RefCell::new(EmbedScratch::default());
}

/// A seeded head shared by every case: building one renders and aligns
/// sixteen faces.
fn head() -> &'static EmbeddingHead {
    static HEAD: OnceLock<EmbeddingHead> = OnceLock::new();
    HEAD.get_or_init(|| EmbeddingHead::new(WINDOW_SIDE, 2017))
}

/// Eye landmarks whose similarity fit to the canonical pose of a
/// `side`-wide window has magnification `scale` and rotation `angle`,
/// centred on `(cx, cy)`.
fn eyes_at(cx: f32, cy: f32, scale: f32, angle: f32, side: usize) -> EyeLandmarks {
    let half = 0.5 * scale * canonical_eyes(side).eye_distance();
    let (dx, dy) = (angle.cos() * half, angle.sin() * half);
    EyeLandmarks {
        left: (cx - dx, cy - dy),
        right: (cx + dx, cy + dy),
    }
}

proptest! {
    /// Alignment into reused scratch gives the reference's error or a
    /// bit-identical window: non-square probes of 8–64 px per side,
    /// magnifications below 1 (no blur), between 1 and 8, and out of
    /// range, rotations up to ±0.6 rad, and eye centres placed so the
    /// warp samples past every edge of the probe. The allocating
    /// wrapper `align_face` agrees too.
    #[test]
    fn align_face_into_bitwise_equal_reference(
        dims in (8usize..=64, 8usize..=64),
        side in 5usize..=32,
        scale_class in 0u8..3,
        t in 0.0f32..1.0,
        angle in -0.6f32..0.6,
        centre in (-0.25f32..1.25, -0.25f32..1.25),
        seed in 0u64..10_000,
    ) {
        let (w, h) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let probe = Image::from_fn(w, h, |_, _| rng.gen_range(-0.2f32..1.2));
        let scale = match scale_class {
            0 => 0.3 + 0.7 * t,
            1 => 1.0 + 7.0 * t,
            _ => 8.5 + 8.0 * t,
        };
        let landmarks = eyes_at(centre.0 * w as f32, centre.1 * h as f32, scale, angle, side);
        let reference = align_face_reference(&probe, &landmarks, side);
        let fast = ALIGN.with_borrow_mut(|scratch| {
            align_face_into(&probe, &landmarks, side, scratch).map(<[f32]>::to_vec)
        });
        match (&fast, &reference) {
            (Ok(window), Ok(reference)) => {
                prop_assert_eq!(window.len(), reference.len());
                for (a, b) in window.iter().zip(reference.pixels()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}x{} scale {}", w, h, scale);
                }
            }
            (fast, reference) => prop_assert_eq!(fast.as_ref().err(), reference.as_ref().err()),
        }
        prop_assert_eq!(
            align_face(&probe, &landmarks, side).map(|w| w.to_vec_f32()),
            reference.map(|w| w.to_vec_f32())
        );
    }

    /// Embedding into reused scratch is bit-identical to the reference
    /// embed, on aligned renders of random identities under nuisance and
    /// on raw pixel noise.
    #[test]
    fn embed_into_bitwise_equal_reference(
        aligned in any::<bool>(),
        nuisance in 0.0f32..0.8,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let window = if aligned {
            let id = Identity::sample(&mut rng);
            let n = Nuisance::sample(&mut rng, nuisance);
            let image = render_face(&id, &n, 48, &mut rng);
            let landmarks = EyeLandmarks::from_render_geometry(&id, &n, 48);
            match align_face(&image, &landmarks, WINDOW_SIDE) {
                Ok(window) => window,
                Err(_) => return,
            }
        } else {
            Image::from_fn(WINDOW_SIDE, WINDOW_SIDE, |_, _| rng.gen_range(0.0f32..1.0))
        };
        let fast = EMBED.with_borrow_mut(|scratch| head().embed_into(window.pixels(), scratch));
        let reference = head().embed_reference(&window);
        match (&fast, &reference) {
            (Ok(a), Ok(b)) => {
                for (x, y) in a.components().iter().zip(b.components()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => prop_assert_eq!(fast, reference),
        }
        prop_assert_eq!(head().embed(&window), reference);
    }
}

#[test]
fn embed_batch_reports_a_wrong_size_window_next_to_a_valid_one() {
    let valid = GrayImage::from_fn(WINDOW_SIDE, WINDOW_SIDE, |x, y| {
        ((x * 7 + y * 3) % 11) as f32 / 11.0
    });
    let wrong = GrayImage::zeros(WINDOW_SIDE + 1, WINDOW_SIDE);
    let expected = Err(EmbedError::BadWindow {
        expected: WINDOW_SIDE * WINDOW_SIDE,
        got: (WINDOW_SIDE + 1) * WINDOW_SIDE,
    });
    assert_eq!(
        head().embed_batch(&[valid.clone(), wrong.clone()]),
        expected
    );
    assert_eq!(head().embed_batch(&[wrong, valid.clone()]), expected);
    let single = head().embed(&valid).expect("a textured window embeds");
    assert_eq!(head().embed_batch(&[valid]), Ok(vec![single]));
}
