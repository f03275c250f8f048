//! Property-based tests of the Viola-Jones components.

use incam_imaging::image::Image;
use incam_imaging::integral::IntegralImage;
use incam_rng::prelude::*;
use incam_viola::cascade::{Cascade, Stage};
use incam_viola::feature::{feature_pool, HaarFeature, HaarKind};
use incam_viola::scan::{
    group_detections, scan, scan_reference, scan_with, Detection, ScanParams, ScanScratch, StepSize,
};
use incam_viola::weak::{alpha_for_error, fit_stump, WeakClassifier};
use std::cell::RefCell;

thread_local! {
    /// One scan scratch that every case of
    /// `compiled_scan_bitwise_equal_reference` reuses, so each scan starts
    /// from integral tables and compiled stumps that an image of another
    /// size, scanned at other scales, left behind.
    static SCAN: RefCell<ScanScratch> = RefCell::new(ScanScratch::default());
}

proptest! {
    /// Every pooled feature fits its base window, and denser strides are
    /// supersets in count.
    #[test]
    fn feature_pool_well_formed(base in 8usize..28, stride in 1usize..5) {
        let pool = feature_pool(base, stride, stride);
        prop_assert!(!pool.is_empty());
        for f in &pool {
            let (w, h) = f.extent();
            prop_assert!(f.x + w <= base && f.y + h <= base);
        }
        if stride > 1 {
            let denser = feature_pool(base, stride - 1, stride - 1);
            prop_assert!(denser.len() >= pool.len());
        }
    }

    /// Haar responses on a constant image are exactly zero (after
    /// normalization they stay zero regardless of stddev).
    #[test]
    fn features_zero_on_flat_images(value in 0.0f32..1.0, idx in 0usize..200) {
        let img = Image::new(16, 16, value);
        let ii = IntegralImage::new(&img);
        let pool = feature_pool(16, 3, 3);
        let f = &pool[idx % pool.len()];
        let v = f.evaluate(&ii, 0, 0, 1.0, 1.0);
        prop_assert!(v.abs() < 1e-4, "kind {:?} -> {v}", f.kind);
    }

    /// IoU is symmetric, bounded, and 1 exactly on identity.
    #[test]
    fn iou_axioms(
        x1 in 0usize..100, y1 in 0usize..100, s1 in 1usize..50,
        x2 in 0usize..100, y2 in 0usize..100, s2 in 1usize..50,
    ) {
        let a = Detection { x: x1, y: y1, side: s1 };
        let b = Detection { x: x2, y: y2, side: s2 };
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    /// Grouping never increases the detection count and every group
    /// average lies within the raw boxes' bounding hull.
    #[test]
    fn grouping_contracts(
        raw in prop::collection::vec(
            (0usize..60, 0usize..60, 4usize..20).prop_map(|(x, y, side)| Detection { x, y, side }),
            0..20,
        )
    ) {
        let grouped = group_detections(&raw, 0.3);
        prop_assert!(grouped.len() <= raw.len());
        if !raw.is_empty() {
            prop_assert!(!grouped.is_empty());
            let min_x = raw.iter().map(|d| d.x).min().unwrap();
            let max_x = raw.iter().map(|d| d.x).max().unwrap();
            for g in &grouped {
                prop_assert!(g.x >= min_x && g.x <= max_x);
            }
        }
    }

    /// Stump fitting never exceeds the trivial error bound
    /// min(total_pos, total_neg), and alpha is antitone in error.
    #[test]
    fn stump_error_bound(
        data in prop::collection::vec((-10.0f64..10.0, any::<bool>()), 2..60),
    ) {
        let responses: Vec<f64> = data.iter().map(|(r, _)| *r).collect();
        let labels: Vec<bool> = data.iter().map(|(_, l)| *l).collect();
        let n = data.len() as f64;
        let weights = vec![1.0 / n; data.len()];
        let fit = fit_stump(&responses, &labels, &weights);
        let pos: f64 = labels.iter().filter(|&&l| l).count() as f64 / n;
        let trivial = pos.min(1.0 - pos);
        prop_assert!(fit.error <= trivial + 1e-9, "err {} trivial {trivial}", fit.error);
        prop_assert!(fit.error >= -1e-12);
    }

    #[test]
    fn alpha_antitone(e1 in 0.01f64..0.49, e2 in 0.01f64..0.49) {
        if e1 < e2 {
            prop_assert!(alpha_for_error(e1) > alpha_for_error(e2));
        }
    }

    /// Adaptive strides are monotone in window size and never zero.
    #[test]
    fn stride_monotone(frac in 0.0f64..1.0, small in 8usize..64) {
        let big = small * 2;
        let s_small = StepSize::Adaptive(frac).stride(small);
        let s_big = StepSize::Adaptive(frac).stride(big);
        prop_assert!(s_small >= 1 && s_big >= s_small);
    }

    /// The compiled flat-offset scan is bit-identical to the original
    /// per-feature coordinate-math scan — raw hits, grouped detections,
    /// and work counters — across random images, scales, and strides.
    /// The cascade exercises every Haar kind; its pool holds features no
    /// stage references, two of them with footprints past the base window
    /// that would clamp at the border; one feature feeds two stumps; its
    /// first stage votes three stumps of mixed polarity, one of them wider
    /// than the base window, so on images narrower than that extent every
    /// window takes the border fallback. Both a fresh scan and `scan_with`
    /// on one scratch reused across every case must match.
    #[test]
    fn compiled_scan_bitwise_equal_reference(
        w in 8usize..48,
        h in 8usize..48,
        scale_factor in 1.2f64..2.0,
        stride in 1usize..5,
        seed in 0u64..5000,
    ) {
        let img = Image::from_fn(w, h, move |x, y| {
            (((x * 31 + y * 17 + seed as usize * 13) % 97) as f32) / 97.0
        });
        let mut features: Vec<HaarFeature> = HaarKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| HaarFeature { kind, x: i % 3, y: i % 2, cell_w: 2, cell_h: 2 })
            .collect();
        let kinds = features.len();
        // 5: unreferenced, clamps in every window of an 8-pixel base.
        features.push(HaarFeature { kind: HaarKind::FourRect, x: 6, y: 6, cell_w: 4, cell_h: 4 });
        // 6: referenced, 10 pixels wide at base scale.
        features.push(HaarFeature {
            kind: HaarKind::TwoRectHorizontal,
            x: 4,
            y: 1,
            cell_w: 3,
            cell_h: 3,
        });
        // 7: unreferenced, 15 pixels tall at base scale.
        features.push(HaarFeature {
            kind: HaarKind::ThreeRectVertical,
            x: 0,
            y: 3,
            cell_w: 5,
            cell_h: 4,
        });
        let stump = |feature: usize, polarity: i8, alpha: f64| WeakClassifier {
            feature,
            threshold: 0.001,
            polarity,
            alpha,
        };
        let mut stages = vec![Stage {
            weak: vec![stump(6, -1, 0.5), stump(0, 1, 0.7), stump(3, -1, 0.4)],
            threshold: 0.6,
        }];
        stages.extend((0..kinds).map(|i| Stage {
            weak: vec![stump(i, if i % 2 == 0 { 1 } else { -1 }, 1.0)],
            threshold: 0.5,
        }));
        let cascade = Cascade::new(features, stages, 8);
        let params = ScanParams {
            scale_factor,
            step: StepSize::Static(stride),
            min_scale: 1.0,
            min_neighbors: 1,
        };
        let reference = scan_reference(&cascade, &img, &params);
        let fresh = scan(&cascade, &img, &params);
        let reused = SCAN.with(|scratch| scan_with(&cascade, &img, &params, &mut scratch.borrow_mut()));
        for fast in [&fresh, &reused] {
            prop_assert_eq!(&fast.raw, &reference.raw);
            prop_assert_eq!(&fast.detections, &reference.detections);
            prop_assert_eq!(&fast.support, &reference.support);
            prop_assert_eq!(fast.stats, reference.stats);
        }
    }
}
