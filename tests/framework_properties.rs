//! Property-based tests on the cross-crate invariants of the framework:
//! cost algebra, integral images, quantization, and the bilateral grid.

use incam::bilateral::grid::{BilateralGrid, GridParams};
use incam::core::block::{Backend, BlockSpec, DataTransform};
use incam::core::explore::{pareto_frontier, Binding, BlockSpace, Configuration, PipelineSpace};
use incam::core::link::Link;
use incam::core::offload::cut_label;
use incam::core::pipeline::{Pipeline, Source, Stage};
use incam::core::units::{Bytes, BytesPerSec, Fps, Joules};
use incam::imaging::image::{GrayImage, Image};
use incam::imaging::integral::IntegralImage;
use incam::nn::quant::QFormat;
use incam_rng::prelude::*;

fn arbitrary_pipeline() -> impl Strategy<Value = Pipeline> {
    let stage = (0.1f64..8.0, 1.0f64..500.0, 0.0f64..10.0).prop_map(|(scale, fps, uj)| {
        Stage::new(
            BlockSpec::core("b", DataTransform::Scale(scale)),
            Backend::Cpu,
            Fps::new(fps),
        )
        .with_energy_per_frame(Joules::from_micro(uj))
    });
    (
        1.0f64..1e8,
        1.0f64..200.0,
        prop::collection::vec(stage, 0..5),
    )
        .prop_map(|(bytes, cap, stages)| {
            let mut p = Pipeline::new(Source::new("s", Bytes::new(bytes), Fps::new(cap)));
            for s in stages {
                p.push(s);
            }
            p
        })
}

fn arbitrary_space() -> impl Strategy<Value = PipelineSpace> {
    let binding = (1.0f64..500.0, 0.0f64..10.0).prop_map(|(fps, uj)| {
        Binding::new(Backend::Cpu, Fps::new(fps)).with_energy_per_frame(Joules::from_micro(uj))
    });
    let block =
        (0.1f64..8.0, prop::collection::vec(binding, 1..4)).prop_map(|(scale, bindings)| {
            BlockSpace::new(BlockSpec::core("b", DataTransform::Scale(scale)), bindings)
        });
    (
        1.0f64..1e8,
        1.0f64..200.0,
        prop::collection::vec(block, 0..4),
    )
        .prop_map(|(bytes, cap, blocks)| {
            let mut space = PipelineSpace::new(Source::new("s", Bytes::new(bytes), Fps::new(cap)));
            for b in blocks {
                space.push(b);
            }
            space
        })
}

proptest! {
    /// Enumeration yields exactly the advertised cardinalities: the
    /// product of per-block binding counts times cut positions for the
    /// full space, and the prefix-product sum for the distinct view.
    #[test]
    fn enumeration_cardinality_matches_product(space in arbitrary_space()) {
        let product: u128 = space
            .blocks()
            .iter()
            .map(|b| b.bindings().len() as u128)
            .product();
        let expected = product * (space.len() as u128 + 1);
        prop_assert_eq!(space.cardinality(), expected);
        prop_assert_eq!(space.configurations().count() as u128, expected);
        prop_assert_eq!(
            space.distinct_configurations().count() as u128,
            space.distinct_cardinality()
        );
    }

    /// No configuration the Pareto frontier returns is dominated on all
    /// three objectives (total FPS, in-camera energy, upload bytes) by
    /// any explored configuration.
    #[test]
    fn pareto_frontier_is_nondominated(
        space in arbitrary_space(),
        gbps in 0.01f64..100.0,
    ) {
        let link = Link::new("l", BytesPerSec::from_gbps(gbps), 0.9);
        let all: Vec<_> = space.explore(&link).collect();
        let frontier = pareto_frontier(all.clone());
        prop_assert!(!frontier.is_empty());
        for kept in &frontier {
            for candidate in &all {
                prop_assert!(!candidate.dominates(kept));
            }
        }
    }

    /// Pipelined throughput never increases as more stages are included.
    #[test]
    fn compute_fps_monotone_nonincreasing(p in arbitrary_pipeline()) {
        for k in 1..=p.len() {
            prop_assert!(
                p.compute_fps_through(k).fps() <= p.compute_fps_through(k - 1).fps() + 1e-12
            );
        }
    }

    /// The best cut's total equals the max over all cuts and every cut's
    /// total is min(compute, comm).
    #[test]
    fn best_cut_is_argmax(p in arbitrary_pipeline(), gbps in 0.01f64..100.0) {
        let link = Link::new("l", BytesPerSec::from_gbps(gbps), 0.9);
        let space = PipelineSpace::from(&p);
        let best = space.best(&link).unwrap();
        for cut in space.explore(&link) {
            prop_assert!(cut.total().fps() <= best.total().fps() + 1e-9);
            let expected = cut.compute.fps().min(cut.communication.fps());
            prop_assert!((cut.total().fps() - expected).abs() < 1e-9);
        }
    }

    /// A fixed pipeline's one-binding space realizes the pipeline back
    /// and reproduces its own per-cut label, compute, communication,
    /// upload and energy.
    #[test]
    fn pipeline_space_reproduces_the_pipeline(
        p in arbitrary_pipeline(),
        gbps in 0.01f64..100.0,
    ) {
        let link = Link::new("l", BytesPerSec::from_gbps(gbps), 0.9);
        let space = PipelineSpace::from(&p);
        prop_assert_eq!(&space.realize(&Configuration::new(vec![0; p.len()], p.len())), &p);
        let rows: Vec<_> = space.explore(&link).collect();
        prop_assert_eq!(rows.len(), p.len() + 1);
        for (k, row) in rows.iter().enumerate() {
            prop_assert_eq!(&row.config, &Configuration::new(vec![0; p.len()], k));
            prop_assert_eq!(&row.label, &cut_label(&p, k));
            prop_assert_eq!(row.compute, p.compute_fps_through(k));
            prop_assert_eq!(row.communication, link.upload_fps(p.data_after(k)));
            prop_assert_eq!(row.upload, p.data_after(k));
            prop_assert_eq!(row.energy, p.energy_per_frame_through(k));
        }
    }

    /// Link upload rate is inverse in payload size and linear in rate.
    #[test]
    fn link_scaling(gbps in 0.01f64..400.0, bytes in 1.0f64..1e9) {
        let link = Link::new("l", BytesPerSec::from_gbps(gbps), 0.8);
        let one = link.upload_fps(Bytes::new(bytes)).fps();
        let double_payload = link.upload_fps(Bytes::new(2.0 * bytes)).fps();
        prop_assert!((one / double_payload - 2.0).abs() < 1e-6);
    }

    /// Integral-image rectangle sums match naive summation.
    #[test]
    fn integral_matches_naive(
        seed in 0u64..1000,
        w in 2usize..24,
        h in 2usize..24,
    ) {
        let img = Image::from_fn(w, h, |x, y| {
            (((x * 31 + y * 17 + seed as usize * 7) % 101) as f32) / 101.0
        });
        let ii = IntegralImage::new(&img);
        let (rw, rh) = (w / 2 + 1, h / 2 + 1);
        let (x, y) = (w - rw, h - rh);
        let mut naive = 0.0f64;
        for yy in y..y + rh {
            for xx in x..x + rw {
                naive += img.get(xx, yy) as f64;
            }
        }
        prop_assert!((ii.rect_sum(x, y, rw, rh) - naive).abs() < 1e-6);
    }

    /// Quantization round-trip error is bounded by half an LSB in range.
    #[test]
    fn quantize_round_trip_bound(
        bits in 3u32..16,
        frac in 0u32..8,
        value in -100.0f32..100.0,
    ) {
        prop_assume!(frac < bits);
        let q = QFormat::new(bits, frac);
        if value.abs() < q.max_value() {
            prop_assert!(q.round_trip_error(value) <= q.resolution() / 2.0 + 1e-6);
        }
        // saturation never exceeds the representable range
        let code = q.quantize(value);
        prop_assert!(code <= q.max_code() && code >= q.min_code());
    }

    /// Bilateral-grid splatting partitions unity and blurring preserves
    /// total mass.
    #[test]
    fn grid_mass_conservation(
        seed in 0u64..500,
        w in 8usize..40,
        h in 8usize..40,
        sigma in 2.0f32..12.0,
    ) {
        let guide = Image::from_fn(w, h, |x, y| {
            (((x * 13 + y * 29 + seed as usize) % 37) as f32) / 37.0
        });
        let mut grid = BilateralGrid::new(w, h, GridParams::new(sigma, 0.15));
        grid.splat(&guide, &guide, None);
        let pixels = (w * h) as f64;
        prop_assert!((grid.total_weight() - pixels).abs() < pixels * 1e-4);
        grid.blur(2);
        prop_assert!((grid.total_weight() - pixels).abs() < pixels * 1e-3);
    }

    /// Constant images slice back to their constant under any grid.
    #[test]
    fn grid_constant_fixed_point(
        value in 0.0f32..1.0,
        sigma in 2.0f32..16.0,
    ) {
        let guide = GrayImage::new(24, 24, 0.5);
        let values = GrayImage::new(24, 24, value);
        let mut grid = BilateralGrid::new(24, 24, GridParams::new(sigma, 0.2));
        grid.splat(&guide, &values, None);
        grid.blur(1);
        let out = grid.slice(&guide);
        for &p in out.pixels() {
            prop_assert!((p - value).abs() < 1e-3);
        }
    }
}
