//! Kernel determinism smoke: runs each of the six reworked hot kernels
//! (separable convolution, integral image, bilateral grid pipeline,
//! Viola-Jones scan, batched MLP forward, stereo block matching) on
//! deterministic workloads and prints an order-sensitive FNV-1a digest of
//! every output.
//!
//! The CI `kernels` gate runs this experiment twice at `INCAM_THREADS=1`
//! and once at `INCAM_THREADS=4` and byte-compares the transcripts —
//! pinning run-to-run and thread-count bit-identity of the fast paths,
//! exactly like the repro gates pin the paper experiments. The fast paths
//! are additionally pinned *against their reference formulations* here,
//! so a fast path that drifted from its oracle fails the gate before any
//! downstream experiment moves.

use incam_bilateral::grid::{BilateralGrid, GridParams};
use incam_bilateral::stereo::{block_match, block_match_reference, MatchParams};
use incam_imaging::convolve::{
    convolve_h, convolve_h_reference, convolve_separable, convolve_separable_reference, convolve_v,
    convolve_v_reference, gaussian_kernel,
};
use incam_imaging::image::GrayImage;
use incam_imaging::integral::IntegralImage;
use incam_nn::mlp::Mlp;
use incam_nn::sigmoid::Sigmoid;
use incam_nn::topology::Topology;
use incam_rng::rngs::StdRng;
use incam_rng::{Digest, Rng, SeedableRng};
use incam_viola::cascade::{Cascade, Stage};
use incam_viola::feature::{HaarFeature, HaarKind};
use incam_viola::scan::{scan, scan_reference, ScanParams, StepSize};
use incam_viola::weak::WeakClassifier;
use std::fmt::Write;

/// A deterministic pseudo-image (no RNG: the pattern is part of the
/// digest contract).
fn test_image(w: usize, h: usize, seed: u64) -> GrayImage {
    GrayImage::from_fn(w, h, move |x, y| {
        (((x * 31 + y * 17 + seed as usize * 13) % 97) as f32) / 97.0
    })
}

/// A small fixed cascade covering every Haar kind (no training, so the
/// smoke stays fast and seed-stable).
fn smoke_cascade() -> Cascade {
    let features: Vec<HaarFeature> = HaarKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| HaarFeature {
            kind,
            x: i % 3,
            y: i % 2,
            cell_w: 2,
            cell_h: 2,
        })
        .collect();
    let stages = (0..features.len())
        .map(|i| Stage {
            weak: vec![WeakClassifier {
                feature: i,
                threshold: 0.001,
                polarity: if i % 2 == 0 { 1 } else { -1 },
                alpha: 1.0,
            }],
            threshold: 0.5,
        })
        .collect();
    Cascade::new(features, stages, 8)
}

/// Runs the kernel smoke and renders one digest line per kernel, with a
/// fast-vs-reference verdict per kernel.
pub fn run(seed: u64, quick: bool) -> String {
    let (w, h) = if quick { (96, 72) } else { (256, 192) };
    let img = test_image(w, h, seed);
    let mut out = String::new();
    let mut report = |name: &str, digest: u64, matches_reference: bool| {
        let _ = writeln!(
            out,
            "{name:<14} digest {digest:016x}  reference {}",
            if matches_reference {
                "bit-equal"
            } else {
                "DIVERGED"
            }
        );
    };

    // 1. separable convolution (plus the directional passes)
    let kernel = gaussian_kernel(1.5);
    let conv = convolve_separable(&img, &kernel);
    let conv_h = convolve_h(&img, &kernel);
    let conv_v = convolve_v(&img, &kernel);
    let conv_ok = conv.pixels() == convolve_separable_reference(&img, &kernel).pixels()
        && conv_h.pixels() == convolve_h_reference(&img, &kernel).pixels()
        && conv_v.pixels() == convolve_v_reference(&img, &kernel).pixels();
    let mut f = Digest::new();
    for &v in conv
        .pixels()
        .iter()
        .chain(conv_h.pixels())
        .chain(conv_v.pixels())
    {
        f.write_f32(v);
    }
    report("convolve", f.finish(), conv_ok);

    // 2. integral image (plain + squared)
    let ii = IntegralImage::new(&img);
    let sq = IntegralImage::squared(&img);
    let ii_ok = ii.table() == IntegralImage::new_reference(&img).table()
        && sq.table() == IntegralImage::squared_reference(&img).table();
    let mut f = Digest::new();
    for &v in ii.table().iter().chain(sq.table()) {
        f.write_f64(v);
    }
    report("integral", f.finish(), ii_ok);

    // 3. bilateral grid pipeline (splat + fused blur + slice)
    let values = test_image(w, h, seed.wrapping_add(1));
    let params = GridParams::new(4.0, 0.1);
    let mut grid = BilateralGrid::new(w, h, params);
    grid.splat(&img, &values, None);
    grid.blur(2);
    let sliced = grid.slice(&img);
    let mut reference = BilateralGrid::new(w, h, params);
    reference.splat_reference(&img, &values, None);
    reference.blur_reference(2);
    let bil_ok = grid == reference && sliced.pixels() == reference.slice_reference(&img).pixels();
    let mut f = Digest::new();
    let (gv, gw) = grid.raw();
    for &v in gv.iter().chain(gw).chain(sliced.pixels()) {
        f.write_f32(v);
    }
    report("bilateral", f.finish(), bil_ok);

    // 4. Viola-Jones scan
    let cascade = smoke_cascade();
    let scan_params = ScanParams {
        scale_factor: 1.5,
        step: StepSize::Static(2),
        min_scale: 1.0,
        min_neighbors: 1,
    };
    let result = scan(&cascade, &img, &scan_params);
    let reference = scan_reference(&cascade, &img, &scan_params);
    let viola_ok = result.raw == reference.raw
        && result.detections == reference.detections
        && result.stats == reference.stats;
    let mut f = Digest::new();
    for v in result.raw.iter().flat_map(|d| [d.x, d.y, d.side]).chain([
        result.stats.windows as usize,
        result.stats.features as usize,
        result.stats.scales as usize,
    ]) {
        f.write_u64(v as u64);
    }
    report("viola-scan", f.finish(), viola_ok);

    // 5. batched MLP forward
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Mlp::random(Topology::new(vec![64, 12, 4, 1]), &mut rng);
    let batch: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let outputs = net.forward_batch(&batch, &Sigmoid::Exact);
    let nn_ok = outputs == net.forward_batch_reference(&batch, &Sigmoid::Exact);
    let mut f = Digest::new();
    for &v in outputs.iter().flatten() {
        f.write_f32(v);
    }
    report("forward-batch", f.finish(), nn_ok);

    // 6. stereo block matching (the VR rig's B3 window search) on the
    //    pattern and a copy shifted 3 px, so right(x) = left(x + 3)
    let left = GrayImage::from_fn(w, h, |x, y| img.get_clamped(x as isize - 3, y as isize));
    let matching = MatchParams {
        max_disparity: 8,
        block_radius: 2,
    };
    let init = block_match(&left, &img, &matching);
    let reference = block_match_reference(&left, &img, &matching);
    let bm_ok = init.disparity.pixels() == reference.disparity.pixels()
        && init.confidence.pixels() == reference.confidence.pixels();
    let mut f = Digest::new();
    for &v in init
        .disparity
        .pixels()
        .iter()
        .chain(init.confidence.pixels())
    {
        f.write_f32(v);
    }
    report("block-match", f.finish(), bm_ok);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_deterministic_and_references_agree() {
        let a = run(2017, true);
        let b = run(2017, true);
        assert_eq!(a, b);
        assert!(!a.contains("DIVERGED"), "{a}");
        assert_ne!(run(2017, true), run(2018, true));
    }

    #[test]
    fn thread_counts_agree() {
        incam_parallel::set_thread_override(Some(1));
        let t1 = run(2017, true);
        incam_parallel::set_thread_override(Some(4));
        let t4 = run(2017, true);
        incam_parallel::set_thread_override(None);
        assert_eq!(t1, t4);
    }
}
