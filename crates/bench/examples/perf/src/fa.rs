//! `fa_gated` and `fa_dense`: the WISPCam face-authentication pipeline
//! (motion detection → Viola-Jones → NN) over a seeded security-camera
//! stream.
//!
//! The detector and authenticator are the camera's firmware: trained
//! once from [`FIRMWARE_SEED`] at full effort, so the benchmark seed
//! varies the video and not the trained models (a cascade retrained per
//! seed changes the scan cost by tens of percent). The gated stream is
//! assembled to a fixed walk-through schedule, so every seed gates 210 of
//! its 300 frames, give or take a frame; the seed picks who walks through,
//! their faces, and the sensor noise.

use crate::harness::{LayerPoint, Tally, Timings, Unit};
use crate::report::Metric;
use incam_imaging::image::GrayImage;
use incam_imaging::motion::MotionDetector;
use incam_imaging::resample::resize_bilinear;
use incam_imaging::scenes::{LabeledFrame, SecurityScene, SecuritySceneConfig};
use incam_nn::Confusion;
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use incam_snnap::{SnnapAccelerator, SnnapConfig};
use incam_viola::scan::{scan, Detection};
use incam_wispcam::pipeline::{FaPipeline, FaPipelineConfig, RunSummary};
use incam_wispcam::workload::{TrainEffort, Workload};

/// Seed the firmware models are trained from (the repo's golden seed).
pub const FIRMWARE_SEED: u64 = 2017;

/// Frames per `fa_gated` pass.
const GATED_FRAMES: usize = 300;

/// Frames per `fa_dense` pass.
const DENSE_FRAMES: usize = 8;

/// Walk-throughs in the gated stream. Each one fires motion on its nine
/// visible frames and on the frame after it, so 9 walk-throughs leave
/// 210 of 300 frames gated (211 at seed 11 of seeds 1–40, where one
/// walk-through frame changes too few pixels to fire).
const WALKTHROUGHS: usize = 9;

/// Which FA workload.
#[derive(Debug, Clone, Copy)]
pub enum Variant {
    /// MD → VJ → NN over the scheduled 300-frame stream.
    Gated,
    /// NN only, on a dense window grid, over 8 frames.
    Dense,
}

/// The counters a pass must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    frames: usize,
    gated: usize,
    scanned: usize,
    windows: usize,
    confusion: Confusion,
    events: usize,
    detected: usize,
    energy_bits: u64,
}

impl Outcome {
    fn of(s: &RunSummary) -> Self {
        Self {
            frames: s.frames,
            gated: s.frames_gated_by_motion,
            scanned: s.frames_scanned,
            windows: s.windows_scored,
            confusion: s.confusion,
            events: s.enrolled_events,
            detected: s.enrolled_events_detected,
            energy_bits: s.total_energy.joules().to_bits(),
        }
    }
}

/// One FA workload: firmware, frames and the assembled pipeline.
pub struct Fa {
    workload: Workload,
    config: FaPipelineConfig,
    pipeline: FaPipeline,
    reference: Option<Outcome>,
}

impl Fa {
    /// Trains the firmware and renders the seeded stream.
    pub fn setup(seed: u64, variant: Variant) -> Self {
        let mut workload = Workload::generate(FIRMWARE_SEED, 1, TrainEffort::Full);
        let mut scene = SecurityScene::new(
            SecuritySceneConfig {
                event_rate: 0.06,
                ..SecuritySceneConfig::default()
            },
            StdRng::seed_from_u64(seed),
        );
        let full = FaPipelineConfig::full_accelerated();
        let (frames, config) = match variant {
            Variant::Gated => (scheduled(scene.frames(GATED_FRAMES)), full),
            Variant::Dense => (scene.frames(DENSE_FRAMES), full.with_blocks(false, false)),
        };
        workload.frames = frames;
        let pipeline = workload.pipeline(config.clone());
        Self {
            workload,
            config,
            pipeline,
            reference: None,
        }
    }

    fn reference(&self) -> Outcome {
        self.reference
            .expect("the reference pass runs before any layer is timed")
    }
}

/// Reassembles a raw stream into the fixed schedule: [`WALKTHROUGHS`]
/// complete walk-throughs, each after an equal run of idle frames, idle
/// frames filling the tail. Walk-throughs and idle frames are taken in
/// stream order, reused cyclically if the stream is short of either.
fn scheduled(raw: Vec<LabeledFrame>) -> Vec<LabeledFrame> {
    let walk_len = SecuritySceneConfig::default().event_len;
    let mut idle = Vec::new();
    let mut walks: Vec<Vec<LabeledFrame>> = Vec::new();
    let mut current = Vec::new();
    for frame in raw {
        if frame.truth.person_present {
            current.push(frame);
            continue;
        }
        if current.len() == walk_len {
            walks.push(std::mem::take(&mut current));
        }
        current.clear();
        idle.push(frame);
    }
    assert!(
        !walks.is_empty() && !idle.is_empty(),
        "the raw stream holds no complete walk-through"
    );
    let gap = (GATED_FRAMES - WALKTHROUGHS * walk_len) / WALKTHROUGHS;
    let mut idle_frames = idle.iter().cycle();
    let mut out = Vec::with_capacity(GATED_FRAMES);
    for walk in walks.iter().cycle().take(WALKTHROUGHS) {
        out.extend(idle_frames.by_ref().take(gap).cloned());
        out.extend(walk.iter().cloned());
    }
    let tail = GATED_FRAMES - out.len();
    out.extend(idle_frames.take(tail).cloned());
    out
}

impl Unit for Fa {
    fn items(&self) -> f64 {
        self.workload.frames.len() as f64
    }

    fn run(&mut self, tally: &Tally) {
        let outcome = Outcome::of(&self.pipeline.run(&self.workload.frames));
        match self.reference {
            None => {
                tally.check(
                    outcome.frames == self.workload.frames.len(),
                    "fa pass frame count",
                );
                self.reference = Some(outcome);
            }
            Some(reference) => {
                tally.check(outcome == reference, "fa pass matches the reference pass")
            }
        }
    }
}

/// Per-layer inputs: the frames the detector scans, the first frame's
/// window grid, and resampled NN inputs from across that grid.
pub struct Prep {
    scanned: Vec<usize>,
    windows: Vec<Detection>,
    inputs: Vec<Vec<f32>>,
    accelerator: SnnapAccelerator,
}

/// NN inputs the per-layer inference point cycles through.
const LAYER_WINDOWS: usize = 512;

impl Fa {
    /// Inputs for the per-layer points (after the reference pass).
    pub fn prep(&self) -> Prep {
        let frames = &self.workload.frames;
        // the frames the pass scans: those motion passes, or all of them
        // when the pipeline does not gate on motion
        let mut motion = MotionDetector::new(0.08, 0.01);
        let scanned: Vec<usize> = (0..frames.len())
            .filter(|&i| motion.observe(&frames[i].image) || !self.config.motion_detection)
            .collect();
        // the pipeline's dense grid on the first frame: every window side,
        // in the proportions the NN-only pass scores them
        let (w, h) = frames[0].image.dims();
        let mut windows = Vec::new();
        for &s in &self.config.grid_sides {
            for y in (0..=h.saturating_sub(s)).step_by(self.config.grid_stride) {
                for x in (0..=w.saturating_sub(s)).step_by(self.config.grid_stride) {
                    windows.push(Detection { x, y, side: s });
                }
            }
        }
        let side = self.config.nn_input_side;
        let inputs = windows
            .iter()
            .step_by(windows.len().div_ceil(LAYER_WINDOWS))
            .map(|d| window(&frames[0].image, d, side).to_vec_f32())
            .collect();
        Prep {
            scanned,
            windows,
            inputs,
            accelerator: SnnapAccelerator::new(
                &self.workload.reference_net,
                SnnapConfig::paper_default(),
            ),
        }
    }

    /// One harness point per FA layer, plus the whole pass.
    pub fn points<'a>(&'a self, prep: &'a Prep, tally: &'a Tally) -> Vec<LayerPoint<'a>> {
        let frames = &self.workload.frames;
        let cascade = &self.workload.detector.cascade;
        let params = self.workload.scan_params;
        let side = self.config.nn_input_side;
        let reference = self.reference();
        let mut pipeline = self.pipeline.clone();
        let mut motion = MotionDetector::new(0.08, 0.01);
        let (mut m, mut s, mut r, mut n) = (0, 0, 0, 0);
        vec![
            LayerPoint::new("fa.motion", move || {
                m = (m + 1) % frames.len();
                motion.observe(&frames[m].image)
            }),
            LayerPoint::new("fa.scan", move || {
                s = (s + 1) % prep.scanned.len();
                scan(cascade, &frames[prep.scanned[s]].image, &params).stats
            }),
            LayerPoint::new("fa.resample", move || {
                r = (r + 1) % prep.windows.len();
                window(&frames[0].image, &prep.windows[r], side)
            }),
            LayerPoint::new("fa.infer", move || {
                n = (n + 1) % prep.inputs.len();
                prep.accelerator.infer(&prep.inputs[n])
            }),
            LayerPoint::new("fa.pass", move || {
                let outcome = Outcome::of(&pipeline.run(frames));
                tally.check(outcome == reference, "fa pass matches the reference pass");
            }),
        ]
    }

    /// Per-layer metrics from the timed points and the reference counters.
    pub fn metrics(&self, t: &Timings) -> Vec<Metric> {
        let reference = self.reference();
        let frames = reference.frames as f64;
        let motion_calls = if self.config.motion_detection {
            frames
        } else {
            0.0
        };
        let per_window = t.ns("fa.resample") + t.ns("fa.infer");
        let attributed = motion_calls * t.ns("fa.motion")
            + reference.scanned as f64 * t.ns("fa.scan")
            + reference.windows as f64 * per_window;
        vec![
            Metric::new("imaging.motion_us", t.ns("fa.motion") / 1e3, "us"),
            Metric::new("viola.scan_ms", t.ns("fa.scan") / 1e6, "ms"),
            Metric::new("viola.frames_scanned", reference.scanned as f64, "count"),
            Metric::new(
                "imaging.window_resample_us",
                t.ns("fa.resample") / 1e3,
                "us",
            ),
            Metric::new("snnap.infer_us", t.ns("fa.infer") / 1e3, "us"),
            Metric::new(
                "wispcam.windows_per_frame",
                reference.windows as f64 / frames,
                "count",
            ),
            Metric::new(
                "wispcam.gated_frac",
                reference.gated as f64 / frames,
                "frac",
            ),
            Metric::new(
                "wispcam.attributed_frac",
                attributed / t.ns("fa.pass"),
                "frac",
            ),
        ]
    }
}

/// Crops a window and resamples it to the authenticator's input side, as
/// the pipeline does before every NN inference.
fn window(frame: &GrayImage, d: &Detection, side: usize) -> GrayImage {
    resize_bilinear(&frame.crop(d.x, d.y, d.side, d.side), side, side)
}
