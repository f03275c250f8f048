//! The end-to-end face-authentication pipeline (paper Fig. 2):
//! motion detection → face detection → NN face authentication, with every
//! block optional except the NN core, on either the multi-accelerator SoC
//! or a general-purpose MCU.
//!
//! The pipeline's energy story is the case study's headline: without the
//! optional filter blocks the NN must scan a dense window grid on every
//! frame; with them, idle frames cost almost nothing and the NN runs only
//! on detector-approved windows. Progressive filtering, not a better NN,
//! is what makes sub-mW continuous authentication possible.

use crate::mcu::McuModel;
use crate::radio::BackscatterRadio;
use crate::sensor::ImageSensor;
use incam_core::energy::EnergyBreakdown;
use incam_core::units::{Bytes, Fps, Joules, Watts};
use incam_imaging::image::GrayImage;
use incam_imaging::motion::MotionDetector;
use incam_imaging::resample::BilinearSampler;
use incam_imaging::scenes::LabeledFrame;
use incam_nn::eval::Confusion;
use incam_nn::quant::ForwardScratch;
use incam_snnap::sim::SnnapAccelerator;
use incam_viola::hw::ViolaHwModel;
use incam_viola::scan::{scan_with, Detection, ScanParams, ScanScratch};
use incam_viola::train::TrainedCascade;

/// Which hardware executes the pipeline's compute blocks.
#[derive(Debug, Clone)]
pub enum Substrate {
    /// The paper's multi-accelerator SoC (motion ASIC, VJ accelerator,
    /// SNNAP-style NN).
    Accelerators,
    /// A general-purpose MCU running everything in software — the paper's
    /// comparison baseline.
    Mcu(McuModel),
}

/// What the camera transmits per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitPolicy {
    /// Ship the raw frame (the original WISPCam behaviour: all processing
    /// offloaded).
    RawFrame,
    /// Ship a one-byte authentication verdict (full in-camera processing).
    VerdictOnly,
}

/// Pipeline configuration: which optional blocks run and on what.
#[derive(Debug, Clone)]
pub struct FaPipelineConfig {
    /// Enable the motion-detection optional block.
    pub motion_detection: bool,
    /// Enable the Viola-Jones face-detection optional block.
    pub face_detection: bool,
    /// Compute substrate.
    pub substrate: Substrate,
    /// Uplink payload policy.
    pub transmit: TransmitPolicy,
    /// NN decision threshold.
    pub auth_threshold: f32,
    /// NN input window side (the authenticator's `20×20`).
    pub nn_input_side: usize,
    /// Window stride of the dense NN grid used when face detection is
    /// disabled.
    pub grid_stride: usize,
    /// Window sides of the dense NN grid.
    pub grid_sides: Vec<usize>,
    /// Cap on NN evaluations per frame when face detection is enabled.
    pub max_detections_scored: usize,
    /// Motion-ASIC energy per pixel-op, picojoules.
    pub motion_pj_per_op: f64,
}

impl FaPipelineConfig {
    /// The paper's full pipeline on accelerators: MD + FD + NN, verdict
    /// uplink.
    pub fn full_accelerated() -> Self {
        Self {
            motion_detection: true,
            face_detection: true,
            substrate: Substrate::Accelerators,
            transmit: TransmitPolicy::VerdictOnly,
            auth_threshold: 0.45,
            nn_input_side: 20,
            grid_stride: 4,
            grid_sides: vec![20, 24, 32, 44],
            max_detections_scored: 4,
            motion_pj_per_op: 0.05,
        }
    }

    /// Disables the named optional blocks relative to
    /// [`FaPipelineConfig::full_accelerated`].
    #[must_use]
    pub fn with_blocks(mut self, motion: bool, face_detection: bool) -> Self {
        self.motion_detection = motion;
        self.face_detection = face_detection;
        self
    }

    /// Switches the compute substrate.
    #[must_use]
    pub fn on_substrate(mut self, substrate: Substrate) -> Self {
        self.substrate = substrate;
        self
    }

    /// Short label like `MD+FD+NN` for reports.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.motion_detection {
            parts.push("MD");
        }
        if self.face_detection {
            parts.push("FD");
        }
        parts.push("NN");
        let hw = match self.substrate {
            Substrate::Accelerators => "accel",
            Substrate::Mcu(_) => "MCU",
        };
        format!("{} ({hw})", parts.join("+"))
    }
}

/// One frame's energy draw, itemized by pipeline block.
///
/// The ordering of [`BlockEnergies::as_array`] is the execution order —
/// sensor first, radio last — which is what lets a degraded platform
/// simulation checkpoint a frame *between* blocks and resume after a
/// power loss (see `runtime`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockEnergies {
    /// Image-sensor capture.
    pub sensor: Joules,
    /// Motion-detection optional block (zero when disabled).
    pub motion: Joules,
    /// Viola-Jones face-detection optional block (zero when disabled or
    /// gated off by motion).
    pub detect: Joules,
    /// NN authentication inferences.
    pub nn: Joules,
    /// Backscatter radio transmission.
    pub radio: Joules,
}

impl BlockEnergies {
    /// Human-readable block names, matching [`BlockEnergies::as_array`].
    pub const NAMES: [&'static str; 5] = ["sensor", "motion", "detect", "nn", "radio"];

    /// The blocks in execution order.
    pub fn as_array(&self) -> [Joules; 5] {
        [self.sensor, self.motion, self.detect, self.nn, self.radio]
    }

    /// Total energy across all blocks.
    pub fn total(&self) -> Joules {
        self.sensor + self.motion + self.detect + self.nn + self.radio
    }
}

/// Per-frame outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameOutcome {
    /// Motion detector fired (or was disabled).
    pub motion: bool,
    /// The face-detection block ran.
    pub scanned: bool,
    /// NN inferences executed on this frame.
    pub windows_scored: usize,
    /// Authentication verdict.
    pub authenticated: bool,
    /// Total energy drawn for this frame.
    pub energy: Joules,
    /// The same energy itemized by block, in execution order.
    pub blocks: BlockEnergies,
}

/// Aggregate results of running a pipeline over a frame stream.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Configuration label.
    pub label: String,
    /// Frames processed.
    pub frames: usize,
    /// Frames where motion gated further processing *off*.
    pub frames_gated_by_motion: usize,
    /// Frames the detector scanned.
    pub frames_scanned: usize,
    /// Total NN inferences.
    pub windows_scored: usize,
    /// Frame-level authentication confusion vs. ground truth.
    pub confusion: Confusion,
    /// Enrolled walk-through events (runs of consecutive frames with the
    /// enrolled face visible).
    pub enrolled_events: usize,
    /// Events authenticated on at least one frame — the security-level
    /// detection the paper's "0 % true miss rate" refers to.
    pub enrolled_events_detected: usize,
    /// Itemized energy across the run.
    pub energy: EnergyBreakdown,
    /// Total energy drawn.
    pub total_energy: Joules,
}

impl RunSummary {
    /// Mean energy per frame.
    pub fn energy_per_frame(&self) -> Joules {
        self.total_energy / self.frames as f64
    }

    /// Fraction of enrolled walk-throughs that were never authenticated.
    pub fn event_miss_rate(&self) -> f64 {
        if self.enrolled_events == 0 {
            return 0.0;
        }
        1.0 - self.enrolled_events_detected as f64 / self.enrolled_events as f64
    }

    /// Average power at the given capture rate.
    pub fn average_power(&self, rate: Fps) -> Watts {
        self.energy_per_frame() * rate
    }
}

/// Buffers a run reuses for every window it scores, so scoring allocates
/// nothing after the first window.
#[derive(Debug, Default)]
struct WindowScratch {
    sampler: BilinearSampler,
    window: Vec<f32>,
    forward: ForwardScratch,
}

/// The assembled pipeline: blocks plus platform cost models.
#[derive(Debug, Clone)]
pub struct FaPipeline {
    config: FaPipelineConfig,
    sensor: ImageSensor,
    radio: BackscatterRadio,
    detector: Option<TrainedCascade>,
    scan_params: ScanParams,
    viola_hw: ViolaHwModel,
    authenticator: SnnapAccelerator,
    motion: MotionDetector,
}

impl FaPipeline {
    /// Assembles a pipeline.
    ///
    /// `detector` may be `None` only when `config.face_detection` is
    /// false.
    ///
    /// # Panics
    ///
    /// Panics if face detection is enabled without a detector, or the
    /// authenticator's input width is not `nn_input_side²`.
    pub fn new(
        config: FaPipelineConfig,
        sensor: ImageSensor,
        radio: BackscatterRadio,
        detector: Option<TrainedCascade>,
        scan_params: ScanParams,
        authenticator: SnnapAccelerator,
    ) -> Self {
        assert!(
            !config.face_detection || detector.is_some(),
            "face detection enabled but no cascade supplied"
        );
        assert_eq!(
            authenticator.topology().inputs(),
            config.nn_input_side * config.nn_input_side,
            "authenticator input width must match nn_input_side²"
        );
        Self {
            config,
            sensor,
            radio,
            detector,
            scan_params,
            viola_hw: ViolaHwModel::default(),
            authenticator,
            motion: MotionDetector::new(0.08, 0.01),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &FaPipelineConfig {
        &self.config
    }

    /// Scores one window with the authenticator, returning the NN output.
    /// The window is clamped into the frame and sampled straight from it,
    /// bit-identical to cropping it and resizing the crop.
    fn score_window(&self, frame: &GrayImage, det: &Detection, scratch: &mut WindowScratch) -> f32 {
        let (w, h) = frame.dims();
        let side = det.side.min(w).min(h);
        let x = det.x.min(w.saturating_sub(side));
        let y = det.y.min(h.saturating_sub(side));
        let n = self.config.nn_input_side;
        scratch.window.resize(n * n, 0.0);
        scratch
            .sampler
            .sample_into(frame, (x, y, side, side), (n, n), &mut scratch.window);
        self.authenticator
            .network()
            .forward_into(&scratch.window, &mut scratch.forward)[0]
    }

    /// Scores a detection with small alignment jitter (the detector's box
    /// wobbles by a couple of pixels/one scale step around the face) and
    /// returns the best score plus the number of inferences spent.
    fn score_detection_jittered(
        &self,
        frame: &GrayImage,
        det: &Detection,
        scratch: &mut WindowScratch,
    ) -> (f32, usize) {
        // a small cross of alignment offsets at the detection's own scale;
        // searching a larger transform space and max-pooling would let any
        // face find *some* geometry that matches the enrollee
        let jitter = (det.side as isize / 8).max(1);
        let offsets = [(0, 0), (-jitter, 0), (jitter, 0), (0, -jitter), (0, jitter)];
        let mut best = 0.0f32;
        for (dx, dy) in offsets {
            let x = (det.x as isize + dx).max(0) as usize;
            let y = (det.y as isize + dy).max(0) as usize;
            let score = self.score_window(
                frame,
                &Detection {
                    x,
                    y,
                    side: det.side,
                },
                scratch,
            );
            if score > best {
                best = score;
            }
        }
        (best, offsets.len())
    }

    /// Appends the candidate windows used when no detector filters them:
    /// a dense grid.
    fn grid_windows(&self, frame: &GrayImage, windows: &mut Vec<Detection>) {
        let (w, h) = frame.dims();
        for &side in &self.config.grid_sides {
            if side > w || side > h {
                continue;
            }
            let stride = self.config.grid_stride.max(1);
            let mut y = 0;
            while y + side <= h {
                let mut x = 0;
                while x + side <= w {
                    windows.push(Detection { x, y, side });
                    x += stride;
                }
                y += stride;
            }
        }
    }

    /// Runs the pipeline over a frame stream and aggregates results.
    pub fn run(&mut self, frames: &[LabeledFrame]) -> RunSummary {
        self.run_trace(frames).0
    }

    /// Like [`FaPipeline::run`], additionally returning the per-frame
    /// outcomes (each frame's energy draw and verdict) — the trace the
    /// harvested-energy platform simulation consumes.
    pub fn run_trace(&mut self, frames: &[LabeledFrame]) -> (RunSummary, Vec<FrameOutcome>) {
        assert!(!frames.is_empty(), "need at least one frame");
        let mut energy = EnergyBreakdown::new(self.config.label());
        let mut e_sensor = Joules::ZERO;
        let mut e_motion = Joules::ZERO;
        let mut e_detect = Joules::ZERO;
        let mut e_nn = Joules::ZERO;
        let mut e_radio = Joules::ZERO;
        let mut gated = 0usize;
        let mut scanned_frames = 0usize;
        let mut windows_scored = 0usize;
        let mut confusion = Confusion::default();
        let mut enrolled_events = 0usize;
        let mut enrolled_events_detected = 0usize;
        let mut in_event = false;
        let mut event_hit = false;
        let mut outcomes = Vec::with_capacity(frames.len());
        // every frame clears and refills the one candidate list
        let mut candidates = Vec::new();
        let mut scratch = WindowScratch::default();
        let mut scan_scratch = ScanScratch::default();
        self.motion.reset();

        for frame in frames {
            let img = &frame.image;
            let before = BlockEnergies {
                sensor: e_sensor,
                motion: e_motion,
                detect: e_detect,
                nn: e_nn,
                radio: e_radio,
            };
            let windows_before = windows_scored;
            let scanned_before = scanned_frames;
            e_sensor += self.sensor.capture_energy();

            // ---- optional block: motion detection -----------------------
            let motion = if self.config.motion_detection {
                let fired = self.motion.observe(img);
                let ops = MotionDetector::ops_per_frame(img.width(), img.height());
                e_motion += match &self.config.substrate {
                    Substrate::Accelerators => {
                        Joules::from_pico(self.config.motion_pj_per_op * ops as f64)
                    }
                    Substrate::Mcu(mcu) => mcu.run_diff(img.len() as u64).0,
                };
                fired
            } else {
                true
            };

            let mut authenticated = false;
            if motion {
                // ---- optional block: face detection ---------------------
                candidates.clear();
                if self.config.face_detection {
                    let cascade = &self
                        .detector
                        .as_ref()
                        .expect("validated at construction") // incam-lint: allow(fallible-unwrap) — validated by the builder before the pipeline is handed out
                        .cascade;
                    let result = scan_with(cascade, img, &self.scan_params, &mut scan_scratch);
                    scanned_frames += 1;
                    e_detect += match &self.config.substrate {
                        Substrate::Accelerators => {
                            self.viola_hw.scan_cost(&result.stats, img.len()).energy
                        }
                        Substrate::Mcu(mcu) => mcu.run_haar(result.stats.features).0,
                    };
                    candidates.extend(
                        result
                            .detections
                            .into_iter()
                            .take(self.config.max_detections_scored),
                    );
                } else {
                    self.grid_windows(img, &mut candidates);
                }

                // ---- core block: NN face authentication -----------------
                for det in &candidates {
                    // detector-filtered candidates get jittered scoring (a
                    // handful of inferences); the dense no-detector grid is
                    // already exhaustive and scores each window once
                    let (score, inferences) = if self.config.face_detection {
                        self.score_detection_jittered(img, det, &mut scratch)
                    } else {
                        (self.score_window(img, det, &mut scratch), 1)
                    };
                    windows_scored += inferences;
                    let per_inference = match &self.config.substrate {
                        Substrate::Accelerators => self.authenticator.energy_per_inference(),
                        Substrate::Mcu(mcu) => {
                            mcu.run_macs(self.authenticator.schedule().total_macs()).0
                        }
                    };
                    e_nn += per_inference * inferences as f64;
                    if score >= self.config.auth_threshold {
                        authenticated = true;
                    }
                }
            } else {
                gated += 1;
            }

            // ---- communication --------------------------------------
            e_radio += match self.config.transmit {
                TransmitPolicy::RawFrame => self
                    .radio
                    .transmit_energy(Bytes::new(self.sensor.frame_bytes() as f64)),
                TransmitPolicy::VerdictOnly => self.radio.transmit_energy(Bytes::new(1.0)),
            };

            let truth_positive = frame.truth.identity == Some(0) && frame.truth.face_box.is_some();
            confusion.record(authenticated, truth_positive);
            let blocks = BlockEnergies {
                sensor: e_sensor - before.sensor,
                motion: e_motion - before.motion,
                detect: e_detect - before.detect,
                nn: e_nn - before.nn,
                radio: e_radio - before.radio,
            };
            // summed the same way as before the per-block itemization so
            // fault-free traces stay bit-identical
            let energy = (e_sensor + e_motion + e_detect + e_nn + e_radio) - before.total();
            outcomes.push(FrameOutcome {
                motion,
                scanned: scanned_frames > scanned_before,
                windows_scored: windows_scored - windows_before,
                authenticated,
                energy,
                blocks,
            });

            // event accounting: a run of positive frames is one walk-through
            if truth_positive {
                if !in_event {
                    in_event = true;
                    event_hit = false;
                    enrolled_events += 1;
                }
                event_hit |= authenticated;
            } else if in_event {
                in_event = false;
                if event_hit {
                    enrolled_events_detected += 1;
                }
            }
        }
        if in_event && event_hit {
            enrolled_events_detected += 1;
        }

        energy.add("sensor", e_sensor);
        if self.config.motion_detection {
            energy.add("motion detection", e_motion);
        }
        if self.config.face_detection {
            energy.add("face detection", e_detect);
        }
        energy.add("NN authentication", e_nn);
        energy.add("radio", e_radio);
        let total_energy = energy.total();

        let summary = RunSummary {
            label: self.config.label(),
            frames: frames.len(),
            frames_gated_by_motion: gated,
            frames_scanned: scanned_frames,
            windows_scored,
            confusion,
            enrolled_events,
            enrolled_events_detected,
            energy,
            total_energy,
        };
        (summary, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::faces::{render_face, render_non_face, Identity, Nuisance};
    use incam_imaging::resample::{resize_bilinear, resize_bilinear_reference};
    use incam_imaging::scenes::{SecurityScene, SecuritySceneConfig};
    use incam_nn::mlp::Mlp;
    use incam_nn::topology::Topology;
    use incam_nn::train::{train, TrainConfig, TrainingSet};
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;
    use incam_snnap::config::SnnapConfig;
    use incam_viola::train::{train_cascade, CascadeTrainConfig};

    /// Trains a quick authenticator for `enrolled` vs a small cast.
    fn quick_authenticator(
        enrolled: &Identity,
        impostors: &[Identity],
        rng: &mut StdRng,
    ) -> SnnapAccelerator {
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..60 {
            let nz = Nuisance::sample(rng, 0.35);
            let f = render_face(enrolled, &nz, 24, rng);
            inputs.push(resize_bilinear(&f, 20, 20).to_vec_f32());
            targets.push(vec![1.0]);
        }
        for id in impostors {
            for _ in 0..20 {
                let nz = Nuisance::sample(rng, 0.35);
                let f = render_face(id, &nz, 24, rng);
                inputs.push(resize_bilinear(&f, 20, 20).to_vec_f32());
                targets.push(vec![0.0]);
            }
        }
        let data = TrainingSet::new(inputs, targets);
        let mut net = Mlp::random(Topology::paper_default(), rng);
        train(
            &mut net,
            &data,
            &TrainConfig {
                learning_rate: 0.05,
                momentum: 0.9,
                max_epochs: 40,
                target_mse: 0.02,
            },
            rng,
        );
        SnnapAccelerator::new(&net, SnnapConfig::paper_default())
    }

    fn quick_detector(rng: &mut StdRng) -> TrainedCascade {
        let pos: Vec<_> = (0..60)
            .map(|_| {
                let id = Identity::sample(rng);
                render_face(&id, &Nuisance::sample(rng, 0.25), 16, rng)
            })
            .collect();
        let neg: Vec<_> = (0..120).map(|_| render_non_face(16, rng)).collect();
        train_cascade(&pos, &neg, &CascadeTrainConfig::fast())
    }

    fn build_pipeline(
        config: FaPipelineConfig,
        scene: &SecurityScene<StdRng>,
        rng: &mut StdRng,
    ) -> FaPipeline {
        let auth = quick_authenticator(scene.enrolled(), &scene.cast()[1..], rng);
        let detector = config.face_detection.then(|| quick_detector(rng));
        FaPipeline::new(
            config,
            ImageSensor::wispcam_default(),
            BackscatterRadio::wispcam_default(),
            detector,
            ScanParams::default(),
            auth,
        )
    }

    fn test_scene(seed: u64) -> SecurityScene<StdRng> {
        SecurityScene::new(
            SecuritySceneConfig {
                event_rate: 0.08,
                ..Default::default()
            },
            StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn filtering_blocks_cut_energy() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut scene = test_scene(52);
        let frames = scene.frames(60);

        let mut full = build_pipeline(FaPipelineConfig::full_accelerated(), &scene, &mut rng);
        let mut nn_only = build_pipeline(
            FaPipelineConfig::full_accelerated().with_blocks(false, false),
            &scene,
            &mut rng,
        );
        let s_full = full.run(&frames);
        let s_nn = nn_only.run(&frames);
        assert!(
            s_full.total_energy < s_nn.total_energy,
            "full {} vs nn-only {}",
            s_full.total_energy.human(),
            s_nn.total_energy.human()
        );
        // the dense grid must be much more NN work
        assert!(s_nn.windows_scored > 20 * s_full.windows_scored.max(1));
    }

    #[test]
    fn motion_gates_idle_frames() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut scene = SecurityScene::new(
            SecuritySceneConfig {
                event_rate: 0.0,
                sensor_noise: 0.0,
                ..Default::default()
            },
            StdRng::seed_from_u64(54),
        );
        let frames = scene.frames(20);
        let mut p = build_pipeline(FaPipelineConfig::full_accelerated(), &scene, &mut rng);
        let s = p.run(&frames);
        // static scene: everything after the first frame is gated
        assert!(s.frames_gated_by_motion >= 19);
        assert_eq!(s.frames_scanned, 0);
    }

    #[test]
    fn accelerators_beat_mcu_substrate() {
        let mut rng = StdRng::seed_from_u64(55);
        let mut scene = test_scene(56);
        let frames = scene.frames(40);
        let mut accel = build_pipeline(FaPipelineConfig::full_accelerated(), &scene, &mut rng);
        let mut mcu = build_pipeline(
            FaPipelineConfig::full_accelerated()
                .on_substrate(Substrate::Mcu(McuModel::cortex_m_class())),
            &scene,
            &mut rng,
        );
        let s_accel = accel.run(&frames);
        let s_mcu = mcu.run(&frames);
        // sensor and radio are identical; the comparison is the compute
        // blocks (motion detection + face detection + NN)
        let compute = |s: &RunSummary| -> f64 {
            s.energy
                .items()
                .iter()
                .filter(|i| i.name != "sensor" && i.name != "radio")
                .map(|i| i.energy.joules())
                .sum()
        };
        assert!(
            compute(&s_mcu) > 5.0 * compute(&s_accel),
            "accel compute {} mcu compute {}",
            compute(&s_accel),
            compute(&s_mcu)
        );
    }

    #[test]
    fn full_pipeline_is_sub_milliwatt_at_one_fps() {
        let mut rng = StdRng::seed_from_u64(57);
        let mut scene = test_scene(58);
        let frames = scene.frames(60);
        let mut p = build_pipeline(FaPipelineConfig::full_accelerated(), &scene, &mut rng);
        let s = p.run(&frames);
        let power = s.average_power(Fps::new(1.0));
        assert!(power.milliwatts() < 1.0, "power {}", power.human());
    }

    #[test]
    fn raw_frame_transmission_dominates_verdict() {
        let mut rng = StdRng::seed_from_u64(59);
        let mut scene = test_scene(60);
        let frames = scene.frames(20);
        let mut verdict = build_pipeline(FaPipelineConfig::full_accelerated(), &scene, &mut rng);
        let mut raw_cfg = FaPipelineConfig::full_accelerated();
        raw_cfg.transmit = TransmitPolicy::RawFrame;
        let mut raw = build_pipeline(raw_cfg, &scene, &mut rng);
        let s_v = verdict.run(&frames);
        let s_r = raw.run(&frames);
        let radio_v = s_v
            .energy
            .items()
            .iter()
            .find(|i| i.name == "radio")
            .unwrap()
            .energy;
        let radio_r = s_r
            .energy
            .items()
            .iter()
            .find(|i| i.name == "radio")
            .unwrap()
            .energy;
        assert!(radio_r.joules() > 1000.0 * radio_v.joules());
    }

    /// One run's scratch, reused over a landscape and a portrait frame,
    /// samples and scores every window bit-identically to the original
    /// crop → resize → copy → allocating forward path: the dense grid,
    /// windows smaller and larger than the frame, and jitter past its
    /// right and bottom edges.
    #[test]
    fn window_scores_match_the_crop_and_resize_reference() {
        let mut rng = StdRng::seed_from_u64(62);
        let net = Mlp::random(Topology::paper_default(), &mut rng);
        let p = FaPipeline::new(
            FaPipelineConfig::full_accelerated().with_blocks(false, false),
            ImageSensor::wispcam_default(),
            BackscatterRadio::wispcam_default(),
            None,
            ScanParams::default(),
            SnnapAccelerator::new(&net, SnnapConfig::paper_default()),
        );
        let reference_window = |frame: &GrayImage, det: &Detection| {
            let (w, h) = frame.dims();
            let side = det.side.min(w).min(h);
            let x = det.x.min(w.saturating_sub(side));
            let y = det.y.min(h.saturating_sub(side));
            resize_bilinear_reference(&frame.crop(x, y, side, side), 20, 20).to_vec_f32()
        };
        let reference = |frame: &GrayImage, det: &Detection| {
            p.authenticator
                .network()
                .forward_reference(&reference_window(frame, det))[0]
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = WindowScratch::default();
        let mut windows = Vec::new();
        for (w, h) in [(64, 48), (48, 64)] {
            let frame = GrayImage::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 97) as f32 / 97.0);
            windows.clear();
            p.grid_windows(&frame, &mut windows);
            // detector-sized windows smaller than the NN input are upsampled
            let edges = [
                (5, 7, 16),
                (w - 16, h - 16, 16),
                (0, 0, 80),
                (3, 5, 56),
                (w - 12, 4, 20),
                (2, h - 10, 24),
                (w - 20, h - 20, 20),
                (w - 3, h - 3, 32),
            ];
            windows.extend(edges.map(|(x, y, side)| Detection { x, y, side }));
            for det in &windows {
                let fast = p.score_window(&frame, det, &mut scratch);
                assert_eq!(
                    bits(&scratch.window),
                    bits(&reference_window(&frame, det)),
                    "{w}x{h} {det:?}"
                );
                assert_eq!(
                    fast.to_bits(),
                    reference(&frame, det).to_bits(),
                    "{w}x{h} {det:?}"
                );
            }
            for (x, y, side) in edges {
                let det = Detection { x, y, side };
                let j = (side / 8).max(1);
                let best = [
                    (x, y),
                    (x.saturating_sub(j), y),
                    (x + j, y),
                    (x, y.saturating_sub(j)),
                    (x, y + j),
                ]
                .map(|(x, y)| reference(&frame, &Detection { x, y, side }))
                .into_iter()
                .fold(0.0f32, f32::max);
                let (score, inferences) = p.score_detection_jittered(&frame, &det, &mut scratch);
                assert_eq!(
                    (score.to_bits(), inferences),
                    (best.to_bits(), 5),
                    "{w}x{h} {det:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no cascade")]
    fn face_detection_requires_cascade() {
        let mut rng = StdRng::seed_from_u64(61);
        let id = Identity::sample(&mut rng);
        let auth = quick_authenticator(&id, &[], &mut rng);
        let _ = FaPipeline::new(
            FaPipelineConfig::full_accelerated(),
            ImageSensor::wispcam_default(),
            BackscatterRadio::wispcam_default(),
            None,
            ScanParams::default(),
            auth,
        );
    }
}
