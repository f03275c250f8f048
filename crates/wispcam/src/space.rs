//! The face-authentication pipeline as a configuration space.
//!
//! [`crate::pipeline::FaPipeline`] executes one concrete configuration;
//! this module exposes the *choices* behind it as an
//! [`incam_core::explore::PipelineSpace`]: each compute block — motion
//! detection, face detection, NN authentication — declares two candidate
//! bindings (the paper's per-block ASIC vs. the general-purpose-MCU
//! baseline), and the offload cut decides whether the camera ships the
//! raw frame (cuts before the NN) or the one-byte verdict (full
//! in-camera processing). Enumerating the space reproduces the case
//! study's sub-mW sweep: only ASIC bindings with the verdict uplink fit
//! the harvested-power budget.
//!
//! Binding costs are *measured, not asserted*: [`FaBlockCosts::from_traces`]
//! averages the per-block energies of two [`crate::pipeline::FrameOutcome`]
//! traces recorded over the same workload — one per substrate — so the
//! space inherits exactly the gating behaviour (motion-idle frames,
//! detector-filtered NN work) the live pipeline exhibited. MCU binding
//! throughput follows from the same means: the MCU's energy and time are
//! both linear in instruction count, so dividing its active power by a
//! mean block energy recovers the mean block time exactly.

use crate::mcu::McuModel;
use crate::pipeline::FrameOutcome;
use crate::radio::BackscatterRadio;
use crate::sensor::ImageSensor;
use incam_core::block::{Backend, BlockSpec, DataTransform};
use incam_core::explore::{Binding, BlockSpace, ConfigAnalysis, Configuration, PipelineSpace};
use incam_core::pipeline::Source;
use incam_core::units::{Bytes, Fps, Joules, Watts};

/// The compute blocks of the FA pipeline, in execution order (the
/// sensor and radio are the space's source and link, not blocks).
pub const COMPUTE_BLOCKS: [&str; 3] = ["MD", "FD", "NN"];

/// Streaming throughput credited to the on-sensor ASIC bindings: the
/// accelerators consume the CSI2 stream at sensor line rate, so they
/// never bind at the duty-cycled capture rates this case study runs at.
pub const ASIC_STREAM_FPS: f64 = 30.0;

/// Mean per-frame energy of each compute block under both substrates,
/// measured over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FaBlockCosts {
    /// Mean sensor capture energy per frame.
    pub capture: Joules,
    /// Mean per-frame energy of `[MD, FD, NN]` on the accelerator SoC.
    pub accel: [Joules; 3],
    /// Mean per-frame energy of `[MD, FD, NN]` on the MCU.
    pub mcu: [Joules; 3],
}

impl FaBlockCosts {
    /// Representative measured means at the paper's design point:
    /// nanojoule-class ASIC blocks with the MCU orders of magnitude
    /// above (QQVGA frame differencing, a scanned cascade, a few
    /// jittered NN inferences per event frame). Use when a canonical
    /// cost model is needed without replaying a workload — e.g. the
    /// fleet-profile adapter in [`crate::fleet`].
    pub fn design_point() -> Self {
        Self {
            capture: Joules::from_micro(2.02),
            accel: [
                Joules::from_nano(1.0),
                Joules::from_nano(40.0),
                Joules::from_nano(60.0),
            ],
            mcu: [
                Joules::from_micro(1.5),
                Joules::from_micro(30.0),
                Joules::from_micro(5.0),
            ],
        }
    }

    /// Measures mean block costs from two traces of the *same* frame
    /// stream, one recorded under [`crate::pipeline::Substrate::Accelerators`]
    /// and one under [`crate::pipeline::Substrate::Mcu`]. Running the
    /// identical workload on both keeps the gating decisions — and hence
    /// the amortized per-frame work — comparable across substrates.
    ///
    /// # Panics
    ///
    /// Panics if either trace is empty or their lengths differ.
    pub fn from_traces(accel: &[FrameOutcome], mcu: &[FrameOutcome]) -> Self {
        assert!(!accel.is_empty(), "need at least one accelerator frame");
        assert_eq!(
            accel.len(),
            mcu.len(),
            "traces must cover the same frame stream"
        );
        let mean = |outcomes: &[FrameOutcome], pick: fn(&FrameOutcome) -> Joules| -> Joules {
            let total: f64 = outcomes.iter().map(|o| pick(o).joules()).sum();
            Joules::new(total / outcomes.len() as f64)
        };
        Self {
            capture: mean(accel, |o| o.blocks.sensor),
            accel: [
                mean(accel, |o| o.blocks.motion),
                mean(accel, |o| o.blocks.detect),
                mean(accel, |o| o.blocks.nn),
            ],
            mcu: [
                mean(mcu, |o| o.blocks.motion),
                mean(mcu, |o| o.blocks.detect),
                mean(mcu, |o| o.blocks.nn),
            ],
        }
    }
}

/// Builds the FA configuration space from measured block costs.
///
/// Three blocks with two bindings each (per-block ASIC, index 0; MCU,
/// index 1) and four cut positions: cuts 0–2 ship the raw frame over the
/// backscatter link, cut 3 ships the one-byte verdict. MD and FD are the
/// paper's optional filter blocks; the NN is the core block whose
/// verdict ends the data stream.
pub fn fa_binding_space(
    costs: &FaBlockCosts,
    sensor: &ImageSensor,
    mcu: &McuModel,
    capture_rate: Fps,
) -> PipelineSpace {
    // mean block time = mean energy / active power, exact for the MCU's
    // linear instruction costing; a block that drew nothing is free
    let mcu_fps = |energy: Joules| -> Fps {
        if energy.joules() > 0.0 {
            Fps::new(mcu.active_power().watts() / energy.joules())
        } else {
            Fps::new(ASIC_STREAM_FPS)
        }
    };
    let block = |i: usize, spec: BlockSpec| -> BlockSpace {
        BlockSpace::new(
            spec,
            vec![
                Binding::new(Backend::Asic, Fps::new(ASIC_STREAM_FPS))
                    .with_energy_per_frame(costs.accel[i]),
                Binding::new(Backend::Mcu, mcu_fps(costs.mcu[i]))
                    .with_energy_per_frame(costs.mcu[i]),
            ],
        )
    };
    PipelineSpace::new(
        Source::new("S", Bytes::new(sensor.frame_bytes() as f64), capture_rate)
            .with_capture_energy(costs.capture),
    )
    .with_block(block(
        0,
        BlockSpec::optional(COMPUTE_BLOCKS[0], DataTransform::Identity),
    ))
    .with_block(block(
        1,
        BlockSpec::optional(COMPUTE_BLOCKS[1], DataTransform::Identity),
    ))
    .with_block(block(
        2,
        BlockSpec::core(COMPUTE_BLOCKS[2], DataTransform::Fixed(Bytes::new(1.0))),
    ))
}

/// `true` when every in-camera block uses the same binding — the two
/// pure designs the paper compares (all-ASIC SoC vs. everything in MCU
/// software). Mixed configurations are the space's own contribution.
pub fn uniform_substrate(config: &Configuration) -> bool {
    let in_camera = &config.bindings()[..config.cut()];
    in_camera.windows(2).all(|w| w[0] == w[1])
}

/// One point of the sub-mW sweep: a configuration's cost analysis plus
/// its average power at the capture rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaSpacePoint {
    /// The configuration-space analysis over the backscatter link.
    pub analysis: ConfigAnalysis,
    /// Radio energy for this configuration's upload payload.
    pub radio_energy: Joules,
    /// Average power at the sweep's capture rate: (in-camera energy +
    /// radio energy) × rate.
    pub average_power: Watts,
}

impl FaSpacePoint {
    /// Whether this configuration fits the paper's harvested-power
    /// budget (< 1 mW average).
    pub fn sub_milliwatt(&self) -> bool {
        self.average_power.milliwatts() < 1.0
    }
}

/// Evaluates every distinct configuration of `space` over the
/// backscatter uplink at `capture_rate` — the case study's sub-mW sweep,
/// in enumeration order.
pub fn submw_sweep(
    space: &PipelineSpace,
    radio: &BackscatterRadio,
    capture_rate: Fps,
) -> Vec<FaSpacePoint> {
    space
        .explore(radio.link())
        .map(|analysis| {
            let radio_energy = radio.transmit_energy(analysis.upload);
            let average_power = (analysis.energy + radio_energy) * capture_rate;
            FaSpacePoint {
                analysis,
                radio_energy,
                average_power,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BlockEnergies;

    /// The canonical design-point means (shared with the fleet adapter).
    fn sample_costs() -> FaBlockCosts {
        FaBlockCosts::design_point()
    }

    fn sample_space() -> PipelineSpace {
        fa_binding_space(
            &sample_costs(),
            &ImageSensor::wispcam_default(),
            &McuModel::cortex_m_class(),
            Fps::new(1.0),
        )
    }

    #[test]
    fn space_shape_matches_pipeline() {
        let space = sample_space();
        // 2^3 binding products x 4 cuts
        assert_eq!(space.cardinality(), 32);
        // cuts 0..3 contribute 1 + 2 + 4 + 8 distinct configurations
        assert_eq!(space.distinct_cardinality(), 15);
        for (name, block) in COMPUTE_BLOCKS.iter().zip(space.blocks()) {
            assert_eq!(block.spec().name(), *name);
            assert_eq!(block.bindings()[0].backend(), Backend::Asic);
            assert_eq!(block.bindings()[1].backend(), Backend::Mcu);
        }
    }

    #[test]
    fn cut_decides_payload() {
        let space = sample_space();
        let radio = BackscatterRadio::wispcam_default();
        let frame = ImageSensor::wispcam_default().frame_bytes() as f64;
        for point in submw_sweep(&space, &radio, Fps::new(1.0)) {
            let expected = if point.analysis.config.cut() == 3 {
                1.0
            } else {
                frame
            };
            assert_eq!(point.analysis.upload.bytes(), expected);
        }
    }

    #[test]
    fn only_verdict_configs_fit_the_harvested_budget() {
        let space = sample_space();
        let radio = BackscatterRadio::wispcam_default();
        let sweep = submw_sweep(&space, &radio, Fps::new(1.0));
        assert_eq!(sweep.len(), 15);
        for point in &sweep {
            if point.analysis.config.cut() < 3 {
                // raw-frame backscatter alone costs ~9 uJ/frame; with
                // capture it stays sub-mW at 1 FPS, so the *frame rate*
                // is what raw offload forfeits: 19.2 kB at 256 kb/s
                // cannot sustain even 2 FPS
                assert!(point.analysis.communication.fps() < 2.0);
            }
        }
        // the paper's design point: full in-camera processing on ASICs
        let full_asic = sweep
            .iter()
            .find(|p| p.analysis.config == Configuration::new(vec![0, 0, 0], 3))
            .expect("full-ASIC configuration enumerated");
        assert!(
            full_asic.sub_milliwatt(),
            "{}",
            full_asic.average_power.human()
        );
        // the MCU baseline draws more at every block
        let full_mcu = sweep
            .iter()
            .find(|p| p.analysis.config == Configuration::new(vec![1, 1, 1], 3))
            .expect("full-MCU configuration enumerated");
        assert!(full_mcu.average_power.watts() > full_asic.average_power.watts());
    }

    #[test]
    fn mcu_throughput_recovers_mean_time() {
        let mcu = McuModel::cortex_m_class();
        // 1e6 instructions: energy and time known in closed form
        let (energy, time) = mcu.run(1_000_000);
        let fps = mcu.active_power().watts() / energy.joules();
        assert!((1.0 / fps - time.secs()).abs() < 1e-12);
    }

    #[test]
    fn uniform_substrate_filters_mixed_designs() {
        assert!(uniform_substrate(&Configuration::new(vec![0, 0, 0], 3)));
        assert!(uniform_substrate(&Configuration::new(vec![1, 1, 1], 3)));
        assert!(!uniform_substrate(&Configuration::new(vec![0, 1, 0], 3)));
        // bindings past the cut are cloud-side and don't count
        assert!(uniform_substrate(&Configuration::new(vec![0, 1, 1], 1)));
        let space = sample_space();
        let uniform = space
            .distinct_configurations()
            .filter(uniform_substrate)
            .count();
        // cut 0: 1; cuts 1-3: two pure designs each
        assert_eq!(uniform, 7);
    }

    #[test]
    fn from_traces_averages_each_block() {
        let outcome = |motion: f64, detect: f64, nn: f64| FrameOutcome {
            motion: true,
            scanned: true,
            windows_scored: 1,
            authenticated: false,
            energy: Joules::from_micro(motion + detect + nn),
            blocks: BlockEnergies {
                sensor: Joules::from_micro(2.0),
                motion: Joules::from_micro(motion),
                detect: Joules::from_micro(detect),
                nn: Joules::from_micro(nn),
                radio: Joules::ZERO,
            },
        };
        let accel = [outcome(1.0, 2.0, 3.0), outcome(3.0, 4.0, 5.0)];
        let mcu = [outcome(10.0, 20.0, 30.0), outcome(30.0, 40.0, 50.0)];
        let costs = FaBlockCosts::from_traces(&accel, &mcu);
        assert!((costs.capture.micros() - 2.0).abs() < 1e-9);
        assert!((costs.accel[0].micros() - 2.0).abs() < 1e-9);
        assert!((costs.accel[2].micros() - 4.0).abs() < 1e-9);
        assert!((costs.mcu[1].micros() - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "same frame stream")]
    fn mismatched_traces_rejected() {
        let o = FrameOutcome {
            motion: true,
            scanned: false,
            windows_scored: 0,
            authenticated: false,
            energy: Joules::ZERO,
            blocks: BlockEnergies::default(),
        };
        let _ = FaBlockCosts::from_traces(&[o], &[o, o]);
    }
}
