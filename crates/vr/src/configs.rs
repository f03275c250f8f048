//! The nine pipeline configurations of the paper's Fig. 10.
//!
//! Each configuration executes some prefix of the blocks in-camera and
//! offloads the rest: the raw sensor stream (`S~`), sensor + B1, … up to
//! the full pipeline, with the depth block on each of the three backends
//! once it is included.
//!
//! [`PipelineConfig`] is a thin, VR-flavored view over
//! [`incam_core::explore`]'s general [`Configuration`]: the paper set is
//! the distinct enumeration of the VR binding space pruned by
//! [`PipelineConfig::paper_coupling`], and
//! [`PipelineConfig::to_configuration`] /
//! [`PipelineConfig::from_configuration`] convert between the two
//! representations.

use crate::backend::DepthBackend;
use core::fmt;
use incam_core::block::{BlockSpec, DataTransform};
use incam_core::explore::{Binding, BlockSpace, Configuration, PipelineSpace};
use incam_core::pipeline::Source;
use incam_core::units::{Bytes, Fps};

/// One Fig. 10 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Number of blocks processed in-camera before offload (0–4).
    pub blocks: usize,
    /// Backend for B3, when included.
    pub depth_backend: Option<DepthBackend>,
}

impl PipelineConfig {
    /// The *shape* of the VR configuration space: four blocks with the
    /// paper's binding multiplicities (B1, B2 fixed to the CPU engines;
    /// B3 and B4 one binding per [`DepthBackend`]), with placeholder
    /// costs. Enumeration-only uses — the paper set, cardinality
    /// checks — need the shape, not the calibrated numbers (those live in
    /// `VrModel::binding_space`).
    pub fn shape_space() -> PipelineSpace {
        let depth_bindings = || {
            DepthBackend::ALL
                .iter()
                .map(|&b| Binding::new(b.core(), Fps::new(1.0)))
                .collect()
        };
        PipelineSpace::new(Source::new("S", Bytes::new(1.0), Fps::new(1.0)))
            .with_block(BlockSpace::new(
                BlockSpec::core("B1", DataTransform::Identity),
                vec![Binding::new(incam_core::block::Backend::Cpu, Fps::new(1.0))],
            ))
            .with_block(BlockSpace::new(
                BlockSpec::core("B2", DataTransform::Identity),
                vec![Binding::new(incam_core::block::Backend::Cpu, Fps::new(1.0))],
            ))
            .with_block(BlockSpace::new(
                BlockSpec::core("B3", DataTransform::Identity),
                depth_bindings(),
            ))
            .with_block(BlockSpace::new(
                BlockSpec::core("B4", DataTransform::Identity),
                depth_bindings(),
            ))
    }

    /// The paper's pruning predicate: stitching runs on the same device
    /// as depth estimation, so when both are in-camera (cut 4) their
    /// binding indices must agree. Blocks past the cut execute in the
    /// cloud and are unconstrained.
    pub fn paper_coupling(config: &Configuration) -> bool {
        config.cut() < 4 || config.bindings()[2] == config.bindings()[3]
    }

    /// The paper's nine configurations, in figure order: the distinct
    /// enumeration of the VR space under [`PipelineConfig::paper_coupling`]
    /// (cut-major, binding indices in [`DepthBackend::ALL`] order —
    /// exactly how Fig. 10 arranges its bars).
    pub fn paper_set() -> Vec<PipelineConfig> {
        Self::shape_space()
            .distinct_configurations()
            .filter(Self::paper_coupling)
            .map(|c| Self::from_configuration(&c))
            .collect()
    }

    /// The explorer [`Configuration`] this view denotes: B1/B2 at their
    /// only binding, B3 and B4 at the depth backend's index (0 = CPU when
    /// no backend is attached — bindings at or past the cut never
    /// execute in camera).
    pub fn to_configuration(&self) -> Configuration {
        let idx = self.depth_backend.map_or(0, DepthBackend::index);
        Configuration::new(vec![0, 0, idx, idx], self.blocks)
    }

    /// Reads a VR view out of an explorer configuration over the
    /// four-block space: the cut becomes the block count, and B3's
    /// binding index names the depth backend when B3 is in-camera.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not have four binding choices or
    /// its cut exceeds 4.
    pub fn from_configuration(config: &Configuration) -> PipelineConfig {
        assert_eq!(config.bindings().len(), 4, "the VR space has four blocks");
        assert!(config.cut() <= 4, "at most four blocks");
        PipelineConfig {
            blocks: config.cut(),
            depth_backend: (config.cut() >= 3).then(|| DepthBackend::ALL[config.bindings()[2]]),
        }
    }

    /// The configuration processing `cut` blocks in-camera, attaching
    /// `backend` to B3 exactly when the cut includes it. The constructor
    /// adaptive-cut degradation uses when it re-chooses the offload
    /// point at runtime.
    ///
    /// # Panics
    ///
    /// Panics if `cut > 4`.
    pub fn at_cut(cut: usize, backend: DepthBackend) -> Self {
        assert!(cut <= 4, "at most four blocks, got {cut}");
        Self {
            blocks: cut,
            depth_backend: (cut >= 3).then_some(backend),
        }
    }

    /// The figure's label style, e.g. `SB1B2B3F~` for sensor + B1 + B2 +
    /// B3 on the FPGA.
    pub fn label(&self) -> String {
        let mut s = String::from("S");
        for b in 1..=self.blocks {
            s.push('B');
            s.push(char::from_digit(b as u32, 10).expect("blocks <= 4")); // incam-lint: allow(fallible-unwrap) — blocks <= 4, so the digit always exists
            if b == 3 {
                if let Some(backend) = self.depth_backend {
                    s.push(backend.letter());
                }
            }
            if b == 4 {
                if let Some(backend) = self.depth_backend {
                    s.push(backend.letter());
                }
            }
        }
        s.push('~');
        s
    }

    /// A human-readable description, e.g. `sensor + B1 + B2 + B3 (FPGA)`.
    pub fn description(&self) -> String {
        let mut s = String::from("sensor");
        for b in 1..=self.blocks {
            s.push_str(&format!(" + B{b}"));
        }
        if self.blocks >= 3 {
            if let Some(backend) = self.depth_backend {
                s.push_str(&format!(" ({backend})"));
            }
        }
        s
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if B3 is included without a backend (or vice versa), or
    /// `blocks > 4`.
    pub fn validate(&self) {
        assert!(self.blocks <= 4, "at most four blocks");
        assert_eq!(
            self.blocks >= 3,
            self.depth_backend.is_some(),
            "depth backend must be present exactly when B3 is included"
        );
    }
}

impl fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_nine_rows() {
        let set = PipelineConfig::paper_set();
        assert_eq!(set.len(), 9);
        for config in &set {
            config.validate();
        }
    }

    #[test]
    fn labels_match_figure_style() {
        let set = PipelineConfig::paper_set();
        let labels: Vec<String> = set.iter().map(|c| c.label()).collect();
        assert_eq!(labels[0], "S~");
        assert_eq!(labels[2], "SB1B2~");
        assert_eq!(labels[3], "SB1B2B3C~");
        assert_eq!(labels[5], "SB1B2B3F~");
        assert_eq!(labels[8], "SB1B2B3FB4F~");
    }

    #[test]
    fn descriptions_read_naturally() {
        let cfg = PipelineConfig {
            blocks: 4,
            depth_backend: Some(DepthBackend::Gpu),
        };
        assert_eq!(cfg.description(), "sensor + B1 + B2 + B3 + B4 (GPU)");
    }

    #[test]
    fn at_cut_attaches_backend_only_when_needed() {
        for cut in 0..=4 {
            let cfg = PipelineConfig::at_cut(cut, DepthBackend::Fpga);
            cfg.validate();
            assert_eq!(cfg.depth_backend.is_some(), cut >= 3);
        }
        assert_eq!(
            PipelineConfig::at_cut(4, DepthBackend::Fpga).label(),
            "SB1B2B3FB4F~"
        );
    }

    #[test]
    fn paper_set_is_a_view_over_the_shape_space() {
        let space = PipelineConfig::shape_space();
        // 1 x 1 x 3 x 3 bindings, 5 cuts
        assert_eq!(space.cardinality(), 45);
        // cuts 0-2: one config each; cut 3: three; cut 4: nine
        assert_eq!(space.distinct_cardinality(), 15);
        // the coupling predicate cuts the nine down to three
        assert_eq!(PipelineConfig::paper_set().len(), 9);
    }

    #[test]
    fn configuration_round_trip() {
        for config in PipelineConfig::paper_set() {
            let through = PipelineConfig::from_configuration(&config.to_configuration());
            assert_eq!(config, through);
            assert!(PipelineConfig::paper_coupling(&config.to_configuration()));
        }
    }

    #[test]
    #[should_panic(expected = "four blocks")]
    fn from_configuration_rejects_wrong_shape() {
        let _ = PipelineConfig::from_configuration(&Configuration::new(vec![0, 0], 1));
    }

    #[test]
    #[should_panic(expected = "backend")]
    fn depth_without_backend_invalid() {
        PipelineConfig {
            blocks: 3,
            depth_backend: None,
        }
        .validate();
    }
}
