//! Processing-block descriptors for in-camera pipelines.
//!
//! Following the paper's Fig. 1, a camera application decomposes into an
//! ordered pipeline of *blocks*. Each block is either **core** (essential to
//! the application, e.g. face authentication) or **optional** (improves
//! efficiency by filtering or pre-processing data, e.g. motion detection).
//! A block consumes the data produced by its predecessor and emits output
//! data whose size is described by a [`DataTransform`].

use crate::units::Bytes;
use core::fmt;

/// Whether a block is essential to the application or an efficiency aid.
///
/// # Examples
///
/// ```
/// use incam_core::block::BlockKind;
/// assert!(BlockKind::Optional.is_optional());
/// assert!(!BlockKind::Core.is_optional());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Essential to the application's function.
    Core,
    /// May be omitted without changing results, but can improve efficiency
    /// by filtering or pre-processing data.
    Optional,
}

impl BlockKind {
    /// Returns `true` for [`BlockKind::Optional`].
    pub fn is_optional(self) -> bool {
        matches!(self, BlockKind::Optional)
    }
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockKind::Core => f.write_str("core"),
            BlockKind::Optional => f.write_str("optional"),
        }
    }
}

/// The implementation class chosen for a block (Fig. 1's `ASIC`, `FPGA`,
/// `CPU`, `Cloud` annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Fixed-function custom silicon integrated with the sensor.
    Asic,
    /// Reconfigurable fabric (e.g. a Zynq SoC's programmable logic).
    Fpga,
    /// Discrete or integrated GPU.
    Gpu,
    /// General-purpose CPU (e.g. the Zynq's ARM Cortex-A9).
    Cpu,
    /// Ultra-low-power microcontroller.
    Mcu,
    /// Executed after offload; its computation is treated as free
    /// (the paper assumes cloud compute costs nothing relative to the
    /// camera, only the communication to reach it is paid).
    Cloud,
}

impl Backend {
    /// One-letter tag used in configuration labels (Fig. 10's `B3(F)`
    /// style). Every variant has a letter so labels never silently drop
    /// a binding; `~` marks cloud execution, matching the offloaded-
    /// remainder suffix used in VR configuration labels.
    ///
    /// # Examples
    ///
    /// ```
    /// use incam_core::block::Backend;
    /// assert_eq!(Backend::Fpga.letter(), 'F');
    /// assert_eq!(Backend::Asic.letter(), 'A');
    /// ```
    pub fn letter(self) -> char {
        match self {
            Backend::Asic => 'A',
            Backend::Fpga => 'F',
            Backend::Gpu => 'G',
            Backend::Cpu => 'C',
            Backend::Mcu => 'M',
            Backend::Cloud => '~',
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Backend::Asic => "ASIC",
            Backend::Fpga => "FPGA",
            Backend::Gpu => "GPU",
            Backend::Cpu => "CPU",
            Backend::Mcu => "MCU",
            Backend::Cloud => "cloud",
        };
        f.write_str(s)
    }
}

/// How a block changes the size of the data flowing through it.
///
/// The paper's central observation is that blocks may *expand* data (the VR
/// pipeline's image alignment quadruples it) or *reduce* it (stitching
/// halves the raw sensor volume), and that an early reduction step is the
/// most critical optimization for in-camera systems.
///
/// # Examples
///
/// ```
/// use incam_core::block::DataTransform;
/// use incam_core::units::Bytes;
///
/// let expand = DataTransform::Scale(4.0);
/// assert_eq!(expand.apply(Bytes::new(100.0)), Bytes::new(400.0));
///
/// let classify = DataTransform::Fixed(Bytes::new(1.0));
/// assert_eq!(classify.apply(Bytes::from_mib(8.0)), Bytes::new(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataTransform {
    /// Output size is `factor ×` input size.
    Scale(f64),
    /// Output size is a constant regardless of input (e.g. a detection
    /// verdict, a cropped face window).
    Fixed(Bytes),
    /// Output size equals input size.
    Identity,
}

impl DataTransform {
    /// Applies the transform to an input size.
    pub fn apply(self, input: Bytes) -> Bytes {
        match self {
            DataTransform::Scale(factor) => input * factor,
            DataTransform::Fixed(bytes) => bytes,
            DataTransform::Identity => input,
        }
    }
}

/// Static description of a pipeline block: its name, role and data
/// transform. Computation cost is supplied separately per backend when the
/// block is placed into a [`crate::pipeline::Pipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    name: String,
    kind: BlockKind,
    transform: DataTransform,
}

impl BlockSpec {
    /// Creates a new block description.
    ///
    /// # Examples
    ///
    /// ```
    /// use incam_core::block::{BlockSpec, BlockKind, DataTransform};
    ///
    /// let align = BlockSpec::new("image alignment", BlockKind::Core,
    ///                            DataTransform::Scale(4.0));
    /// assert_eq!(align.name(), "image alignment");
    /// ```
    pub fn new(name: impl Into<String>, kind: BlockKind, transform: DataTransform) -> Self {
        Self {
            name: name.into(),
            kind,
            transform,
        }
    }

    /// A core block with the given data transform.
    pub fn core(name: impl Into<String>, transform: DataTransform) -> Self {
        Self::new(name, BlockKind::Core, transform)
    }

    /// An optional block with the given data transform.
    pub fn optional(name: impl Into<String>, transform: DataTransform) -> Self {
        Self::new(name, BlockKind::Optional, transform)
    }

    /// The block's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The block's role in the pipeline.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// The block's data-size transform.
    pub fn transform(&self) -> DataTransform {
        self.transform
    }

    /// Output size for a given input size.
    pub fn output_size(&self, input: Bytes) -> Bytes {
        self.transform.apply(input)
    }
}

impl fmt::Display for BlockSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transforms_compose_as_expected() {
        let input = Bytes::new(1000.0);
        assert_eq!(DataTransform::Identity.apply(input), input);
        assert_eq!(DataTransform::Scale(0.5).apply(input), Bytes::new(500.0));
        assert_eq!(
            DataTransform::Fixed(Bytes::new(64.0)).apply(input),
            Bytes::new(64.0)
        );
    }

    #[test]
    fn block_spec_accessors() {
        let b = BlockSpec::optional("motion detection", DataTransform::Scale(0.1));
        assert_eq!(b.name(), "motion detection");
        assert!(b.kind().is_optional());
        assert_eq!(b.output_size(Bytes::new(10.0)), Bytes::new(1.0));
        assert_eq!(format!("{b}"), "motion detection (optional)");
    }

    #[test]
    fn backend_display() {
        assert_eq!(Backend::Fpga.to_string(), "FPGA");
        assert_eq!(Backend::Cloud.to_string(), "cloud");
    }

    #[test]
    fn backend_letters_are_distinct() {
        let all = [
            Backend::Asic,
            Backend::Fpga,
            Backend::Gpu,
            Backend::Cpu,
            Backend::Mcu,
            Backend::Cloud,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.letter(), b.letter(), "{a} and {b} share a letter");
            }
        }
        assert_eq!(Backend::Mcu.letter(), 'M');
    }
}
