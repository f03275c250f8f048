//! Accelerator configuration: the knobs the paper's §III-A design-space
//! exploration turns.

use incam_core::units::Hertz;

/// Configuration of the SNNAP-style neural processing unit.
///
/// The paper fixes frequency and voltage (30 MHz, 0.9 V) and sweeps the
/// number of processing elements and the datapath width; the sigmoid LUT
/// resolution is a third, cheaper knob.
///
/// # Examples
///
/// ```
/// use incam_snnap::config::SnnapConfig;
///
/// let cfg = SnnapConfig::paper_default();
/// assert_eq!(cfg.num_pes, 8);
/// assert_eq!(cfg.data_bits, 8);
/// assert_eq!(cfg.clock.mhz(), 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SnnapConfig {
    /// Number of processing elements in the processing unit.
    pub num_pes: usize,
    /// Datapath width in bits (weights and activations), 2 to 16.
    pub data_bits: u32,
    /// Sigmoid LUT entry count.
    pub sigmoid_entries: usize,
    /// Clock frequency.
    pub clock: Hertz,
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Pipeline fill/drain overhead cycles per neuron pass.
    pub pass_overhead: u64,
    /// Micro-coded sequencer setup cycles per layer.
    pub layer_setup: u64,
}

impl SnnapConfig {
    /// The paper's selected design point: 8 PEs, 8-bit datapath, 256-entry
    /// sigmoid LUT, 30 MHz at 0.9 V.
    pub fn paper_default() -> Self {
        Self {
            num_pes: 8,
            data_bits: 8,
            sigmoid_entries: 256,
            clock: Hertz::from_mhz(30.0),
            voltage: 0.9,
            pass_overhead: 8,
            layer_setup: 8,
        }
    }

    /// Returns a copy with a different PE count (geometry sweep).
    #[must_use]
    pub fn with_pes(mut self, num_pes: usize) -> Self {
        self.num_pes = num_pes;
        self
    }

    /// Returns a copy with a different datapath width (precision sweep).
    #[must_use]
    pub fn with_bits(mut self, data_bits: u32) -> Self {
        self.data_bits = data_bits;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range: no PE, `data_bits` outside
    /// `2..=16` (the widths
    /// [`QuantizedMlp::from_mlp`](incam_nn::quant::QuantizedMlp::from_mlp)
    /// models), fewer than two sigmoid LUT entries, a clock that is not
    /// positive, or a voltage outside `0.4..=1.5` V.
    pub fn validate(&self) {
        assert!(self.num_pes >= 1, "need at least one PE");
        assert!(
            (2..=16).contains(&self.data_bits),
            "data_bits must be in 2..=16"
        );
        assert!(self.sigmoid_entries >= 2, "sigmoid LUT needs >= 2 entries");
        assert!(self.clock.hertz() > 0.0, "clock must be positive");
        assert!(
            (0.4..=1.5).contains(&self.voltage),
            "voltage out of the model's calibrated range"
        );
    }
}

impl Default for SnnapConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let cfg = SnnapConfig::paper_default().with_pes(16).with_bits(16);
        assert_eq!(cfg.num_pes, 16);
        assert_eq!(cfg.data_bits, 16);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_invalid() {
        SnnapConfig::paper_default().with_pes(0).validate();
    }

    #[test]
    #[should_panic(expected = "data_bits")]
    fn absurd_bits_invalid() {
        SnnapConfig::paper_default().with_bits(64).validate();
    }

    #[test]
    #[should_panic(expected = "data_bits")]
    fn bits_past_the_quantized_model_invalid() {
        SnnapConfig::paper_default().with_bits(17).validate();
    }
}
