//! Fixed-point quantization and the quantized (hardware-model) forward
//! pass.
//!
//! The paper's §III-A reduces the accelerator datapath from floating point
//! to 16-, 8- and 4-bit fixed point (powers of two for memory alignment)
//! and measures the accuracy loss: ~0.4 % at 16/8 bits, >1 % at 4 bits.
//! [`QuantizedMlp`] reproduces that study bit-exactly at the arithmetic
//! level: weights and activations are signed fixed-point integers, MACs
//! accumulate in a wide integer register (26 bits in the paper's PE,
//! Fig. 3), and activations go through the hardware sigmoid LUT.
//!
//! The host model runs at the datapath's own width. A [`QFormat`] is 2 to
//! 16 bits wide and a [`QuantizedMlp`] models 2- to 16-bit datapaths, so
//! every code fits an `i16`, the type of the weight and activation codes.
//! [`QuantizedMlp::forward_into`] sums each neuron's products in `i32`
//! partial sums, one per chunk of its inputs, and adds the chunk
//! sums to the bias in an `i64` accumulator, the register
//! [`QuantizedMlp::peak_accumulator_bits`] reads. Quantizing fixes each
//! layer's chunk length: the most inputs `n` with
//! `n · w · 2^(bits−1) <= i32::MAX`, where `w` is the layer's widest
//! weight code and `2^(bits−1)` the widest activation code magnitude, so
//! no partial sum can overflow. On the paper's 8-bit datapath a chunk is
//! longer than any layer's fan-in and each row is one `i32` sum; at
//! 16 bits a chunk holds from one input (every code at a rail) to a few
//! dozen.

use crate::mlp::Mlp;
use crate::sigmoid::Sigmoid;
use crate::topology::Topology;

/// A signed fixed-point format: `bits` total (including sign), of which
/// `frac_bits` are fractional.
///
/// # Examples
///
/// ```
/// use incam_nn::quant::QFormat;
///
/// let q = QFormat::new(8, 6); // Q1.6 + sign: range ~[-2, 2)
/// let code = q.quantize(0.5);
/// assert_eq!(code, 32);
/// assert!((q.dequantize(code) - 0.5).abs() < 1e-6);
/// // saturation
/// assert_eq!(q.quantize(100.0), 127);
/// assert_eq!(q.quantize(-100.0), -128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Creates a format.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=16` or `frac_bits >= bits`.
    pub fn new(bits: u32, frac_bits: u32) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        assert!(frac_bits < bits, "frac_bits must leave room for the sign");
        Self { bits, frac_bits }
    }

    /// Picks the format with the given width whose integer part just fits
    /// `max_abs` (at least Q·.0). A non-finite `max_abs` gets Q·.0, as
    /// `f32::MAX` does.
    pub fn fit(bits: u32, max_abs: f32) -> Self {
        let frac = if !max_abs.is_finite() {
            0
        } else if max_abs <= 1.0 {
            bits.saturating_sub(1)
        } else {
            // log2 of a finite f32 is below 129, so the add cannot overflow
            bits.saturating_sub(2 + max_abs.log2().floor() as u32)
        };
        Self::new(bits, frac)
    }

    /// Total bit width including sign.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Fractional bit count.
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// The quantization step (value of one LSB).
    pub fn resolution(self) -> f32 {
        (2.0f32).powi(-(self.frac_bits as i32))
    }

    /// Largest representable code.
    pub fn max_code(self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Smallest representable code.
    pub fn min_code(self) -> i64 {
        -(1i64 << (self.bits - 1))
    }

    /// Largest representable value.
    pub fn max_value(self) -> f32 {
        self.max_code() as f32 * self.resolution()
    }

    /// Quantizes with round-to-nearest (ties away from zero) and
    /// saturation.
    pub fn quantize(self, value: f32) -> i64 {
        i64::from(self.round_code(value * self.scale()))
    }

    /// The original `roundf` formulation of [`QFormat::quantize`], kept as
    /// its bitwise oracle.
    pub fn quantize_reference(self, value: f32) -> i64 {
        let scaled = (value / self.resolution()).round() as i64;
        scaled.clamp(self.min_code(), self.max_code())
    }

    /// Rounds a value already in LSB units to the nearest code, ties away
    /// from zero, and saturates: exactly
    /// `(scaled.round() as i64).clamp(min_code, max_code)` for every f32,
    /// NaN included, as an `i16`, in a form that vectorizes. A saturating
    /// float-to-integer `as` cast compiles to one scalar `cvttss2si` per
    /// value on the baseline x86-64 target, so the integer is read from
    /// the float's bits instead.
    #[inline]
    fn round_code(self, scaled: f32) -> i16 {
        // 1.5 · 2^23: for |v| < 2^22, `v + MAGIC` lies in [2^23, 2^24),
        // where the f32 spacing is 1, so the add rounds `v` to an integer
        // (ties to even) and the bit patterns of `v + MAGIC` and `MAGIC`
        // differ by exactly that integer.
        const MAGIC: f32 = 12_582_912.0;
        let (lo, hi) = (self.min_code() as f32, self.max_code() as f32);
        // |v| <= 2^15 after the clamp; NaN passes it
        let v = scaled.clamp(lo, hi);
        let even = (v + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32;
        // exact, as both are small; ±0.5 only at a tie
        let d = v - even as f32;
        // a tie rounded toward zero moves one step away from it
        let away = i32::from(d == 0.5 && v > 0.0) - i32::from(d == -0.5 && v < 0.0);
        if v.is_nan() {
            0
        } else {
            (even + away) as i16 // incam-lint: allow(lossy-cast) — the clamp keeps the code in [min_code, max_code], at most 16 bits
        }
    }

    /// `1 / resolution`, a power of two: multiplying by it is exact and
    /// gives the same f32 as dividing by the resolution.
    fn scale(self) -> f32 {
        (2.0f32).powi(self.frac_bits as i32)
    }

    /// Reconstructs the real value of a code.
    pub fn dequantize(self, code: i64) -> f32 {
        code as f32 * self.resolution()
    }

    /// Round-trip error bound: at most half an LSB for in-range values.
    pub fn round_trip_error(self, value: f32) -> f32 {
        (self.dequantize(self.quantize(value)) - value).abs()
    }
}

/// Largest bias code magnitude, `2^62`. A bias too large for an `i64`
/// (±∞, or on the 8-bit datapath any |b| above ~7e16) saturates here
/// rather than at `i64::MAX`: every dot product is at most
/// fan-in × 2^30 in magnitude, so bias plus dot product stays inside an
/// `i64` in the forward, its reference and the SNNAP PE accumulator.
const BIAS_CODE_LIMIT: i64 = 1 << 62;

/// One quantized layer: integer weights/biases plus their formats.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    inputs: usize,
    outputs: usize,
    /// Weight codes, row-major by neuron (at most 16 bits each).
    weights: Vec<i16>,
    /// Biases pre-scaled to the accumulator's fixed-point position
    /// (`weight_frac + activation_frac`), clamped to ±[`BIAS_CODE_LIMIT`].
    biases: Vec<i64>,
    /// This layer's weight format (fitted per layer, as each PE's weight
    /// SRAM holds one layer's parameters).
    weight_format: QFormat,
    /// Inputs per `i32` partial sum: the most products of this layer's
    /// widest weight code and the widest activation code whose sum fits
    /// an `i32`.
    chunk: usize,
}

impl QuantizedLayer {
    /// Layer fan-in.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Layer neuron count.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Integer weight of input `i` into neuron `o`.
    pub fn weight(&self, o: usize, i: usize) -> i64 {
        i64::from(self.weights[o * self.inputs + i])
    }

    /// Accumulator-scaled integer bias of neuron `o`.
    pub fn bias(&self, o: usize) -> i64 {
        self.biases[o]
    }

    /// This layer's weight format.
    pub fn weight_format(&self) -> QFormat {
        self.weight_format
    }
}

/// A fixed-point network that mirrors the SNNAP PE datapath: `w × x`
/// products accumulate in a wide integer register; the accumulator feeds
/// the hardware sigmoid; the activation is re-quantized for the next
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    topology: Topology,
    layers: Vec<QuantizedLayer>,
    weight_format: QFormat,
    activation_format: QFormat,
    sigmoid: Sigmoid,
    /// Widest accumulator magnitude observed across all inferences run so
    /// far (for validating against the hardware accumulator width).
    peak_accumulator_bits: core::cell::Cell<u32>,
}

impl QuantizedMlp {
    /// Quantizes a trained float network to `data_bits`-wide weights and
    /// activations, using the accelerator's sigmoid implementation.
    ///
    /// The weight format's integer width is fitted to the network's
    /// largest parameter; activations use all non-sign bits as fraction
    /// (they live in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is not in `2..=16`.
    pub fn from_mlp(net: &Mlp, data_bits: u32, sigmoid: Sigmoid) -> Self {
        assert!((2..=16).contains(&data_bits), "data_bits must be in 2..=16");
        let activation_format = QFormat::new(data_bits, data_bits - 1);
        let layers: Vec<QuantizedLayer> = net
            .layers()
            .iter()
            .map(|l| {
                let max_abs = l
                    .weights()
                    .iter()
                    .chain(l.biases())
                    .fold(0.0f32, |m, &w| m.max(w.abs()));
                let weight_format = QFormat::fit(data_bits, max_abs);
                let bias_frac = weight_format.frac_bits() + activation_format.frac_bits();
                let scale = weight_format.scale();
                let weights: Vec<i16> = l
                    .weights()
                    .iter()
                    .map(|&w| weight_format.round_code(w * scale))
                    .collect();
                // |w·x| <= 2^15 · 2^15 = 2^30, so a chunk holds at least one
                // product
                let widest = weights.iter().map(|w| w.unsigned_abs()).fold(1, u16::max);
                let product = u64::from(widest) * activation_format.min_code().unsigned_abs();
                QuantizedLayer {
                    inputs: l.inputs(),
                    outputs: l.outputs(),
                    weights,
                    biases: l
                        .biases()
                        .iter()
                        .map(|&b| {
                            let code = (b as f64 * (1i64 << bias_frac) as f64).round() as i64;
                            code.clamp(-BIAS_CODE_LIMIT, BIAS_CODE_LIMIT)
                        })
                        .collect(),
                    weight_format,
                    chunk: (i32::MAX as u64 / product) as usize,
                }
            })
            .collect();
        let weight_format = layers[0].weight_format;
        Self {
            topology: net.topology().clone(),
            layers,
            weight_format,
            activation_format,
            sigmoid,
            peak_accumulator_bits: core::cell::Cell::new(0),
        }
    }

    /// The quantized network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The first layer's weight fixed-point format (formats are fitted
    /// per layer; see [`QuantizedMlp::layer_weight_formats`]).
    pub fn weight_format(&self) -> QFormat {
        self.weight_format
    }

    /// Every layer's weight format.
    pub fn layer_weight_formats(&self) -> Vec<QFormat> {
        self.layers.iter().map(|l| l.weight_format).collect()
    }

    /// The quantized layers (for hardware simulators that re-execute the
    /// network with their own cycle machinery).
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }

    /// The sigmoid implementation the network was quantized for.
    pub fn sigmoid(&self) -> &Sigmoid {
        &self.sigmoid
    }

    /// Activation fixed-point format.
    pub fn activation_format(&self) -> QFormat {
        self.activation_format
    }

    /// The widest accumulator magnitude (in bits, excluding sign) observed
    /// across all forward passes so far — compare against the PE's 26-bit
    /// accumulator.
    pub fn peak_accumulator_bits(&self) -> u32 {
        self.peak_accumulator_bits.get()
    }

    /// Integer forward pass: [`QuantizedMlp::forward_into`] with a fresh
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the topology's input width.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut scratch = ForwardScratch::default();
        self.forward_into(input, &mut scratch);
        scratch.output
    }

    /// Integer forward pass into caller-owned buffers, returning the last
    /// layer's activations. Bit-identical to
    /// [`QuantizedMlp::forward_reference`], `peak_accumulator_bits`
    /// included, and allocation-free once `scratch` has grown to the
    /// network's widest layer.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the topology's input width.
    pub fn forward_into<'s>(&self, input: &[f32], scratch: &'s mut ForwardScratch) -> &'s [f32] {
        assert_eq!(input.len(), self.topology.inputs(), "input width mismatch");
        let format = self.activation_format;
        let scale = format.scale();
        let ForwardScratch {
            activation,
            next,
            output,
        } = scratch;
        // a loop over the slice vectorizes; `extend` through the Vec runs
        // the rounding one value at a time
        activation.resize(input.len(), 0);
        for (code, &x) in activation.iter_mut().zip(input) {
            *code = format.round_code(x * scale);
        }
        let mut peak = 0;
        for layer in &self.layers {
            let acc_scale = layer.weight_format.frac_bits() + format.frac_bits();
            let acc_lsb = (2.0f64).powi(-(acc_scale as i32));
            next.clear();
            next.reserve(layer.outputs);
            output.clear();
            output.reserve(layer.outputs);
            for (row, &bias) in layer.weights.chunks_exact(layer.inputs).zip(&layer.biases) {
                let acc = bias + dot(row, activation, layer.chunk);
                peak = peak.max(64 - acc.unsigned_abs().leading_zeros());
                let a = self.sigmoid.eval((acc as f64 * acc_lsb) as f32);
                next.push(format.round_code(a * scale));
                output.push(a);
            }
            std::mem::swap(activation, next);
        }
        let seen = &self.peak_accumulator_bits;
        seen.set(seen.get().max(peak));
        output
    }

    /// The original allocating formulation of [`QuantizedMlp::forward`],
    /// kept as the bitwise oracle for [`QuantizedMlp::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the topology's input width.
    pub fn forward_reference(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.topology.inputs(), "input width mismatch");
        let mut activation: Vec<i64> = input
            .iter()
            .map(|&x| self.activation_format.quantize_reference(x))
            .collect();

        let mut output = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            let acc_scale = layer.weight_format.frac_bits() + self.activation_format.frac_bits();
            let acc_lsb = (2.0f64).powi(-(acc_scale as i32));
            let mut next = Vec::with_capacity(layer.outputs);
            let mut next_real = Vec::with_capacity(layer.outputs);
            for o in 0..layer.outputs {
                let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                let mut acc: i64 = layer.biases[o];
                for (&w, x) in row.iter().zip(&activation) {
                    acc += i64::from(w) * x;
                }
                let mag_bits = 64 - acc.unsigned_abs().leading_zeros();
                if mag_bits > self.peak_accumulator_bits.get() {
                    self.peak_accumulator_bits.set(mag_bits);
                }
                let z = (acc as f64 * acc_lsb) as f32;
                let a = self.sigmoid.eval(z);
                next.push(self.activation_format.quantize_reference(a));
                next_real.push(a);
            }
            activation = next;
            if li == self.layers.len() - 1 {
                output = next_real;
            }
        }
        output
    }
}

/// Reusable buffers for [`QuantizedMlp::forward_into`]. One scratch serves
/// networks of any shape; it grows to the widest layer it has seen.
///
/// The activation codes are `i16`, the width of the widest datapath a
/// [`QuantizedMlp`] models; the forward widens each product to `i32` and
/// each chunk sum to `i64` (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    activation: Vec<i16>,
    next: Vec<i16>,
    output: Vec<f32>,
}

/// `Σ w·x` over a weight row and the activations: each `chunk` of
/// products is summed in an `i32`, which the layer's chunk length keeps
/// from overflowing, and the chunk sums meet in an `i64`. Integer sums
/// are exact in any order, so this is the sequential `i64` loop's result;
/// the `i32` chunk sum of `i16` products vectorizes to `pmaddwd`.
#[inline]
fn dot(row: &[i16], activation: &[i16], chunk: usize) -> i64 {
    row.chunks(chunk)
        .zip(activation.chunks(chunk))
        .map(|(w, x)| {
            let sum: i32 = w
                .iter()
                .zip(x)
                .map(|(&w, &x)| i32::from(w) * i32::from(x))
                .sum();
            i64::from(sum)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_rng::rngs::StdRng;
    use incam_rng::{Rng, SeedableRng};

    #[test]
    fn qformat_round_trip_bound() {
        let q = QFormat::new(8, 6);
        for i in -100..=100 {
            let v = i as f32 / 64.0;
            if v.abs() < q.max_value() {
                assert!(q.round_trip_error(v) <= q.resolution() / 2.0 + 1e-7);
            }
        }
    }

    #[test]
    fn fit_chooses_integer_bits() {
        let q = QFormat::fit(8, 3.5); // needs 2 integer bits
        assert_eq!(q.frac_bits(), 5);
        let q1 = QFormat::fit(8, 0.9); // fits in fraction only
        assert_eq!(q1.frac_bits(), 7);
        let q16 = QFormat::fit(16, 3.5);
        assert_eq!(q16.frac_bits(), 13);
        // no 8-bit format fits these: the coarsest, Q·.0
        for max_abs in [f32::INFINITY, f32::NAN, f32::MAX] {
            assert_eq!(QFormat::fit(8, max_abs).frac_bits(), 0, "{max_abs}");
        }
    }

    #[test]
    fn quantized_network_tracks_float_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = Mlp::random(Topology::new(vec![20, 8, 1]), &mut rng);
        let q16 = QuantizedMlp::from_mlp(&net, 16, Sigmoid::lut256());
        let q8 = QuantizedMlp::from_mlp(&net, 8, Sigmoid::lut256());
        let q4 = QuantizedMlp::from_mlp(&net, 4, Sigmoid::lut256());

        let mut err16 = 0.0f32;
        let mut err8 = 0.0f32;
        let mut err4 = 0.0f32;
        let n = 50;
        for _ in 0..n {
            let input: Vec<f32> = (0..20).map(|_| rng.gen_range(0.0..1.0)).collect();
            let reference = net.forward(&input, &Sigmoid::Exact)[0];
            err16 += (q16.forward(&input)[0] - reference).abs();
            err8 += (q8.forward(&input)[0] - reference).abs();
            err4 += (q4.forward(&input)[0] - reference).abs();
        }
        let (e16, e8, e4) = (err16 / n as f32, err8 / n as f32, err4 / n as f32);
        assert!(e16 < 0.01, "16-bit mean error {e16}");
        assert!(e8 < 0.05, "8-bit mean error {e8}");
        assert!(e4 > e8, "4-bit error {e4} should exceed 8-bit {e8}");
    }

    #[test]
    fn accumulator_fits_26_bits_for_paper_network() {
        // 8-bit datapath, 400-wide layer: the PE's 26-bit accumulator must
        // never overflow (Fig. 3's datapath sizing).
        let mut rng = StdRng::seed_from_u64(33);
        let net = Mlp::random(Topology::paper_default(), &mut rng);
        let q = QuantizedMlp::from_mlp(&net, 8, Sigmoid::lut256());
        for _ in 0..20 {
            let input: Vec<f32> = (0..400).map(|_| rng.gen_range(0.0..1.0)).collect();
            let _ = q.forward(&input);
        }
        assert!(q.peak_accumulator_bits() > 0);
        assert!(
            q.peak_accumulator_bits() <= 26,
            "accumulator needed {} bits",
            q.peak_accumulator_bits()
        );
    }

    #[test]
    fn partial_sums_stay_exact_at_the_rails() {
        // every weight at one rail and every input at the negative rail:
        // each product is as wide as the layer's chunk length allows, so
        // a chunk one input too long overflows its i32 sum (a panic under
        // the test profile's overflow checks)
        let mut rng = StdRng::seed_from_u64(5);
        let input = vec![-1.0f32; 1024];
        let mut scratch = ForwardScratch::default();
        for bits in [8, 16] {
            for extreme in [-1.0f32, 1.0] {
                let mut net = Mlp::random(Topology::new(vec![1024, 3, 1]), &mut rng);
                for layer in net.layers_mut() {
                    layer.weights_mut().fill(extreme);
                    layer.biases_mut().fill(0.0);
                }
                let fast = QuantizedMlp::from_mlp(&net, bits, Sigmoid::lut256());
                let rail = if extreme < 0.0 {
                    fast.weight_format().min_code()
                } else {
                    fast.weight_format().max_code()
                };
                assert_eq!(fast.layers()[0].weight(2, 1023), rail);
                let reference = fast.clone();
                let a = fast.forward_into(&input, &mut scratch).to_vec();
                let b = reference.forward_reference(&input);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{bits} bits at {extreme}");
                }
                assert_eq!(
                    fast.peak_accumulator_bits(),
                    reference.peak_accumulator_bits()
                );
            }
        }
    }

    #[test]
    fn infinite_biases_saturate_without_overflow() {
        // a bias of ±inf saturates its code, and weights of the bias's
        // sign push the dot product further the same way: the forward's
        // `bias + dot` must stay inside an i64 (a panic under the test
        // profile's overflow checks) and score at the bias's rail
        let mut rng = StdRng::seed_from_u64(9);
        let input = [1.0f32, 1.0];
        let mut scratch = ForwardScratch::default();
        for bits in [8, 16] {
            for bias in [f32::INFINITY, f32::NEG_INFINITY] {
                let mut net = Mlp::random(Topology::new(vec![2, 1]), &mut rng);
                for layer in net.layers_mut() {
                    layer.weights_mut().fill(0.5 * bias.signum());
                    layer.biases_mut().fill(bias);
                }
                let fast = QuantizedMlp::from_mlp(&net, bits, Sigmoid::lut256());
                let a = fast.forward_into(&input, &mut scratch)[0];
                let b = fast.forward_reference(&input)[0];
                assert_eq!(a.to_bits(), b.to_bits(), "{bits} bits, bias {bias}");
                if bias > 0.0 {
                    assert!(a >= 0.99, "{bits} bits: +inf bias scored {a}");
                } else {
                    assert!(a <= 0.01, "{bits} bits: -inf bias scored {a}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "data_bits")]
    fn datapath_past_16_bits_rejected() {
        let net = Mlp::random(Topology::new(vec![4, 1]), &mut StdRng::seed_from_u64(1));
        let _ = QuantizedMlp::from_mlp(&net, 17, Sigmoid::lut256());
    }

    #[test]
    fn saturation_clamps_out_of_range_weights() {
        let q = QFormat::new(4, 2); // codes -8..7, resolution 0.25
        assert_eq!(q.quantize(10.0), 7);
        assert_eq!(q.quantize(-10.0), -8);
        assert!((q.max_value() - 1.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn one_bit_format_rejected() {
        let _ = QFormat::new(1, 0);
    }
}
