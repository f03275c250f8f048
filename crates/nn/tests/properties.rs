//! Property-based tests of the NN substrate.

use incam_nn::eval::Confusion;
use incam_nn::mlp::{ActivationBuffers, Mlp};
use incam_nn::quant::{ForwardScratch, QFormat, QuantizedMlp};
use incam_nn::sigmoid::{sigmoid_exact, LutSigmoid, Sigmoid};
use incam_nn::topology::Topology;
use incam_rng::prelude::*;
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;

/// Scaled values where `roundf` and saturation are easiest to get wrong:
/// signed zeros, NaNs (with and without a payload, either sign),
/// infinities, exact ties, and the neighbourhoods of ±2^23 (where f32
/// stops holding fractions) and ±2^31 (far past the widest code, 2^15).
fn quantize_edges() -> Vec<f32> {
    let mut edges = vec![
        0.0,
        -0.0,
        f32::NAN,
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffc0_8001),
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for k in [
        0.0f32,
        1.0,
        2.0,
        7.0,
        126.0,
        127.0,
        128.0,
        4_194_303.0,
        8_388_606.0,
    ] {
        edges.extend([k + 0.5, -(k + 0.5)]);
    }
    for anchor in [8_388_608.0f32, 2_147_483_648.0] {
        let mut v = anchor;
        for _ in 0..3 {
            v = f32::from_bits(v.to_bits() - 1);
        }
        for _ in 0..7 {
            edges.extend([v, -v]);
            v = f32::from_bits(v.to_bits() + 1);
        }
    }
    edges
}

proptest! {
    /// Topology counting identities: weights+biases == per-layer sums and
    /// scale correctly with bit width.
    #[test]
    fn topology_counts(layers in prop::collection::vec(1usize..40, 2..5)) {
        let t = Topology::new(layers.clone());
        let weights: usize = layers.windows(2).map(|w| w[0] * w[1]).sum();
        let biases: usize = layers[1..].iter().sum();
        prop_assert_eq!(t.num_weights(), weights);
        prop_assert_eq!(t.num_biases(), biases);
        prop_assert_eq!(t.weight_bytes(16), 2 * t.weight_bytes(8));
        prop_assert_eq!(t.macs_per_inference(), weights);
    }

    /// The exact sigmoid is monotone, bounded, and symmetric; every LUT
    /// stays within its analytic worst case of the exact function.
    #[test]
    fn sigmoid_axioms(x in -20.0f32..20.0, entries in 8usize..512) {
        let y = sigmoid_exact(x);
        prop_assert!((0.0..=1.0).contains(&y));
        prop_assert!((sigmoid_exact(-x) - (1.0 - y)).abs() < 1e-5);
        let lut = LutSigmoid::new(entries, 8.0);
        let approx = lut.eval(x);
        prop_assert!((0.0..=1.0).contains(&approx));
        // within range, the LUT error is bounded by one bucket's swing
        if x.abs() < 8.0 {
            let bucket = 16.0 / entries as f32;
            prop_assert!((approx - y).abs() <= bucket / 4.0 + 2e-3 + bucket);
        }
    }

    /// Forward passes are deterministic and bounded in (0, 1).
    #[test]
    fn forward_deterministic_and_bounded(seed in 0u64..500, input_bits in 0u32..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::random(Topology::new(vec![8, 5, 2]), &mut rng);
        let input: Vec<f32> = (0..8).map(|i| ((input_bits >> i) & 1) as f32).collect();
        let a = net.forward(&input, &Sigmoid::Exact);
        let b = net.forward(&input, &Sigmoid::Exact);
        prop_assert_eq!(a.clone(), b);
        for v in a {
            prop_assert!(v > 0.0 && v < 1.0);
        }
    }

    /// Quantized inference converges to the float reference as bits grow.
    #[test]
    fn quantization_error_shrinks_with_bits(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::random(Topology::new(vec![12, 6, 1]), &mut rng);
        let input: Vec<f32> = (0..12).map(|i| (i as f32) / 12.0).collect();
        let reference = net.forward(&input, &Sigmoid::Exact)[0];
        let err_at = |bits: u32| {
            let q = QuantizedMlp::from_mlp(&net, bits, Sigmoid::lut(1024));
            (q.forward(&input)[0] - reference).abs()
        };
        // 16-bit within a tight bound; wider always at least as good as a
        // loose multiple of narrower (allowing quantization noise)
        prop_assert!(err_at(16) < 0.02, "16-bit err {}", err_at(16));
        prop_assert!(err_at(12) < 0.08);
    }

    /// QFormat: dequantize(quantize(x)) is within resolution/2 in range,
    /// and codes saturate cleanly at the rails.
    #[test]
    fn qformat_rails(bits in 3u32..=16, x in -1e4f32..1e4) {
        let q = QFormat::fit(bits, 1.0);
        let code = q.quantize(x);
        prop_assert!(code >= q.min_code() && code <= q.max_code());
        let back = q.dequantize(code);
        if x.abs() <= q.max_value() {
            prop_assert!((back - x).abs() <= q.resolution() / 2.0 + 1e-6);
        } else {
            // saturated: reconstruction sits at a rail
            prop_assert!(back.abs() >= q.max_value().min(-q.dequantize(q.min_code())) - q.resolution());
        }
    }

    /// The `roundf`-free quantizer equals the original expression on a
    /// random f32 bit pattern and on every edge value, at every width from
    /// 2 to 16 bits and at the narrowest, middle and widest fraction.
    #[test]
    fn quantize_bitwise_equal_roundf_reference(pattern in 0u32..=u32::MAX) {
        let mut scaled = quantize_edges();
        scaled.push(f32::from_bits(pattern));
        for bits in 2u32..=16 {
            for frac in [0, bits / 2, bits - 1] {
                let q = QFormat::new(bits, frac);
                // quantize divides by the resolution, a power of two, so
                // scaling the probes by it leaves them exact
                for &s in &scaled {
                    for v in [s, s * q.resolution()] {
                        prop_assert_eq!(
                            q.quantize(v),
                            q.quantize_reference(v),
                            "Q{}.{} at {:e}",
                            bits,
                            frac,
                            v
                        );
                    }
                }
            }
        }
    }

    /// The scratch forward is bit-identical to the original allocating
    /// loop, in its outputs and in `peak_accumulator_bits`: over 1–3
    /// layers with fan-ins that are not multiples of four, 2- to 16-bit
    /// datapaths, both sigmoids, inputs outside [0, 1], every edge value
    /// of `quantize_edges` in LSB units of the activation format (exact
    /// ties, both rails, ±0, NaN and ±∞), and one scratch that a network
    /// of another shape used first.
    #[test]
    fn forward_into_bitwise_equal_reference(
        layers in prop::collection::vec(1usize..41, 2..5),
        data_bits in 2u32..=16,
        exact in any::<bool>(),
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::random(Topology::new(layers.clone()), &mut rng);
        let sigmoid = if exact { Sigmoid::Exact } else { Sigmoid::lut256() };
        let fast = QuantizedMlp::from_mlp(&net, data_bits, sigmoid);
        let reference = fast.clone();
        let other = Mlp::random(Topology::new(vec![23, 9, 3]), &mut rng);
        let other = QuantizedMlp::from_mlp(&other, 8, Sigmoid::lut256());
        let mut scratch = ForwardScratch::default();
        let _ = other.forward_into(&[0.7; 23], &mut scratch);
        let width = layers[0];
        let random = (0..4).map(|_| -> Vec<f32> {
            (0..width).map(|_| rng.gen_range(-3.0..3.0f32)).collect()
        });
        let lsb = fast.activation_format().resolution();
        let edges: Vec<f32> = quantize_edges().iter().map(|&e| e * lsb).collect();
        let edge = edges.chunks(width).map(|c| c.iter().copied().cycle().take(width).collect());
        for input in random.chain(edge) {
            let a = fast.forward_into(&input, &mut scratch).to_vec();
            let b = reference.forward_reference(&input);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "layers {:?}", layers);
            }
            prop_assert_eq!(fast.peak_accumulator_bits(), reference.peak_accumulator_bits());
        }
    }

    /// The packed forward into reused buffers is bit-exact against
    /// `Mlp::forward`: one to three layers of widths 1–70 (so whole
    /// 16-neuron groups and groups with zero-padded lanes both occur),
    /// both sigmoids, inputs in [−3, 3], and buffers first used by a
    /// network of another shape. A fourth input puts ±∞, ±`f32::MAX` and
    /// ±0 on its even indices, so padded lanes compute 0·∞ = NaN, which no
    /// real output may see.
    #[test]
    fn packed_forward_bitwise_equal_forward(
        layers in prop::collection::vec(1usize..=70, 2..5),
        exact in any::<bool>(),
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::random(Topology::new(layers.clone()), &mut rng);
        let packed = net.pack();
        let sigmoid = if exact { Sigmoid::Exact } else { Sigmoid::lut256() };
        let mut buffers = ActivationBuffers::default();
        let other = Mlp::random(Topology::new(vec![37, 5, 19]), &mut rng).pack();
        let _ = other.forward_into(&[0.7; 37], &sigmoid, &mut buffers);
        let extremes = [f32::INFINITY, f32::NEG_INFINITY, f32::MAX, -f32::MAX, 0.0, -0.0];
        for round in 0..4 {
            let input: Vec<f32> = (0..layers[0])
                .map(|i| match round {
                    3 if i % 2 == 0 => extremes[i / 2 % extremes.len()],
                    _ => rng.gen_range(-3.0..3.0f32),
                })
                .collect();
            let a = packed.forward_into(&input, &sigmoid, &mut buffers).to_vec();
            let b = net.forward(&input, &sigmoid);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "layers {:?}", layers);
            }
        }
    }

    /// Confusion-matrix identities: accuracy + error == 1; counts add up;
    /// F1 bounded by min/max of precision and recall... within [0,1].
    #[test]
    fn confusion_identities(outcomes in prop::collection::vec((0.0f32..1.0, any::<bool>()), 1..100)) {
        let c = Confusion::from_scores(outcomes.iter().copied(), 0.5);
        prop_assert_eq!(c.total(), outcomes.len());
        prop_assert!((c.accuracy() + c.error() - 1.0).abs() < 1e-12);
        let f1 = c.f1();
        prop_assert!((0.0..=1.0).contains(&f1));
        let p = c.precision();
        let r = c.recall();
        if p > 0.0 && r > 0.0 {
            prop_assert!(f1 <= p.max(r) + 1e-12);
            prop_assert!(f1 >= p.min(r) - 1e-12);
        }
        prop_assert!((c.miss_rate() + c.recall() - 1.0).abs() < 1e-12 || (c.tp + c.fn_) == 0);
    }
}
