//! Floating-point multilayer perceptron: the FANN-like software reference.
//!
//! The paper trains its face-authentication networks with the Fast
//! Artificial Neural Network library (the paper's ref. 26); this module is the equivalent
//! substrate: a dense feed-forward network with logistic activations,
//! Xavier-style initialization, and a forward pass that can run with the
//! exact sigmoid or any hardware LUT approximation (for the §III-A
//! approximation study).

use crate::sigmoid::Sigmoid;
use crate::topology::Topology;
use incam_rng::Rng;

/// One fully-connected layer: `outputs × inputs` weights plus biases.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    inputs: usize,
    outputs: usize,
    /// Row-major `outputs × inputs` weight matrix.
    weights: Vec<f32>,
    biases: Vec<f32>,
}

impl Layer {
    /// Creates a zero-initialized layer.
    pub fn zeros(inputs: usize, outputs: usize) -> Self {
        Self {
            inputs,
            outputs,
            weights: vec![0.0; inputs * outputs],
            biases: vec![0.0; outputs],
        }
    }

    /// Number of input connections per neuron.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of neurons.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The weight from input `i` to neuron `o`.
    #[inline]
    pub fn weight(&self, o: usize, i: usize) -> f32 {
        self.weights[o * self.inputs + i]
    }

    /// Mutable weight access.
    #[inline]
    pub fn weight_mut(&mut self, o: usize, i: usize) -> &mut f32 {
        &mut self.weights[o * self.inputs + i]
    }

    /// All weights, row-major by neuron.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable access to all weights.
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Per-neuron biases.
    pub fn biases(&self) -> &[f32] {
        &self.biases
    }

    /// Mutable access to biases.
    pub fn biases_mut(&mut self) -> &mut [f32] {
        &mut self.biases
    }

    /// Pre-activation sums for the given input.
    pub fn pre_activations(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.inputs, "input width mismatch");
        (0..self.outputs)
            .map(|o| {
                let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
                let mut acc = self.biases[o];
                for (w, x) in row.iter().zip(input) {
                    acc += w * x;
                }
                acc
            })
            .collect()
    }
}

/// A feed-forward network with logistic activations on every non-input
/// layer.
///
/// # Examples
///
/// ```
/// use incam_nn::mlp::Mlp;
/// use incam_nn::sigmoid::Sigmoid;
/// use incam_nn::topology::Topology;
/// use incam_rng::SeedableRng;
///
/// let mut rng = incam_rng::rngs::StdRng::seed_from_u64(1);
/// let net = Mlp::random(Topology::new(vec![4, 3, 1]), &mut rng);
/// let out = net.forward(&[0.1, 0.5, 0.9, 0.2], &Sigmoid::Exact);
/// assert_eq!(out.len(), 1);
/// assert!(out[0] > 0.0 && out[0] < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    topology: Topology,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Creates a network with Xavier/Glorot-uniform initialized weights.
    pub fn random(topology: Topology, rng: &mut impl Rng) -> Self {
        let layers = topology
            .layers()
            .windows(2)
            .map(|w| {
                let (n_in, n_out) = (w[0], w[1]);
                let mut layer = Layer::zeros(n_in, n_out);
                let bound = (6.0 / (n_in + n_out) as f32).sqrt();
                for w in layer.weights_mut() {
                    *w = rng.gen_range(-bound..bound);
                }
                for b in layer.biases_mut() {
                    *b = rng.gen_range(-0.1..0.1);
                }
                layer
            })
            .collect();
        Self { topology, layers }
    }

    /// Creates a zero-weight network (useful for tests).
    pub fn zeros(topology: Topology) -> Self {
        let layers = topology
            .layers()
            .windows(2)
            .map(|w| Layer::zeros(w[0], w[1]))
            .collect();
        Self { topology, layers }
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network's layers (one per weight matrix).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access (used by the trainer).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Runs the forward pass with the given activation implementation.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the topology's input width.
    pub fn forward(&self, input: &[f32], sigmoid: &Sigmoid) -> Vec<f32> {
        assert_eq!(input.len(), self.topology.inputs(), "input width mismatch");
        let mut activation = input.to_vec();
        for layer in &self.layers {
            activation = layer
                .pre_activations(&activation)
                .into_iter()
                .map(|z| sigmoid.eval(z))
                .collect();
        }
        activation
    }

    /// Packs every layer's weights into 16-neuron groups once, for
    /// repeated forward passes through [`PackedMlp::forward_into`].
    pub fn pack(&self) -> PackedMlp {
        PackedMlp {
            inputs: self.topology.inputs(),
            layers: self.layers.iter().map(PackedLayer::new).collect(),
        }
    }

    /// Forward pass returning every layer's activations (input first) —
    /// the intermediate values backprop needs.
    pub fn forward_trace(&self, input: &[f32], sigmoid: &Sigmoid) -> Vec<Vec<f32>> {
        let mut trace = Vec::with_capacity(self.layers.len() + 1);
        trace.push(input.to_vec());
        for layer in &self.layers {
            let next = layer
                .pre_activations(trace.last().expect("trace is non-empty")) // incam-lint: allow(fallible-unwrap) — trace starts with the input layer, never empty
                .into_iter()
                .map(|z| sigmoid.eval(z))
                .collect();
            trace.push(next);
        }
        trace
    }

    /// Largest absolute weight or bias — used to choose fixed-point scales.
    pub fn max_abs_param(&self) -> f32 {
        self.layers
            .iter()
            .flat_map(|l| l.weights().iter().chain(l.biases()))
            .fold(0.0f32, |m, &w| m.max(w.abs()))
    }
}

/// An [`Mlp`] with each layer's weights packed once into 16-neuron groups
/// ([`Mlp::pack`]), for forward passes that reuse the packing and their
/// activation buffers.
///
/// Each layer is padded to whole groups with zero weights and biases.
/// The layer kernel advances one group (16 independent accumulators) per
/// sweep of the input and writes only the real neurons' outputs. Each
/// neuron still sums its bias, then its inputs in ascending order, so
/// every output equals [`Mlp::forward`] bit for bit.
#[derive(Debug, Clone)]
pub struct PackedMlp {
    inputs: usize,
    layers: Vec<PackedLayer>,
}

/// One layer of a [`PackedMlp`].
#[derive(Debug, Clone)]
struct PackedLayer {
    inputs: usize,
    outputs: usize,
    /// `outputs.div_ceil(16)` groups of `inputs × 16` weights, group `g`
    /// holding neuron `16g + lane`'s weight for input `i` at
    /// `i * 16 + lane`; the padding lanes are zero.
    weights: Vec<f32>,
    /// The biases, zero-padded to whole groups.
    biases: Vec<f32>,
}

impl PackedLayer {
    fn new(layer: &Layer) -> Self {
        let (width, outs) = (layer.inputs, layer.outputs);
        let padded = outs.div_ceil(16) * 16;
        let mut weights = vec![0.0; padded * width];
        for (o, row) in layer.weights.chunks_exact(width).enumerate() {
            let group = &mut weights[o / 16 * 16 * width..][..16 * width];
            for (i, &w) in row.iter().enumerate() {
                group[i * 16 + o % 16] = w;
            }
        }
        let mut biases = layer.biases.clone();
        biases.resize(padded, 0.0);
        Self {
            inputs: width,
            outputs: outs,
            weights,
            biases,
        }
    }

    /// One example through the layer: `out[o] = σ(bias_o + Σ w_oi · x_i)`,
    /// summed in ascending `i`.
    fn forward_row(&self, x: &[f32], sigmoid: &Sigmoid, out: &mut [f32]) {
        let groups = self.weights.chunks_exact(16 * self.inputs);
        for ((group, bias), outs) in groups
            .zip(self.biases.chunks_exact(16))
            .zip(out.chunks_mut(16))
        {
            let mut acc = [0.0f32; 16];
            acc.copy_from_slice(bias);
            for (&xi, w) in x.iter().zip(group.chunks_exact(16)) {
                for lane in 0..16 {
                    acc[lane] += w[lane] * xi;
                }
            }
            for (o, &a) in outs.iter_mut().zip(&acc) {
                *o = sigmoid.eval(a);
            }
        }
    }
}

impl PackedMlp {
    /// Forward pass into caller-owned buffers, returning the last layer's
    /// activations: bit-identical to [`Mlp::forward`] on the network this
    /// was packed from, and allocation-free once `buffers` has grown to
    /// the network's widest layer.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the topology's input width.
    pub fn forward_into<'b>(
        &self,
        input: &[f32],
        sigmoid: &Sigmoid,
        buffers: &'b mut ActivationBuffers,
    ) -> &'b [f32] {
        assert_eq!(input.len(), self.inputs, "input width mismatch");
        let ActivationBuffers { activation, next } = buffers;
        activation.clear();
        activation.extend_from_slice(input);
        for layer in &self.layers {
            next.clear();
            next.resize(layer.outputs, 0.0);
            layer.forward_row(activation, sigmoid, next);
            std::mem::swap(activation, next);
        }
        activation
    }
}

/// Reusable activation buffers for [`PackedMlp::forward_into`]. One set
/// serves networks of any shape; it grows to the widest layer it has
/// seen.
#[derive(Debug, Clone, Default)]
pub struct ActivationBuffers {
    activation: Vec<f32>,
    next: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    #[test]
    fn zero_network_outputs_half() {
        let net = Mlp::zeros(Topology::new(vec![3, 2, 1]));
        let out = net.forward(&[1.0, -1.0, 0.5], &Sigmoid::Exact);
        // zero weights + zero bias => sigmoid(0) = 0.5 everywhere
        assert!((out[0] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut net = Mlp::zeros(Topology::new(vec![2, 1]));
        *net.layers_mut()[0].weight_mut(0, 0) = 1.0;
        *net.layers_mut()[0].weight_mut(0, 1) = -2.0;
        net.layers_mut()[0].biases_mut()[0] = 0.5;
        let out = net.forward(&[1.0, 0.25], &Sigmoid::Exact);
        let expected = 1.0 / (1.0 + (-(1.0 - 0.5 + 0.5) as f32).exp());
        assert!((out[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn trace_layers_have_topology_widths() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Mlp::random(Topology::new(vec![5, 4, 3, 2]), &mut rng);
        let trace = net.forward_trace(&[0.0; 5], &Sigmoid::Exact);
        let widths: Vec<usize> = trace.iter().map(Vec::len).collect();
        assert_eq!(widths, vec![5, 4, 3, 2]);
        // last trace entry equals forward()
        let out = net.forward(&[0.0; 5], &Sigmoid::Exact);
        assert_eq!(trace.last().unwrap(), &out);
    }

    #[test]
    fn random_init_within_xavier_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Mlp::random(Topology::new(vec![100, 10]), &mut rng);
        let bound = (6.0 / 110.0f32).sqrt();
        for &w in net.layers()[0].weights() {
            assert!(w.abs() <= bound);
        }
        assert!(net.max_abs_param() > 0.0);
    }

    #[test]
    fn lut_forward_close_to_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::random(Topology::new(vec![10, 6, 1]), &mut rng);
        let input: Vec<f32> = (0..10).map(|i| i as f32 / 10.0).collect();
        let exact = net.forward(&input, &Sigmoid::Exact)[0];
        let approx = net.forward(&input, &Sigmoid::lut256())[0];
        assert!((exact - approx).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_input_width_panics() {
        let net = Mlp::zeros(Topology::new(vec![3, 1]));
        let _ = net.forward(&[0.0; 2], &Sigmoid::Exact);
    }
}
