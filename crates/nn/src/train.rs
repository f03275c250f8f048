//! Backpropagation training (incremental gradient descent with momentum),
//! in the style of FANN's default trainer.

use crate::mlp::Mlp;
use crate::sigmoid::{sigmoid_derivative_from_output, Sigmoid};
use incam_rng::seq::SliceRandom;
use incam_rng::Rng;

/// A supervised training set: input vectors and target vectors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingSet {
    /// Input feature vectors.
    pub inputs: Vec<Vec<f32>>,
    /// Target output vectors (same length as `inputs`).
    pub targets: Vec<Vec<f32>>,
}

impl TrainingSet {
    /// Creates a training set.
    ///
    /// # Panics
    ///
    /// Panics if the two lists have different lengths.
    pub fn new(inputs: Vec<Vec<f32>>, targets: Vec<Vec<f32>>) -> Self {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs and targets must pair up"
        );
        Self { inputs, targets }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when the set has no examples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Step size (FANN default ballpark: 0.5–0.7 for logistic nets).
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Maximum passes over the training set.
    pub max_epochs: usize,
    /// Stop early when mean squared error falls below this.
    pub target_mse: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            momentum: 0.9,
            max_epochs: 200,
            target_mse: 1e-3,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs: usize,
    /// Final training mean squared error.
    pub final_mse: f32,
    /// Whether `target_mse` was reached before `max_epochs`.
    pub converged: bool,
}

/// Trains `net` in place on `data` with stochastic (per-example)
/// backpropagation and momentum. Training always uses the exact sigmoid;
/// hardware approximations are applied at *inference* time, matching the
/// paper's methodology (train in float, deploy quantized/approximated).
///
/// # Panics
///
/// Panics if the data is empty or example widths do not match the network.
///
/// # Examples
///
/// Learn XOR:
///
/// ```
/// use incam_nn::mlp::Mlp;
/// use incam_nn::sigmoid::Sigmoid;
/// use incam_nn::topology::Topology;
/// use incam_nn::train::{train, TrainConfig, TrainingSet};
/// use incam_rng::SeedableRng;
///
/// let mut rng = incam_rng::rngs::StdRng::seed_from_u64(42);
/// let mut net = Mlp::random(Topology::new(vec![2, 4, 1]), &mut rng);
/// let data = TrainingSet::new(
///     vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
///     vec![vec![0.], vec![1.], vec![1.], vec![0.]],
/// );
/// let report = train(&mut net, &data, &TrainConfig {
///     max_epochs: 4000, target_mse: 0.01, ..Default::default()
/// }, &mut rng);
/// assert!(report.final_mse < 0.05);
/// ```
pub fn train(
    net: &mut Mlp,
    data: &TrainingSet,
    config: &TrainConfig,
    rng: &mut impl Rng,
) -> TrainReport {
    assert!(!data.is_empty(), "training set must be non-empty");
    let sigmoid = Sigmoid::Exact;
    let n_layers = net.layers().len();

    // momentum buffers mirror the weight/bias shapes
    let mut w_vel: Vec<Vec<f32>> = net
        .layers()
        .iter()
        .map(|l| vec![0.0; l.weights().len()])
        .collect();
    let mut b_vel: Vec<Vec<f32>> = net
        .layers()
        .iter()
        .map(|l| vec![0.0; l.biases().len()])
        .collect();

    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut mse = f32::INFINITY;
    let mut epochs = 0;

    for epoch in 0..config.max_epochs {
        epochs = epoch + 1;
        order.shuffle(rng);
        let mut sq_err_sum = 0.0f64;
        let mut err_count = 0usize;

        for &idx in &order {
            let input = &data.inputs[idx];
            let target = &data.targets[idx];
            let trace = net.forward_trace(input, &sigmoid);
            let output = trace.last().expect("trace non-empty"); // incam-lint: allow(fallible-unwrap) — forward_trace always returns the input layer
            assert_eq!(output.len(), target.len(), "target width mismatch");

            // output-layer deltas
            let mut deltas: Vec<f32> = output
                .iter()
                .zip(target)
                .map(|(&o, &t)| {
                    let err = o - t;
                    sq_err_sum += (err * err) as f64;
                    err * sigmoid_derivative_from_output(o)
                })
                .collect();
            err_count += target.len();

            // backward pass
            for li in (0..n_layers).rev() {
                let prev_activation = trace[li].clone();
                // compute deltas for the layer below before mutating weights
                let next_deltas: Option<Vec<f32>> = (li > 0).then(|| {
                    let layer = &net.layers()[li];
                    (0..layer.inputs())
                        .map(|i| {
                            let mut sum = 0.0f32;
                            for (o, delta) in deltas.iter().enumerate() {
                                sum += delta * layer.weight(o, i);
                            }
                            sum * sigmoid_derivative_from_output(prev_activation[i])
                        })
                        .collect()
                });

                let layer = &mut net.layers_mut()[li];
                let inputs = layer.inputs();
                for (o, &delta) in deltas.iter().enumerate() {
                    let grad_scale = config.learning_rate * delta;
                    for (i, &activation) in prev_activation.iter().enumerate().take(inputs) {
                        let vi = o * inputs + i;
                        let v = config.momentum * w_vel[li][vi] - grad_scale * activation;
                        w_vel[li][vi] = v;
                        layer.weights_mut()[vi] += v;
                    }
                    let v = config.momentum * b_vel[li][o] - grad_scale;
                    b_vel[li][o] = v;
                    layer.biases_mut()[o] += v;
                }

                if let Some(nd) = next_deltas {
                    deltas = nd;
                }
            }
        }

        mse = (sq_err_sum / err_count as f64) as f32;
        if mse <= config.target_mse {
            return TrainReport {
                epochs,
                final_mse: mse,
                converged: true,
            };
        }
    }

    TrainReport {
        epochs,
        final_mse: mse,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    fn xor_data() -> TrainingSet {
        TrainingSet::new(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]],
        )
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Mlp::random(Topology::new(vec![2, 4, 1]), &mut rng);
        let report = train(
            &mut net,
            &xor_data(),
            &TrainConfig {
                max_epochs: 5000,
                target_mse: 0.01,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(report.final_mse < 0.05, "mse {}", report.final_mse);
        let s = Sigmoid::Exact;
        assert!(net.forward(&[0.0, 1.0], &s)[0] > 0.7);
        assert!(net.forward(&[1.0, 1.0], &s)[0] < 0.3);
    }

    #[test]
    fn linear_problem_converges_quickly() {
        // y = x0 (ignore x1) is linearly separable: should converge fast
        let mut rng = StdRng::seed_from_u64(8);
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 2) as f32, ((i / 2) % 2) as f32])
            .collect();
        let targets: Vec<Vec<f32>> = inputs.iter().map(|v| vec![v[0]]).collect();
        let data = TrainingSet::new(inputs, targets);
        let mut net = Mlp::random(Topology::new(vec![2, 1]), &mut rng);
        let report = train(
            &mut net,
            &data,
            &TrainConfig {
                max_epochs: 500,
                target_mse: 0.02,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(report.converged, "mse {}", report.final_mse);
    }

    #[test]
    fn mse_decreases_during_training() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Mlp::random(Topology::new(vec![2, 4, 1]), &mut rng);
        let data = xor_data();
        let mse = |net: &Mlp| {
            let pairs = data.inputs.iter().zip(&data.targets);
            let sum: f64 = pairs
                .map(|(x, t)| f64::from(net.forward(x, &Sigmoid::Exact)[0] - t[0]).powi(2))
                .sum();
            sum / data.len() as f64
        };
        let before = mse(&net);
        let _ = train(
            &mut net,
            &data,
            &TrainConfig {
                max_epochs: 1500,
                target_mse: 0.0,
                ..Default::default()
            },
            &mut rng,
        );
        let after = mse(&net);
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Mlp::zeros(Topology::new(vec![2, 1]));
        let _ = train(
            &mut net,
            &TrainingSet::default(),
            &TrainConfig::default(),
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_training_set_rejected() {
        let _ = TrainingSet::new(vec![vec![0.0]], vec![]);
    }
}
