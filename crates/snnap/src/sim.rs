//! The full accelerator simulator: functional fixed-point execution plus
//! schedule-derived timing and energy.
//!
//! [`SnnapAccelerator`] is what the WISPCam platform model instantiates as
//! its face-authentication core block: it carries a quantized network (the
//! *functional* model, bit-accurate to the PE datapath), and every
//! inference is costed with the cycle schedule and energy model.

use crate::config::SnnapConfig;
use crate::energy::{evaluate, EnergyModel, InferenceEnergy};
use crate::sched::Schedule;
use incam_core::units::{Fps, Joules, Seconds};
use incam_nn::mlp::Mlp;
use incam_nn::quant::QuantizedMlp;
use incam_nn::sigmoid::Sigmoid;
use incam_nn::topology::Topology;

/// A configured accelerator loaded with a quantized network.
#[derive(Debug, Clone)]
pub struct SnnapAccelerator {
    config: SnnapConfig,
    qnet: QuantizedMlp,
    schedule: Schedule,
    energy: InferenceEnergy,
}

impl SnnapAccelerator {
    /// Quantizes `net` for the configured datapath and precomputes the
    /// inference schedule and energy.
    ///
    /// # Examples
    ///
    /// ```
    /// use incam_nn::mlp::Mlp;
    /// use incam_nn::topology::Topology;
    /// use incam_snnap::config::SnnapConfig;
    /// use incam_snnap::sim::SnnapAccelerator;
    /// use incam_rng::SeedableRng;
    ///
    /// let mut rng = incam_rng::rngs::StdRng::seed_from_u64(1);
    /// let net = Mlp::random(Topology::new(vec![16, 4, 1]), &mut rng);
    /// let acc = SnnapAccelerator::new(&net, SnnapConfig::paper_default());
    /// let (score, cost) = acc.infer(&[0.5; 16]);
    /// assert!((0.0..=1.0).contains(&score));
    /// assert!(cost.joules() > 0.0);
    /// ```
    pub fn new(net: &Mlp, config: SnnapConfig) -> Self {
        config.validate();
        let sigmoid = Sigmoid::lut(config.sigmoid_entries);
        let qnet = QuantizedMlp::from_mlp(net, config.data_bits, sigmoid);
        let schedule = Schedule::build(net.topology(), &config);
        let energy = evaluate(&schedule, &config, &EnergyModel::default());
        Self {
            config,
            qnet,
            schedule,
            energy,
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &SnnapConfig {
        &self.config
    }

    /// The loaded quantized network.
    pub fn network(&self) -> &QuantizedMlp {
        &self.qnet
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.qnet.topology()
    }

    /// The precomputed inference schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Per-inference energy total.
    pub fn energy_per_inference(&self) -> Joules {
        self.energy.total()
    }

    /// Per-inference latency.
    pub fn latency(&self) -> Seconds {
        self.energy.latency
    }

    /// Peak inference throughput (back-to-back inferences).
    pub fn throughput(&self) -> Fps {
        Fps::from_period(self.latency())
    }

    /// Runs one inference, returning the first output and its energy cost.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the topology's input width.
    pub fn infer(&self, input: &[f32]) -> (f32, Joules) {
        let out = self.qnet.forward(input);
        (out[0], self.energy.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    fn accelerator(pes: usize, bits: u32) -> SnnapAccelerator {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::random(Topology::paper_default(), &mut rng);
        SnnapAccelerator::new(
            &net,
            SnnapConfig::paper_default().with_pes(pes).with_bits(bits),
        )
    }

    #[test]
    fn functional_output_close_to_float_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::random(Topology::paper_default(), &mut rng);
        let acc = SnnapAccelerator::new(&net, SnnapConfig::paper_default());
        let input = vec![0.5f32; 400];
        let (hw, _) = acc.infer(&input);
        let sw = net.forward(&input, &Sigmoid::Exact)[0];
        assert!((hw - sw).abs() < 0.05, "hw {hw} sw {sw}");
    }

    #[test]
    fn throughput_exceeds_camera_frame_rate() {
        // WISPCam captures at 1 FPS; the accelerator is orders faster
        let acc = accelerator(8, 8);
        assert!(acc.throughput().fps() > 10_000.0);
    }

    #[test]
    fn energy_consistent_between_infer_and_accessor() {
        let acc = accelerator(8, 8);
        let (_, e) = acc.infer(&[0.1; 400]);
        assert_eq!(e, acc.energy_per_inference());
    }

    #[test]
    fn geometry_changes_latency_not_function() {
        let acc1 = accelerator(1, 8);
        let acc8 = accelerator(8, 8);
        let input = vec![0.3f32; 400];
        let (o1, _) = acc1.infer(&input);
        let (o8, _) = acc8.infer(&input);
        assert_eq!(o1, o8, "geometry must not change results");
        assert!(acc1.latency() > acc8.latency());
    }

    #[test]
    fn bits_change_function_slightly() {
        let acc16 = accelerator(8, 16);
        let acc4 = accelerator(8, 4);
        let input = vec![0.7f32; 400];
        let (o16, _) = acc16.infer(&input);
        let (o4, _) = acc4.infer(&input);
        // different precision: outputs differ but stay in range
        assert!((0.0..=1.0).contains(&o16));
        assert!((0.0..=1.0).contains(&o4));
    }
}
