//! The duty-cycled harvested-energy platform simulation.
//!
//! WISPCam charges its capacitor from the RF field, captures a frame when
//! enough energy is banked, and browns out if a frame's processing draws
//! more than is stored. [`WispCamPlatform::simulate`] runs that loop
//! against a per-frame energy cost and reports the achieved frame rate —
//! the feasibility check behind the paper's claim that the accelerated
//! pipeline runs continuously on harvested power.

use crate::capacitor::Capacitor;
use crate::harvester::RfHarvester;
use incam_core::units::{Fps, Joules, Seconds};

/// The harvesting platform: RF front-end plus storage.
#[derive(Debug, Clone, PartialEq)]
pub struct WispCamPlatform {
    harvester: RfHarvester,
    capacitor: Capacitor,
}

/// Outcome of a platform simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationReport {
    /// Frame periods simulated.
    pub periods: usize,
    /// Frames successfully captured and processed.
    pub frames_processed: usize,
    /// Frame periods skipped because the capacitor lacked energy.
    pub brownouts: usize,
    /// Achieved average frame rate.
    pub achieved_fps: Fps,
    /// Total energy harvested.
    pub harvested: Joules,
    /// Total energy consumed by frames.
    pub consumed: Joules,
}

impl WispCamPlatform {
    /// Creates a platform.
    pub fn new(harvester: RfHarvester, capacitor: Capacitor) -> Self {
        Self {
            harvester,
            capacitor,
        }
    }

    /// The WISPCam-class defaults.
    pub fn wispcam_default() -> Self {
        Self::new(RfHarvester::wispcam_default(), Capacitor::wispcam_default())
    }

    /// The harvester.
    pub fn harvester(&self) -> &RfHarvester {
        &self.harvester
    }

    /// Mutable harvester access (e.g. to change distance).
    pub fn harvester_mut(&mut self) -> &mut RfHarvester {
        &mut self.harvester
    }

    /// The storage capacitor.
    pub fn capacitor(&self) -> &Capacitor {
        &self.capacitor
    }

    /// Mutable capacitor access (used by the degraded runtime, which
    /// drives the charge/draw loop itself at block granularity).
    pub fn capacitor_mut(&mut self) -> &mut Capacitor {
        &mut self.capacitor
    }

    /// The steady-state frame rate a per-frame cost can sustain on the
    /// current harvest power (ignoring capacitor granularity).
    ///
    /// # Examples
    ///
    /// ```
    /// use incam_core::units::Joules;
    /// use incam_wispcam::platform::WispCamPlatform;
    ///
    /// let p = WispCamPlatform::wispcam_default();
    /// let fps = p.sustainable_fps(Joules::from_micro(40.0));
    /// assert!(fps.fps() > 1.0); // 1 FPS face authentication is feasible
    /// ```
    pub fn sustainable_fps(&self, energy_per_frame: Joules) -> Fps {
        Fps::new(self.harvester.output_power().watts() / energy_per_frame.joules())
    }

    /// Simulates `periods` frame periods at `target_fps`, drawing
    /// `energy_per_frame` per captured frame. A period browns out (no
    /// frame) when the stored energy is insufficient; harvesting continues
    /// regardless.
    ///
    /// # Panics
    ///
    /// Panics if `target_fps` or `energy_per_frame` is non-positive.
    pub fn simulate(
        &mut self,
        periods: usize,
        target_fps: Fps,
        energy_per_frame: Joules,
    ) -> SimulationReport {
        assert!(target_fps.fps() > 0.0, "frame rate must be positive");
        assert!(
            energy_per_frame.joules() > 0.0,
            "frame energy must be positive"
        );
        let period = Seconds::new(1.0 / target_fps.fps());
        let mut processed = 0usize;
        let mut brownouts = 0usize;
        let mut harvested = Joules::ZERO;
        let mut consumed = Joules::ZERO;
        for _ in 0..periods {
            let e = self.harvester.harvest(period);
            harvested += self.capacitor.charge(e);
            if self.capacitor.try_draw(energy_per_frame) {
                processed += 1;
                consumed += energy_per_frame;
            } else {
                brownouts += 1;
            }
        }
        let elapsed = period * periods as f64;
        SimulationReport {
            periods,
            frames_processed: processed,
            brownouts,
            achieved_fps: Fps::new(processed as f64 / elapsed.secs()),
            harvested,
            consumed,
        }
    }

    /// Simulates a trace of *per-frame* energies (e.g. from
    /// [`FaPipeline::run_trace`](crate::pipeline::FaPipeline::run_trace)): event frames
    /// cost more than gated idle frames, so the capacitor sees bursty
    /// draw rather than the average.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `target_fps` is non-positive.
    pub fn simulate_trace(
        &mut self,
        frame_energies: &[Joules],
        target_fps: Fps,
    ) -> SimulationReport {
        assert!(!frame_energies.is_empty(), "trace must be non-empty");
        assert!(target_fps.fps() > 0.0, "frame rate must be positive");
        let period = Seconds::new(1.0 / target_fps.fps());
        let mut processed = 0usize;
        let mut brownouts = 0usize;
        let mut harvested = Joules::ZERO;
        let mut consumed = Joules::ZERO;
        for &energy in frame_energies {
            let e = self.harvester.harvest(period);
            harvested += self.capacitor.charge(e);
            if energy.joules() <= 0.0 || self.capacitor.try_draw(energy) {
                processed += 1;
                consumed += energy.max(Joules::ZERO);
            } else {
                brownouts += 1;
            }
        }
        let elapsed = period * frame_energies.len() as f64;
        SimulationReport {
            periods: frame_energies.len(),
            frames_processed: processed,
            brownouts,
            achieved_fps: Fps::new(processed as f64 / elapsed.secs()),
            harvested,
            consumed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_pipeline_sustains_target_rate() {
        let mut p = WispCamPlatform::wispcam_default();
        // 40 uJ/frame on ~400 uW harvest: easily 1 FPS
        let report = p.simulate(200, Fps::new(1.0), Joules::from_micro(40.0));
        assert_eq!(report.brownouts, 0);
        assert!((report.achieved_fps.fps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expensive_pipeline_browns_out() {
        let mut p = WispCamPlatform::wispcam_default();
        // 4 mJ/frame on ~400 uW harvest: ~0.1 FPS max
        let report = p.simulate(300, Fps::new(1.0), Joules::from_milli(4.0));
        assert!(report.brownouts > 200, "brownouts {}", report.brownouts);
        assert!(report.achieved_fps.fps() < 0.2);
        // duty cycling still processes some frames
        assert!(report.frames_processed > 5);
    }

    #[test]
    fn distance_reduces_achievable_rate() {
        let mut near = WispCamPlatform::wispcam_default();
        let mut far = WispCamPlatform::wispcam_default();
        far.harvester_mut().set_distance(3.0);
        let e = Joules::from_micro(300.0);
        let r_near = near.simulate(200, Fps::new(1.0), e);
        let r_far = far.simulate(200, Fps::new(1.0), e);
        assert!(r_near.frames_processed > r_far.frames_processed);
    }

    #[test]
    fn sustainable_fps_matches_simulation() {
        let mut p = WispCamPlatform::wispcam_default();
        let e = Joules::from_micro(100.0);
        let sustainable = p.sustainable_fps(e);
        // simulate well above the sustainable rate: achieved ~= sustainable
        let report = p.simulate(2000, Fps::new(sustainable.fps() * 3.0), e);
        let ratio = report.achieved_fps.fps() / sustainable.fps();
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn energy_conservation() {
        let mut p = WispCamPlatform::wispcam_default();
        let report = p.simulate(100, Fps::new(1.0), Joules::from_micro(200.0));
        // consumed cannot exceed harvested plus initial store (zero)
        assert!(report.consumed.joules() <= report.harvested.joules() + 1e-12);
    }
}
