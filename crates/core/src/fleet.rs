//! Fleet-level abstractions shared by camera adapters and the simulator.
//!
//! The paper evaluates one camera at a time; at fleet scale thousands of
//! cameras contend for shared uplink spectrum and a cloud ingest tier,
//! and the computation-communication tradeoff becomes a *systems*
//! problem. This module holds the two types that cross crate
//! boundaries:
//!
//! * a [`CameraProfile`] describes one camera *class* — its
//!   configuration space ([`PipelineSpace`]), the binding per block the
//!   hardware has committed to, the initial offload cut, the capture
//!   cadence, and the nominal per-camera uplink. `incam-vr` and
//!   `incam-wispcam` each export an adapter constructing their profile,
//!   and `incam-fleet` instantiates thousands of cameras from one;
//! * a [`FleetReport`] is the simulator's output: pure counters
//!   (throughput, energy, drop-rate, adaptation activity) with an
//!   order-sensitive digest, so fleet runs can be pinned byte-exactly by
//!   golden tests and diffed across thread counts.
//!
//! Keeping both in `incam-core` lets the per-application crates describe
//! *what* a camera is without depending on the simulator that drives it.

use crate::explore::PipelineSpace;
use crate::link::Link;
use crate::units::{Fps, Joules};
use core::fmt::Write as _;
use incam_rng::Digest;

/// One camera class, instantiable thousands of times by the fleet
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CameraProfile {
    /// Display name of the class (e.g. `wispcam`, `vr-rig`).
    pub name: String,
    /// The configuration space the camera explores online.
    pub space: PipelineSpace,
    /// Committed binding index per block — the hardware that shipped.
    /// Online re-search holds these fixed and moves only the cut (see
    /// [`IncrementalSearch::over_held_cuts`](crate::explore::IncrementalSearch::over_held_cuts)).
    pub committed: Vec<usize>,
    /// Offload cut the camera boots with.
    pub initial_cut: usize,
    /// Capture cadence of each camera instance.
    pub capture: Fps,
    /// Nominal per-camera uplink: the rate the camera *expects*, against
    /// which observed goodput is normalized, and whose per-bit energy
    /// prices each transmission attempt.
    pub uplink: Link,
}

impl CameraProfile {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the committed bindings do not match the space's shape,
    /// any binding index is out of range, the initial cut is out of
    /// range, or the capture rate is not positive and finite.
    pub fn validate(&self) {
        assert_eq!(
            self.committed.len(),
            self.space.len(),
            "{}: {} committed bindings for a {}-block space",
            self.name,
            self.committed.len(),
            self.space.len()
        );
        for (i, (&choice, block)) in self.committed.iter().zip(self.space.blocks()).enumerate() {
            assert!(
                choice < block.bindings().len(),
                "{}: committed binding {choice} out of range for block {i}",
                self.name
            );
        }
        assert!(
            self.initial_cut <= self.space.len(),
            "{}: initial cut {} out of range",
            self.name,
            self.initial_cut
        );
        assert!(
            self.capture.fps() > 0.0 && self.capture.fps().is_finite(),
            "{}: capture rate must be positive and finite",
            self.name
        );
    }
}

/// Counters of one fleet simulation run.
///
/// Frame conservation holds by construction and is pinned by property
/// tests: every captured frame is either skipped at the source (camera
/// busy), delivered through the ingest tier, dropped on the link or at
/// admission, or still in flight at the horizon — see
/// [`FleetReport::conserves`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetReport {
    /// Scenario label.
    pub label: String,
    /// Number of camera instances simulated.
    pub cameras: u64,
    /// Tick of the last processed event (or the configured horizon).
    pub horizon_ticks: u64,
    /// Tick resolution: simulation ticks per second.
    pub ticks_per_sec: u64,
    /// Capture events fired across the fleet.
    pub frames_captured: u64,
    /// Captures skipped because the camera's frame buffer was still
    /// occupied by an unresolved frame.
    pub frames_skipped: u64,
    /// Frames that finished in-camera processing and requested uplink.
    pub frames_admitted: u64,
    /// Frames delivered by the ingest tier (batch completion).
    pub frames_delivered: u64,
    /// Frames dropped after exhausting link retry attempts.
    pub frames_dropped_link: u64,
    /// Frames rejected by ingest admission control.
    pub frames_dropped_ingest: u64,
    /// Frames without a final disposition at the horizon.
    pub frames_in_flight: u64,
    /// Lost transmissions that were retried.
    pub link_retries: u64,
    /// Online cut re-searches executed.
    pub re_searches: u64,
    /// Re-searches that moved the camera's offload cut.
    pub cut_changes: u64,
    /// Batches the ingest tier completed.
    pub ingest_batches: u64,
    /// Total in-camera compute energy (capture + blocks through the cut).
    pub energy_compute: Joules,
    /// Total radio transmit energy across all attempts.
    pub energy_radio: Joules,
    /// Cameras per final offload cut (index = cut).
    pub cut_histogram: Vec<u64>,
}

impl FleetReport {
    /// Fleet-aggregate delivered throughput over the simulated horizon.
    pub fn throughput(&self) -> Fps {
        if self.horizon_ticks == 0 {
            return Fps::ZERO;
        }
        let secs = self.horizon_ticks as f64 / self.ticks_per_sec as f64;
        Fps::new(self.frames_delivered as f64 / secs)
    }

    /// Fraction of admitted frames that were dropped (link + ingest).
    pub fn drop_rate(&self) -> f64 {
        if self.frames_admitted == 0 {
            return 0.0;
        }
        (self.frames_dropped_link + self.frames_dropped_ingest) as f64 / self.frames_admitted as f64
    }

    /// Total fleet energy: compute plus radio.
    pub fn energy_total(&self) -> Joules {
        self.energy_compute + self.energy_radio
    }

    /// Mean energy per *delivered* frame — the fleet-level
    /// energy-efficiency objective.
    pub fn energy_per_delivered(&self) -> Joules {
        if self.frames_delivered == 0 {
            return Joules::ZERO;
        }
        Joules::new(self.energy_total().joules() / self.frames_delivered as f64)
    }

    /// `true` when the frame-conservation identity holds: captured =
    /// skipped + delivered + dropped(link) + dropped(ingest) + in-flight.
    pub fn conserves(&self) -> bool {
        self.frames_captured
            == self.frames_skipped
                + self.frames_delivered
                + self.frames_dropped_link
                + self.frames_dropped_ingest
                + self.frames_in_flight
    }

    /// Order-sensitive FNV-1a digest over every counter (energy hashed
    /// by exact bit pattern). Two reports digest equal iff every counter
    /// and the cut histogram match exactly — the object golden tests and
    /// same-seed property tests pin.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        for v in [
            self.cameras,
            self.horizon_ticks,
            self.ticks_per_sec,
            self.frames_captured,
            self.frames_skipped,
            self.frames_admitted,
            self.frames_delivered,
            self.frames_dropped_link,
            self.frames_dropped_ingest,
            self.frames_in_flight,
            self.link_retries,
            self.re_searches,
            self.cut_changes,
            self.ingest_batches,
            self.energy_compute.joules().to_bits(),
            self.energy_radio.joules().to_bits(),
            self.cut_histogram.len() as u64,
        ] {
            h.write_u64(v);
        }
        for &count in &self.cut_histogram {
            h.write_u64(count);
        }
        h.finish()
    }

    /// Renders the report as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fleet scenario      {}", self.label);
        let _ = writeln!(
            out,
            "cameras / horizon   {} cameras over {:.2} s",
            self.cameras,
            self.horizon_ticks as f64 / self.ticks_per_sec as f64
        );
        let _ = writeln!(
            out,
            "frames              captured {}  skipped {}  admitted {}",
            self.frames_captured, self.frames_skipped, self.frames_admitted
        );
        let _ = writeln!(
            out,
            "disposition         delivered {}  dropped(link) {}  dropped(ingest) {}  in-flight {}",
            self.frames_delivered,
            self.frames_dropped_link,
            self.frames_dropped_ingest,
            self.frames_in_flight
        );
        let _ = writeln!(
            out,
            "adaptation          retries {}  re-searches {}  cut-changes {}  batches {}",
            self.link_retries, self.re_searches, self.cut_changes, self.ingest_batches
        );
        let _ = writeln!(
            out,
            "throughput          {:.3} FPS delivered fleet-wide ({:.1} % of admitted dropped)",
            self.throughput().fps(),
            self.drop_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "energy              compute {}  radio {}  per delivered frame {}",
            self.energy_compute.human(),
            self.energy_radio.human(),
            self.energy_per_delivered().human()
        );
        let cuts: Vec<String> = self
            .cut_histogram
            .iter()
            .enumerate()
            .map(|(cut, n)| format!("cut{cut}:{n}"))
            .collect();
        let _ = writeln!(out, "final cuts          {}", cuts.join("  "));
        let _ = writeln!(out, "digest              {:016x}", self.digest());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Backend, BlockSpec, DataTransform};
    use crate::explore::{Binding, BlockSpace};
    use crate::pipeline::Source;
    use crate::units::{Bytes, BytesPerSec};

    fn profile() -> CameraProfile {
        let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(10.0)))
            .with_block(BlockSpace::new(
                BlockSpec::core("b", DataTransform::Scale(0.25)),
                vec![
                    Binding::new(Backend::Asic, Fps::new(100.0)),
                    Binding::new(Backend::Mcu, Fps::new(5.0)),
                ],
            ));
        CameraProfile {
            name: "test".to_string(),
            space,
            committed: vec![0],
            initial_cut: 1,
            capture: Fps::new(10.0),
            uplink: Link::new("l", BytesPerSec::new(1000.0), 1.0),
        }
    }

    fn report() -> FleetReport {
        FleetReport {
            label: "unit".to_string(),
            cameras: 10,
            horizon_ticks: 2000,
            ticks_per_sec: 1000,
            frames_captured: 100,
            frames_skipped: 5,
            frames_admitted: 95,
            frames_delivered: 80,
            frames_dropped_link: 7,
            frames_dropped_ingest: 3,
            frames_in_flight: 5,
            link_retries: 12,
            re_searches: 20,
            cut_changes: 9,
            ingest_batches: 10,
            energy_compute: Joules::from_micro(500.0),
            energy_radio: Joules::from_micro(100.0),
            cut_histogram: vec![1, 9],
        }
    }

    #[test]
    fn profile_validates() {
        profile().validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn profile_rejects_bad_committed_index() {
        let mut p = profile();
        p.committed = vec![2];
        p.validate();
    }

    #[test]
    #[should_panic(expected = "initial cut")]
    fn profile_rejects_bad_cut() {
        let mut p = profile();
        p.initial_cut = 2;
        p.validate();
    }

    #[test]
    fn report_derived_metrics() {
        let r = report();
        assert!(r.conserves());
        // 80 frames over 2 seconds
        assert!((r.throughput().fps() - 40.0).abs() < 1e-12);
        assert!((r.drop_rate() - 10.0 / 95.0).abs() < 1e-12);
        assert!((r.energy_total().micros() - 600.0).abs() < 1e-9);
        assert!((r.energy_per_delivered().micros() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn conservation_detects_leaks() {
        let mut r = report();
        r.frames_delivered += 1;
        assert!(!r.conserves());
    }

    #[test]
    fn digest_is_sensitive_to_every_counter() {
        let base = report().digest();
        let mut r = report();
        r.cut_changes += 1;
        assert_ne!(base, r.digest());
        let mut r = report();
        r.energy_radio = Joules::from_micro(100.1);
        assert_ne!(base, r.digest());
        let mut r = report();
        r.cut_histogram = vec![0, 10];
        assert_ne!(base, r.digest());
        // label is presentation, not state
        let mut r = report();
        r.label = "renamed".to_string();
        assert_eq!(base, r.digest());
    }

    #[test]
    fn render_mentions_the_headline_counters() {
        let s = report().render();
        assert!(s.contains("delivered 80"));
        assert!(s.contains("cut0:1  cut1:9"));
        assert!(s.contains("digest"));
    }

    #[test]
    fn empty_report_has_safe_derived_metrics() {
        let r = FleetReport {
            ticks_per_sec: 1000,
            ..Default::default()
        };
        assert_eq!(r.throughput(), Fps::ZERO);
        assert_eq!(r.drop_rate(), 0.0);
        assert_eq!(r.energy_per_delivered(), Joules::ZERO);
        assert!(r.conserves());
    }
}
