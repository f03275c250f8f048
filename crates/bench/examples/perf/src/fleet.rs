//! `fleet_20k`: one 10 s run of the discrete-event fleet simulator over
//! 20,000 WISPCam cameras on the canonical shared spectrum and ingest
//! tier. No pixels: event queue, spectrum, ingest and online re-search.

use crate::harness::{LayerPoint, Tally, Timings, Unit};
use crate::report::Metric;
use incam_core::explore::IncrementalSearch;
use incam_core::fleet::CameraProfile;
use incam_core::link::Link;
use incam_core::units::Seconds;
use incam_fleet::{EventKey, EventQueue, FleetConfig, FleetReport, FleetSim, Spectrum};
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};

/// Cameras in the fleet.
const CAMERAS: u64 = 20_000;

/// Events kept pending while the queue point pops and pushes.
const PENDING: u64 = 20_000;

/// Channels of the spectrum point (the canonical spectrum).
const CHANNELS: u64 = 64;

/// The built simulator and the reference report.
pub struct Fleet {
    seed: u64,
    sim: FleetSim,
    profile: CameraProfile,
    reference: Option<FleetReport>,
}

impl Fleet {
    /// Builds the simulator: trace pool, per-profile cut tables and the
    /// committed held-cut frontier.
    pub fn setup(seed: u64) -> Self {
        let mut config = FleetConfig::canonical("fleet_20k", seed, CAMERAS);
        config.horizon = Seconds::new(10.0);
        let profile = incam_wispcam::fleet_profile();
        Self {
            seed,
            sim: FleetSim::new(config, vec![profile.clone()]),
            profile,
            reference: None,
        }
    }

    fn reference(&self) -> &FleetReport {
        self.reference
            .as_ref()
            .expect("the reference pass runs first")
    }
}

impl Unit for Fleet {
    fn items(&self) -> f64 {
        self.reference().frames_captured as f64
    }

    fn run(&mut self, tally: &Tally) {
        let report = self.sim.run();
        tally.check(report.conserves(), "fleet frames conserve");
        match &self.reference {
            None => self.reference = Some(report),
            Some(reference) => tally.check(
                report.digest() == reference.digest(),
                "fleet digest matches the reference",
            ),
        }
    }
}

/// Per-layer inputs: seeded event-time steps, transmission lengths and
/// degraded uplinks for the re-rank point.
pub struct Prep {
    steps: Vec<u64>,
    links: Vec<Link>,
}

/// Entries of the cyclic step and link tables.
const TABLE: usize = 1024;

impl Fleet {
    /// Seeded step and link tables.
    pub fn prep(&self) -> Prep {
        let mut rng = StdRng::seed_from_u64(self.seed);
        Prep {
            steps: (0..TABLE).map(|_| rng.gen_range(1..1_000_000u64)).collect(),
            links: (0..TABLE)
                .map(|_| self.profile.uplink.degraded(rng.gen_range(0.001..1.0)))
                .collect(),
        }
    }

    /// Event-queue hold (pop the earliest of 20k pending events, push its
    /// successor), spectrum reservation, held-cut re-rank, and the run.
    pub fn points<'a>(&'a self, prep: &'a Prep, tally: &'a Tally) -> Vec<LayerPoint<'a>> {
        let mut queue = EventQueue::new();
        for actor in 0..PENDING {
            let time = prep.steps[actor as usize % TABLE] * (1 + actor % 7);
            queue.push(
                EventKey {
                    time,
                    actor,
                    seq: 0,
                },
                actor,
            );
        }
        let mut spectrum = Spectrum::new(CHANNELS);
        let held = IncrementalSearch::over_held_cuts(&self.profile.space, &self.profile.committed);
        let reference = self.reference();
        let (mut q, mut s, mut now, mut r) = (0, 0, 0u64, 0);
        vec![
            LayerPoint::new("fleet.queue", move || {
                q = (q + 1) % TABLE;
                if let Some((key, event)) = queue.pop() {
                    let next = EventKey {
                        time: key.time + prep.steps[q],
                        seq: key.seq + 1,
                        ..key
                    };
                    queue.push(next, event);
                }
            }),
            LayerPoint::new("fleet.spectrum", move || {
                s = (s + 1) % TABLE;
                now += prep.steps[s] / CHANNELS;
                spectrum.reserve(now, prep.steps[s])
            }),
            LayerPoint::new("fleet.rerank", move || {
                r = (r + 1) % TABLE;
                held.best(&prep.links[r]).map(|point| point.config.cut())
            }),
            LayerPoint::new("fleet.run", move || {
                let report = self.sim.run();
                tally.check(
                    report.digest() == reference.digest(),
                    "fleet digest matches the reference",
                );
            }),
        ]
    }

    /// Per-layer metrics: resource operation times and the run's counters.
    pub fn metrics(&self, t: &Timings) -> Vec<Metric> {
        let r = self.reference();
        let captured = r.frames_captured as f64;
        vec![
            Metric::new("fleet.queue_push_pop_ns", t.ns("fleet.queue"), "ns"),
            Metric::new("fleet.spectrum_reserve_ns", t.ns("fleet.spectrum"), "ns"),
            Metric::new("core.explore.rerank_ns", t.ns("fleet.rerank"), "ns"),
            Metric::new("fleet.frames_captured", captured, "count"),
            Metric::new(
                "fleet.delivered_frac",
                r.frames_delivered as f64 / captured,
                "frac",
            ),
            Metric::new("fleet.re_searches", r.re_searches as f64, "count"),
            Metric::new("fleet.cut_changes", r.cut_changes as f64, "count"),
            Metric::new("fleet.ingest_batches", r.ingest_batches as f64, "count"),
            Metric::new(
                "fleet.ns_per_captured_frame",
                t.ns("fleet.run") / captured,
                "ns",
            ),
        ]
    }
}
