//! Property-based tests of the fleet simulator.
//!
//! Four load-bearing properties: fleet determinism (same seed ⇒
//! identical [`FleetReport`] digest), event-queue total order invariance
//! under insertion order, frame conservation (captured = skipped +
//! delivered + dropped + in-flight at the horizon), and the equivalence
//! of [`FleetSim::run`] with its event-per-fire oracle
//! [`FleetSim::run_reference`].

use incam_core::block::{Backend, BlockSpec, DataTransform};
use incam_core::explore::{Binding, BlockSpace, PipelineSpace};
use incam_core::fleet::CameraProfile;
use incam_core::link::Link;
use incam_core::pipeline::Source;
use incam_core::units::{Bytes, BytesPerSec, Fps, Seconds};
use incam_faults::GilbertElliott;
use incam_fleet::{EventKey, EventQueue, FleetConfig, FleetReport, FleetSim, IngestConfig};
use incam_rng::prelude::*;
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;

/// A small, fast scenario spanning both camera classes: a few WISPCams
/// and a VR rig contending for a narrow spectrum.
fn run_fleet(seed: u64, cameras: u64, channels: u64, horizon_secs: f64) -> FleetReport {
    let mut config = FleetConfig::canonical("prop", seed, cameras);
    config.channels = channels;
    config.horizon = Seconds::new(horizon_secs);
    config.pool_traces = 8;
    config.pool_slots = 512;
    let profiles = vec![
        incam_wispcam::fleet_profile(),
        incam_vr::fleet_profile(incam_vr::backend::DepthBackend::Fpga),
    ];
    FleetSim::new(config, profiles).run()
}

/// Tick resolutions of the tie fleets: at one tick per second nearly
/// every event shares its tick with some sensor fire.
const TIE_TICKS_PER_SEC: [u64; 4] = [1, 2, 10, 1_000];

/// In-camera block rates as multiples of the capture rate: at ½ and ¼ a
/// block takes two and four whole capture periods.
const TIE_BLOCK_RATES: [f64; 4] = [0.5, 0.25, 2.0, 4.0];

/// Raw-offload air times in capture periods.
const TIE_AIR_PERIODS: [f64; 3] = [0.5, 1.0, 2.0];

/// A two-block toy camera whose latencies land on whole (or half)
/// capture periods. `knobs` are the two block-rate indices, the air-time
/// index, the boot cut and the capture rate in FPS.
fn tie_toy(name: &str, knobs: (usize, usize, usize, usize, u32)) -> CameraProfile {
    let (first, second, air, initial_cut, fps) = knobs;
    let fps = f64::from(fps);
    let frame = 1000.0;
    let block = |name: &str, transform, rate: f64| {
        BlockSpace::new(
            BlockSpec::core(name, transform),
            vec![Binding::new(Backend::Asic, Fps::new(fps * rate))],
        )
    };
    CameraProfile {
        name: name.to_string(),
        space: PipelineSpace::new(Source::new("s", Bytes::new(frame), Fps::new(fps)))
            .with_block(block(
                "pass",
                DataTransform::Identity,
                TIE_BLOCK_RATES[first],
            ))
            .with_block(block(
                "halve",
                DataTransform::Scale(0.5),
                TIE_BLOCK_RATES[second],
            )),
        committed: vec![0, 0],
        initial_cut,
        capture: Fps::new(fps),
        uplink: Link::new(
            "tie-uplink",
            BytesPerSec::new(frame * fps / TIE_AIR_PERIODS[air]),
            1.0,
        ),
    }
}

proptest! {
    /// Same seed and shape ⇒ byte-identical counters and digest.
    #[test]
    fn same_seed_same_digest(
        seed in 0u64..1_000_000,
        cameras in 2u64..40,
        channels in 1u64..16,
    ) {
        let a = run_fleet(seed, cameras, channels, 3.0);
        let b = run_fleet(seed, cameras, channels, 3.0);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a, b);
    }

    /// `run`, which counts the fires that find a camera busy instead of
    /// queuing them, returns exactly `run_reference`'s report, energy
    /// bits included, on fleets built so that events share ticks with
    /// sensor fires: coarse ticks, whole-period latencies, lossy links,
    /// retries, small batches and a tight ingest tier.
    #[test]
    fn run_equals_reference(
        seed in 0u64..1_000_000,
        shape in (1u64..24, 0usize..TIE_TICKS_PER_SEC.len(), 2u64..30),
        link in (1u64..8, 0.0f64..0.45, 1u32..4),
        ingest in (1usize..6, 0u64..4, 0u64..3, 0u64..3),
        first in (0usize..4, 0usize..4, 0usize..3, 0usize..3, 1u32..3),
        second in (any::<bool>(), (0usize..4, 0usize..4, 0usize..3, 0usize..3, 1u32..3)),
        real in (any::<bool>(), any::<bool>()),
    ) {
        let (cameras, ticks, horizon_secs) = shape;
        let (channels, loss, attempts) = link;
        let (batch, spare, flush_secs, service_secs) = ingest;
        let ticks_per_sec = TIE_TICKS_PER_SEC[ticks];
        let mut config = FleetConfig::canonical("tie", seed, cameras);
        config.horizon = Seconds::new(horizon_secs as f64);
        config.ticks_per_sec = ticks_per_sec;
        config.channels = channels;
        config.channel_model = GilbertElliott::uniform(loss);
        config.pool_traces = 4;
        config.pool_slots = 64;
        config.max_attempts = attempts;
        config.ingest = IngestConfig {
            capacity: batch as u64 + spare,
            batch,
            flush_ticks: flush_secs * ticks_per_sec,
            service_ticks: service_secs * ticks_per_sec,
        };
        let mut profiles = vec![tie_toy("tie-a", first)];
        let (second_toy, second_knobs) = second;
        if second_toy {
            profiles.push(tie_toy("tie-b", second_knobs));
        }
        let (wispcam, vr) = real;
        if wispcam {
            profiles.push(incam_wispcam::fleet_profile());
        }
        if vr {
            profiles.push(incam_vr::fleet_profile(incam_vr::backend::DepthBackend::Fpga));
        }
        let sim = FleetSim::new(config, profiles);
        prop_assert_eq!(sim.run(), sim.run_reference());
    }

    /// Every captured frame has exactly one disposition at the horizon:
    /// skipped at the source, delivered, dropped on the link, dropped at
    /// admission, or still in flight.
    #[test]
    fn frames_are_conserved(
        seed in 0u64..1_000_000,
        cameras in 1u64..60,
        channels in 1u64..12,
        horizon_decisecs in 5u64..40,
    ) {
        let r = run_fleet(seed, cameras, channels, horizon_decisecs as f64 / 10.0);
        prop_assert!(
            r.conserves(),
            "captured {} != skipped {} + delivered {} + dropped(link) {} + dropped(ingest) {} + in-flight {}",
            r.frames_captured,
            r.frames_skipped,
            r.frames_delivered,
            r.frames_dropped_link,
            r.frames_dropped_ingest,
            r.frames_in_flight
        );
        // and nothing was invented: every disposition traces to a capture
        prop_assert!(r.frames_admitted <= r.frames_captured);
        prop_assert!(r.frames_delivered + r.frames_dropped_link + r.frames_dropped_ingest
            <= r.frames_admitted);
    }

    /// The queue's pop order is a pure function of the key *set*:
    /// pushing the same uniquely-keyed events in any insertion order
    /// pops them identically (the simulator assigns per-actor `seq`
    /// before pushing, so keys are always unique).
    #[test]
    fn event_queue_order_is_insertion_invariant(
        raw in prop::collection::vec((0u64..50, 0u64..8, 0u64..64), 1..200),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // dedupe: unique keys are the queue's precondition
        let mut keys: Vec<EventKey> = raw
            .into_iter()
            .map(|(time, actor, seq)| EventKey { time, actor, seq })
            .collect();
        keys.sort_unstable();
        keys.dedup();

        let mut shuffled = keys.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));

        let pop_all = |input: &[EventKey]| -> Vec<EventKey> {
            let mut q = EventQueue::new();
            for (i, &k) in input.iter().enumerate() {
                q.push(k, i);
            }
            let mut out = Vec::with_capacity(input.len());
            while let Some((k, payload)) = q.pop() {
                // the payload rides with its own key
                assert_eq!(input[payload], k);
                out.push(k);
            }
            out
        };

        prop_assert_eq!(pop_all(&keys), pop_all(&shuffled));
        // and the order is exactly ascending key order
        prop_assert_eq!(pop_all(&shuffled), keys);
    }
}
