//! # incam-fleet — fleet-scale deterministic discrete-event simulation
//!
//! The paper studies one camera at a time; this crate studies
//! *deployments*: 1k→100k+ camera instances contending for shared
//! uplink spectrum and a cloud ingest tier, each re-selecting its
//! offload cut online as its observed goodput shifts. The
//! computation-communication tradeoff becomes a feedback loop — the
//! fleet's aggregate offload decisions create the very contention each
//! camera's next decision responds to.
//!
//! Three building blocks feed one event loop:
//!
//! * [`queue::EventQueue`] — events totally ordered by
//!   `(time, camera, seq)` on integer ticks; no wall-clock, no hashing,
//!   so pop order is a pure function of the event set;
//! * [`spectrum::Spectrum`] — contended channels as a conveyor:
//!   reservations return `(start, finish)` grants in O(log channels),
//!   making contention a queueing delay instead of per-tick events;
//! * [`ingest::Ingest`] — a bounded cloud tier with admission control,
//!   batch service, and timeout flushes.
//!
//! [`sim::FleetSim`] drives [`CameraProfile`]s (exported by `incam-vr`
//! and `incam-wispcam` as `fleet_profile()`) against those resources,
//! derives per-camera channel conditions from one seed via
//! [`incam_faults::fleet::TracePool`], and re-selects cuts by re-ranking
//! [`IncrementalSearch::over_held_cuts`](incam_core::explore::IncrementalSearch::over_held_cuts)
//! — the same search as `vr::degrade`'s adaptive-cut policy. Only an
//! idle camera queues its next sensor fire; the fires that find a camera
//! busy are counted, not queued, so the loop's work follows the frames
//! started rather than the fires
//! ([`FleetSim::run_reference`](sim::FleetSim::run_reference) keeps one
//! event per fire as the oracle). The result is a [`FleetReport`] of
//! pure counters whose digest is byte-stable across runs, hosts, and
//! `INCAM_THREADS` settings.
//!
//! ```
//! use incam_fleet::{FleetConfig, FleetSim};
//! use incam_core::fleet::CameraProfile;
//! use incam_core::explore::{Binding, BlockSpace, PipelineSpace};
//! use incam_core::block::{Backend, BlockSpec, DataTransform};
//! use incam_core::link::Link;
//! use incam_core::pipeline::Source;
//! use incam_core::units::{Bytes, BytesPerSec, Fps};
//!
//! let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(5.0)))
//!     .with_block(BlockSpace::new(
//!         BlockSpec::core("reduce", DataTransform::Scale(0.01)),
//!         vec![Binding::new(Backend::Asic, Fps::new(100.0))],
//!     ));
//! let profile = CameraProfile {
//!     name: "demo".into(),
//!     space,
//!     committed: vec![0],
//!     initial_cut: 0,
//!     capture: Fps::new(5.0),
//!     uplink: Link::new("up", BytesPerSec::new(10_000.0), 1.0),
//! };
//! let config = FleetConfig::canonical("demo", 2017, 100);
//! let a = FleetSim::new(config.clone(), vec![profile.clone()]).run();
//! let b = FleetSim::new(config, vec![profile]).run();
//! assert!(a.conserves());
//! assert_eq!(a.digest(), b.digest()); // same seed ⇒ same counters
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ingest;
pub mod queue;
pub mod sim;
pub mod spectrum;

pub use incam_core::fleet::{CameraProfile, FleetReport};
pub use ingest::{Admission, Ingest, IngestConfig};
pub use queue::{EventKey, EventQueue};
pub use sim::{FleetConfig, FleetSim};
pub use spectrum::{Grant, Spectrum};
