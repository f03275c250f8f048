//! # incam-core — the in-camera processing-pipeline framework
//!
//! This crate implements the analytical framework of *“Exploring
//! Computation-Communication Tradeoffs in Camera Systems”* (IISWC 2017):
//! camera applications decompose into pipelines of processing **blocks**
//! (Fig. 1), each of which may run in-camera on some backend (ASIC, FPGA,
//! GPU, CPU) or be **offloaded** to the cloud over a communication link.
//!
//! The total cost of the system combines per-block **computation** costs
//! with the **communication** cost of offloading at a chosen cut point.
//! Two objectives matter in the paper's two case studies:
//!
//! * throughput (frames/sec), composed as the *minimum* over pipeline
//!   stages — see [`pipeline::Pipeline::compute_fps_through`] and
//!   [`offload::analyze_cut`];
//! * energy (joules/frame), composed *additively* — see
//!   [`energy::EnergyBreakdown`].
//!
//! Every cost question is a search over a configuration space
//! ([`explore`]): a fixed pipeline is the space with one binding per
//! block, each row of it is an [`explore::ConfigAnalysis`], and
//! [`explore::SearchPlan`] / [`explore::IncrementalSearch`] answer the
//! same questions with pruning when the space is large.
//!
//! # Quick start
//!
//! ```
//! use incam_core::block::{Backend, BlockSpec, DataTransform};
//! use incam_core::explore::PipelineSpace;
//! use incam_core::link::Link;
//! use incam_core::pipeline::{Pipeline, Source, Stage};
//! use incam_core::units::{Bytes, Fps};
//!
//! // A toy pipeline: the sensor's data is expanded by alignment, reduced
//! // by depth estimation, and heavily reduced by stitching.
//! let pipeline = Pipeline::new(Source::new("sensor", Bytes::from_mib(127.0), Fps::new(100.0)))
//!     .then(Stage::new(BlockSpec::core("B2", DataTransform::Scale(4.0)),
//!                      Backend::Cpu, Fps::new(174.0)))
//!     .then(Stage::new(BlockSpec::core("B3", DataTransform::Scale(0.75)),
//!                      Backend::Fpga, Fps::new(31.6)))
//!     .then(Stage::new(BlockSpec::core("B4", DataTransform::Scale(1.0 / 6.0)),
//!                      Backend::Fpga, Fps::new(140.0)));
//!
//! // one binding per block: the space's rows are the offload cuts
//! let space = PipelineSpace::from(&pipeline);
//! let best = space.best(&Link::ethernet_25g()).unwrap();
//! assert_eq!(best.config.cut(), 3); // process everything in-camera
//! for cut in space.explore(&Link::ethernet_25g()) {
//!     println!("{}: {:.1} FPS", cut.label, cut.total().fps());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod energy;
pub mod explore;
pub mod fleet;
pub mod link;
pub mod offload;
pub mod pipeline;
pub mod report;
pub mod runtime;
pub mod units;

pub use block::{Backend, BlockKind, BlockSpec, DataTransform};
pub use energy::EnergyBreakdown;
pub use explore::{
    pareto_frontier, Binding, BlockSpace, ConfigAnalysis, Configuration, PipelineSpace,
};
pub use fleet::{CameraProfile, FleetReport};
pub use link::{Link, LinkError};
pub use offload::{analyze_cut, Constraint};
pub use pipeline::{Pipeline, Source, Stage};
pub use runtime::{
    ComputeCondition, DegradationReport, FaultOracle, IdealOracle, LinkCondition, RetryPolicy,
    Runtime,
};
pub use units::{Bytes, BytesPerSec, Fps, Hertz, Joules, Seconds, Watts};
