//! `incam-auth` — deterministic, fail-closed face verification.
//!
//! The end-to-end serving path the paper's face-authentication scenario
//! stops short of: a camera captures a probe, the service aligns it
//! (eye-landmark similarity transform + bilinear warp), embeds it with
//! a small MLP head, and matches it against the claimed user's
//! enrollment gallery by cosine similarity — under a per-request
//! deadline, bounded-queue admission control, retry backoff, a circuit
//! breaker, and injected link/compute/power faults.
//!
//! The load-bearing property is **fail-closed semantics**: the only
//! path to `Accept` is a complete, in-deadline pipeline run whose final
//! attempts were all nominal and whose cosine cleared the threshold.
//! Faults, timeouts, sheds, and internal errors all surface as
//! `Fallback` — degraded service never becomes an open door.
//!
//! Modules mirror the request's journey:
//!
//! - [`align`] — landmarks → similarity transform → warped window
//! - [`embed`] — window → unit-norm embedding ([`incam_nn`] batch path)
//! - [`gallery`] — enroll / update / revoke, max-cosine matching
//! - [`breaker`] — deterministic circuit breaker on the tick schedule
//! - [`service`] — the verify loop: admission → stages → verdict
//! - [`space`] — stage costs registered with [`incam_core`]'s explorer
//! - [`fleet`] — camera profile, the verify fault oracle (link ×
//!   compute × brownout) and the fleet-scale verify-load driver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod breaker;
pub mod embed;
pub mod fleet;
pub mod gallery;
pub mod service;
pub mod space;

pub use align::{align_face, AlignError, EyeLandmarks, SimilarityTransform};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use embed::{Embedding, EmbeddingHead};
pub use gallery::{Gallery, GalleryError};
pub use service::{
    FallbackReason, Probe, ServiceConfig, ServiceReport, ServiceRun, Verdict, VerifyPlan,
    VerifyRequest, VerifyService,
};
