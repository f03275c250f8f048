//! The verify service: request/response loop with admission control,
//! retries, deadlines, circuit breaking — and fail-closed semantics.
//!
//! A [`VerifyRequest`] travels admission → align → embed → match →
//! verdict. Admission is a bounded-queue ingest tier (the
//! [`incam_fleet::ingest`] state machine) with batch service; the
//! breaker sheds load after consecutive faults; every stage and the
//! upload at the offload cut run under [`RetryPolicy`] backoff against a
//! [`FaultOracle`]; elapsed *modeled* time is checked against the
//! request's deadline after every stage. Each request that survives the
//! modeled pipeline is aligned, embedded and matched on its own, in an
//! [`AlignScratch`] and an [`EmbedScratch`] the service owns and reuses
//! across batches and runs, so a steady-state request allocates only its
//! embedding.
//!
//! **Fail-closed:** the only path to [`Verdict::Accept`] runs the
//! complete pipeline inside the deadline with every final attempt
//! nominal and a genuine cosine match above threshold. Every fault
//! exhaustion, lost upload, deadline miss, shed, overflow, or internal
//! error becomes a [`Verdict::Fallback`] — the door stays locked and
//! the caller is told to use its secondary factor.

use crate::align::{align_face_into, AlignScratch, EyeLandmarks};
use crate::breaker::{BreakerConfig, BreakerDecision, CircuitBreaker};
use crate::embed::{EmbedError, EmbedScratch, Embedding, EmbeddingHead};
use crate::gallery::Gallery;
use incam_core::link::Link;
use incam_core::report::Table;
use incam_core::runtime::{ComputeCondition, FaultOracle, RetryPolicy};
use incam_core::units::{Bytes, Joules, Seconds};
use incam_fleet::ingest::{Admission, Ingest, IngestConfig};
use incam_imaging::image::GrayImage;
use incam_rng::Digest;

/// Pipeline stages between capture and verdict.
pub const NUM_STAGES: usize = 3;

/// Stage names, indexed by stage id.
pub const STAGE_NAMES: [&str; NUM_STAGES] = ["align", "embed", "match"];

/// Calibrated cost of one stage on the camera-side binding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Nominal execution time of the stage for one probe.
    pub time: Seconds,
    /// Energy drawn by one execution attempt.
    pub energy: Joules,
}

/// An executable offload plan: which stages run on-camera, what crosses
/// the link, and what everything costs.
#[derive(Debug, Clone)]
pub struct VerifyPlan {
    /// Human label for reports (e.g. `"cut=1 A|cloud"`).
    pub label: String,
    /// Stages `< cut` run on-camera; stages `>= cut` run in the cloud.
    /// `cut == NUM_STAGES` keeps the whole pipeline local.
    pub cut: usize,
    /// Per-stage on-camera costs, indexed by stage.
    pub local: [StageCost; NUM_STAGES],
    /// Nominal per-stage time on the cloud tier (energy is off the
    /// camera's budget).
    pub cloud_time: Seconds,
    /// Payload crossing the link at the cut (raw window, embedding, or
    /// verdict).
    pub payload: Bytes,
    /// The uplink the payload crosses.
    pub link: Link,
}

impl VerifyPlan {
    /// Checks the plan's invariants.
    ///
    /// # Panics
    ///
    /// Panics if `cut` exceeds [`NUM_STAGES`] or the payload is
    /// negative.
    pub fn validate(&self) {
        assert!(self.cut <= NUM_STAGES, "cut {} out of range", self.cut);
        assert!(self.payload.bytes() >= 0.0, "payload must be non-negative");
    }
}

/// One probe capture: the rendered face patch plus its eye landmarks
/// (the synthetic workload's landmark-detector output).
#[derive(Debug, Clone)]
pub struct Probe {
    /// The captured face patch.
    pub image: GrayImage,
    /// Detected eye centers on that patch.
    pub landmarks: EyeLandmarks,
}

/// A verification request as issued by a camera.
#[derive(Debug, Clone)]
pub struct VerifyRequest {
    /// Claimed identity to verify against.
    pub user: u32,
    /// Issuing camera (fleet adapter's id; reports aggregate on it).
    pub camera: u64,
    /// Globally unique frame id keying the fault traces.
    pub frame: u64,
    /// End-to-end latency budget for this request.
    pub deadline: Seconds,
    /// The probe capture.
    pub probe: Probe,
}

/// Why a request fell back to the secondary authentication factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The breaker was open; the request was shed unserved.
    BreakerOpen,
    /// The admission queue was at capacity.
    QueueFull,
    /// The claimed user has no enrollment.
    UnknownUser,
    /// Landmark geometry was degenerate; no aligned window exists.
    AlignFailed,
    /// The embedding collapsed (or mismatched the gallery's space).
    EmbedFailed,
    /// A stage exhausted its retry budget on injected faults.
    ComputeExhausted {
        /// The stage that gave up.
        stage: usize,
    },
    /// Every transmission attempt at the cut was lost.
    LinkLost,
    /// Modeled time crossed the deadline.
    DeadlineMissed {
        /// The stage (or upload == cut stage) after which the budget
        /// ran out.
        stage: usize,
    },
}

/// Number of distinct fallback reasons (counter array width).
pub const FALLBACK_KINDS: usize = 8;

impl FallbackReason {
    /// Dense counter index of the reason.
    pub fn index(&self) -> usize {
        match self {
            FallbackReason::BreakerOpen => 0,
            FallbackReason::QueueFull => 1,
            FallbackReason::UnknownUser => 2,
            FallbackReason::AlignFailed => 3,
            FallbackReason::EmbedFailed => 4,
            FallbackReason::ComputeExhausted { .. } => 5,
            FallbackReason::LinkLost => 6,
            FallbackReason::DeadlineMissed { .. } => 7,
        }
    }

    /// Stable label for reports, by counter index.
    pub fn label(index: usize) -> &'static str {
        [
            "breaker-open",
            "queue-full",
            "unknown-user",
            "align-failed",
            "embed-failed",
            "compute-exhausted",
            "link-lost",
            "deadline-missed",
        ][index]
    }

    /// Whether this fallback reflects an infrastructure fault (counts
    /// toward tripping the breaker) rather than a client/data problem.
    pub fn is_infra_fault(&self) -> bool {
        matches!(
            self,
            FallbackReason::ComputeExhausted { .. }
                | FallbackReason::LinkLost
                | FallbackReason::DeadlineMissed { .. }
        )
    }
}

/// The service's answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Identity confirmed with the given cosine score.
    Accept {
        /// Max cosine over the user's templates.
        score: f32,
    },
    /// Probe does not match the claimed identity.
    Reject {
        /// Max cosine over the user's templates.
        score: f32,
    },
    /// Could not verify safely — caller must fall back to its
    /// secondary factor. Never grants access.
    Fallback(FallbackReason),
}

impl Verdict {
    /// Whether access was granted.
    pub fn is_accept(&self) -> bool {
        matches!(self, Verdict::Accept { .. })
    }
}

/// Per-request outcome with its accounted latency and camera energy.
#[derive(Debug, Clone)]
pub struct Served {
    /// The verdict returned to the caller.
    pub verdict: Verdict,
    /// Modeled end-to-end latency (queue wait + pipeline + upload).
    pub latency: Seconds,
    /// Camera-side energy spent on this request (all attempts).
    pub energy: Joules,
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Cosine threshold separating Accept from Reject.
    pub threshold: f32,
    /// Modeled duration of one arrival tick (inter-request spacing).
    pub tick_period: Seconds,
    /// Retry semantics for stages and uploads.
    pub retry: RetryPolicy,
    /// Admission-control tier.
    pub ingest: IngestConfig,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl ServiceConfig {
    /// Experiment defaults: threshold 0.92, 5 ms ticks, default retry
    /// policy, a 32-deep/4-wide ingest tier, default breaker.
    pub fn experiment_default() -> Self {
        Self {
            threshold: 0.92,
            tick_period: Seconds::from_millis(5.0),
            retry: RetryPolicy::default(),
            ingest: IngestConfig {
                capacity: 32,
                batch: 4,
                flush_ticks: 8,
                service_ticks: 2,
            },
            breaker: BreakerConfig::service_default(),
        }
    }

    /// Checks all nested configs.
    ///
    /// # Panics
    ///
    /// Panics if any nested config or the threshold/tick period is
    /// invalid.
    pub fn validate(&self) {
        assert!(
            self.threshold.is_finite() && (-1.0..=1.0).contains(&self.threshold),
            "threshold must be a cosine in [-1, 1]"
        );
        assert!(
            self.tick_period.secs() > 0.0,
            "tick period must be positive"
        );
        self.retry.validate();
        self.ingest.validate();
        self.breaker.validate();
    }
}

/// Aggregate counters for one service run. All integers are exact;
/// the digest pins them byte-for-byte in golden tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Requests offered to the service.
    pub requests: u64,
    /// Verdicts granting access.
    pub accepts: u64,
    /// Verdicts denying access on score.
    pub rejects: u64,
    /// Fallbacks by [`FallbackReason::index`].
    pub fallbacks: [u64; FALLBACK_KINDS],
    /// Breaker transitions to open.
    pub breaker_trips: u64,
    /// Extra compute attempts beyond the first, all stages.
    pub compute_retries: u64,
    /// Extra transmission attempts beyond the first.
    pub link_retries: u64,
    /// Served requests (accept or reject) that met their deadline.
    pub deadline_hits: u64,
    /// Total camera-side energy across all requests.
    pub energy: Joules,
}

impl ServiceReport {
    /// Counts one finished request: its verdict and its energy. The one
    /// rule turning verdicts into counters, for the whole service and for
    /// each camera. It leaves `requests` alone, so a request that is
    /// offered but never finished still breaks [`ServiceReport::conserves`].
    pub(crate) fn record(&mut self, served: &Served) {
        match served.verdict {
            Verdict::Accept { .. } => {
                self.accepts += 1;
                self.deadline_hits += 1;
            }
            Verdict::Reject { .. } => {
                self.rejects += 1;
                self.deadline_hits += 1;
            }
            Verdict::Fallback(reason) => self.fallbacks[reason.index()] += 1,
        }
        self.energy += served.energy;
    }

    /// Total fallbacks across all reasons.
    pub fn total_fallbacks(&self) -> u64 {
        self.fallbacks.iter().sum()
    }

    /// Accepts + rejects + fallbacks must equal requests.
    pub fn conserves(&self) -> bool {
        self.accepts + self.rejects + self.total_fallbacks() == self.requests
    }

    /// Camera energy per accepted verify (the paper's
    /// energy-per-useful-result metric). Infinite when nothing was
    /// accepted.
    pub fn energy_per_accept(&self) -> Joules {
        if self.accepts == 0 {
            Joules::new(f64::INFINITY)
        } else {
            self.energy / self.accepts as f64
        }
    }

    /// FNV-1a digest over every exact counter (energy excluded: floats
    /// are compared via rendered tables instead).
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        h.write_u64(self.requests);
        h.write_u64(self.accepts);
        h.write_u64(self.rejects);
        for f in self.fallbacks {
            h.write_u64(f);
        }
        h.write_u64(self.breaker_trips);
        h.write_u64(self.compute_retries);
        h.write_u64(self.link_retries);
        h.write_u64(self.deadline_hits);
        h.finish()
    }

    /// Renders the counters as a two-column table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["counter", "value"]);
        t.row_owned(vec!["requests".into(), self.requests.to_string()]);
        t.row_owned(vec!["accepts".into(), self.accepts.to_string()]);
        t.row_owned(vec!["rejects".into(), self.rejects.to_string()]);
        for (i, f) in self.fallbacks.iter().enumerate() {
            t.row_owned(vec![
                format!("fallback:{}", FallbackReason::label(i)),
                f.to_string(),
            ]);
        }
        t.row_owned(vec!["breaker-trips".into(), self.breaker_trips.to_string()]);
        t.row_owned(vec![
            "compute-retries".into(),
            self.compute_retries.to_string(),
        ]);
        t.row_owned(vec!["link-retries".into(), self.link_retries.to_string()]);
        t.row_owned(vec!["deadline-hits".into(), self.deadline_hits.to_string()]);
        t.row_owned(vec!["energy".into(), self.energy.human()]);
        t.row_owned(vec![
            "energy/accept".into(),
            self.energy_per_accept().human(),
        ]);
        t.row_owned(vec!["digest".into(), format!("{:016x}", self.digest())]);
        t.render()
    }
}

/// Outcome of a full [`VerifyService::serve`] run: one [`Served`] per
/// request, in request order, plus the aggregate report.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Per-request outcomes, parallel to the request slice.
    pub served: Vec<Served>,
    /// Aggregate counters.
    pub report: ServiceReport,
}

/// Result of the modeled (time/energy/fault) pipeline for one request.
enum ModelOutcome {
    /// Survived with this latency.
    Survived(Seconds),
    /// Fell back; latency when the pipeline gave up.
    Fell(FallbackReason, Seconds),
}

/// The verify service: gallery + embedding head + breaker + admission
/// queue + offload plan, and the align and embed scratch every request
/// reuses.
pub struct VerifyService {
    head: EmbeddingHead,
    gallery: Gallery,
    plan: VerifyPlan,
    config: ServiceConfig,
    breaker: CircuitBreaker,
    align: AlignScratch,
    embed: EmbedScratch,
}

impl VerifyService {
    /// Assembles a service. All configs are validated up front.
    pub fn new(
        head: EmbeddingHead,
        gallery: Gallery,
        plan: VerifyPlan,
        config: ServiceConfig,
    ) -> Self {
        plan.validate();
        config.validate();
        let breaker = CircuitBreaker::new(config.breaker);
        Self {
            head,
            gallery,
            plan,
            config,
            breaker,
            align: AlignScratch::default(),
            embed: EmbedScratch::default(),
        }
    }

    /// The enrollment gallery (for enroll/update/revoke between runs).
    pub fn gallery_mut(&mut self) -> &mut Gallery {
        &mut self.gallery
    }

    /// The embedding head (shared with enrollment).
    pub fn head(&self) -> &EmbeddingHead {
        &self.head
    }

    /// The active offload plan.
    pub fn plan(&self) -> &VerifyPlan {
        &self.plan
    }

    /// Serves a request trace in arrival order (request `i` arrives at
    /// tick `i`) against `oracle`, returning per-request outcomes and
    /// aggregate counters. Deterministic: a pure function of the
    /// requests, the oracle, and the service state.
    pub fn serve(&mut self, requests: &[VerifyRequest], oracle: &impl FaultOracle) -> ServiceRun {
        let mut ingest = Ingest::new(self.config.ingest);
        let mut served: Vec<Option<Served>> = vec![None; requests.len()];
        let mut report = ServiceReport {
            requests: requests.len() as u64,
            ..Default::default()
        };
        // at most one partial batch exists, so one flush timer suffices
        let mut flush_timer: Option<(u64, u64)> = None; // (epoch, due tick)
        let mut completions: Vec<(u64, u64)> = Vec::new(); // (due tick, frames)

        for (idx, request) in requests.iter().enumerate() {
            let tick = idx as u64;
            self.run_timers(
                tick,
                &mut ingest,
                &mut flush_timer,
                &mut completions,
                requests,
                oracle,
                &mut served,
                &mut report,
            );

            match self.breaker.admit(tick) {
                BreakerDecision::Shed => {
                    self.finish(
                        idx,
                        Served {
                            verdict: Verdict::Fallback(FallbackReason::BreakerOpen),
                            latency: Seconds::ZERO,
                            energy: Joules::ZERO,
                        },
                        &mut served,
                        &mut report,
                    );
                    continue;
                }
                BreakerDecision::Probe => {
                    // probes bypass the batch queue: the breaker needs a
                    // prompt health signal
                    self.serve_one(idx, tick, requests, oracle, &mut served, &mut report);
                    continue;
                }
                BreakerDecision::Admit => {}
            }

            if !self.gallery.contains(request.user) {
                self.finish(
                    idx,
                    Served {
                        verdict: Verdict::Fallback(FallbackReason::UnknownUser),
                        latency: Seconds::ZERO,
                        energy: Joules::ZERO,
                    },
                    &mut served,
                    &mut report,
                );
                continue;
            }

            match ingest.offer(tick) {
                Admission::Dropped => {
                    self.finish(
                        idx,
                        Served {
                            verdict: Verdict::Fallback(FallbackReason::QueueFull),
                            latency: Seconds::ZERO,
                            energy: Joules::ZERO,
                        },
                        &mut served,
                        &mut report,
                    );
                }
                Admission::Queued { start_flush } => {
                    if let Some(epoch) = start_flush {
                        flush_timer = Some((epoch, tick + self.config.ingest.flush_ticks));
                    }
                }
                Admission::BatchReady { cameras } => {
                    self.serve_batch(&cameras, tick, requests, oracle, &mut served, &mut report);
                    completions.push((
                        tick + self.config.ingest.service_ticks,
                        cameras.len() as u64,
                    ));
                }
            }
        }

        // drain: fire the trailing flush timer at its due tick
        if let Some((epoch, due)) = flush_timer.take() {
            if let Some(cameras) = ingest.flush(epoch) {
                self.serve_batch(&cameras, due, requests, oracle, &mut served, &mut report);
                ingest.complete(cameras.len() as u64);
            }
        }

        report.breaker_trips = self.breaker.trips();
        let served: Vec<Served> = served
            .into_iter()
            .map(|s| {
                // every request was finished exactly once above; a hole
                // would be an accounting bug, so fail closed loudly
                s.unwrap_or(Served {
                    verdict: Verdict::Fallback(FallbackReason::QueueFull),
                    latency: Seconds::ZERO,
                    energy: Joules::ZERO,
                })
            })
            .collect();
        debug_assert!(report.conserves(), "verdict counters must conserve");
        ServiceRun { served, report }
    }

    /// Fires due flush timers and completions at `tick`.
    #[allow(clippy::too_many_arguments)]
    fn run_timers(
        &mut self,
        tick: u64,
        ingest: &mut Ingest,
        flush_timer: &mut Option<(u64, u64)>,
        completions: &mut Vec<(u64, u64)>,
        requests: &[VerifyRequest],
        oracle: &impl FaultOracle,
        served: &mut [Option<Served>],
        report: &mut ServiceReport,
    ) {
        let mut i = 0;
        while i < completions.len() {
            if completions[i].0 <= tick {
                ingest.complete(completions[i].1);
                completions.remove(i);
            } else {
                i += 1;
            }
        }
        if let Some((epoch, due)) = *flush_timer {
            if due <= tick {
                *flush_timer = None;
                if let Some(cameras) = ingest.flush(epoch) {
                    completions
                        .push((due + self.config.ingest.service_ticks, cameras.len() as u64));
                    self.serve_batch(&cameras, due, requests, oracle, served, report);
                }
            }
        }
    }

    /// Serves one cut batch at `serve_tick`, member by member.
    fn serve_batch(
        &mut self,
        members: &[u64],
        serve_tick: u64,
        requests: &[VerifyRequest],
        oracle: &impl FaultOracle,
        served: &mut [Option<Served>],
        report: &mut ServiceReport,
    ) {
        for &member in members {
            self.serve_one(
                member as usize,
                serve_tick,
                requests,
                oracle,
                served,
                report,
            );
        }
    }

    /// Serves request `idx` at `serve_tick`: the modeled pipeline, then,
    /// if it survives, align → embed → match. Records the outcome with
    /// the breaker and into the run.
    fn serve_one(
        &mut self,
        idx: usize,
        serve_tick: u64,
        requests: &[VerifyRequest],
        oracle: &impl FaultOracle,
        served: &mut [Option<Served>],
        report: &mut ServiceReport,
    ) {
        let request = &requests[idx];
        // request `idx` arrived at tick `idx`
        let wait = self.config.tick_period * serve_tick.saturating_sub(idx as u64) as f64;
        let mut energy = Joules::ZERO;
        let (verdict, latency) = match self.run_model(request, wait, oracle, &mut energy, report) {
            ModelOutcome::Fell(reason, latency) => (Verdict::Fallback(reason), latency),
            ModelOutcome::Survived(latency) if !self.gallery.contains(request.user) => {
                (Verdict::Fallback(FallbackReason::UnknownUser), latency)
            }
            ModelOutcome::Survived(latency) => (self.score(request), latency),
        };
        let faulted = matches!(verdict, Verdict::Fallback(r) if r.is_infra_fault());
        self.breaker.record(serve_tick, faulted);
        self.finish(
            idx,
            Served {
                verdict,
                latency,
                energy,
            },
            served,
            report,
        );
    }

    /// Functional align → embed → match for one request, in the service's
    /// scratch.
    fn score(&mut self, request: &VerifyRequest) -> Verdict {
        let probe = &request.probe;
        let side = self.head.side();
        let Ok(window) = align_face_into(&probe.image, &probe.landmarks, side, &mut self.align)
        else {
            return Verdict::Fallback(FallbackReason::AlignFailed);
        };
        let embedding = self.head.embed_into(window, &mut self.embed);
        self.judge(request.user, embedding)
    }

    /// The scoring rule: a match against `user`'s templates at or above
    /// the threshold accepts, a lower one rejects, and a failed embed or
    /// match falls back.
    fn judge(&self, user: u32, embedding: Result<Embedding, EmbedError>) -> Verdict {
        match embedding.map(|e| self.gallery.match_score(user, &e)) {
            Ok(Ok(score)) if score >= self.config.threshold => Verdict::Accept { score },
            Ok(Ok(score)) => Verdict::Reject { score },
            Ok(Err(_)) | Err(_) => Verdict::Fallback(FallbackReason::EmbedFailed),
        }
    }

    /// Runs the modeled pipeline: stages with retries, the upload at
    /// the cut, deadline checks after every step.
    fn run_model(
        &self,
        request: &VerifyRequest,
        queue_wait: Seconds,
        oracle: &impl FaultOracle,
        energy: &mut Joules,
        report: &mut ServiceReport,
    ) -> ModelOutcome {
        let policy = &self.config.retry;
        let mut elapsed = queue_wait;
        if elapsed > request.deadline {
            return ModelOutcome::Fell(FallbackReason::DeadlineMissed { stage: 0 }, elapsed);
        }
        for stage in 0..NUM_STAGES {
            if stage == self.plan.cut {
                if let Some(reason) = self.transmit(request, &mut elapsed, energy, oracle, report) {
                    return ModelOutcome::Fell(reason, elapsed);
                }
                if elapsed > request.deadline {
                    return ModelOutcome::Fell(FallbackReason::DeadlineMissed { stage }, elapsed);
                }
            }
            let local = stage < self.plan.cut;
            let mut ok = false;
            for attempt in 0..policy.max_attempts {
                elapsed += policy.backoff(request.frame, attempt);
                if attempt > 0 {
                    report.compute_retries += 1;
                }
                let nominal = if local {
                    self.plan.local[stage].time
                } else {
                    self.plan.cloud_time
                };
                let condition = oracle.compute(request.frame, stage, attempt);
                let cost = match condition {
                    ComputeCondition::Nominal => nominal,
                    ComputeCondition::Slowdown(f) => nominal * f,
                    ComputeCondition::Failed => nominal,
                };
                elapsed += cost;
                if local {
                    *energy += self.plan.local[stage].energy;
                }
                if !matches!(condition, ComputeCondition::Failed) {
                    ok = true;
                    break;
                }
            }
            if !ok {
                return ModelOutcome::Fell(FallbackReason::ComputeExhausted { stage }, elapsed);
            }
            if elapsed > request.deadline {
                return ModelOutcome::Fell(FallbackReason::DeadlineMissed { stage }, elapsed);
            }
        }
        if self.plan.cut == NUM_STAGES {
            if let Some(reason) = self.transmit(request, &mut elapsed, energy, oracle, report) {
                return ModelOutcome::Fell(reason, elapsed);
            }
            if elapsed > request.deadline {
                return ModelOutcome::Fell(
                    FallbackReason::DeadlineMissed { stage: NUM_STAGES },
                    elapsed,
                );
            }
        }
        ModelOutcome::Survived(elapsed)
    }

    /// Transmits the cut payload with retries. Returns the fallback
    /// reason if every attempt is lost.
    fn transmit(
        &self,
        request: &VerifyRequest,
        elapsed: &mut Seconds,
        energy: &mut Joules,
        oracle: &impl FaultOracle,
        report: &mut ServiceReport,
    ) -> Option<FallbackReason> {
        let policy = &self.config.retry;
        for attempt in 0..policy.max_attempts {
            *elapsed += policy.backoff(request.frame, attempt);
            if attempt > 0 {
                report.link_retries += 1;
            }
            let condition = oracle.link(request.frame, attempt);
            // the radio burns the bits whether or not they arrive
            *energy += self.plan.link.upload_energy(self.plan.payload);
            if condition.goodput <= 0.0 {
                *elapsed += policy.timeout;
                continue;
            }
            let time = self
                .plan
                .link
                .degraded(condition.goodput)
                .upload_time(self.plan.payload);
            *elapsed += time;
            if condition.delivered {
                return None;
            }
        }
        Some(FallbackReason::LinkLost)
    }

    /// Records one finished request into the run.
    fn finish(
        &self,
        idx: usize,
        outcome: Served,
        served: &mut [Option<Served>],
        report: &mut ServiceReport,
    ) {
        report.record(&outcome);
        served[idx] = Some(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{align_face, EyeLandmarks};
    use incam_core::runtime::{IdealOracle, LinkCondition};
    use incam_core::units::BytesPerSec;
    use incam_imaging::faces::{render_face, Identity, Nuisance};
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    const SIDE: usize = 20;

    fn test_link() -> Link {
        Link::new("test-uplink", BytesPerSec::new(100_000.0), 0.9)
            .with_energy_per_bit(Joules::from_nano(1.0))
    }

    fn test_plan(cut: usize) -> VerifyPlan {
        VerifyPlan {
            label: format!("cut={cut}"),
            cut,
            local: [StageCost {
                time: Seconds::from_millis(1.0),
                energy: Joules::from_micro(10.0),
            }; NUM_STAGES],
            cloud_time: Seconds::from_micros(100.0),
            payload: Bytes::new(400.0),
            link: test_link(),
        }
    }

    fn probe_for(id: &Identity, nuisance: &Nuisance, rng: &mut StdRng) -> Probe {
        let image = render_face(id, nuisance, 48, rng);
        let landmarks = EyeLandmarks::from_render_geometry(id, nuisance, 48);
        Probe { image, landmarks }
    }

    fn service_with_users(users: u32, seed: u64) -> (VerifyService, Vec<Identity>) {
        let head = EmbeddingHead::new(SIDE, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gallery = Gallery::new();
        let mut identities = Vec::new();
        for user in 0..users {
            let id = Identity::sample(&mut rng);
            let probe = probe_for(&id, &Nuisance::none(), &mut rng);
            let window = align_face(&probe.image, &probe.landmarks, SIDE).expect("clean align");
            let template = head.embed(&window).expect("clean embed");
            gallery.enroll(user, template).expect("fresh user");
            identities.push(id);
        }
        let mut config = ServiceConfig::experiment_default();
        config.threshold = 0.9;
        let service = VerifyService::new(head, gallery, test_plan(1), config);
        (service, identities)
    }

    fn genuine_requests(
        identities: &[Identity],
        n: usize,
        seed: u64,
        deadline: Seconds,
    ) -> Vec<VerifyRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let user = (i % identities.len()) as u32;
                VerifyRequest {
                    user,
                    camera: user as u64,
                    frame: i as u64,
                    deadline,
                    probe: probe_for(&identities[user as usize], &Nuisance::none(), &mut rng),
                }
            })
            .collect()
    }

    #[test]
    fn record_counts_each_verdict_with_its_energy() {
        let mut report = ServiceReport::default();
        let mut verdicts = vec![
            Verdict::Accept { score: 0.95 },
            Verdict::Reject { score: 0.5 },
        ];
        verdicts.extend(
            [
                FallbackReason::BreakerOpen,
                FallbackReason::QueueFull,
                FallbackReason::UnknownUser,
                FallbackReason::AlignFailed,
                FallbackReason::EmbedFailed,
                FallbackReason::ComputeExhausted { stage: 1 },
                FallbackReason::LinkLost,
                FallbackReason::DeadlineMissed { stage: 2 },
            ]
            .map(Verdict::Fallback),
        );
        for (i, verdict) in verdicts.into_iter().enumerate() {
            report.record(&Served {
                verdict,
                latency: Seconds::ZERO,
                energy: Joules::from_micro((i + 1) as f64),
            });
        }
        assert_eq!((report.accepts, report.rejects), (1, 1));
        assert_eq!(report.fallbacks, [1; FALLBACK_KINDS]);
        // only served requests (accept or reject) hit their deadline
        assert_eq!(report.deadline_hits, 2);
        assert!((report.energy.joules() - 55e-6).abs() < 1e-15);
        // requests are offered by the caller, never by `record`
        assert_eq!(report.requests, 0);
        assert!(!report.conserves());
    }

    #[test]
    fn ideal_run_accepts_genuine_probes() {
        let (mut service, identities) = service_with_users(3, 42);
        let requests = genuine_requests(&identities, 12, 7, Seconds::from_millis(500.0));
        let run = service.serve(&requests, &IdealOracle);
        assert!(run.report.conserves());
        assert_eq!(run.report.accepts, 12, "report: {}", run.report.render());
        assert_eq!(run.report.breaker_trips, 0);
        assert!(run.report.energy.joules() > 0.0);
    }

    #[test]
    fn impostors_are_rejected_not_fallbacked() {
        let (mut service, identities) = service_with_users(2, 42);
        let mut rng = StdRng::seed_from_u64(99);
        let stranger = Identity::sample(&mut rng);
        let requests: Vec<VerifyRequest> = (0..6)
            .map(|i| VerifyRequest {
                user: (i % identities.len()) as u32,
                camera: 0,
                frame: i as u64,
                deadline: Seconds::from_millis(500.0),
                probe: probe_for(&stranger, &Nuisance::none(), &mut rng),
            })
            .collect();
        let run = service.serve(&requests, &IdealOracle);
        assert_eq!(run.report.accepts, 0, "report: {}", run.report.render());
        assert_eq!(run.report.rejects as usize, requests.len());
    }

    #[test]
    fn unknown_user_falls_back() {
        let (mut service, identities) = service_with_users(2, 42);
        let mut requests = genuine_requests(&identities, 2, 7, Seconds::from_millis(500.0));
        requests[1].user = 77;
        let run = service.serve(&requests, &IdealOracle);
        assert_eq!(run.report.fallbacks[FallbackReason::UnknownUser.index()], 1);
        assert!(matches!(
            run.served[1].verdict,
            Verdict::Fallback(FallbackReason::UnknownUser)
        ));
    }

    #[test]
    fn dead_link_never_accepts_and_trips_breaker() {
        struct DeadLink;
        impl FaultOracle for DeadLink {
            fn link(&self, _f: u64, _a: u32) -> LinkCondition {
                LinkCondition {
                    delivered: false,
                    goodput: 0.0,
                }
            }
            fn compute(&self, _f: u64, _s: usize, _a: u32) -> ComputeCondition {
                ComputeCondition::Nominal
            }
        }
        let (mut service, identities) = service_with_users(2, 42);
        let requests = genuine_requests(&identities, 40, 7, Seconds::from_millis(5_000.0));
        let run = service.serve(&requests, &DeadLink);
        assert_eq!(run.report.accepts, 0, "fail-closed violated");
        assert!(run.report.breaker_trips > 0, "{}", run.report.render());
        assert!(
            run.report.fallbacks[FallbackReason::BreakerOpen.index()] > 0,
            "breaker never shed: {}",
            run.report.render()
        );
    }

    #[test]
    fn tight_deadline_forces_deadline_fallbacks() {
        let (mut service, identities) = service_with_users(2, 42);
        let requests = genuine_requests(&identities, 8, 7, Seconds::from_micros(1.0));
        let run = service.serve(&requests, &IdealOracle);
        assert_eq!(run.report.accepts, 0);
        assert!(run.report.fallbacks[FallbackReason::DeadlineMissed { stage: 0 }.index()] > 0);
    }

    #[test]
    fn serve_is_deterministic() {
        let build = || service_with_users(3, 42);
        let (mut a, ids) = build();
        let (mut b, _) = build();
        let requests = genuine_requests(&ids, 20, 7, Seconds::from_millis(200.0));
        let ra = a.serve(&requests, &IdealOracle);
        let rb = b.serve(&requests, &IdealOracle);
        assert_eq!(ra.report, rb.report);
        assert_eq!(ra.report.digest(), rb.report.digest());
    }

    #[test]
    fn all_cuts_accept_under_ideal_conditions() {
        for cut in 0..=NUM_STAGES {
            let (mut service, identities) = service_with_users(2, 42);
            service.plan = test_plan(cut);
            let requests = genuine_requests(&identities, 8, 7, Seconds::from_millis(500.0));
            let run = service.serve(&requests, &IdealOracle);
            assert_eq!(run.report.accepts, 8, "cut {cut}: {}", run.report.render());
        }
    }
}
