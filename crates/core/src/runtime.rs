//! Degradation-aware pipeline execution under injected faults.
//!
//! The cost framework elsewhere in this crate assumes ideal conditions:
//! [`crate::link::Link::effective_rate`] is a fixed fraction of the raw
//! bandwidth and every block always completes. Real camera uplinks lose
//! packets in bursts and real in-camera blocks stall or fail transiently;
//! this module runs a composed [`Pipeline`] against a *fault oracle* with
//! a configurable [`RetryPolicy`] and reports what actually survived — a
//! [`DegradationReport`] of frames attempted / completed / dropped,
//! retries spent, and the effective frame rate and energy next to the
//! ideal figures.
//!
//! # Determinism contract
//!
//! The executor is a pure function of its inputs. Faults are supplied by
//! a [`FaultOracle`], which is queried by *frame and attempt index* (never
//! by wall-clock or call order), so a deterministic oracle — such as the
//! trace-backed ones in the `incam-faults` crate — yields byte-identical
//! reports at any `INCAM_THREADS` setting. Retry-backoff jitter is
//! derived from a [SplitMix64-style hash](https://prng.di.unimi.it/) of
//! `(frame, attempt)`, not from ambient randomness.
//!
//! # Examples
//!
//! ```
//! use incam_core::block::{Backend, BlockSpec, DataTransform};
//! use incam_core::link::Link;
//! use incam_core::pipeline::{Pipeline, Source, Stage};
//! use incam_core::runtime::{IdealOracle, RetryPolicy, Runtime};
//! use incam_core::units::{Bytes, BytesPerSec, Fps};
//!
//! let pipeline = Pipeline::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
//!     .then(Stage::new(BlockSpec::core("B1", DataTransform::Scale(0.5)),
//!                      Backend::Cpu, Fps::new(60.0)));
//! let link = Link::new("uplink", BytesPerSec::new(50_000.0), 1.0);
//! let runtime = Runtime::new(&pipeline, &link, 1, RetryPolicy::default());
//! let report = runtime.run(100, &IdealOracle);
//! assert_eq!(report.frames_completed, 100);
//! assert_eq!(report.frames_dropped(), 0);
//! // under no faults the effective rate equals the ideal rate
//! assert!((report.effective_fps.fps() - report.ideal_fps.fps()).abs() < 1e-9);
//! ```

use crate::link::Link;
use crate::offload::analyze_cut;
use crate::pipeline::Pipeline;
use crate::report::{sig3, Table};
use crate::units::{Fps, Joules, Seconds};

/// Link condition for one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCondition {
    /// Whether the attempt delivers the payload.
    pub delivered: bool,
    /// Fraction of the link's ideal effective rate available to this
    /// attempt, in `[0, 1]`. Zero models a full outage window.
    pub goodput: f64,
}

impl LinkCondition {
    /// A nominal attempt: delivered at full rate.
    pub const NOMINAL: LinkCondition = LinkCondition {
        delivered: true,
        goodput: 1.0,
    };
}

/// Compute condition for one execution of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeCondition {
    /// The stage runs at its calibrated throughput.
    Nominal,
    /// The stage runs slowed by the given factor (`> 1`, e.g. `2.0` means
    /// twice the frame time — thermal throttling, contention).
    Slowdown(f64),
    /// The stage fails transiently and must be re-executed.
    Failed,
}

/// Deterministic source of fault conditions, queried by frame, stage and
/// attempt index.
///
/// Implementations must be pure functions of their construction inputs
/// and the query indices: the executor relies on this for its
/// thread-count-independent determinism guarantee.
pub trait FaultOracle {
    /// Link condition for transmission attempt `attempt` (0-based) of
    /// frame `frame`.
    fn link(&self, frame: u64, attempt: u32) -> LinkCondition;

    /// Compute condition for execution attempt `attempt` of stage `stage`
    /// on frame `frame`.
    fn compute(&self, frame: u64, stage: usize, attempt: u32) -> ComputeCondition;
}

/// The no-fault oracle: every attempt is nominal. Running the executor
/// against it reproduces the ideal cost model exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealOracle;

impl FaultOracle for IdealOracle {
    fn link(&self, _frame: u64, _attempt: u32) -> LinkCondition {
        LinkCondition::NOMINAL
    }

    fn compute(&self, _frame: u64, _stage: usize, _attempt: u32) -> ComputeCondition {
        ComputeCondition::Nominal
    }
}

/// Retry semantics for failed stage executions and lost transmissions.
///
/// Backoff before retry `n` (1-based) is `base_backoff × 2^(n-1)`, capped
/// at `max_backoff`, then scaled by a deterministic jitter factor in
/// `[1 − jitter, 1 + jitter]` derived from the `(frame, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum executions of any one stage / transmissions of any one
    /// payload (first try included). At least 1.
    pub max_attempts: u32,
    /// Base backoff before the first retry.
    pub base_backoff: Seconds,
    /// Cap on the exponentially grown backoff.
    pub max_backoff: Seconds,
    /// Relative jitter amplitude in `[0, 1)` applied to each backoff.
    pub jitter: f64,
    /// Wall-clock charged to a transmission attempt that cannot complete
    /// (outage windows where goodput is zero) before it is declared lost.
    pub timeout: Seconds,
}

impl Default for RetryPolicy {
    /// Three total attempts, 10 ms base backoff (capped at 200 ms, ±25 %
    /// jitter), 500 ms attempt timeout.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Seconds::from_millis(10.0),
            max_backoff: Seconds::from_millis(200.0),
            jitter: 0.25,
            timeout: Seconds::from_millis(500.0),
        }
    }
}

impl RetryPolicy {
    /// Validates the policy's invariants.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero, `jitter` is outside `[0, 1)`, or
    /// any duration is negative or non-finite.
    pub fn validate(&self) {
        assert!(self.max_attempts >= 1, "need at least one attempt");
        assert!(
            (0.0..1.0).contains(&self.jitter),
            "jitter must be in [0, 1), got {}",
            self.jitter
        );
        for (name, s) in [
            ("base_backoff", self.base_backoff),
            ("max_backoff", self.max_backoff),
            ("timeout", self.timeout),
        ] {
            assert!(
                s.secs().is_finite() && s.secs() >= 0.0,
                "{name} must be finite and non-negative"
            );
        }
    }

    /// Backoff delay before retry `retry` (1-based) of frame `frame`.
    /// Deterministic: the jitter factor is a pure function of the
    /// `(frame, retry)` pair.
    pub fn backoff(&self, frame: u64, retry: u32) -> Seconds {
        if retry == 0 {
            return Seconds::ZERO;
        }
        let raw = self.base_backoff * 2f64.powi((retry - 1).min(32) as i32);
        let capped = raw.min(self.max_backoff);
        // uniform draw in [0, 1) from a splitmix64-style finalizer
        let draw = unit_hash(frame ^ u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        capped * (1.0 + self.jitter * (2.0 * draw - 1.0))
    }
}

/// SplitMix64 finalizer mapping a 64-bit key to a uniform draw in
/// `[0, 1)`. Keeps the executor free of any RNG *state*: jitter depends
/// only on the key, never on query order.
fn unit_hash(key: u64) -> f64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 high bits -> [0, 1)
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Outcome of running a pipeline against a fault oracle.
///
/// All counters are exact integers and all derived figures are pure
/// functions of them plus the model parameters, so two reports from the
/// same seed render byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Label of the executed configuration (pipeline cut + link).
    pub label: String,
    /// Frames submitted to the runtime.
    pub frames_attempted: u64,
    /// Frames whose compute and upload both completed.
    pub frames_completed: u64,
    /// Frames abandoned because a stage exhausted its retry budget.
    pub frames_dropped_compute: u64,
    /// Frames abandoned because the uplink exhausted its retry budget.
    pub frames_dropped_link: u64,
    /// Stage re-executions beyond each first attempt.
    pub compute_retries: u64,
    /// Transmission re-attempts beyond each first attempt.
    pub link_retries: u64,
    /// Wall-clock spent waiting in retry backoff.
    pub backoff_time: Seconds,
    /// Total simulated wall-clock.
    pub elapsed: Seconds,
    /// Completed frames per elapsed second.
    pub effective_fps: Fps,
    /// The same pipeline cut's throughput under ideal conditions.
    pub ideal_fps: Fps,
    /// Total energy drawn (compute for every execution, radio for every
    /// attempt — retries burn energy whether or not the frame survives).
    pub energy_total: Joules,
    /// Per-frame energy of the same cut under ideal conditions.
    pub energy_ideal_per_frame: Joules,
}

impl DegradationReport {
    /// Total dropped frames, either cause.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped_compute + self.frames_dropped_link
    }

    /// Fraction of attempted frames that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.frames_attempted == 0 {
            return 1.0;
        }
        self.frames_completed as f64 / self.frames_attempted as f64
    }

    /// Mean energy per *completed* frame — the price of retries shows up
    /// here as the gap to [`DegradationReport::energy_ideal_per_frame`].
    pub fn energy_per_completed_frame(&self) -> Joules {
        if self.frames_completed == 0 {
            return Joules::ZERO;
        }
        self.energy_total / self.frames_completed as f64
    }

    /// Effective rate as a fraction of the ideal rate.
    pub fn throughput_ratio(&self) -> f64 {
        if self.ideal_fps.fps() <= 0.0 {
            return 0.0;
        }
        self.effective_fps.fps() / self.ideal_fps.fps()
    }

    /// Renders the report as an aligned two-column table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["metric", "value"]);
        t.row(&["configuration", &self.label]);
        t.row(&["frames attempted", &self.frames_attempted.to_string()]);
        t.row(&["frames completed", &self.frames_completed.to_string()]);
        t.row(&[
            "frames dropped (compute)",
            &self.frames_dropped_compute.to_string(),
        ]);
        t.row(&[
            "frames dropped (link)",
            &self.frames_dropped_link.to_string(),
        ]);
        t.row(&["compute retries", &self.compute_retries.to_string()]);
        t.row(&["link retries", &self.link_retries.to_string()]);
        t.row(&["effective FPS", &sig3(self.effective_fps.fps())]);
        t.row(&["ideal FPS", &sig3(self.ideal_fps.fps())]);
        t.row(&[
            "throughput ratio",
            &format!("{:.3}", self.throughput_ratio()),
        ]);
        // analytical pipelines with no energy model would render 0 pJ
        if self.energy_total.joules() > 0.0 || self.energy_ideal_per_frame.joules() > 0.0 {
            t.row(&[
                "energy / completed frame",
                &self.energy_per_completed_frame().human(),
            ]);
            t.row(&["ideal energy / frame", &self.energy_ideal_per_frame.human()]);
        }
        t.render()
    }
}

/// The degradation-aware executor: a pipeline cut on a link, run frame by
/// frame against a [`FaultOracle`] under a [`RetryPolicy`].
///
/// Timing model: stages are pipelined, so under ideal conditions each
/// frame advances the clock by the bottleneck time
/// `max(stage times, upload time)`. Faults stretch individual terms —
/// a stage retry re-executes the stage, a lost transmission occupies the
/// link for its attempted duration (capped at the policy timeout) plus
/// backoff before the next try.
#[derive(Debug, Clone)]
pub struct Runtime<'a> {
    pipeline: &'a Pipeline,
    link: &'a Link,
    cut: usize,
    policy: RetryPolicy,
}

impl<'a> Runtime<'a> {
    /// Creates a runtime executing the first `cut` stages in-camera and
    /// uploading the cut's output over `link`.
    ///
    /// # Panics
    ///
    /// Panics if `cut` exceeds the stage count or the policy is invalid.
    pub fn new(pipeline: &'a Pipeline, link: &'a Link, cut: usize, policy: RetryPolicy) -> Self {
        assert!(
            cut <= pipeline.len(),
            "cut {cut} out of range for a {}-stage pipeline",
            pipeline.len()
        );
        policy.validate();
        Self {
            pipeline,
            link,
            cut,
            policy,
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Runs `frames` frames against `oracle` and aggregates the outcome.
    pub fn run(&self, frames: u64, oracle: &dyn FaultOracle) -> DegradationReport {
        let ideal = analyze_cut(self.pipeline, self.link, self.cut);
        let upload_size = ideal.upload;
        let ideal_upload = self.link.upload_time(upload_size);
        let effective_rate = self.link.effective_rate();
        let energy_compute_ideal = ideal.energy;
        let energy_upload_ideal = self.link.upload_energy(upload_size);

        let mut completed = 0u64;
        let mut compute_retries = 0u64;
        let mut link_retries = 0u64;
        let mut frames_dropped_compute = 0u64;
        let mut frames_dropped_link = 0u64;
        let mut backoff_time = Seconds::ZERO;
        let mut elapsed = Seconds::ZERO;
        let mut energy_total = Joules::ZERO;

        // sensor cap: even an empty cut cannot outrun the source
        let capture_time = self.pipeline.source().max_fps().period();

        for frame in 0..frames {
            let mut frame_time = capture_time;
            let mut frame_backoff = Seconds::ZERO;
            let mut computed = true;
            energy_total += self.pipeline.source().capture_energy();

            // ---- compute phase: every in-camera stage, with retries ----
            for (stage_idx, stage) in self.pipeline.stages().iter().take(self.cut).enumerate() {
                let nominal = stage.frame_time();
                let mut stage_time = Seconds::ZERO;
                let mut ok = false;
                for attempt in 0..self.policy.max_attempts {
                    if attempt > 0 {
                        compute_retries += 1;
                        let delay = self.policy.backoff(frame, attempt);
                        stage_time += delay;
                        frame_backoff += delay;
                    }
                    // every execution costs the stage's energy
                    energy_total += stage.energy_per_frame();
                    match oracle.compute(frame, stage_idx, attempt) {
                        ComputeCondition::Nominal => {
                            stage_time += nominal;
                            ok = true;
                        }
                        ComputeCondition::Slowdown(factor) => {
                            stage_time += nominal * factor.max(1.0);
                            ok = true;
                        }
                        ComputeCondition::Failed => {
                            stage_time += nominal;
                            continue;
                        }
                    }
                    break;
                }
                frame_time = frame_time.max(stage_time);
                if !ok {
                    frames_dropped_compute += 1;
                    computed = false;
                    break;
                }
            }

            // ---- communication phase: upload with retries ----
            if computed {
                let mut upload_time = Seconds::ZERO;
                let mut delivered = false;
                for attempt in 0..self.policy.max_attempts {
                    if attempt > 0 {
                        link_retries += 1;
                        let delay = self.policy.backoff(frame, attempt);
                        upload_time += delay;
                        frame_backoff += delay;
                    }
                    let cond = oracle.link(frame, attempt);
                    let attempt_time = if cond.goodput > 0.0 {
                        (upload_size / (effective_rate * cond.goodput.min(1.0)))
                            .min(self.policy.timeout)
                    } else {
                        self.policy.timeout
                    };
                    upload_time += attempt_time;
                    // the radio burns energy for the whole attempt either way
                    energy_total += energy_upload_ideal;
                    if cond.delivered && cond.goodput > 0.0 {
                        delivered = true;
                        break;
                    }
                }
                frame_time = frame_time.max(upload_time.max(ideal_upload));
                if delivered {
                    completed += 1;
                } else {
                    frames_dropped_link += 1;
                }
            }
            backoff_time += frame_backoff;
            elapsed += frame_time;
        }

        let effective_fps = if elapsed.secs() > 0.0 {
            Fps::new(completed as f64 / elapsed.secs())
        } else {
            Fps::ZERO
        };
        DegradationReport {
            label: format!("{} over {}", ideal.label, self.link.name()),
            frames_attempted: frames,
            frames_completed: completed,
            frames_dropped_compute,
            frames_dropped_link,
            compute_retries,
            link_retries,
            backoff_time,
            elapsed,
            effective_fps,
            ideal_fps: ideal.total(),
            energy_total,
            energy_ideal_per_frame: energy_compute_ideal + energy_upload_ideal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Backend, BlockSpec, DataTransform};
    use crate::pipeline::{Source, Stage};
    use crate::units::{Bytes, BytesPerSec};

    fn toy() -> (Pipeline, Link) {
        let p = Pipeline::new(
            Source::new("s", Bytes::new(1000.0), Fps::new(100.0))
                .with_capture_energy(Joules::from_micro(1.0)),
        )
        .then(
            Stage::new(
                BlockSpec::core("B1", DataTransform::Scale(0.5)),
                Backend::Cpu,
                Fps::new(50.0),
            )
            .with_energy_per_frame(Joules::from_micro(2.0)),
        );
        let link = Link::new("L", BytesPerSec::new(25_000.0), 1.0);
        (p, link)
    }

    /// Oracle that loses the first `n` attempts of every frame.
    struct LoseFirst(u32);

    impl FaultOracle for LoseFirst {
        fn link(&self, _frame: u64, attempt: u32) -> LinkCondition {
            LinkCondition {
                delivered: attempt >= self.0,
                goodput: 1.0,
            }
        }

        fn compute(&self, _f: u64, _s: usize, _a: u32) -> ComputeCondition {
            ComputeCondition::Nominal
        }
    }

    /// Oracle that always fails stage 0.
    struct BrokenStage;

    impl FaultOracle for BrokenStage {
        fn link(&self, _f: u64, _a: u32) -> LinkCondition {
            LinkCondition::NOMINAL
        }

        fn compute(&self, _f: u64, stage: usize, _a: u32) -> ComputeCondition {
            if stage == 0 {
                ComputeCondition::Failed
            } else {
                ComputeCondition::Nominal
            }
        }
    }

    #[test]
    fn ideal_oracle_matches_cut_analysis() {
        let (p, link) = toy();
        let report = Runtime::new(&p, &link, 1, RetryPolicy::default()).run(50, &IdealOracle);
        assert_eq!(report.frames_completed, 50);
        assert_eq!(report.compute_retries + report.link_retries, 0);
        assert!((report.effective_fps.fps() - report.ideal_fps.fps()).abs() < 1e-9);
        assert!(
            (report.energy_per_completed_frame().joules() - report.energy_ideal_per_frame.joules())
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn one_loss_per_frame_retries_and_completes() {
        let (p, link) = toy();
        let report = Runtime::new(&p, &link, 1, RetryPolicy::default()).run(20, &LoseFirst(1));
        assert_eq!(report.frames_completed, 20);
        assert_eq!(report.link_retries, 20);
        assert!(report.effective_fps.fps() < report.ideal_fps.fps());
        // retried uploads burn extra radio time but not extra compute energy
        assert!(report.backoff_time.secs() > 0.0);
    }

    #[test]
    fn persistent_loss_drops_every_frame() {
        let (p, link) = toy();
        let policy = RetryPolicy::default();
        let report = Runtime::new(&p, &link, 1, policy).run(10, &LoseFirst(u32::MAX));
        assert_eq!(report.frames_completed, 0);
        assert_eq!(report.frames_dropped_link, 10);
        assert_eq!(report.link_retries, 10 * u64::from(policy.max_attempts - 1));
        assert_eq!(report.effective_fps, Fps::ZERO);
    }

    #[test]
    fn broken_stage_drops_on_compute() {
        let (p, link) = toy();
        let report = Runtime::new(&p, &link, 1, RetryPolicy::default()).run(10, &BrokenStage);
        assert_eq!(report.frames_dropped_compute, 10);
        assert_eq!(report.frames_dropped_link, 0);
        // the NN of attempts still burned stage energy
        assert!(report.energy_total.joules() > 0.0);
    }

    #[test]
    fn backoff_grows_then_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Seconds::from_millis(10.0),
            max_backoff: Seconds::from_millis(50.0),
            jitter: 0.0,
            timeout: Seconds::new(1.0),
        };
        let b1 = policy.backoff(0, 1);
        let b2 = policy.backoff(0, 2);
        let b3 = policy.backoff(0, 3);
        let b9 = policy.backoff(0, 9);
        assert!((b1.millis() - 10.0).abs() < 1e-9);
        assert!((b2.millis() - 20.0).abs() < 1e-9);
        assert!((b3.millis() - 40.0).abs() < 1e-9);
        assert!((b9.millis() - 50.0).abs() < 1e-9, "cap at max_backoff");
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        for frame in 0..50u64 {
            for retry in 1..4u32 {
                let a = policy.backoff(frame, retry);
                let b = policy.backoff(frame, retry);
                assert_eq!(a, b, "jitter must be a pure function of (frame, retry)");
                let nominal = policy
                    .base_backoff
                    .secs()
                    .mul_add(f64::from(1 << (retry - 1)), 0.0)
                    .min(policy.max_backoff.secs());
                assert!(a.secs() >= nominal * (1.0 - policy.jitter) - 1e-15);
                assert!(a.secs() <= nominal * (1.0 + policy.jitter) + 1e-15);
            }
        }
    }

    #[test]
    fn report_renders_all_counters() {
        let (p, link) = toy();
        let report = Runtime::new(&p, &link, 1, RetryPolicy::default()).run(5, &LoseFirst(1));
        let s = report.render();
        for needle in ["frames attempted", "link retries", "effective FPS"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cut_out_of_range_rejected() {
        let (p, link) = toy();
        let _ = Runtime::new(&p, &link, 5, RetryPolicy::default());
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let (p, link) = toy();
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let _ = Runtime::new(&p, &link, 1, policy);
    }
}
