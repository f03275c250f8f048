//! The fleet simulator: one sequential event loop over shared resources.
//!
//! Each camera runs the paper's pipeline at its current offload cut;
//! every transmission contends for the shared [`Spectrum`]; delivered
//! frames pass the [`Ingest`] tier's admission control and batching; and
//! every resolved frame feeds the camera's observed-goodput estimate,
//! which drives online cut re-selection through an
//! [`incam_core::explore::IncrementalSearch`] over
//! each profile's committed held-cut frontier — the same link-only
//! re-ranking as `vr::degrade`'s adaptive-cut policy, built once per
//! profile and re-ranked in O(frontier) per re-search instead of
//! re-evaluating every cut from scratch.
//!
//! # Event model
//!
//! Per frame, O(1) events: `Capture` (a sensor fire finds the camera
//! idle and starts a frame) → `Admit` (in-camera compute done; reserve
//! spectrum) → `TxDone` (slot over; retry, drop, or offer to ingest) →
//! `Batch`/`Flush` (ingest services a batch; every member frame
//! resolves). A camera with a frame in flight queues no `Capture`: it
//! holds the tick of its next sensor fire, and the fires that find it
//! busy are counted as captured and skipped, not queued — in one
//! division, when its own next event runs, when an ingest batch resolves
//! it, or at the horizon. So the queue holds at most one event per
//! camera besides the ingest tier's. Spectrum contention is a conveyor
//! reservation, not per-tick simulation, so wall-clock scales with the
//! frames started, not with sensor fires or congestion depth.
//! [`FleetSim::run_reference`] keeps one `Capture` event per fire and is
//! the oracle `run` is pinned to, report for report.
//!
//! # Determinism
//!
//! Time is integer ticks; events are totally ordered by
//! `(time, camera, seq)` with simulator-assigned per-actor sequence
//! numbers; per-camera channel conditions come from a
//! [`TracePool`] derived from the one
//! fleet seed; and the loop is single-threaded by construction. The same
//! seed therefore yields a byte-identical [`FleetReport`] regardless of
//! `INCAM_THREADS`, insertion order, or host.

use crate::ingest::{Admission, Ingest, IngestConfig};
use crate::queue::{EventKey, EventQueue};
use crate::spectrum::Spectrum;
use incam_core::explore::{Configuration, IncrementalSearch};
use incam_core::fleet::{CameraProfile, FleetReport};
use incam_core::units::{Bytes, Joules, Seconds};
use incam_faults::fleet::{camera_seed, TracePool};
use incam_faults::GilbertElliott;

/// Fleet-level knobs: scale, shared-resource sizing, and the adaptation
/// policy. Camera classes are supplied separately as
/// [`CameraProfile`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Scenario label, echoed in the report.
    pub label: String,
    /// The one seed every per-camera trace and phase derives from.
    pub seed: u64,
    /// Number of camera instances.
    pub cameras: u64,
    /// Simulated duration.
    pub horizon: Seconds,
    /// Tick resolution (ticks per simulated second).
    pub ticks_per_sec: u64,
    /// Parallel transmission channels in the shared spectrum.
    pub channels: u64,
    /// Channel fault model sampled into the trace pool.
    pub channel_model: GilbertElliott,
    /// Traces in the shared pool (cameras map onto these by seed).
    pub pool_traces: usize,
    /// Slots per pool trace.
    pub pool_slots: usize,
    /// Ingest tier sizing.
    pub ingest: IngestConfig,
    /// Transmission attempts per frame before a link drop.
    pub max_attempts: u32,
    /// EMA weight of the newest observed-goodput sample, in `(0, 1]`.
    pub ema_alpha: f64,
    /// Re-run the cut search every Nth resolved frame (1 = every frame).
    pub re_search_every: u64,
}

impl FleetConfig {
    /// A canonical configuration at `cameras` scale: microsecond ticks,
    /// 64 shared channels under a 5 %-loss congested channel model, a
    /// 64-trace × 4096-slot pool, a 4096-frame ingest tier batching 32
    /// frames with a 50 ms flush and 5 ms service time, 3 attempts per
    /// frame, EMA α = 0.5, re-search on every resolved frame, 10 s
    /// horizon. The α is deliberately aggressive: under heavy contention
    /// a camera may resolve only a handful of frames per horizon, and a
    /// sluggish estimate would never cross a cut-switching threshold.
    pub fn canonical(label: impl Into<String>, seed: u64, cameras: u64) -> Self {
        Self {
            label: label.into(),
            seed,
            cameras,
            horizon: Seconds::new(10.0),
            ticks_per_sec: 1_000_000,
            channels: 64,
            channel_model: GilbertElliott::congested(0.05),
            pool_traces: 64,
            pool_slots: 4096,
            ingest: IngestConfig {
                capacity: 4096,
                batch: 32,
                flush_ticks: 50_000,
                service_ticks: 5_000,
            },
            max_attempts: 3,
            ema_alpha: 0.5,
            re_search_every: 1,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, the horizon is not positive, or
    /// `ema_alpha` is outside `(0, 1]`.
    pub fn validate(&self) {
        assert!(self.cameras > 0, "fleet needs at least one camera");
        assert!(
            self.horizon.secs() > 0.0 && self.horizon.secs().is_finite(),
            "horizon must be positive and finite"
        );
        assert!(self.ticks_per_sec > 0, "tick resolution must be positive");
        assert!(self.channels > 0, "spectrum needs at least one channel");
        assert!(
            self.pool_traces > 0 && self.pool_slots > 0,
            "pool must be non-empty"
        );
        assert!(self.max_attempts > 0, "need at least one attempt per frame");
        assert!(
            self.ema_alpha > 0.0 && self.ema_alpha <= 1.0,
            "ema_alpha must be in (0, 1], got {}",
            self.ema_alpha
        );
        assert!(self.re_search_every > 0, "re_search_every must be positive");
        self.ingest.validate();
    }

    fn horizon_ticks(&self) -> u64 {
        secs_to_ticks(self.horizon.secs(), self.ticks_per_sec)
    }
}

/// Converts a duration to ticks, rounding up so no positive duration is
/// free.
fn secs_to_ticks(secs: f64, ticks_per_sec: u64) -> u64 {
    let ticks = (secs * ticks_per_sec as f64).ceil();
    if ticks <= 0.0 {
        0
    } else if ticks >= u64::MAX as f64 {
        u64::MAX
    } else {
        ticks as u64
    }
}

/// Floor for per-slot goodput so a throttled slot stretches, but never
/// stalls, a transmission.
const MIN_SLOT_GOODPUT: f64 = 1e-3;

/// Floor/ceiling for the observed-goodput estimate, matching the domain
/// of [`incam_core::link::Link::degraded`].
const OBSERVED_CLAMP: (f64, f64) = (1e-6, 1.0);

/// Per-cut tables precomputed from one [`CameraProfile`], so the event
/// loop does O(1) lookups instead of re-walking the pipeline.
#[derive(Debug)]
struct ProfileTables {
    profile: CameraProfile,
    capture_period: u64,
    /// Indexed by cut: in-camera latency, in ticks.
    compute_ticks: Vec<u64>,
    /// Indexed by cut: capture + in-camera block energy per frame.
    compute_energy: Vec<Joules>,
    /// Indexed by cut: bytes shipped over the uplink.
    payload: Vec<Bytes>,
    /// The committed held-cut frontier: per-camera online re-selection
    /// re-ranks this under each observed-goodput link instead of
    /// re-enumerating and re-evaluating every cut from scratch
    /// (byte-identical winners — the frontier is witness-filtered on
    /// link-independent objectives only).
    held: IncrementalSearch,
}

impl ProfileTables {
    fn build(profile: CameraProfile, ticks_per_sec: u64) -> Self {
        profile.validate();
        let held = IncrementalSearch::over_held_cuts(&profile.space, &profile.committed);
        let pipeline = profile.space.realize(&Configuration::new(
            profile.committed.clone(),
            profile.space.len(),
        ));
        let cuts = profile.space.len() + 1;
        let mut compute_ticks = Vec::with_capacity(cuts);
        let mut compute_energy = Vec::with_capacity(cuts);
        let mut payload = Vec::with_capacity(cuts);
        for cut in 0..cuts {
            let in_camera = &pipeline.stages()[..cut];
            let secs: f64 = in_camera.iter().map(|s| s.frame_time().secs()).sum();
            compute_ticks.push(secs_to_ticks(secs, ticks_per_sec));
            compute_energy.push(
                pipeline.source().capture_energy()
                    + in_camera
                        .iter()
                        .map(|s| s.energy_per_frame())
                        .sum::<Joules>(),
            );
            payload.push(pipeline.data_after(cut));
        }
        let capture_period = secs_to_ticks(1.0 / profile.capture.fps(), ticks_per_sec).max(1);
        Self {
            profile,
            capture_period,
            compute_ticks,
            compute_energy,
            payload,
            held,
        }
    }
}

/// One camera instance's live state — deliberately small, so 100k+
/// instances stay cache- and memory-friendly.
#[derive(Debug)]
struct Camera {
    /// Index into the profile table list.
    profile: u32,
    /// Current offload cut.
    cut: u32,
    /// EMA of observed goodput, initialized optimistic.
    ema: f64,
    /// A frame is unresolved (computing, on the air, or in ingest).
    busy: bool,
    /// The in-flight transmission attempt will be lost.
    lost: bool,
    /// Attempts used by the in-flight frame.
    attempts: u32,
    /// Tick the in-flight frame first requested the uplink.
    request_time: u64,
    /// Payload of the in-flight frame (cut may change before resolve).
    payload: Bytes,
    /// Cursor into this camera's channel-trace view.
    tx_cursor: u64,
    /// Frames resolved so far (drives the re-search cadence).
    resolved: u64,
    /// Tick of the next sensor fire not yet counted in the report.
    next_fire: u64,
    /// Per-actor event sequence counter.
    seq: u64,
}

/// Simulation events. `Capture`/`Admit`/`TxDone` are camera-actor
/// events; `Flush`/`Batch` belong to the ingest actor.
#[derive(Debug)]
enum Ev {
    Capture,
    Admit,
    TxDone,
    Flush { epoch: u64 },
    Batch { cameras: Vec<u64> },
}

/// The assembled simulator. Construct with [`FleetSim::new`], run with
/// [`FleetSim::run`].
#[derive(Debug)]
pub struct FleetSim {
    config: FleetConfig,
    tables: Vec<ProfileTables>,
    pool: TracePool,
}

impl FleetSim {
    /// Builds a simulator over `profiles`. Camera `i` uses profile
    /// `i % profiles.len()`, so a heterogeneous fleet interleaves
    /// classes evenly.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or any profile/config is invalid.
    pub fn new(config: FleetConfig, profiles: Vec<CameraProfile>) -> Self {
        config.validate();
        assert!(
            !profiles.is_empty(),
            "fleet needs at least one camera profile"
        );
        let pool = TracePool::sample(
            &config.channel_model,
            config.seed,
            config.pool_traces,
            config.pool_slots,
        );
        let tables = profiles
            .into_iter()
            .map(|p| ProfileTables::build(p, config.ticks_per_sec))
            .collect();
        Self {
            config,
            tables,
            pool,
        }
    }

    /// Runs the simulation to the horizon and returns the counters.
    ///
    /// Only an idle camera queues a `Capture`. A busy camera holds the
    /// tick of its next sensor fire, and the fires that find it busy are
    /// counted in bulk at the first of: its own next event, the ingest
    /// batch that resolves it, or the horizon. Every other event runs in
    /// [`FleetSim::run_reference`]'s order, so the two reports are equal.
    pub fn run(&self) -> FleetReport {
        let mut run = Run::boot(self);
        while let Some((key, ev)) = run.queue.pop() {
            let (id, now) = (key.actor, key.time);
            if now >= run.horizon {
                break;
            }
            match ev {
                Ev::Capture => {
                    run.fire(id, now);
                    run.start_frame(id, now);
                }
                Ev::Admit => {
                    run.skip_fires_before_own_event(id, now);
                    run.admit(id, now);
                }
                Ev::TxDone => {
                    run.skip_fires_before_own_event(id, now);
                    if run.tx_done(id, now) {
                        run.queue_next_fire(id);
                    }
                }
                Ev::Flush { epoch } => run.flush(epoch, now),
                Ev::Batch { cameras: batch } => {
                    run.complete(batch.len());
                    for id in batch {
                        // the ingest actor sorts after every camera, so a
                        // fire at this tick ran first and found the frame
                        // still in the batch
                        run.skip_fires(id, now + 1);
                        run.deliver(id, now);
                        run.queue_next_fire(id);
                    }
                }
            }
        }
        for id in 0..self.config.cameras {
            run.skip_fires(id, run.horizon);
        }
        run.finish()
    }

    /// The event-per-fire loop: every sensor fire is a `Capture` event,
    /// busy camera or not, so the queue holds every camera's next fire.
    /// The correctness oracle for [`FleetSim::run`], which it matches
    /// report for report, energy bits included.
    pub fn run_reference(&self) -> FleetReport {
        let mut run = Run::boot(self);
        while let Some((key, ev)) = run.queue.pop() {
            let (id, now) = (key.actor, key.time);
            if now >= run.horizon {
                break;
            }
            match ev {
                Ev::Capture => {
                    // next sensor fire, regardless of this frame's fate
                    run.fire(id, now);
                    run.queue_next_fire(id);
                    if run.cameras[id as usize].busy {
                        // previous frame unresolved: the in-flight cap
                        // that keeps the feedback loop causal
                        run.report.frames_skipped += 1;
                    } else {
                        run.start_frame(id, now);
                    }
                }
                Ev::Admit => run.admit(id, now),
                Ev::TxDone => {
                    run.tx_done(id, now);
                }
                Ev::Flush { epoch } => run.flush(epoch, now),
                Ev::Batch { cameras: batch } => {
                    run.complete(batch.len());
                    for id in batch {
                        run.deliver(id, now);
                    }
                }
            }
        }
        run.finish()
    }

    fn empty_report(&self, horizon: u64) -> FleetReport {
        let hist_len = self
            .tables
            .iter()
            .map(|t| t.profile.space.len() + 1)
            .max()
            .expect("at least one profile"); // incam-lint: allow(fallible-unwrap) — fleets are validated non-empty at construction
        FleetReport {
            label: self.config.label.clone(),
            cameras: self.config.cameras,
            horizon_ticks: horizon,
            ticks_per_sec: self.config.ticks_per_sec,
            cut_histogram: vec![0; hist_len],
            ..Default::default()
        }
    }
}

/// One run's mutable state: the cameras, the event queue and the shared
/// resources they contend for. Both event loops drive it through the
/// same methods, so they differ only in how sensor fires are scheduled.
struct Run<'s> {
    sim: &'s FleetSim,
    horizon: u64,
    cameras: Vec<Camera>,
    queue: EventQueue<Ev>,
    spectrum: Spectrum,
    ingest: Ingest,
    ingest_seq: u64,
    report: FleetReport,
}

impl<'s> Run<'s> {
    /// Every camera idle at its boot cut, with its first fire queued.
    /// First fires are staggered across one period so the fleet does
    /// not fire in lockstep at t = 0.
    fn boot(sim: &'s FleetSim) -> Self {
        let cfg = &sim.config;
        let horizon = cfg.horizon_ticks();
        let cameras: Vec<Camera> = (0..cfg.cameras)
            .map(|id| {
                let profile = (id % sim.tables.len() as u64) as u32;
                let tables = &sim.tables[profile as usize];
                Camera {
                    profile,
                    cut: tables.profile.initial_cut as u32,
                    ema: 1.0,
                    busy: false,
                    lost: false,
                    attempts: 0,
                    request_time: 0,
                    payload: Bytes::ZERO,
                    tx_cursor: 0,
                    resolved: 0,
                    next_fire: camera_seed(cfg.seed, id) % tables.capture_period,
                    seq: 0,
                }
            })
            .collect();
        let mut run = Self {
            sim,
            horizon,
            // `run` queues at most one event per camera besides the
            // ingest tier's
            queue: EventQueue::with_capacity(cameras.len()),
            cameras,
            spectrum: Spectrum::new(cfg.channels),
            ingest: Ingest::new(cfg.ingest),
            ingest_seq: 0,
            report: sim.empty_report(horizon),
        };
        for id in 0..cfg.cameras {
            run.queue_next_fire(id);
        }
        run
    }

    /// Queues camera `id`'s event under its next per-actor sequence
    /// number.
    fn push(&mut self, id: u64, time: u64, ev: Ev) {
        let cam = &mut self.cameras[id as usize];
        let seq = cam.seq;
        cam.seq += 1;
        self.queue.push(
            EventKey {
                time,
                actor: id,
                seq,
            },
            ev,
        );
    }

    /// Queues an ingest-tier event `delay` ticks after `now`.
    fn push_ingest(&mut self, now: u64, delay: u64, ev: Ev) {
        self.queue.push(
            EventKey {
                time: now.saturating_add(delay),
                actor: EventKey::INGEST_ACTOR,
                seq: self.ingest_seq,
            },
            ev,
        );
        self.ingest_seq += 1;
    }

    /// Queues camera `id`'s next sensor fire as a `Capture` event.
    fn queue_next_fire(&mut self, id: u64) {
        let time = self.cameras[id as usize].next_fire;
        self.push(id, time, Ev::Capture);
    }

    /// Camera `id`'s sensor fires at `now`: one more frame captured, and
    /// the next fire is one period on.
    fn fire(&mut self, id: u64, now: u64) {
        let cam = &mut self.cameras[id as usize];
        let period = self.sim.tables[cam.profile as usize].capture_period;
        cam.next_fire = now.saturating_add(period);
        self.report.frames_captured += 1;
    }

    /// Counts camera `id`'s sensor fires before tick `end` as captured
    /// and skipped — they found the camera busy — in one division.
    fn skip_fires(&mut self, id: u64, end: u64) {
        let cam = &mut self.cameras[id as usize];
        if cam.next_fire >= end {
            return;
        }
        let period = self.sim.tables[cam.profile as usize].capture_period;
        let fires = (end - 1 - cam.next_fire) / period + 1;
        cam.next_fire = cam.next_fire.saturating_add(fires.saturating_mul(period));
        self.report.frames_captured += fires;
        self.report.frames_skipped += fires;
    }

    /// Camera `id`'s in-flight `Admit` or `TxDone` runs at `now`: counts
    /// the fires that run before it at [`FleetSim::run_reference`], where
    /// same-tick events of one camera run in the order they were queued.
    /// `next_fire` does not move while the event is in flight, so it
    /// still holds the fire that was due when the event was queued. That
    /// fire's `Capture` was queued first, so if it falls at `now` it runs
    /// first; a later fire at `now` was queued after the event and runs
    /// after it.
    fn skip_fires_before_own_event(&mut self, id: u64, now: u64) {
        let due = self.cameras[id as usize].next_fire;
        self.skip_fires(id, if due == now { now + 1 } else { now });
    }

    /// A sensor fire at `now` finds camera `id` idle: starts a frame at
    /// the current cut and queues its `Admit` after the in-camera
    /// latency.
    fn start_frame(&mut self, id: u64, now: u64) {
        let cam = &mut self.cameras[id as usize];
        let tables = &self.sim.tables[cam.profile as usize];
        debug_assert!(!cam.busy, "a frame started on a busy camera");
        cam.busy = true;
        cam.attempts = 0;
        cam.payload = tables.payload[cam.cut as usize];
        self.report.energy_compute += tables.compute_energy[cam.cut as usize];
        let admit = now.saturating_add(tables.compute_ticks[cam.cut as usize]);
        self.push(id, admit, Ev::Admit);
    }

    /// In-camera compute is done: the frame requests the uplink.
    fn admit(&mut self, id: u64, now: u64) {
        self.report.frames_admitted += 1;
        self.cameras[id as usize].request_time = now;
        self.transmit(id, now);
    }

    /// Draws the next channel slot, reserves spectrum, and schedules the
    /// transmission's completion.
    fn transmit(&mut self, id: u64, now: u64) {
        let sim = self.sim;
        let cam = &mut self.cameras[id as usize];
        let tables = &sim.tables[cam.profile as usize];
        let slot = sim.pool.assign(sim.config.seed, id).slot(cam.tx_cursor);
        cam.tx_cursor += 1;
        cam.attempts += 1;
        cam.lost = slot.lost;
        let goodput = slot.goodput.max(MIN_SLOT_GOODPUT);
        let rate = tables.profile.uplink.effective_rate().per_sec() * goodput;
        let duration = secs_to_ticks(cam.payload.bytes() / rate, sim.config.ticks_per_sec);
        let grant = self.spectrum.reserve(now, duration);
        self.report.energy_radio += tables.profile.uplink.upload_energy(cam.payload);
        self.push(id, grant.finish, Ev::TxDone);
    }

    /// A transmission slot is over: retry, drop on the link, or offer
    /// the frame to ingest. Returns `true` when the frame resolved here
    /// and camera `id` is idle again.
    fn tx_done(&mut self, id: u64, now: u64) -> bool {
        let sim = self.sim;
        let cfg = &sim.config;
        if self.cameras[id as usize].lost {
            if self.cameras[id as usize].attempts < cfg.max_attempts {
                self.report.link_retries += 1;
                self.transmit(id, now);
                return false;
            }
            self.report.frames_dropped_link += 1;
            self.resolve(id, now);
            return true;
        }
        match self.ingest.offer(id) {
            Admission::Dropped => {
                self.report.frames_dropped_ingest += 1;
                self.resolve(id, now);
                return true;
            }
            Admission::Queued { start_flush } => {
                if let Some(epoch) = start_flush {
                    self.push_ingest(now, cfg.ingest.flush_ticks, Ev::Flush { epoch });
                }
            }
            Admission::BatchReady { cameras: batch } => {
                self.push_ingest(now, cfg.ingest.service_ticks, Ev::Batch { cameras: batch });
            }
        }
        false
    }

    /// A flush timer fires: a still-current partial batch goes to
    /// service.
    fn flush(&mut self, epoch: u64, now: u64) {
        if let Some(batch) = self.ingest.flush(epoch) {
            let service = self.sim.config.ingest.service_ticks;
            self.push_ingest(now, service, Ev::Batch { cameras: batch });
        }
    }

    /// A serviced batch of `frames` frames leaves the ingest tier.
    fn complete(&mut self, frames: usize) {
        self.ingest.complete(frames as u64);
        self.report.ingest_batches += 1;
    }

    /// Camera `id`'s frame is delivered by a completed batch.
    fn deliver(&mut self, id: u64, now: u64) {
        self.report.frames_delivered += 1;
        self.resolve(id, now);
    }

    /// Resolves camera `id`'s in-flight frame at `now`: frees the
    /// camera, folds the observed goodput into its EMA, and — on the
    /// re-search cadence — re-selects the offload cut through
    /// `core::explore`.
    fn resolve(&mut self, id: u64, now: u64) {
        let cfg = &self.sim.config;
        let cam = &mut self.cameras[id as usize];
        let tables = &self.sim.tables[cam.profile as usize];
        cam.busy = false;
        cam.resolved += 1;

        let elapsed_ticks = now.saturating_sub(cam.request_time).max(1);
        let elapsed = elapsed_ticks as f64 / cfg.ticks_per_sec as f64;
        let nominal = tables.profile.uplink.effective_rate().per_sec();
        let observed =
            ((cam.payload.bytes() / elapsed) / nominal).clamp(OBSERVED_CLAMP.0, OBSERVED_CLAMP.1);
        cam.ema = cfg.ema_alpha * observed + (1.0 - cfg.ema_alpha) * cam.ema;
        cam.ema = cam.ema.clamp(OBSERVED_CLAMP.0, OBSERVED_CLAMP.1);

        if cam.resolved.is_multiple_of(cfg.re_search_every) {
            self.report.re_searches += 1;
            let best = tables
                .held
                .best(&tables.profile.uplink.degraded(cam.ema))
                .expect("the held chain always contains cut 0"); // incam-lint: allow(fallible-unwrap) — over_held_cuts keeps at least the cut-0 point
            let new_cut = best.config.cut() as u32;
            if new_cut != cam.cut {
                self.report.cut_changes += 1;
                cam.cut = new_cut;
            }
        }
    }

    /// The horizon report: frames still in flight and the final cuts.
    fn finish(mut self) -> FleetReport {
        self.report.frames_in_flight = self.cameras.iter().filter(|c| c.busy).count() as u64;
        for cam in &self.cameras {
            self.report.cut_histogram[cam.cut as usize] += 1;
        }
        debug_assert!(self.report.conserves(), "frame conservation violated");
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_core::block::{Backend, BlockSpec, DataTransform};
    use incam_core::explore::{Binding, BlockSpace, PipelineSpace};
    use incam_core::link::Link;
    use incam_core::pipeline::Source;
    use incam_core::units::{BytesPerSec, Fps};

    /// A two-block toy camera: an identity filter and a 100:1 reducer,
    /// on a 10 kB/s uplink — raw offload is 1 s/frame, cut-2 offload
    /// 10 ms/frame.
    fn toy_profile() -> CameraProfile {
        let space = PipelineSpace::new(
            Source::new("s", Bytes::new(10_000.0), Fps::new(2.0))
                .with_capture_energy(Joules::from_micro(1.0)),
        )
        .with_block(BlockSpace::new(
            BlockSpec::optional("filter", DataTransform::Identity),
            vec![Binding::new(Backend::Asic, Fps::new(1000.0))
                .with_energy_per_frame(Joules::from_nano(10.0))],
        ))
        .with_block(BlockSpace::new(
            BlockSpec::core("reduce", DataTransform::Scale(0.01)),
            vec![Binding::new(Backend::Asic, Fps::new(500.0))
                .with_energy_per_frame(Joules::from_nano(50.0))],
        ));
        CameraProfile {
            name: "toy".to_string(),
            space,
            committed: vec![0, 0],
            initial_cut: 0,
            capture: Fps::new(2.0),
            uplink: Link::new("toy-uplink", BytesPerSec::new(10_000.0), 1.0),
        }
    }

    fn toy_config(cameras: u64) -> FleetConfig {
        let mut cfg = FleetConfig::canonical("toy", 2017, cameras);
        cfg.channels = 8;
        cfg.pool_traces = 8;
        cfg.pool_slots = 512;
        cfg.horizon = Seconds::new(5.0);
        cfg
    }

    #[test]
    fn report_conserves_frames() {
        let sim = FleetSim::new(toy_config(50), vec![toy_profile()]);
        let r = sim.run();
        assert!(r.conserves(), "{r:?}");
        assert!(r.frames_captured > 0);
        assert!(r.frames_delivered > 0);
    }

    #[test]
    fn same_seed_same_digest() {
        let a = FleetSim::new(toy_config(40), vec![toy_profile()]).run();
        let b = FleetSim::new(toy_config(40), vec![toy_profile()]).run();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let mut other = toy_config(40);
        other.seed = 4242;
        let c = FleetSim::new(other, vec![toy_profile()]).run();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn contention_moves_cuts_in_camera() {
        // 200 cameras × 1 s raw uploads contend hard even on 64
        // channels; every camera that resolves a frame re-searches and
        // must move to the reducing cut
        let mut cfg = toy_config(200);
        cfg.channels = 64;
        cfg.horizon = Seconds::new(10.0);
        let sim = FleetSim::new(cfg, vec![toy_profile()]);
        let r = sim.run();
        assert!(r.re_searches > 0);
        assert!(r.cut_changes > 0);
        let at_reduced: u64 = r.cut_histogram[2];
        assert!(
            at_reduced > r.cameras / 2,
            "only {at_reduced}/{} cameras adapted: {:?}",
            r.cameras,
            r.cut_histogram
        );
    }

    #[test]
    fn an_uncontended_fleet_stays_at_its_boot_cut() {
        // one camera, clean channel, fast uplink: raw offload of 10 kB
        // at 10 kB/s takes 1 s against a 0.5 s capture period — frames
        // resolve, but the observed goodput stays near nominal only at
        // the reduced cut; use a generous uplink instead so cut 0 is fine
        let mut profile = toy_profile();
        profile.uplink = Link::new("fat", BytesPerSec::new(1_000_000.0), 1.0);
        let mut cfg = toy_config(1);
        cfg.channel_model = GilbertElliott::uniform(1e-9);
        let r = FleetSim::new(cfg, vec![profile]).run();
        assert_eq!(r.frames_dropped_link, 0);
        assert_eq!(r.cut_changes, 0, "{r:?}");
        assert_eq!(r.cut_histogram[0], 1);
    }

    #[test]
    fn heterogeneous_fleets_interleave_profiles() {
        let mut slow = toy_profile();
        slow.name = "slow".to_string();
        slow.capture = Fps::new(1.0);
        let r = FleetSim::new(toy_config(10), vec![toy_profile(), slow]).run();
        assert!(r.conserves());
        // 5 cameras at 2 FPS + 5 at 1 FPS over 5 s ≈ 50 + 25 sensor fires
        assert!(r.frames_captured > 50, "{}", r.frames_captured);
    }

    #[test]
    fn retries_and_link_drops_happen_under_loss() {
        // boot at the reduced cut so transmissions are short and many
        // frames exhaust their attempts within the horizon
        let mut profile = toy_profile();
        profile.initial_cut = 2;
        let mut cfg = toy_config(50);
        cfg.channel_model = GilbertElliott::congested(0.4);
        let r = FleetSim::new(cfg, vec![profile]).run();
        assert!(r.link_retries > 0);
        assert!(r.frames_dropped_link > 0);
        assert!(r.conserves());
    }

    #[test]
    fn horizon_is_respected() {
        let r = FleetSim::new(toy_config(10), vec![toy_profile()]).run();
        assert_eq!(r.horizon_ticks, 5_000_000);
        // 10 cameras × 2 FPS × 5 s = 100 sensor fires, ±1 per camera of
        // stagger
        assert!(r.frames_captured >= 90 && r.frames_captured <= 110);
    }

    /// A one-block camera that fires once a second and sends its
    /// 1000-byte frames over a `uplink` B/s link; its block runs at
    /// `block_fps`.
    fn tie_profile(block_fps: f64, uplink: f64, initial_cut: usize) -> CameraProfile {
        let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(1.0)))
            .with_block(BlockSpace::new(
                BlockSpec::core("pass", DataTransform::Identity),
                vec![Binding::new(Backend::Asic, Fps::new(block_fps))],
            ));
        CameraProfile {
            name: "tie".to_string(),
            space,
            committed: vec![0],
            initial_cut,
            capture: Fps::new(1.0),
            uplink: Link::new("tie-uplink", BytesPerSec::new(uplink), 1.0),
        }
    }

    /// One camera at 10 ticks per second, so its sensor fires one period
    /// of 10 ticks apart, over a 30-period horizon: every transmission
    /// is lost when `lossy`, frames get one attempt and batches of one,
    /// and the cut never moves from where it booted.
    fn tie_config(lossy: bool) -> FleetConfig {
        let mut cfg = FleetConfig::canonical("tie", 2017, 1);
        cfg.ticks_per_sec = 10;
        cfg.horizon = Seconds::new(30.0);
        cfg.channel_model = GilbertElliott::uniform(if lossy { 1.0 } else { 0.0 });
        cfg.pool_traces = 1;
        cfg.pool_slots = 64;
        cfg.max_attempts = 1;
        cfg.ingest.batch = 1;
        cfg.ingest.service_ticks = 5;
        cfg.re_search_every = u64::MAX;
        cfg
    }

    /// Runs both event loops, checks they agree, and returns the report.
    fn run_both(cfg: FleetConfig, profile: CameraProfile) -> FleetReport {
        let sim = FleetSim::new(cfg, vec![profile]);
        let report = sim.run();
        assert_eq!(report, sim.run_reference());
        assert!(report.conserves(), "{report:?}");
        report
    }

    #[test]
    fn a_fire_due_when_the_event_was_queued_runs_first() {
        // compute and air time are one period each: the Admit lands on
        // the fire queued before it, and the TxDone, queued after that
        // fire ran, on the next one. Both fires run first and are
        // skipped, so the lost frame frees the camera one fire too late
        // to start another: one frame per three periods.
        let r = run_both(tie_config(true), tie_profile(1.0, 1000.0, 1));
        assert_eq!(r.frames_captured, 30);
        assert_eq!(r.frames_admitted, 10, "{r:?}");
        assert_eq!(r.frames_skipped, 20);
        assert_eq!(r.frames_dropped_link, 10);
    }

    #[test]
    fn a_fire_queued_after_the_event_runs_after_it() {
        // compute takes two periods: the Admit was queued before the fire
        // at its tick and runs first. The TxDone lands one period later,
        // again ahead of that tick's fire, so the camera is free when the
        // fire runs: one frame per three periods, the last in flight.
        let r = run_both(tie_config(true), tie_profile(0.5, 1000.0, 1));
        assert_eq!(r.frames_captured, 30);
        assert_eq!(r.frames_admitted, 10, "{r:?}");
        assert_eq!(r.frames_skipped, 20);
        assert_eq!(r.frames_dropped_link, 9);
        assert_eq!(r.frames_in_flight, 1);
    }

    #[test]
    fn an_ingest_batch_resolves_after_the_fire_at_its_tick() {
        // raw offload: half a period on the air and half in ingest
        // service, so the batch lands on the next fire. The ingest actor
        // sorts after every camera, so that fire finds the frame still in
        // the batch: one delivered frame per two periods.
        let r = run_both(tie_config(false), tie_profile(1.0, 2000.0, 0));
        assert_eq!(r.frames_captured, 30);
        assert_eq!(r.frames_delivered, 15, "{r:?}");
        assert_eq!(r.frames_skipped, 15);
        assert_eq!(r.ingest_batches, 15);
    }

    #[test]
    fn event_times_saturate_instead_of_wrapping() {
        // a block at 1e-14 FPS needs more than u64::MAX microsecond
        // ticks: its Admit saturates past every horizon, so no frame of
        // the 4 cameras booted behind it is ever admitted
        let mut cfg = toy_config(4);
        cfg.horizon = Seconds::new(3.0);
        let r = run_both(cfg, tie_profile(1e-14, 1000.0, 1));
        assert_eq!(r.frames_captured, 12);
        assert_eq!(r.frames_admitted, 0, "{r:?}");
        assert_eq!(r.frames_in_flight, 4);

        // a capture period past u64::MAX ticks: the next fire saturates
        // at the horizon, so the run returns after one fire per camera
        let mut slow = toy_profile();
        slow.capture = Fps::new(1e-14);
        let mut cfg = toy_config(4);
        cfg.horizon = Seconds::new(1e15);
        let r = run_both(cfg, slow);
        assert_eq!(r.horizon_ticks, u64::MAX);
        assert_eq!(r.frames_captured, 4, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "at least one camera profile")]
    fn empty_profiles_rejected() {
        FleetSim::new(toy_config(1), Vec::new());
    }
}
