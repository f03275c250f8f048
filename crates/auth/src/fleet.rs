//! Fleet adapter: the verify camera as a [`CameraProfile`] plus a
//! deterministic verify-load driver — thousands of cameras issuing
//! requests into one shared service, with a [`ServiceReport`] per camera.
//!
//! The driver interleaves cameras round-robin onto the service's
//! arrival ticks, keys each camera's link faults to its own
//! Gilbert–Elliott trace (via [`incam_faults::fleet::TracePool`] and
//! [`incam_faults::fleet::camera_seed`]) and shares one compute-fault model and brownout
//! trace across the fleet (a camera's power is its own, but the
//! experiment keys faults by globally unique frame ids, so per-frame
//! independence is preserved). Every counter is exact and the digest
//! pins the whole run.

use crate::align::{align_face, EyeLandmarks};
use crate::embed::EmbeddingHead;
use crate::gallery::Gallery;
use crate::service::{
    Probe, ServiceConfig, ServiceReport, VerifyPlan, VerifyRequest, VerifyService, NUM_STAGES,
};
use crate::space::{verify_binding_space, verify_uplink, AuthBlockCosts, BIND_ASIC, WINDOW_SIDE};
use incam_core::fleet::CameraProfile;
use incam_core::report::{sig3, Table};
use incam_core::runtime::{ComputeCondition, FaultOracle, LinkCondition};
use incam_core::units::{Fps, Seconds};
use incam_faults::brownout::BrownoutTrace;
use incam_faults::compute::ComputeFaultModel;
use incam_faults::fleet::TracePool;
use incam_faults::gilbert::GilbertElliott;
use incam_imaging::faces::{render_face, Identity, Nuisance};
use incam_rng::rngs::StdRng;
use incam_rng::{Digest, SeedableRng};

/// Seed deriving the fleet's shared embedding head, so every camera and
/// the cloud tier agree on the feature space.
pub const FLEET_HEAD_SEED: u64 = 2017;

/// Retry attempts a frame's fault-trace slots must cover.
const ATTEMPT_STRIDE: u64 = 4;

/// Brownout periods advanced per frame; with the attempt stride of 4
/// this keeps power epochs coarser than retry slots, as on the real
/// harvester.
const PERIODS_PER_FRAME: u64 = 1;

/// The verify camera as a fleet profile: all-ASIC committed bindings,
/// booting fully local (verdict upload — the energy-optimal cut on the
/// backscatter uplink), 1 FPS capture.
pub fn fleet_profile() -> CameraProfile {
    let head = EmbeddingHead::new(WINDOW_SIDE, FLEET_HEAD_SEED);
    let costs = AuthBlockCosts::design_point(&head);
    CameraProfile {
        name: "auth-verify".into(),
        space: verify_binding_space(&costs, Fps::new(1.0)),
        committed: vec![BIND_ASIC; NUM_STAGES],
        initial_cut: NUM_STAGES,
        capture: Fps::new(1.0),
        uplink: verify_uplink(),
    }
}

/// Fault injection knobs for a fleet verify run.
#[derive(Debug, Clone)]
pub struct FleetFaults {
    /// Target loss of each camera's Gilbert–Elliott uplink trace.
    pub link_loss: f64,
    /// Per-attempt transient compute-fault probability.
    pub compute_fail: f64,
    /// Per-attempt slowdown probability.
    pub compute_slow: f64,
    /// Brownout outage start probability per period (0 disables).
    pub brownout_start: f64,
}

impl FleetFaults {
    /// No injected faults.
    pub fn ideal() -> Self {
        Self {
            link_loss: 0.0,
            compute_fail: 0.0,
            compute_slow: 0.0,
            brownout_start: 0.0,
        }
    }

    /// The canonical chaos mix: bursty 20 % loss, 3 % transient
    /// compute faults, 5 % slowdowns, occasional brownouts.
    pub fn chaos() -> Self {
        Self {
            link_loss: 0.2,
            compute_fail: 0.03,
            compute_slow: 0.05,
            brownout_start: 0.02,
        }
    }
}

/// Sizing of a fleet verify run.
#[derive(Debug, Clone)]
pub struct FleetLoad {
    /// Camera instances issuing requests (round-robin).
    pub cameras: u64,
    /// Requests each camera issues.
    pub requests_per_camera: u64,
    /// Enrolled users; camera `c` claims user `c % users`.
    pub users: u32,
    /// Every `impostor_every`-th request presents a stranger's face
    /// (0 disables impostors).
    pub impostor_every: u64,
    /// Per-request deadline.
    pub deadline: Seconds,
    /// Distinct pre-rendered probe variants per user.
    pub probe_variants: usize,
    /// Nuisance severity of probe captures (enrollment is clean).
    pub nuisance: f32,
}

impl FleetLoad {
    /// Checks sizing invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero cameras, users, requests, or probe variants.
    pub fn validate(&self) {
        assert!(self.cameras > 0, "need at least one camera");
        assert!(self.requests_per_camera > 0, "need at least one request");
        assert!(self.users > 0, "need at least one user");
        assert!(self.probe_variants > 0, "need at least one probe variant");
        assert!(
            (0.0..=1.0).contains(&self.nuisance),
            "nuisance severity must be in [0, 1]"
        );
    }

    /// Total requests in the run.
    pub fn total_requests(&self) -> u64 {
        self.cameras * self.requests_per_camera
    }
}

/// Outcome of one fleet verify run.
#[derive(Debug, Clone)]
pub struct FleetVerifyReport {
    /// Scenario label.
    pub label: String,
    /// Aggregate service counters.
    pub service: ServiceReport,
    /// Per-camera counters, indexed by camera id. Retries and breaker
    /// trips are service-wide, so they stay zero here.
    pub slos: Vec<ServiceReport>,
    /// Genuine requests accepted / issued (recall numerator/denominator).
    pub genuine: (u64, u64),
    /// Impostor requests accepted / issued (false-accept counters).
    pub impostor: (u64, u64),
}

impl FleetVerifyReport {
    /// FNV-1a digest over the service digest and every per-camera
    /// exact counter.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        h.write_u64(self.service.digest());
        h.write_u64(self.genuine.0);
        h.write_u64(self.genuine.1);
        h.write_u64(self.impostor.0);
        h.write_u64(self.impostor.1);
        for (camera, slo) in self.slos.iter().enumerate() {
            h.write_u64(camera as u64);
            h.write_u64(slo.requests);
            h.write_u64(slo.accepts);
            h.write_u64(slo.total_fallbacks());
            h.write_u64(slo.deadline_hits);
        }
        h.finish()
    }

    /// Renders the fleet summary: aggregate counters, SLO distribution,
    /// and the first few cameras' rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario: {}\n", self.label));
        out.push_str(&self.service.render());
        out.push('\n');
        let rate = |hit: u64, total: u64| -> String {
            if total == 0 {
                "n/a".into()
            } else {
                sig3(hit as f64 / total as f64)
            }
        };
        out.push_str(&format!(
            "genuine accept rate: {} ({}/{})\n",
            rate(self.genuine.0, self.genuine.1),
            self.genuine.0,
            self.genuine.1
        ));
        out.push_str(&format!(
            "impostor accept rate: {} ({}/{})\n",
            rate(self.impostor.0, self.impostor.1),
            self.impostor.0,
            self.impostor.1
        ));
        let mut hit_rates: Vec<f64> = self.slos.iter().map(deadline_hit_rate).collect();
        hit_rates.sort_by(|a, b| a.total_cmp(b));
        if let (Some(min), Some(max)) = (hit_rates.first(), hit_rates.last()) {
            let mean = hit_rates.iter().sum::<f64>() / hit_rates.len() as f64;
            out.push_str(&format!(
                "deadline-hit rate across {} cameras: min {} mean {} max {}\n",
                self.slos.len(),
                sig3(*min),
                sig3(mean),
                sig3(*max)
            ));
        }
        let mut table = Table::new(&[
            "camera",
            "requests",
            "accepts",
            "fallbacks",
            "hit-rate",
            "energy/accept",
        ]);
        for (camera, slo) in self.slos.iter().enumerate().take(8) {
            table.row_owned(vec![
                camera.to_string(),
                slo.requests.to_string(),
                slo.accepts.to_string(),
                slo.total_fallbacks().to_string(),
                sig3(deadline_hit_rate(slo)),
                slo.energy_per_accept().human(),
            ]);
        }
        out.push_str(&table.render());
        out.push_str(&format!("fleet digest: {:016x}\n", self.digest()));
        out
    }
}

/// Deadline-hit rate over issued requests.
fn deadline_hit_rate(report: &ServiceReport) -> f64 {
    report.deadline_hits as f64 / report.requests.max(1) as f64
}

/// Per-camera link traces + shared compute/brownout faults behind one
/// [`FaultOracle`]. Frames are issued round-robin, so
/// `camera = frame % cameras` and a camera's `k`-th request reads slot
/// `k × stride + attempt` of its own trace.
pub struct FleetVerifyOracle {
    pool: TracePool,
    fleet_seed: u64,
    cameras: u64,
    compute: ComputeFaultModel,
    brownout: BrownoutTrace,
}

impl FleetVerifyOracle {
    /// Samples traces for `cameras` cameras under the given fault mix.
    pub fn new(faults: &FleetFaults, cameras: u64, requests_per_camera: u64, seed: u64) -> Self {
        let slots = (requests_per_camera * ATTEMPT_STRIDE).max(64) as usize;
        let model = if faults.link_loss > 0.0 {
            GilbertElliott::congested(faults.link_loss)
        } else {
            GilbertElliott::uniform(0.0)
        };
        // a modest trace pool is shared across the fleet, phase-shifted
        // per camera by the pool itself
        let traces = (cameras as usize).clamp(1, 64);
        let pool = TracePool::sample(&model, seed, traces, slots);
        let compute = ComputeFaultModel::new(
            seed ^ 0xC0FF_EE00,
            faults.compute_fail,
            faults.compute_slow,
            2.0,
        );
        let periods = ((cameras * requests_per_camera * PERIODS_PER_FRAME).max(64)) as usize;
        let brownout = if faults.brownout_start > 0.0 {
            incam_faults::brownout::BrownoutModel::new(faults.brownout_start, 2.0)
                .trace(seed ^ 0xB0B0, periods)
        } else {
            BrownoutTrace::steady(1)
        };
        Self {
            pool,
            fleet_seed: seed,
            cameras,
            compute,
            brownout,
        }
    }
}

impl FaultOracle for FleetVerifyOracle {
    fn link(&self, frame: u64, attempt: u32) -> LinkCondition {
        if !self
            .brownout
            .available(frame.wrapping_mul(PERIODS_PER_FRAME))
        {
            return LinkCondition {
                delivered: false,
                goodput: 0.0,
            };
        }
        let camera = frame % self.cameras;
        let round = frame / self.cameras;
        let view = self.pool.assign(self.fleet_seed, camera);
        let slot = view.slot(
            round
                .wrapping_mul(ATTEMPT_STRIDE)
                .wrapping_add(u64::from(attempt)),
        );
        LinkCondition {
            delivered: !slot.lost,
            goodput: slot.goodput,
        }
    }

    fn compute(&self, frame: u64, stage: usize, attempt: u32) -> ComputeCondition {
        if !self
            .brownout
            .available(frame.wrapping_mul(PERIODS_PER_FRAME))
        {
            return ComputeCondition::Failed;
        }
        self.compute.condition(frame, stage, attempt)
    }
}

/// Pre-rendered probe pool: per-user genuine variants plus stranger
/// probes, all generated from one seed.
pub struct ProbePool {
    genuine: Vec<Vec<Probe>>,
    strangers: Vec<Probe>,
}

impl ProbePool {
    /// Renders `variants` probes per user (nuisance-jittered) and as
    /// many stranger probes, deterministically from `seed`.
    pub fn render(identities: &[Identity], variants: usize, nuisance: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
        let probe_side = 48;
        let probe = |id: &Identity, rng: &mut StdRng| -> Probe {
            let n = Nuisance::sample(rng, nuisance);
            let image = render_face(id, &n, probe_side, rng);
            let landmarks = EyeLandmarks::from_render_geometry(id, &n, probe_side);
            Probe { image, landmarks }
        };
        let genuine = identities
            .iter()
            .map(|id| (0..variants).map(|_| probe(id, &mut rng)).collect())
            .collect();
        let strangers = (0..variants.max(identities.len()))
            .map(|_| {
                let stranger = Identity::sample(&mut rng);
                probe(&stranger, &mut rng)
            })
            .collect();
        Self { genuine, strangers }
    }

    /// A genuine probe variant for `user`.
    pub fn genuine(&self, user: u32, variant: u64) -> &Probe {
        let pool = &self.genuine[user as usize];
        &pool[(variant % pool.len() as u64) as usize]
    }

    /// A stranger probe.
    pub fn stranger(&self, variant: u64) -> &Probe {
        &self.strangers[(variant % self.strangers.len() as u64) as usize]
    }
}

/// Builds a service for `users` enrolled identities (clean enrollment
/// capture plus one jittered update template each) over `plan`.
pub fn build_service(
    users: u32,
    plan: VerifyPlan,
    config: ServiceConfig,
    seed: u64,
) -> (VerifyService, Vec<Identity>) {
    let head = EmbeddingHead::new(WINDOW_SIDE, FLEET_HEAD_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gallery = Gallery::new();
    let mut identities = Vec::with_capacity(users as usize);
    for user in 0..users {
        let id = Identity::sample(&mut rng);
        let jitter = Nuisance::sample(&mut rng, 0.25);
        for (i, nuisance) in [Nuisance::none(), jitter].iter().enumerate() {
            let image = render_face(&id, nuisance, 48, &mut rng);
            let landmarks = EyeLandmarks::from_render_geometry(&id, nuisance, 48);
            let template = align_face(&image, &landmarks, WINDOW_SIDE)
                .ok()
                .and_then(|w| head.embed(&w).ok());
            if let Some(template) = template {
                let result = if i == 0 {
                    gallery.enroll(user, template)
                } else {
                    gallery.update(user, template)
                };
                debug_assert!(result.is_ok(), "enrollment failed for user {user}");
            }
        }
        identities.push(id);
    }
    (VerifyService::new(head, gallery, plan, config), identities)
}

/// Generates the round-robin request trace for a load. Each element
/// carries its ground truth: `true` for a genuine probe.
pub fn request_trace(load: &FleetLoad, pool: &ProbePool) -> Vec<(VerifyRequest, bool)> {
    load.validate();
    let total = load.total_requests();
    let mut requests = Vec::with_capacity(total as usize);
    for frame in 0..total {
        let camera = frame % load.cameras;
        let round = frame / load.cameras;
        let user = (camera % u64::from(load.users)) as u32;
        let genuine = load.impostor_every == 0 || frame % load.impostor_every != 0;
        let probe = if genuine {
            pool.genuine(user, camera.wrapping_add(round))
        } else {
            pool.stranger(camera.wrapping_add(round))
        };
        requests.push((
            VerifyRequest {
                user,
                camera,
                frame,
                deadline: load.deadline,
                probe: probe.clone(),
            },
            genuine,
        ));
    }
    requests
}

/// Drives a full fleet verify run: builds the service, renders the
/// probe pool, serves the trace against the fleet oracle, and
/// aggregates a report per camera.
pub fn drive_fleet(
    label: &str,
    load: &FleetLoad,
    faults: &FleetFaults,
    plan: VerifyPlan,
    config: ServiceConfig,
    seed: u64,
) -> FleetVerifyReport {
    load.validate();
    let (mut service, identities) = build_service(load.users, plan, config, seed);
    let pool = ProbePool::render(&identities, load.probe_variants, load.nuisance, seed);
    let trace = request_trace(load, &pool);
    let oracle = FleetVerifyOracle::new(faults, load.cameras, load.requests_per_camera, seed);
    let requests: Vec<VerifyRequest> = trace.iter().map(|(r, _)| r.clone()).collect();
    let run = service.serve(&requests, &oracle);

    let mut slos = vec![ServiceReport::default(); load.cameras as usize];
    let mut genuine = (0u64, 0u64);
    let mut impostor = (0u64, 0u64);
    for ((request, is_genuine), served) in trace.iter().zip(&run.served) {
        let slo = &mut slos[request.camera as usize];
        slo.requests += 1;
        slo.record(served);
        let bucket = if *is_genuine {
            &mut genuine
        } else {
            &mut impostor
        };
        bucket.1 += 1;
        if served.verdict.is_accept() {
            bucket.0 += 1;
        }
    }

    FleetVerifyReport {
        label: label.into(),
        service: run.report,
        slos,
        genuine,
        impostor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{plan_for, verify_uplink, AuthBlockCosts, BIND_ASIC};

    fn small_load() -> FleetLoad {
        FleetLoad {
            cameras: 8,
            requests_per_camera: 6,
            users: 4,
            impostor_every: 5,
            deadline: Seconds::from_millis(400.0),
            probe_variants: 4,
            nuisance: 0.3,
        }
    }

    fn local_plan() -> VerifyPlan {
        let head = EmbeddingHead::new(WINDOW_SIDE, FLEET_HEAD_SEED);
        let costs = AuthBlockCosts::design_point(&head);
        plan_for(&costs, &[BIND_ASIC; 3], 3, verify_uplink())
    }

    #[test]
    fn profile_is_valid_and_all_asic() {
        let profile = fleet_profile();
        profile.validate();
        assert_eq!(profile.committed, vec![BIND_ASIC; 3]);
        assert_eq!(profile.initial_cut, 3);
    }

    #[test]
    fn ideal_fleet_run_conserves_and_accepts() {
        let report = drive_fleet(
            "ideal",
            &small_load(),
            &FleetFaults::ideal(),
            local_plan(),
            ServiceConfig::experiment_default(),
            2017,
        );
        assert!(report.service.conserves());
        assert_eq!(
            report.genuine.1 + report.impostor.1,
            small_load().total_requests()
        );
        assert!(
            report.genuine.0 > 0,
            "no genuine accepts:\n{}",
            report.render()
        );
        assert_eq!(
            report.impostor.0,
            0,
            "impostors accepted:\n{}",
            report.render()
        );
    }

    #[test]
    fn chaos_reduces_throughput_but_stays_closed() {
        // long enough that retry exhaustion and brownouts are certain —
        // at 48 frames the retry budget absorbs the whole chaos mix
        let load = FleetLoad {
            requests_per_camera: 40,
            ..small_load()
        };
        let ideal = drive_fleet(
            "ideal",
            &load,
            &FleetFaults::ideal(),
            local_plan(),
            ServiceConfig::experiment_default(),
            2017,
        );
        let chaos = drive_fleet(
            "chaos",
            &load,
            &FleetFaults::chaos(),
            local_plan(),
            ServiceConfig::experiment_default(),
            2017,
        );
        assert!(chaos.service.conserves());
        assert!(chaos.service.total_fallbacks() > ideal.service.total_fallbacks());
        assert_eq!(chaos.impostor.0, 0, "chaos must not open the door");
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let run = || {
            drive_fleet(
                "det",
                &small_load(),
                &FleetFaults::chaos(),
                local_plan(),
                ServiceConfig::experiment_default(),
                7,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.service, b.service);
    }

    #[test]
    fn slo_counters_partition_requests() {
        // long enough for chaos to force fallbacks (see above)
        let load = FleetLoad {
            requests_per_camera: 40,
            ..small_load()
        };
        for seed in [11, 2017] {
            let report = drive_fleet(
                "slo",
                &load,
                &FleetFaults::chaos(),
                local_plan(),
                ServiceConfig::experiment_default(),
                seed,
            );
            let mut sum = ServiceReport::default();
            for slo in &report.slos {
                assert_eq!(slo.requests, load.requests_per_camera);
                assert!(slo.conserves());
                assert_eq!(
                    (slo.breaker_trips, slo.compute_retries, slo.link_retries),
                    (0, 0, 0),
                    "retries and trips are service-wide"
                );
                sum.requests += slo.requests;
                sum.accepts += slo.accepts;
                sum.rejects += slo.rejects;
                for (total, f) in sum.fallbacks.iter_mut().zip(slo.fallbacks) {
                    *total += f;
                }
                sum.deadline_hits += slo.deadline_hits;
                sum.energy += slo.energy;
            }
            let service = &report.service;
            assert_eq!(sum.requests, service.requests, "seed {seed}");
            assert_eq!(sum.accepts, service.accepts, "seed {seed}");
            assert_eq!(sum.rejects, service.rejects, "seed {seed}");
            assert_eq!(sum.fallbacks, service.fallbacks, "seed {seed}");
            assert_eq!(sum.deadline_hits, service.deadline_hits, "seed {seed}");
            assert!(
                service.total_fallbacks() > 0,
                "seed {seed}: chaos never bit"
            );
            // the service sums energy in finish order, the cameras in
            // trace order
            let (a, b) = (sum.energy.joules(), service.energy.joules());
            assert!((a - b).abs() <= 1e-12 * b.abs(), "seed {seed}: {a} vs {b}");
        }
    }
}
