//! `verify_chaos`: the fail-closed verify service serving the canonical
//! 16-camera × 40-request trace under the canonical chaos mix, with the
//! all-local plan.
//!
//! The fault traces are the canonical ones of seed 2017; the benchmark
//! seed picks the enrolled users and the probes. Faults decide which
//! requests reach the functional stages, so fixing them keeps the work
//! per unit the same across seeds. At seed 2017 this is the golden-pinned
//! run.

use crate::harness::{LayerPoint, Tally, Timings, Unit};
use crate::report::Metric;
use incam_auth::align::align_face;
use incam_auth::embed::{Embedding, EmbeddingHead};
use incam_auth::fleet::{build_service, request_trace, FleetFaults, FleetVerifyOracle, ProbePool};
use incam_auth::gallery::Gallery;
use incam_auth::service::{
    FallbackReason, ServiceConfig, ServiceReport, Verdict, VerifyPlan, VerifyRequest,
    VerifyService, NUM_STAGES, STAGE_NAMES,
};
use incam_auth::space::{AuthBlockCosts, ASIC_STREAM_FPS};
use incam_bench::experiments::verify::{canonical_load, canonical_plan};
use incam_core::runtime::{ComputeCondition, FaultOracle, LinkCondition};
use incam_core::units::Seconds;
use incam_imaging::image::GrayImage;
use std::cell::Cell;

/// Seed of the canonical fault traces, and the golden seed.
const CHAOS_SEED: u64 = 2017;

/// The golden run's pinned counters: requests, accepts, rejects, and
/// impostor accepts.
const GOLDEN: [u64; 4] = [640, 385, 208, 0];

/// The enrolled service state, the request trace and its fault oracle.
pub struct Verify {
    seed: u64,
    head: EmbeddingHead,
    gallery: Gallery,
    plan: VerifyPlan,
    config: ServiceConfig,
    requests: Vec<VerifyRequest>,
    genuine: Vec<bool>,
    oracle: FleetVerifyOracle,
    /// Each request's fault-free match score (`None` when it cannot be
    /// aligned, embedded or matched), filled by the reference pass.
    clean: Vec<Option<f32>>,
    reference: Option<ServiceReport>,
    oracle_calls: u64,
}

impl Verify {
    /// Enrolls the users and renders the probe pool as `drive_fleet`
    /// does at `seed`, and samples the canonical fault traces.
    pub fn setup(seed: u64) -> Self {
        let load = canonical_load(false);
        let config = ServiceConfig::experiment_default();
        let plan = canonical_plan();
        let (mut service, identities) =
            build_service(load.users, plan.clone(), config.clone(), seed);
        let pool = ProbePool::render(&identities, load.probe_variants, load.nuisance, seed);
        let (requests, genuine): (Vec<VerifyRequest>, Vec<bool>) =
            request_trace(&load, &pool).into_iter().unzip();
        Self {
            seed,
            head: service.head().clone(),
            gallery: service.gallery_mut().clone(),
            plan,
            config,
            requests,
            genuine,
            oracle: FleetVerifyOracle::new(
                &FleetFaults::chaos(),
                load.cameras,
                load.requests_per_camera,
                CHAOS_SEED,
            ),
            clean: Vec::new(),
            reference: None,
            oracle_calls: 0,
        }
    }

    /// The fault-free match score of one request.
    fn clean_score(&self, request: &VerifyRequest) -> Option<f32> {
        let probe = &request.probe;
        let window = align_face(&probe.image, &probe.landmarks, self.head.side()).ok()?;
        let embedding = self.head.embed(&window).ok()?;
        self.gallery.match_score(request.user, &embedding).ok()
    }

    /// Serves the trace on a fresh service (so breaker state never
    /// carries over) and checks it: verdicts conserve requests, and every
    /// accept carries its request's fault-free score at or above the
    /// threshold — faults never manufacture an accept. Returns the
    /// report and the number of impostors accepted.
    fn serve(&self, oracle: &impl FaultOracle, tally: &Tally) -> (ServiceReport, u64) {
        let mut service = VerifyService::new(
            self.head.clone(),
            self.gallery.clone(),
            self.plan.clone(),
            self.config.clone(),
        );
        let run = service.serve(&self.requests, oracle);
        let mut fail_closed = true;
        let mut impostor_accepts = 0;
        for ((served, clean), genuine) in run.served.iter().zip(&self.clean).zip(&self.genuine) {
            if let Verdict::Accept { score } = served.verdict {
                fail_closed &= *clean == Some(score) && score >= self.config.threshold;
                impostor_accepts += u64::from(!genuine);
            }
        }
        tally.check(run.report.conserves(), "verify verdicts conserve requests");
        tally.check(
            fail_closed,
            "verify accepts only what the fault-free service accepts",
        );
        (run.report, impostor_accepts)
    }
}

/// A fault oracle that counts the calls it forwards.
struct Counted<'a> {
    inner: &'a FleetVerifyOracle,
    calls: Cell<u64>,
}

impl FaultOracle for Counted<'_> {
    fn link(&self, frame: u64, attempt: u32) -> LinkCondition {
        self.calls.set(self.calls.get() + 1);
        self.inner.link(frame, attempt)
    }

    fn compute(&self, frame: u64, stage: usize, attempt: u32) -> ComputeCondition {
        self.calls.set(self.calls.get() + 1);
        self.inner.compute(frame, stage, attempt)
    }
}

impl Unit for Verify {
    fn items(&self) -> f64 {
        self.requests.len() as f64
    }

    fn run(&mut self, tally: &Tally) {
        if let Some(reference) = &self.reference {
            let (report, _) = self.serve(&self.oracle, tally);
            tally.check(&report == reference, "verify report matches the reference");
            return;
        }
        self.clean = self.requests.iter().map(|r| self.clean_score(r)).collect();
        let counted = Counted {
            inner: &self.oracle,
            calls: Cell::new(0),
        };
        let (report, impostor_accepts) = self.serve(&counted, tally);
        if self.seed == CHAOS_SEED {
            tally.check(
                [
                    report.requests,
                    report.accepts,
                    report.rejects,
                    impostor_accepts,
                ] == GOLDEN,
                "verify_chaos at seed 2017 reproduces the golden counters",
            );
        }
        self.oracle_calls = counted.calls.get();
        self.reference = Some(report);
    }
}

/// Per-layer inputs: aligned windows, their embeddings, and oracle keys.
pub struct Prep {
    windows: Vec<GrayImage>,
    embeddings: Vec<(u32, Embedding)>,
    batch: usize,
}

impl Verify {
    fn reference(&self) -> &ServiceReport {
        self.reference
            .as_ref()
            .expect("the reference pass runs first")
    }

    /// Aligns and embeds every probe once, so each stage is timed on
    /// real inputs.
    pub fn prep(&self) -> Prep {
        let side = self.head.side();
        let mut windows = Vec::new();
        let mut embeddings = Vec::new();
        for request in &self.requests {
            let Ok(window) = align_face(&request.probe.image, &request.probe.landmarks, side)
            else {
                continue;
            };
            if let Ok(embedding) = self.head.embed(&window) {
                embeddings.push((request.user, embedding));
            }
            windows.push(window);
        }
        Prep {
            windows,
            embeddings,
            batch: self.config.ingest.batch,
        }
    }

    /// One harness point per stage (align per probe, embed per ingest
    /// batch, match per probe), the fault oracle, and the whole trace.
    pub fn points<'a>(&'a self, prep: &'a Prep, tally: &'a Tally) -> Vec<LayerPoint<'a>> {
        let side = self.head.side();
        let reference = self.reference();
        let frames = self.requests.len() as u64;
        let (mut a, mut e, mut m, mut o) = (0, 0, 0, 0u64);
        vec![
            LayerPoint::new("auth.align", move || {
                a = (a + 1) % self.requests.len();
                let probe = &self.requests[a].probe;
                align_face(&probe.image, &probe.landmarks, side)
            }),
            LayerPoint::new("auth.embed_batch", move || {
                e = (e + prep.batch) % (prep.windows.len() - prep.batch);
                self.head.embed_batch(&prep.windows[e..e + prep.batch])
            }),
            LayerPoint::new("auth.match", move || {
                m = (m + 1) % prep.embeddings.len();
                let (user, embedding) = &prep.embeddings[m];
                self.gallery.match_score(*user, embedding)
            }),
            LayerPoint::new("faults.oracle", move || {
                o = (o + 1) % frames;
                let stage = (o % NUM_STAGES as u64) as usize;
                (self.oracle.compute(o, stage, 0), self.oracle.link(o, 0))
            }),
            LayerPoint::new("auth.trace", move || {
                let (report, _) = self.serve(&self.oracle, tally);
                tally.check(&report == reference, "verify report matches the reference");
            }),
        ]
    }

    /// Per-layer metrics: stage times, outcome counters, and the share of
    /// the trace the stages and the oracle account for.
    pub fn metrics(&self, prep: &Prep, t: &Timings) -> Vec<Metric> {
        let r = self.reference();
        let align_failed = r.fallbacks[FallbackReason::AlignFailed.index()];
        let embed_failed = r.fallbacks[FallbackReason::EmbedFailed.index()];
        let functional = r.accepts + r.rejects + align_failed + embed_failed;
        let embedded = functional - align_failed;
        let align_ns = t.ns("auth.align");
        let embed_ns = t.ns("auth.embed_batch") / prep.batch as f64;
        let match_ns = t.ns("auth.match");
        let oracle_ns = t.ns("faults.oracle") / 2.0;
        let attributed = functional as f64 * align_ns
            + embedded as f64 * (embed_ns + match_ns)
            + self.oracle_calls as f64 * oracle_ns;
        vec![
            Metric::new("auth.align_us", align_ns / 1e3, "us"),
            Metric::new("auth.embed_batch_us_per_window", embed_ns / 1e3, "us"),
            Metric::new("auth.match_us", match_ns / 1e3, "us"),
            Metric::new("faults.oracle_ns", oracle_ns, "ns"),
            Metric::new("auth.accepts", r.accepts as f64, "count"),
            Metric::new("auth.fallbacks", r.total_fallbacks() as f64, "count"),
            Metric::new(
                "auth.retries",
                (r.compute_retries + r.link_retries) as f64,
                "count",
            ),
            Metric::new("auth.breaker_trips", r.breaker_trips as f64, "count"),
            Metric::new(
                "auth.functional_frac",
                functional as f64 / r.requests as f64,
                "frac",
            ),
            Metric::new(
                "auth.attributed_frac",
                attributed / t.ns("auth.trace"),
                "frac",
            ),
        ]
    }

    /// Each stage's measured host time beside the modeled binding it
    /// stands for in `AuthBlockCosts::design_point`.
    pub fn info(&self, prep: &Prep, t: &Timings) -> Vec<String> {
        let costs = AuthBlockCosts::design_point(&self.head);
        let host = [
            t.ns("auth.align"),
            t.ns("auth.embed_batch") / prep.batch as f64,
            t.ns("auth.match"),
        ];
        let asic = Seconds::new(1.0 / ASIC_STREAM_FPS);
        (0..NUM_STAGES)
            .map(|stage| {
                let mcu = costs.mcu[stage] / costs.mcu_active_power;
                let mut line = format!(
                    "info: verify stage {:<5} host {:>9.3} us/probe | model ASIC {:.3} ms {} | MCU {:.3} ms {}",
                    STAGE_NAMES[stage],
                    host[stage] / 1e3,
                    asic.millis(),
                    costs.asic[stage].human(),
                    mcu.millis(),
                    costs.mcu[stage].human(),
                );
                if stage == 1 {
                    line.push_str(&format!(
                        " | SNNAP {:.3} us {}",
                        costs.snnap_embed_latency.micros(),
                        costs.snnap_embed_energy.human()
                    ));
                }
                line
            })
            .collect()
    }
}
