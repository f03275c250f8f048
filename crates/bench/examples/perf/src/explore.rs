//! `explore_sweep`: cold pruned searches over the four registered
//! configuration spaces — the widened raw-imaging space, the verify
//! space, the FA space and the Fig. 10 VR space — each queried for its
//! best configuration and Pareto frontier on 32 seeded links from 1 kb/s
//! to 10 Gb/s. Every answer must equal the exhaustive oracle.

use crate::harness::{LayerPoint, Tally, Timings, Unit};
use crate::report::Metric;
use incam_auth::embed::EmbeddingHead;
use incam_auth::fleet::FLEET_HEAD_SEED;
use incam_auth::space::{verify_binding_space, AuthBlockCosts, WINDOW_SIDE};
use incam_core::explore::{ConfigAnalysis, PipelineSpace, SearchPlan};
use incam_core::link::Link;
use incam_core::units::{BytesPerSec, Fps};
use incam_imaging::stages::widened_space;
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};
use incam_vr::analysis::VrModel;
use incam_wispcam::{fa_binding_space, FaBlockCosts, ImageSensor, McuModel};

/// Links per sweep.
const LINKS: usize = 32;

/// Links the per-layer query points cycle through: more than a plan's
/// per-link cache holds, so every query is answered from the frontier.
const LAYER_LINKS: usize = 64;

/// `count` log-spaced rates from 1 kb/s to 10 Gb/s, each jittered by up
/// to ±¼ of a step.
fn sweep(rng: &mut StdRng, count: usize) -> Vec<Link> {
    let (lo, hi) = (1e3f64.ln(), 1e10f64.ln());
    let step = (hi - lo) / (count - 1) as f64;
    (0..count)
        .map(|k| {
            let jitter = rng.gen_range(-0.25..0.25) * step;
            let bps = (lo + k as f64 * step + jitter).exp();
            Link::new(
                format!("link-{k}"),
                BytesPerSec::from_bits_per_sec(bps),
                1.0,
            )
        })
        .collect()
}

/// Best configuration and Pareto frontier of one (space, link) query.
type Answer = (Option<ConfigAnalysis>, Vec<ConfigAnalysis>);

/// The four spaces, the seeded links, and the exhaustive oracle.
pub struct Explore {
    spaces: Vec<PipelineSpace>,
    links: Vec<Link>,
    layer_links: Vec<Link>,
    oracle: Vec<Vec<Answer>>,
}

impl Explore {
    /// Builds the spaces and draws the links.
    pub fn setup(seed: u64) -> Self {
        let head = EmbeddingHead::new(WINDOW_SIDE, FLEET_HEAD_SEED);
        let spaces = vec![
            widened_space(),
            verify_binding_space(&AuthBlockCosts::design_point(&head), Fps::new(1.0)),
            fa_binding_space(
                &FaBlockCosts::design_point(),
                &ImageSensor::wispcam_default(),
                &McuModel::cortex_m_class(),
                Fps::new(1.0),
            ),
            VrModel::paper_default().binding_space(),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            spaces,
            links: sweep(&mut rng, LINKS),
            layer_links: sweep(&mut rng, LAYER_LINKS),
            oracle: Vec::new(),
        }
    }

    /// One cold plan per space, queried on every link.
    fn search(&self) -> Vec<Vec<Answer>> {
        self.spaces
            .iter()
            .map(|space| {
                let plan = SearchPlan::new(space);
                self.links
                    .iter()
                    .map(|link| (plan.best(link), plan.pareto_frontier(link)))
                    .collect()
            })
            .collect()
    }
}

impl Unit for Explore {
    fn items(&self) -> f64 {
        (self.spaces.len() * self.links.len()) as f64
    }

    fn run(&mut self, tally: &Tally) {
        if self.oracle.is_empty() {
            self.oracle = self
                .spaces
                .iter()
                .map(|space| {
                    self.links
                        .iter()
                        .map(|link| (space.best(link), space.pareto_frontier(link)))
                        .collect()
                })
                .collect();
        }
        let answers = self.search();
        tally.check(
            answers == self.oracle,
            "pruned search equals the exhaustive oracle",
        );
    }
}

impl Explore {
    /// Cold plan build (pre-pruning plus frontier), and best / frontier
    /// queries on a built plan, all on the widened space.
    pub fn points(&self) -> Vec<LayerPoint<'_>> {
        let widened = &self.spaces[0];
        let plan = SearchPlan::new(widened);
        plan.frontier();
        let frontier_plan = plan.clone();
        let links = &self.layer_links;
        let (mut b, mut f) = (0, 0);
        vec![
            LayerPoint::new("explore.plan_build", move || {
                SearchPlan::new(widened).frontier().len()
            }),
            LayerPoint::new("explore.best", move || {
                b = (b + 1) % links.len();
                plan.best(&links[b])
            }),
            LayerPoint::new("explore.frontier", move || {
                f = (f + 1) % links.len();
                frontier_plan.pareto_frontier(&links[f])
            }),
        ]
    }

    /// Per-layer metrics: search times and the widened space's node counts.
    pub fn metrics(&self, t: &Timings) -> Vec<Metric> {
        let stats = SearchPlan::new(&self.spaces[0]).stats();
        vec![
            Metric::new(
                "core.explore.plan_build_us",
                t.ns("explore.plan_build") / 1e3,
                "us",
            ),
            Metric::new("core.explore.best_us", t.ns("explore.best") / 1e3, "us"),
            Metric::new(
                "core.explore.frontier_us",
                t.ns("explore.frontier") / 1e3,
                "us",
            ),
            Metric::new("core.explore.evaluated", stats.evaluated as f64, "count"),
            Metric::new(
                "core.explore.pruned_frac",
                1.0 - stats.evaluated as f64 / stats.exhaustive as f64,
                "frac",
            ),
        ]
    }
}
