//! Configuration-space exploration: enumerate every way of binding and
//! cutting a pipeline, and rank the results on the paper's objectives.
//!
//! The paper's Fig. 10 is not a single pipeline — it is a *search over
//! nine configurations*: each block may run on one of several candidate
//! backends, and the pipeline may hand off to the cloud at any cut
//! point. This module makes that search a first-class object:
//!
//! * a [`Binding`] is one candidate way to execute a block (backend +
//!   sustained throughput + per-frame energy + an optional output-size
//!   override for bindings that emit coarser data);
//! * a [`BlockSpace`] is a block together with its candidate bindings;
//! * a [`PipelineSpace`] is a source plus an ordered sequence of block
//!   spaces — the whole configuration space;
//! * a [`Configuration`] is one point in that space: a binding choice
//!   per block plus an offload cut;
//! * a [`ConfigAnalysis`] is one configuration's cost row over a link
//!   (compute and communication FPS, upload bytes, in-camera energy) —
//!   the only analysis row: a fixed [`Pipeline`] is the space with one
//!   binding per block (`PipelineSpace::from(&pipeline)`), and
//!   [`crate::offload::analyze_cut`] prices one of its cuts.
//!
//! Three pieces search a space, and every winner they return obeys the
//! one tie-break rule in [`first_best`]:
//!
//! * [`PipelineSpace`] is the exhaustive enumerator — the view path
//!   (tables that print every configuration, dominated or not) and the
//!   test oracle. [`PipelineSpace::explore`] evaluates every distinct
//!   configuration lazily (compose with `Iterator::filter` for predicate
//!   views such as the paper's Fig. 10 coupling), and
//!   [`pareto_frontier`] keeps the configurations that are not dominated
//!   on the three paper objectives — total FPS, in-camera energy per
//!   frame, and uploaded bytes per frame;
//! * a [`SearchPlan`] answers [`SearchPlan::best`] and
//!   [`SearchPlan::pareto_frontier`] by branch-and-bound: per-block
//!   dominance pre-pruning drops bindings an earlier same-block sibling
//!   weakly dominates on (throughput, energy, output size), prefix
//!   bounds kill whole subtrees during the cut-major descent, and the
//!   surviving link-independent frontier is memoized;
//! * an [`IncrementalSearch`] is that frontier, owned: it re-ranks under
//!   a *new link only*, because the link enters the objective solely
//!   through the upload term, so the link-independent three-objective
//!   frontier is a superset of every link's optimum. It is either
//!   cloned out of a plan ([`SearchPlan::frontier`]) or built over the
//!   held-cut chain of committed hardware
//!   ([`IncrementalSearch::over_held_cuts`]).
//!
//! Two enumeration granularities exist because bindings of blocks *after*
//! the cut never execute in camera: the full product
//! ([`PipelineSpace::cardinality`] points) and the *distinct* space
//! ([`PipelineSpace::distinct_configurations`]), which keeps one
//! canonical representative per observable configuration. The paper's
//! nine Fig. 10 configurations are exactly the distinct space of the VR
//! pipeline with the depth block's three backends coupled to stitching.
//!
//! All pruning is behavior-preserving: winners and Pareto frontiers are
//! bit-identical to the exhaustive methods. The dominance argument is
//! spelled out on [`SearchPlan`] and in `DESIGN.md`
//! ("Configuration-space exploration"); `tests/search_equivalence.rs`
//! holds the equivalence oracle (pruned == exhaustive on random spaces).
//!
//! # Examples
//!
//! ```
//! use incam_core::block::{Backend, BlockSpec, DataTransform};
//! use incam_core::explore::{Binding, BlockSpace, PipelineSpace};
//! use incam_core::link::Link;
//! use incam_core::pipeline::Source;
//! use incam_core::units::{Bytes, BytesPerSec, Fps};
//!
//! // One block, two candidate backends: a slow CPU and a fast ASIC.
//! let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
//!     .with_block(BlockSpace::new(
//!         BlockSpec::core("reduce", DataTransform::Scale(0.25)),
//!         vec![
//!             Binding::new(Backend::Cpu, Fps::new(5.0)),
//!             Binding::new(Backend::Asic, Fps::new(200.0)),
//!         ],
//!     ));
//! assert_eq!(space.cardinality(), 4); // 2 bindings x 2 cuts
//!
//! let link = Link::new("l", BytesPerSec::new(10_000.0), 1.0);
//! let best = space.best(&link).unwrap();
//! assert_eq!(best.config.cut(), 1); // reduce in camera...
//! assert_eq!(best.backends(&space), vec![Backend::Asic]); // ...on the ASIC
//! ```

use crate::block::{Backend, BlockKind, BlockSpec, DataTransform};
use crate::link::Link;
use crate::offload::{analyze_cut, Constraint};
use crate::pipeline::{Pipeline, Source, Stage};
use crate::units::{Bytes, Fps, Joules};
use incam_rng::Digest;
use std::cell::OnceCell;

/// One candidate way to execute a block: a backend with concrete costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    backend: Backend,
    throughput: Fps,
    energy_per_frame: Joules,
    output: Option<DataTransform>,
}

impl Binding {
    /// A binding of the block to `backend` at the given sustained
    /// throughput, with zero per-frame energy and the block's own data
    /// transform.
    pub fn new(backend: Backend, throughput: Fps) -> Self {
        Self {
            backend,
            throughput,
            energy_per_frame: Joules::ZERO,
            output: None,
        }
    }

    /// Sets the per-frame processing energy of this binding.
    #[must_use]
    pub fn with_energy_per_frame(mut self, energy: Joules) -> Self {
        self.energy_per_frame = energy;
        self
    }

    /// Overrides the block's output-size transform for this binding —
    /// e.g. a coarse-grid depth solver that emits a quarter-size
    /// disparity map.
    #[must_use]
    pub fn with_output(mut self, output: DataTransform) -> Self {
        self.output = Some(output);
        self
    }

    /// The backend this binding executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Sustained throughput of this binding.
    pub fn throughput(&self) -> Fps {
        self.throughput
    }

    /// Per-frame processing energy of this binding.
    pub fn energy_per_frame(&self) -> Joules {
        self.energy_per_frame
    }

    /// The output-size override, if any.
    pub fn output(&self) -> Option<DataTransform> {
        self.output
    }
}

/// A block together with its candidate bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpace {
    spec: BlockSpec,
    bindings: Vec<Binding>,
}

impl BlockSpace {
    /// Creates a block space.
    ///
    /// # Panics
    ///
    /// Panics if `bindings` is empty — a block with no way to execute it
    /// is not explorable.
    pub fn new(spec: BlockSpec, bindings: Vec<Binding>) -> Self {
        assert!(
            !bindings.is_empty(),
            "block {:?} needs at least one candidate binding",
            spec.name()
        );
        Self { spec, bindings }
    }

    /// The underlying block description.
    pub fn spec(&self) -> &BlockSpec {
        &self.spec
    }

    /// The candidate bindings, in declaration order.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Materializes the stage for binding `choice`.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is out of range.
    pub fn stage(&self, choice: usize) -> Stage {
        let binding = &self.bindings[choice];
        let spec = match binding.output {
            Some(transform) => BlockSpec::new(self.spec.name(), self.spec.kind(), transform),
            None => self.spec.clone(),
        };
        Stage::new(spec, binding.backend, binding.throughput)
            .with_energy_per_frame(binding.energy_per_frame)
    }
}

/// One point in a configuration space: a binding choice per block plus an
/// offload cut.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    bindings: Vec<usize>,
    cut: usize,
}

impl Configuration {
    /// Creates a configuration from explicit binding indices and a cut.
    pub fn new(bindings: Vec<usize>, cut: usize) -> Self {
        Self { bindings, cut }
    }

    /// Binding index per block, in pipeline order.
    pub fn bindings(&self) -> &[usize] {
        &self.bindings
    }

    /// Number of blocks executed in camera before offload.
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// `true` when every binding choice past the cut is the default
    /// (index 0). Bindings past the cut never execute, so the canonical
    /// representatives enumerate the *distinct* configuration space.
    pub fn is_canonical(&self) -> bool {
        self.bindings.iter().skip(self.cut).all(|&b| b == 0)
    }
}

/// Cost analysis of one configuration over one link: the Fig. 10 row for
/// that configuration, extended with the energy objective. Rows of a
/// fixed pipeline's cuts come from [`crate::offload::analyze_cut`] (or
/// from exploring `PipelineSpace::from(&pipeline)`), with every binding
/// index 0.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigAnalysis {
    /// The analyzed configuration.
    pub config: Configuration,
    /// Human-readable label of the in-camera prefix, e.g. `S+B3(F)`.
    pub label: String,
    /// Pipelined in-camera compute throughput.
    pub compute: Fps,
    /// Uplink throughput for the cut's output data.
    pub communication: Fps,
    /// Data uploaded per frame at the cut.
    pub upload: Bytes,
    /// In-camera energy per frame through the cut (including capture).
    pub energy: Joules,
}

impl ConfigAnalysis {
    /// Sustained end-to-end frame rate: the binding constraint of
    /// compute and communication.
    pub fn total(&self) -> Fps {
        self.compute.min(self.communication)
    }

    /// Whether both computation and communication meet a target rate.
    pub fn meets(&self, target: Fps) -> bool {
        self.total() >= target
    }

    /// Which of the two rate costs binds.
    pub fn constraint(&self) -> Constraint {
        if self.compute <= self.communication {
            Constraint::Computation
        } else {
            Constraint::Communication
        }
    }

    /// The backend of each in-camera block (up to the cut), resolved
    /// against the space that produced this analysis.
    pub fn backends(&self, space: &PipelineSpace) -> Vec<Backend> {
        self.config
            .bindings
            .iter()
            .zip(space.blocks())
            .take(self.config.cut)
            .map(|(&b, block)| block.bindings()[b].backend())
            .collect()
    }

    /// `true` if `self` is at least as good as `other` on all three
    /// objectives (total FPS up, energy down, upload down) and strictly
    /// better on at least one.
    pub fn dominates(&self, other: &Self) -> bool {
        let fps = (self.total().fps(), other.total().fps());
        let energy = (self.energy.joules(), other.energy.joules());
        let upload = (self.upload.bytes(), other.upload.bytes());
        let no_worse = fps.0 >= fps.1 && energy.0 <= energy.1 && upload.0 <= upload.1;
        let better = fps.0 > fps.1 || energy.0 < energy.1 || upload.0 < upload.1;
        no_worse && better
    }
}

/// A source plus an ordered sequence of block spaces: the full
/// configuration space a camera system can be built from.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpace {
    source: Source,
    blocks: Vec<BlockSpace>,
}

impl PipelineSpace {
    /// Creates a space with only a source.
    pub fn new(source: Source) -> Self {
        Self {
            source,
            blocks: Vec::new(),
        }
    }

    /// Appends a block space, consuming and returning the space
    /// (builder style).
    #[must_use]
    pub fn with_block(mut self, block: BlockSpace) -> Self {
        self.blocks.push(block);
        self
    }

    /// Appends a block space in place.
    pub fn push(&mut self, block: BlockSpace) {
        self.blocks.push(block);
    }

    /// The space's source.
    pub fn source(&self) -> &Source {
        &self.source
    }

    /// The block spaces, in pipeline order.
    pub fn blocks(&self) -> &[BlockSpace] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if the space has no blocks beyond the source.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Size of the full configuration space: the product of per-block
    /// binding counts times the number of cut positions (`len + 1`).
    /// Saturates at `u128::MAX` instead of silently wrapping on spaces
    /// wide enough to overflow (a 128-bit overflow needs ~43 ten-binding
    /// blocks — the widened raw-imaging spaces make the guard cheap
    /// insurance, not a theoretical nicety).
    pub fn cardinality(&self) -> u128 {
        self.blocks
            .iter()
            .fold(1u128, |acc, b| {
                acc.saturating_mul(b.bindings().len() as u128)
            })
            .saturating_mul(self.blocks.len() as u128 + 1)
    }

    /// Size of the *distinct* configuration space: for each cut, only
    /// bindings of blocks before the cut are observable, so the count is
    /// the sum over cuts of the prefix binding products. Saturates at
    /// `u128::MAX` like [`PipelineSpace::cardinality`].
    pub fn distinct_cardinality(&self) -> u128 {
        let mut total = 1u128; // cut 0: the raw-sensor configuration
        let mut prefix = 1u128;
        for block in &self.blocks {
            prefix = prefix.saturating_mul(block.bindings().len() as u128);
            total = total.saturating_add(prefix);
        }
        total
    }

    /// Lazily enumerates every configuration in the full space, cut-major
    /// (all binding vectors at cut 0, then cut 1, …); within a cut the
    /// binding vector increments odometer-style with the *last* block
    /// fastest. Compose with [`Iterator::filter`] for predicate pruning.
    pub fn configurations(&self) -> Configurations<'_> {
        Configurations {
            space: self,
            next: Some(Configuration::new(vec![0; self.blocks.len()], 0)),
        }
    }

    /// Enumerates only the canonical representative of each distinct
    /// configuration (see [`Configuration::is_canonical`]), in the same
    /// cut-major order.
    pub fn distinct_configurations(&self) -> impl Iterator<Item = Configuration> + '_ {
        self.configurations().filter(Configuration::is_canonical)
    }

    /// Materializes the concrete [`Pipeline`] of a configuration (all
    /// blocks bound, including those past the cut).
    ///
    /// # Panics
    ///
    /// Panics if the configuration's shape does not match the space.
    pub fn realize(&self, config: &Configuration) -> Pipeline {
        assert_eq!(
            config.bindings.len(),
            self.blocks.len(),
            "configuration has {} binding choices for a {}-block space",
            config.bindings.len(),
            self.blocks.len()
        );
        assert!(
            config.cut <= self.blocks.len(),
            "cut {} out of range for a {}-block space",
            config.cut,
            self.blocks.len()
        );
        let mut pipeline = Pipeline::new(self.source.clone());
        for (block, &choice) in self.blocks.iter().zip(&config.bindings) {
            pipeline.push(block.stage(choice));
        }
        pipeline
    }

    /// Analyzes one configuration over a link.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's shape does not match the space.
    pub fn evaluate(&self, config: &Configuration, link: &Link) -> ConfigAnalysis {
        let mut analysis = analyze_cut(&self.realize(config), link, config.cut);
        // the realized pipeline is a fixed one, so its row carries
        // all-zero bindings; restore the choices that realized it
        analysis.config.bindings.copy_from_slice(&config.bindings);
        analysis
    }

    /// Evaluates every *distinct* configuration over a link, in
    /// enumeration order.
    pub fn explore<'a>(&'a self, link: &'a Link) -> impl Iterator<Item = ConfigAnalysis> + 'a {
        self.distinct_configurations()
            .map(move |c| self.evaluate(&c, link))
    }

    /// The configuration with the highest end-to-end frame rate over
    /// `link`, by the [`first_best`] tie-break: of equal totals the
    /// earliest in enumeration order wins — the earliest cut, then the
    /// lowest binding indices, i.e. the least in-camera work. Returns
    /// `None` only for a space that somehow enumerates nothing (never:
    /// cut 0 always exists). For the winner of a predicate view, filter
    /// [`PipelineSpace::explore`] and pass it to [`first_best`].
    ///
    /// [`SearchPlan`] and [`IncrementalSearch`] must reproduce this
    /// winner under pruning; `tests/search_equivalence.rs` proptests
    /// that they do on random spaces.
    pub fn best(&self, link: &Link) -> Option<ConfigAnalysis> {
        first_best(self.explore(link), ConfigAnalysis::total)
    }

    /// The Pareto frontier of the distinct space over `link`: every
    /// configuration not dominated on (total FPS, in-camera energy,
    /// upload bytes) by another distinct configuration.
    pub fn pareto_frontier(&self, link: &Link) -> Vec<ConfigAnalysis> {
        pareto_frontier(self.explore(link).collect())
    }
}

/// A fixed pipeline as the space with one binding per block — its own
/// stage — so the whole search surface applies to it: `explore` yields
/// one row per offload cut (each equal to [`crate::offload::analyze_cut`]
/// of that cut) and `best` the best cut.
impl From<&Pipeline> for PipelineSpace {
    fn from(pipeline: &Pipeline) -> Self {
        let mut space = Self::new(pipeline.source().clone());
        for stage in pipeline.stages() {
            space.push(BlockSpace::new(
                stage.spec().clone(),
                vec![Binding::new(stage.backend(), stage.throughput())
                    .with_energy_per_frame(stage.energy_per_frame())],
            ));
        }
        space
    }
}

/// The first strict maximum of `total` over `candidates`: a later
/// candidate displaces the incumbent only when its total is strictly
/// greater, so ties resolve to the earliest. In enumeration order that
/// is the least in-camera work.
///
/// This is the one winner rule of the module —
/// [`PipelineSpace::best`], [`SearchPlan::best`] and
/// [`IncrementalSearch::best`] all reduce through it — and the way to
/// take the winner of a filtered view:
///
/// ```
/// use incam_core::block::{Backend, BlockSpec, DataTransform};
/// use incam_core::explore::{first_best, ConfigAnalysis, PipelineSpace};
/// use incam_core::link::Link;
/// use incam_core::pipeline::{Pipeline, Source, Stage};
/// use incam_core::units::{Bytes, BytesPerSec, Fps};
///
/// let p = Pipeline::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
///     .then(Stage::new(BlockSpec::core("reduce", DataTransform::Scale(0.25)),
///                      Backend::Asic, Fps::new(60.0)));
/// let space = PipelineSpace::from(&p);
/// let link = Link::new("l", BytesPerSec::new(10_000.0), 1.0);
/// // the best cut offloads reduced data...
/// assert_eq!(space.best(&link).unwrap().config.cut(), 1);
/// // ...while the best of a raw-offload-only view is cut 0
/// let raw_only = space.explore(&link).filter(|a| a.config.cut() == 0);
/// let raw = first_best(raw_only, ConfigAnalysis::total).unwrap();
/// assert_eq!(raw.label, "S");
/// ```
pub fn first_best<T>(
    candidates: impl IntoIterator<Item = T>,
    total: impl Fn(&T) -> Fps,
) -> Option<T> {
    let mut best: Option<(T, f64)> = None;
    for candidate in candidates {
        let t = total(&candidate).fps();
        if best.as_ref().is_none_or(|&(_, incumbent)| t > incumbent) {
            best = Some((candidate, t));
        }
    }
    best.map(|(candidate, _)| candidate)
}

/// Lazy cut-major enumeration of a [`PipelineSpace`] (see
/// [`PipelineSpace::configurations`]).
#[derive(Debug, Clone)]
pub struct Configurations<'a> {
    space: &'a PipelineSpace,
    next: Option<Configuration>,
}

impl Iterator for Configurations<'_> {
    type Item = Configuration;

    fn next(&mut self) -> Option<Configuration> {
        let current = self.next.take()?;
        // advance the odometer: last block fastest, then the cut
        let mut succ = current.clone();
        let mut advanced = false;
        for i in (0..succ.bindings.len()).rev() {
            if succ.bindings[i] + 1 < self.space.blocks[i].bindings().len() {
                succ.bindings[i] += 1;
                succ.bindings[i + 1..].fill(0);
                advanced = true;
                break;
            }
        }
        if !advanced {
            succ.bindings.fill(0);
            succ.cut += 1;
            advanced = succ.cut <= self.space.blocks.len();
        }
        self.next = advanced.then_some(succ);
        Some(current)
    }
}

/// Input size above which [`pareto_frontier`] switches from the
/// quadratic pairwise scan to the `O(n log n)` sort-then-sweep path.
/// Below it the scan's lack of allocation and sorting wins; above it
/// the sweep does (the crossover is flat, so the constant is not
/// tuned finely). Non-finite inputs always take the quadratic path:
/// the sweep's total order on floats must agree with the partial-order
/// comparisons the scan makes, which `NaN` breaks.
pub const PARETO_SWEEP_THRESHOLD: usize = 64;

/// Filters `analyses` down to the Pareto frontier over the three paper
/// objectives: total FPS (maximize), in-camera energy per frame
/// (minimize), and uploaded bytes per frame (minimize). Input order is
/// preserved; of mutually equal configurations the earliest survives.
///
/// Two implementations compute the same set: a quadratic pairwise scan
/// for small or non-finite inputs, and a sort-then-sweep above
/// [`PARETO_SWEEP_THRESHOLD`] — `tests/search_equivalence.rs` proptests
/// their agreement.
pub fn pareto_frontier(analyses: Vec<ConfigAnalysis>) -> Vec<ConfigAnalysis> {
    let finite = |a: &ConfigAnalysis| {
        a.total().fps().is_finite() && a.energy.joules().is_finite() && a.upload.bytes().is_finite()
    };
    if analyses.len() > PARETO_SWEEP_THRESHOLD && analyses.iter().all(finite) {
        pareto_sweep(analyses)
    } else {
        pareto_quadratic(analyses)
    }
}

/// The reference implementation: pairwise dominance against the kept
/// set, dropping candidates a kept point dominates or exactly ties, and
/// retiring kept points the candidate dominates.
fn pareto_quadratic(analyses: Vec<ConfigAnalysis>) -> Vec<ConfigAnalysis> {
    let mut frontier: Vec<ConfigAnalysis> = Vec::new();
    for candidate in analyses {
        if frontier.iter().any(|kept| {
            kept.dominates(&candidate)
                || (kept.total() == candidate.total()
                    && kept.energy == candidate.energy
                    && kept.upload == candidate.upload)
        }) {
            continue;
        }
        frontier.retain(|kept| !candidate.dominates(kept));
        frontier.push(candidate);
    }
    frontier
}

/// Sort-then-sweep frontier for all-finite inputs. Candidates are
/// visited best-first (total FPS descending, then energy, upload, and
/// input position ascending), so every strict dominator of a point —
/// and the earliest member of an exact-tie group — precedes it. A
/// staircase of kept `(energy, upload)` pairs (energies strictly
/// ascending, uploads strictly descending) then answers "does a prior
/// kept point weakly dominate this one?" with a binary search: the kept
/// point at the greatest energy at most the candidate's holds the
/// minimum kept upload in that range.
fn pareto_sweep(analyses: Vec<ConfigAnalysis>) -> Vec<ConfigAnalysis> {
    let mut order: Vec<usize> = (0..analyses.len()).collect();
    order.sort_unstable_by(|&i, &j| {
        let (a, b) = (&analyses[i], &analyses[j]);
        b.total()
            .fps()
            .total_cmp(&a.total().fps())
            .then(a.energy.joules().total_cmp(&b.energy.joules()))
            .then(a.upload.bytes().total_cmp(&b.upload.bytes()))
            .then(i.cmp(&j))
    });
    let mut stairs: Vec<(f64, f64)> = Vec::new();
    let mut keep = vec![false; analyses.len()];
    for &i in &order {
        let (energy, upload) = (analyses[i].energy.joules(), analyses[i].upload.bytes());
        let pos = stairs.partition_point(|&(e, _)| e <= energy);
        if pos > 0 && stairs[pos - 1].1 <= upload {
            continue; // a prior (total-no-worse) kept point weakly dominates
        }
        keep[i] = true;
        // Insert, retiring kept pairs the new point weakly dominates —
        // a contiguous run: pairs at energy >= ours with upload >= ours.
        let ins = stairs.partition_point(|&(e, _)| e < energy);
        let mut end = ins;
        while end < stairs.len() && stairs[end].1 >= upload {
            end += 1;
        }
        stairs.splice(ins..end, [(energy, upload)]);
    }
    let mut frontier = Vec::new();
    for (i, analysis) in analyses.into_iter().enumerate() {
        if keep[i] {
            frontier.push(analysis);
        }
    }
    frontier
}

// ---------------------------------------------------------------------------
// The pruned search engine: SearchPlan and IncrementalSearch.
// ---------------------------------------------------------------------------

fn digest_str(h: &mut Digest, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

fn digest_transform(h: &mut Digest, transform: DataTransform) {
    match transform {
        DataTransform::Identity => h.write(&[0]),
        DataTransform::Scale(factor) => {
            h.write(&[1]);
            h.write_f64(factor);
        }
        DataTransform::Fixed(size) => {
            h.write(&[2]);
            h.write_f64(size.bytes());
        }
    }
}

/// A stable FNV-1a digest of everything the search engine reads out of
/// a space: source costs, block specs, and per-binding costs, in order.
/// An [`IncrementalSearch`] carries the digest of the space it was
/// computed from, and [`IncrementalSearch::best_analysis`] checks it
/// before resolving configurations against a space. The digest is an
/// in-process key, never pinned.
pub fn space_digest(space: &PipelineSpace) -> u64 {
    let mut h = Digest::new();
    let source = space.source();
    digest_str(&mut h, source.name());
    h.write_f64(source.frame_size().bytes());
    h.write_f64(source.max_fps().fps());
    h.write_f64(source.capture_energy().joules());
    h.write_u64(space.len() as u64);
    for block in space.blocks() {
        digest_str(&mut h, block.spec().name());
        h.write(&[u8::from(block.spec().kind() == BlockKind::Optional)]);
        digest_transform(&mut h, block.spec().transform());
        h.write_u64(block.bindings().len() as u64);
        for binding in block.bindings() {
            h.write_u64(u64::from(binding.backend().letter()));
            h.write_f64(binding.throughput().fps());
            h.write_f64(binding.energy_per_frame().joules());
            match binding.output() {
                None => h.write(&[0]),
                Some(transform) => {
                    h.write(&[1]);
                    digest_transform(&mut h, transform);
                }
            }
        }
    }
    h.finish()
}

/// Node-count accounting for one pruned frontier construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Distinct configurations exhaustive enumeration would evaluate
    /// ([`PipelineSpace::distinct_cardinality`], saturating at
    /// `u64::MAX`).
    pub exhaustive: u64,
    /// Configurations the pruned descent actually evaluated (leaves
    /// reached).
    pub evaluated: u64,
    /// Bindings removed by per-block dominance pre-pruning (counted
    /// once per block, not per configuration they would have appeared
    /// in).
    pub bindings_pruned: u64,
    /// Subtrees discarded whole by prefix-bound pruning during the
    /// descent.
    pub subtrees_pruned: u64,
}

impl SearchStats {
    /// Exhaustive-to-evaluated node ratio — the headline reduction
    /// `repro --experiment explore-scale` reports.
    pub fn reduction(&self) -> f64 {
        self.exhaustive as f64 / (self.evaluated as f64).max(1.0)
    }
}

/// One surviving point of an [`IncrementalSearch`] frontier: a distinct
/// configuration with its three link-independent objectives, computed
/// with exactly the same floating-point operations (and operation
/// order) as [`PipelineSpace::evaluate`], so re-ranking under a link
/// reproduces the exhaustive search bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The canonical configuration this point stands for.
    pub config: Configuration,
    /// Pipelined in-camera compute throughput
    /// ([`ConfigAnalysis::compute`]).
    pub compute: Fps,
    /// In-camera energy per frame through the cut
    /// ([`ConfigAnalysis::energy`]).
    pub energy: Joules,
    /// Bytes uploaded per frame at the cut ([`ConfigAnalysis::upload`]).
    pub upload: Bytes,
}

impl FrontierPoint {
    /// End-to-end frame rate of this point over `link`: compute bound
    /// by the link's upload rate, exactly as [`ConfigAnalysis::total`].
    pub fn total(&self, link: &Link) -> Fps {
        self.compute.min(link.upload_fps(self.upload))
    }

    /// Weak dominance against raw objective values: at least as fast to
    /// compute, at most as much energy, at most as large an upload key.
    fn covers(&self, compute: f64, energy: f64, upload_key: f64) -> bool {
        self.compute.fps() >= compute
            && self.energy.joules() <= energy
            && upload_key_of(self.upload) <= upload_key
    }
}

/// The upload objective under the ordering every link agrees on:
/// positive finite sizes order by byte count (fewer bytes never upload
/// slower over any link), while degenerate sizes (zero, negative,
/// non-finite) saturate [`Link::upload_fps`] to zero FPS and are
/// therefore *worst* — encoded as `+inf` so dominance tests stay sound
/// on them.
fn upload_key_of(upload: Bytes) -> f64 {
    let bytes = upload.bytes();
    if bytes > 0.0 && bytes.is_finite() {
        bytes
    } else {
        f64::INFINITY
    }
}

/// Branch-and-bound search over a [`PipelineSpace`].
///
/// Construction pre-prunes each block's bindings by dominance; the
/// first call that needs the frontier runs a cut-major descent over the
/// surviving product with prefix-bound subtree pruning and memoizes the
/// result as an [`IncrementalSearch`], so every later
/// [`SearchPlan::best`] / [`SearchPlan::pareto_frontier`] call re-ranks
/// the (small) frontier under its link instead of re-enumerating.
///
/// # Why pruning preserves behavior
///
/// All pruning is behavior-preserving: `best` and `pareto_frontier`
/// return results bit-identical to the exhaustive [`PipelineSpace`]
/// methods. Three arguments carry this (spelled out in `DESIGN.md`,
/// proptested in `tests/search_equivalence.rs`):
///
/// 1. *Per-block dominance.* If an earlier same-block sibling is at
///    least as fast, at most as energy-hungry, and emits at most as
///    much data for every input size (comparable transforms only),
///    substituting it into any configuration that uses the dominated
///    binding yields an earlier-enumerated configuration at least as
///    good on all three objectives under every link — so the dominated
///    binding appears in no Pareto frontier and displaces no first-seen
///    winner. It can be dropped before the product is ever formed.
/// 2. *Earliest-witness frontier.* A configuration weakly dominated on
///    (compute, energy, upload key) by an earlier-enumerated one can
///    never be the first strict maximum of
///    `total = min(compute, upload_fps)` for any link, because
///    `upload_fps` is monotone non-increasing in the upload key.
/// 3. *Prefix bounds.* In a regular space (positive finite sizes and
///    transforms) compute, energy, and upload through a cut are
///    monotone in each binding choice, so an optimistic bound for a
///    subtree that is still covered by an already-kept (earlier) point
///    proves every leaf of that subtree dominated.
///
/// Spaces that are not *regular* — non-positive or non-finite frame
/// sizes, scale factors, or fixed outputs — disable pre-pruning,
/// subtree bounds, and the frontier-based Pareto path (degenerate
/// uploads saturate to zero FPS, breaking the monotonicity those rules
/// lean on); winner search stays pruned and exact via the upload-key
/// ordering, and `pareto_frontier` falls back to the exhaustive path.
#[derive(Debug, Clone)]
pub struct SearchPlan<'a> {
    space: &'a PipelineSpace,
    regular: bool,
    live: Vec<Vec<usize>>,
    bindings_pruned: u64,
    frontier: OnceCell<IncrementalSearch>,
}

impl<'a> SearchPlan<'a> {
    /// Builds a plan over `space`, running per-block dominance
    /// pre-pruning up front. The frontier itself is computed lazily on
    /// first use and memoized.
    pub fn new(space: &'a PipelineSpace) -> Self {
        let regular = space_is_regular(space);
        let mut live = Vec::with_capacity(space.len());
        let mut bindings_pruned = 0u64;
        for block in space.blocks() {
            let bindings = block.bindings();
            let mut keep: Vec<usize> = Vec::with_capacity(bindings.len());
            for (j, candidate) in bindings.iter().enumerate() {
                let dominated = regular
                    && keep
                        .iter()
                        .any(|&i| binding_dominates(block, &bindings[i], candidate));
                if dominated {
                    bindings_pruned += 1;
                } else {
                    keep.push(j);
                }
            }
            live.push(keep);
        }
        Self {
            space,
            regular,
            live,
            bindings_pruned,
            frontier: OnceCell::new(),
        }
    }

    /// `true` when the space admits the monotone pruning rules (see the
    /// type docs); pruning is disabled wholesale otherwise.
    pub fn is_regular(&self) -> bool {
        self.regular
    }

    /// The binding indices of `block` that survived dominance
    /// pre-pruning, ascending. Index 0 always survives (it has no
    /// earlier sibling), so canonical representatives stay enumerable.
    pub fn live_bindings(&self, block: usize) -> &[usize] {
        &self.live[block]
    }

    /// The memoized link-independent frontier, built on first call.
    /// Clone it to keep re-ranking after the plan (and its borrow of the
    /// space) is gone.
    pub fn frontier(&self) -> &IncrementalSearch {
        self.frontier.get_or_init(|| self.build_frontier())
    }

    /// Node-count accounting of the (possibly memoized) frontier build.
    pub fn stats(&self) -> SearchStats {
        self.frontier().stats
    }

    /// The exhaustive-equivalent best configuration over `link`, from
    /// the pruned frontier.
    pub fn best(&self, link: &Link) -> Option<ConfigAnalysis> {
        self.frontier()
            .best(link)
            .map(|point| self.space.evaluate(&point.config, link))
    }

    /// The exhaustive-equivalent Pareto frontier over `link`. Regular
    /// spaces re-rank the pruned frontier; others fall back to
    /// [`PipelineSpace::pareto_frontier`].
    pub fn pareto_frontier(&self, link: &Link) -> Vec<ConfigAnalysis> {
        if !self.regular {
            return self.space.pareto_frontier(link);
        }
        pareto_frontier(
            self.frontier()
                .points
                .iter()
                .map(|point| self.space.evaluate(&point.config, link))
                .collect(),
        )
    }

    fn build_frontier(&self) -> IncrementalSearch {
        let n = self.space.len();
        let source = self.space.source();
        // Per-block live-binding cost tables (original index, effective
        // throughput / energy / transform), plus per-block optimistic
        // bounds for the prefix-bound test.
        let mut costs: Vec<Vec<(usize, Fps, Joules, DataTransform)>> = Vec::with_capacity(n);
        for (block, live) in self.space.blocks().iter().zip(&self.live) {
            costs.push(
                live.iter()
                    .map(|&j| {
                        let binding = &block.bindings()[j];
                        let transform = binding.output().unwrap_or(block.spec().transform());
                        (
                            j,
                            binding.throughput(),
                            binding.energy_per_frame(),
                            transform,
                        )
                    })
                    .collect(),
            );
        }
        let max_tput: Vec<Fps> = costs
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(_, t, _, _)| t)
                    .fold(Fps::new(f64::NEG_INFINITY), Fps::max)
            })
            .collect();
        let min_energy: Vec<Joules> = costs
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(_, _, e, _)| e)
                    .fold(Joules::new(f64::INFINITY), Joules::min)
            })
            .collect();
        let mut builder = FrontierBuilder {
            costs: &costs,
            max_tput: &max_tput,
            min_energy: &min_energy,
            regular: self.regular,
            points: Vec::new(),
            bindings: vec![0usize; n],
            stats: SearchStats {
                exhaustive: saturating_u64(self.space.distinct_cardinality()),
                evaluated: 0,
                bindings_pruned: self.bindings_pruned,
                subtrees_pruned: 0,
            },
        };
        for cut in 0..=n {
            builder.descend(
                cut,
                0,
                source.max_fps(),
                source.capture_energy(),
                source.frame_size(),
            );
        }
        IncrementalSearch {
            space_digest: space_digest(self.space),
            points: builder.points,
            stats: builder.stats,
        }
    }
}

/// Working state of one cut-major frontier descent.
struct FrontierBuilder<'b> {
    costs: &'b [Vec<(usize, Fps, Joules, DataTransform)>],
    max_tput: &'b [Fps],
    min_energy: &'b [Joules],
    regular: bool,
    points: Vec<FrontierPoint>,
    bindings: Vec<usize>,
    stats: SearchStats,
}

impl FrontierBuilder<'_> {
    /// DFS over binding choices for blocks `depth..cut`, visiting
    /// leaves in exact enumeration order and carrying the prefix
    /// objectives with the same fold operations (and order) as
    /// `Pipeline::compute_fps_through` / `energy_per_frame_through` /
    /// `data_after` — leaf objectives are bit-identical to
    /// [`PipelineSpace::evaluate`].
    fn descend(&mut self, cut: usize, depth: usize, fps: Fps, energy: Joules, size: Bytes) {
        if depth == cut {
            self.stats.evaluated += 1;
            let key = upload_key_of(size);
            let dominated = self
                .points
                .iter()
                .any(|p| p.covers(fps.fps(), energy.joules(), key));
            if !dominated {
                self.points.push(FrontierPoint {
                    config: Configuration::new(self.bindings.clone(), cut),
                    compute: fps,
                    energy,
                    upload: size,
                });
            }
            return;
        }
        if self.regular
            && !self.points.is_empty()
            && self.subtree_covered(cut, depth, fps, energy, size)
        {
            self.stats.subtrees_pruned += 1;
            return;
        }
        let costs = self.costs;
        for &(j, throughput, frame_energy, transform) in &costs[depth] {
            self.bindings[depth] = j;
            self.descend(
                cut,
                depth + 1,
                fps.min(throughput),
                energy + frame_energy,
                transform.apply(size),
            );
        }
        self.bindings[depth] = 0;
    }

    /// `true` when an already-kept (hence earlier-enumerated) point
    /// weakly dominates the most optimistic completion of this prefix:
    /// compute bounded above by each remaining block's best live
    /// throughput, energy bounded below by each block's cheapest live
    /// binding (folded in block order — f64 addition is monotone in
    /// each argument, so the fold is a true lower bound), and upload
    /// bounded below by propagating each block's smallest live
    /// transform.
    fn subtree_covered(
        &self,
        cut: usize,
        depth: usize,
        fps: Fps,
        energy: Joules,
        size: Bytes,
    ) -> bool {
        let mut ub_compute = fps;
        let mut lb_energy = energy;
        let mut lb_size = size;
        for k in depth..cut {
            ub_compute = ub_compute.min(self.max_tput[k]);
            lb_energy += self.min_energy[k];
            lb_size = self.costs[k]
                .iter()
                .map(|&(_, _, _, t)| t.apply(lb_size))
                .fold(Bytes::new(f64::INFINITY), Bytes::min);
        }
        // Any actual completion uploads at least lb_size bytes; a
        // non-positive propagated bound collapses to key 0.0, which is
        // below every real key and stays sound.
        let lb_bytes = lb_size.bytes();
        let lb_key = if lb_bytes > 0.0 && lb_bytes.is_finite() {
            lb_bytes
        } else {
            0.0
        };
        self.points
            .iter()
            .any(|p| p.covers(ub_compute.fps(), lb_energy.joules(), lb_key))
    }
}

/// `true` when same-block binding `a` weakly dominates `b`: at least
/// as fast, at most as much energy, and an effective output transform
/// emitting at most as much data for every input size.
fn binding_dominates(block: &BlockSpace, a: &Binding, b: &Binding) -> bool {
    let effective = |x: &Binding| x.output().unwrap_or(block.spec().transform());
    a.throughput().fps() >= b.throughput().fps()
        && a.energy_per_frame().joules() <= b.energy_per_frame().joules()
        && transform_le(effective(a), effective(b))
}

/// Pointwise `a(x) <= b(x)` for all sizes `x >= 0`, decided
/// conservatively: scales (with `Identity` read as `Scale(1.0)`)
/// compare by factor, fixed outputs by size, and cross-kind pairs are
/// incomparable — a scale beats a fixed output on small inputs and
/// loses on large ones — so the answer is `false`.
fn transform_le(a: DataTransform, b: DataTransform) -> bool {
    match (a, b) {
        (DataTransform::Fixed(x), DataTransform::Fixed(y)) => x.bytes() <= y.bytes(),
        (DataTransform::Fixed(_), _) | (_, DataTransform::Fixed(_)) => false,
        (a, b) => scale_factor(a) <= scale_factor(b),
    }
}

fn scale_factor(transform: DataTransform) -> f64 {
    match transform {
        DataTransform::Scale(factor) => factor,
        DataTransform::Identity => 1.0,
        // Unreachable from transform_le; NaN makes any comparison that
        // does get here answer "incomparable".
        DataTransform::Fixed(_) => f64::NAN,
    }
}

/// A space is *regular* when every size the search manipulates stays
/// positive and finite: the source frame and every effective transform
/// (positive finite scales or fixed outputs). Regularity is what makes
/// compute/energy/upload monotone under [`SearchPlan`]'s pruning rules.
fn space_is_regular(space: &PipelineSpace) -> bool {
    let positive = |v: f64| v > 0.0 && v.is_finite();
    let transform_ok = |t: DataTransform| match t {
        DataTransform::Identity => true,
        DataTransform::Scale(factor) => positive(factor),
        DataTransform::Fixed(size) => positive(size.bytes()),
    };
    positive(space.source().frame_size().bytes())
        && space.blocks().iter().all(|block| {
            block
                .bindings()
                .iter()
                .all(|b| transform_ok(b.output().unwrap_or(block.spec().transform())))
        })
}

fn saturating_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// A committed link-independent frontier, re-ranked per link.
///
/// The points are every configuration of the searched set *not* weakly
/// dominated, on the three link-independent objectives (compute FPS
/// up, in-camera energy down, upload down), by an earlier-enumerated
/// one — kept in enumeration order. A link enters the search objective
/// only through the upload term (`total = compute.min(link.upload_fps(upload))`,
/// monotone non-increasing in the upload ordering), so for *every* link
/// the frontier contains the from-scratch search's first-seen winner,
/// and [`IncrementalSearch::best`] reproduces it exactly (bit-equal;
/// proptested in `tests/search_equivalence.rs`).
///
/// The search owns its data — configurations plus their precomputed
/// objectives — so long-lived controllers (the fleet simulator's
/// per-profile tables, `vr::degrade`'s adaptive-cut policy) re-rank on
/// every goodput shift without re-enumerating the space or holding a
/// borrow of it. Build one over a whole space by cloning
/// [`SearchPlan::frontier`], or over committed hardware with
/// [`IncrementalSearch::over_held_cuts`].
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalSearch {
    space_digest: u64,
    points: Vec<FrontierPoint>,
    stats: SearchStats,
}

impl IncrementalSearch {
    /// Commits the *held-cut chain* of a committed binding vector: the
    /// `len + 1` canonical cut configurations with bindings held at
    /// `committed` (the hardware is already built; only the offload
    /// point can move at runtime), witness-filtered in cut order. This
    /// is the frontier online cut re-selection re-ranks, typically
    /// under [`Link::degraded`] with the *observed* goodput; its winner
    /// is the first strict maximum over the held cuts, the earliest cut
    /// on ties.
    ///
    /// # Panics
    ///
    /// Panics if `committed` does not have one binding index per block,
    /// or any index is out of range for its block.
    pub fn over_held_cuts(space: &PipelineSpace, committed: &[usize]) -> Self {
        assert_eq!(
            committed.len(),
            space.len(),
            "committed has {} binding choices for a {}-block space",
            committed.len(),
            space.len()
        );
        // One realization serves every cut: the `*_through(cut)` /
        // `data_after(cut)` accessors read only stages before the cut,
        // so each chain point's objectives are bit-identical to
        // evaluating its canonicalized configuration from scratch.
        let pipeline = space.realize(&Configuration::new(committed.to_vec(), space.len()));
        let chain = space.len() as u64 + 1;
        let mut points: Vec<FrontierPoint> = Vec::with_capacity(space.len() + 1);
        for cut in 0..=space.len() {
            let compute = pipeline.compute_fps_through(cut);
            let energy = pipeline.energy_per_frame_through(cut);
            let upload = pipeline.data_after(cut);
            let key = upload_key_of(upload);
            if points
                .iter()
                .any(|p| p.covers(compute.fps(), energy.joules(), key))
            {
                continue;
            }
            let mut bindings = committed.to_vec();
            bindings[cut..].fill(0);
            points.push(FrontierPoint {
                config: Configuration::new(bindings, cut),
                compute,
                energy,
                upload,
            });
        }
        Self {
            space_digest: space_digest(space),
            points,
            stats: SearchStats {
                exhaustive: chain,
                evaluated: chain,
                bindings_pruned: 0,
                subtrees_pruned: 0,
            },
        }
    }

    /// The surviving points, in enumeration order.
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Node-count accounting of the construction.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Number of surviving points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no point survived — never for a frontier built from
    /// a real space, whose cut-0 configuration has no earlier point to
    /// dominate it.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Digest of the space this frontier was computed from (see
    /// [`space_digest`]).
    pub fn space_digest(&self) -> u64 {
        self.space_digest
    }

    /// Re-ranks the committed frontier under `link`: the point with the
    /// highest end-to-end rate by [`first_best`] — the same winner a
    /// from-scratch search over the committed set returns.
    pub fn best(&self, link: &Link) -> Option<&FrontierPoint> {
        first_best(&self.points, |point| point.total(link))
    }

    /// The winner's full [`ConfigAnalysis`], resolved against the space
    /// the frontier was committed from.
    ///
    /// # Panics
    ///
    /// Panics if `space` is not the space this frontier was committed
    /// from (checked via [`space_digest`]).
    pub fn best_analysis(&self, space: &PipelineSpace, link: &Link) -> Option<ConfigAnalysis> {
        assert_eq!(
            space_digest(space),
            self.space_digest,
            "IncrementalSearch frontier was committed from a different space"
        );
        self.best(link)
            .map(|point| space.evaluate(&point.config, link))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::BytesPerSec;

    /// Sensor at 100 FPS / 1000 B; B1 identity on CPU or a 2x-coarser
    /// ASIC; B2 reduces 4x on CPU or GPU.
    fn sample_space() -> PipelineSpace {
        PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
            .with_block(BlockSpace::new(
                BlockSpec::core("b1", DataTransform::Identity),
                vec![
                    Binding::new(Backend::Cpu, Fps::new(50.0))
                        .with_energy_per_frame(Joules::from_micro(4.0)),
                    Binding::new(Backend::Asic, Fps::new(400.0))
                        .with_energy_per_frame(Joules::from_micro(1.0))
                        .with_output(DataTransform::Scale(0.5)),
                ],
            ))
            .with_block(BlockSpace::new(
                BlockSpec::core("b2", DataTransform::Scale(0.25)),
                vec![
                    Binding::new(Backend::Cpu, Fps::new(20.0))
                        .with_energy_per_frame(Joules::from_micro(8.0)),
                    Binding::new(Backend::Gpu, Fps::new(120.0))
                        .with_energy_per_frame(Joules::from_micro(16.0)),
                ],
            ))
    }

    fn link() -> Link {
        // raw sensor frame uploads at 10 FPS
        Link::new("l", BytesPerSec::new(10_000.0), 1.0)
    }

    #[test]
    fn cardinalities() {
        let space = sample_space();
        assert_eq!(space.cardinality(), 2 * 2 * 3);
        // cut 0: 1, cut 1: 2, cut 2: 4
        assert_eq!(space.distinct_cardinality(), 7);
        assert_eq!(space.configurations().count(), 12);
        assert_eq!(space.distinct_configurations().count(), 7);
        let empty = PipelineSpace::new(Source::new("s", Bytes::new(1.0), Fps::new(1.0)));
        assert_eq!(empty.cardinality(), 1);
        assert_eq!(empty.distinct_cardinality(), 1);
        assert_eq!(empty.configurations().count(), 1);
    }

    #[test]
    fn enumeration_is_cut_major_and_odometer_ordered() {
        let space = sample_space();
        let configs: Vec<Configuration> = space.configurations().collect();
        assert_eq!(configs[0], Configuration::new(vec![0, 0], 0));
        assert_eq!(configs[1], Configuration::new(vec![0, 1], 0));
        assert_eq!(configs[2], Configuration::new(vec![1, 0], 0));
        assert_eq!(configs[3], Configuration::new(vec![1, 1], 0));
        assert_eq!(configs[4], Configuration::new(vec![0, 0], 1));
        assert_eq!(configs[11], Configuration::new(vec![1, 1], 2));
        // cuts never decrease
        for pair in configs.windows(2) {
            assert!(pair[0].cut() <= pair[1].cut());
        }
    }

    #[test]
    fn realize_applies_bindings_and_overrides() {
        let space = sample_space();
        let p = space.realize(&Configuration::new(vec![1, 0], 2));
        assert_eq!(p.stages()[0].backend(), Backend::Asic);
        // the ASIC binding's output override halves the data
        assert_eq!(p.data_after(1), Bytes::new(500.0));
        assert_eq!(p.data_after(2), Bytes::new(125.0));
        let q = space.realize(&Configuration::new(vec![0, 0], 2));
        assert_eq!(q.data_after(1), Bytes::new(1000.0));
    }

    #[test]
    fn evaluate_matches_hand_computation() {
        let space = sample_space();
        let a = space.evaluate(&Configuration::new(vec![0, 1], 2), &link());
        // compute: min(100 sensor, 50 b1-cpu, 120 b2-gpu)
        assert_eq!(a.compute, Fps::new(50.0));
        // upload: 1000 * 1.0 * 0.25 = 250 B -> 40 FPS
        assert!((a.communication.fps() - 40.0).abs() < 1e-9);
        assert_eq!(a.total(), Fps::new(40.0));
        // energy: 4 uJ (b1 cpu) + 16 uJ (b2 gpu)
        assert!((a.energy.micros() - 20.0).abs() < 1e-12);
        assert_eq!(a.constraint(), Constraint::Communication);
        assert_eq!(a.backends(&space), vec![Backend::Cpu, Backend::Gpu]);
    }

    #[test]
    fn best_resolves_ties_to_earliest() {
        // two bindings with identical costs: cut 1 ties with itself
        // across binding choices, and the identity block makes cut 0 and
        // cut 1 upload the same bytes
        let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
            .with_block(BlockSpace::new(
                BlockSpec::core("b", DataTransform::Identity),
                vec![
                    Binding::new(Backend::Cpu, Fps::new(200.0)),
                    Binding::new(Backend::Gpu, Fps::new(200.0)),
                ],
            ));
        let best = space.best(&link()).unwrap();
        // cut 0 and cut 1 both total 10 FPS; the earliest (cut 0) wins
        assert_eq!(best.config.cut(), 0);
        assert_eq!(best.config.bindings(), &[0]);
    }

    #[test]
    fn filtered_explore_prunes() {
        let space = sample_space();
        let all: Vec<_> = space.explore(&link()).collect();
        assert_eq!(all.len(), 7);
        let gpu_only: Vec<_> = space
            .explore(&link())
            .filter(|a| a.config.cut() < 2 || a.config.bindings()[1] == 1)
            .collect();
        assert_eq!(gpu_only.len(), 5);
    }

    #[test]
    fn first_best_keeps_the_earliest_strict_maximum() {
        let totals = [3.0, 5.0, 5.0, 4.0, 5.0];
        let best = first_best(totals.iter().enumerate(), |&(_, &t)| Fps::new(t));
        assert_eq!(best.map(|(i, _)| i), Some(1));
        assert_eq!(first_best(Vec::<f64>::new(), |&t| Fps::new(t)), None);
    }

    #[test]
    fn pareto_frontier_is_nondominated_and_complete() {
        let space = sample_space();
        let frontier = space.pareto_frontier(&link());
        assert!(!frontier.is_empty());
        for (i, a) in frontier.iter().enumerate() {
            for (j, b) in frontier.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "{} dominates {}", a.label, b.label);
                }
            }
        }
        // every non-frontier configuration is dominated by (or equal to)
        // some frontier member
        for analysis in space.explore(&link()) {
            let on_frontier = frontier.iter().any(|f| f.config == analysis.config);
            if !on_frontier {
                assert!(
                    frontier.iter().any(|f| f.dominates(&analysis)
                        || (f.total() == analysis.total()
                            && f.energy == analysis.energy
                            && f.upload == analysis.upload)),
                    "{} unaccounted for",
                    analysis.label
                );
            }
        }
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let space = sample_space();
        let a = space.evaluate(&Configuration::new(vec![0, 0], 0), &link());
        assert!(!a.dominates(&a.clone()));
    }

    fn held_best(space: &PipelineSpace, link: &Link, committed: &[usize]) -> ConfigAnalysis {
        IncrementalSearch::over_held_cuts(space, committed)
            .best_analysis(space, link)
            .unwrap()
    }

    #[test]
    fn held_cuts_match_filtered_best() {
        let space = sample_space();
        let link = link();
        // hold both blocks at binding 1 (ASIC b1, GPU b2): the held-cut
        // winner must agree with the winner of the distinct space
        // filtered to in-camera bindings pinned at the committed indices
        let held = held_best(&space, &link, &[1, 1]);
        let filtered = first_best(
            space.explore(&link).filter(|a| {
                let c = &a.config;
                c.bindings().iter().take(c.cut()).all(|&b| b == 1)
            }),
            ConfigAnalysis::total,
        )
        .unwrap();
        assert_eq!(held.config, filtered.config);
        assert_eq!(held.label, filtered.label);
        assert_eq!(held.compute, filtered.compute);
    }

    #[test]
    fn held_cuts_canonicalize_and_break_ties_early() {
        // identical bindings at every cut: all cuts tie on an identity
        // block, so the earliest cut must win and the result must be
        // canonical (bindings past the cut reset to 0)
        let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
            .with_block(BlockSpace::new(
                BlockSpec::core("b", DataTransform::Identity),
                vec![
                    Binding::new(Backend::Cpu, Fps::new(200.0)),
                    Binding::new(Backend::Gpu, Fps::new(200.0)),
                ],
            ));
        let held = held_best(&space, &link(), &[1]);
        assert_eq!(held.config.cut(), 0);
        assert_eq!(held.config.bindings(), &[0], "canonical past the cut");
        assert!(held.config.is_canonical());
    }

    #[test]
    fn held_cuts_move_the_cut_with_link_quality() {
        let space = sample_space();
        // on the nominal link the reducing b2 makes a deep cut pay; on a
        // heavily degraded link the comparison shifts, but the chosen
        // analysis is always the max-total one among the held cuts
        for goodput in [1.0, 0.25, 0.01] {
            let degraded = link().degraded(goodput);
            let held = held_best(&space, &degraded, &[0, 0]);
            for cut in 0..=2usize {
                let mut bindings = vec![0, 0];
                bindings[cut..].fill(0);
                let candidate = space.evaluate(&Configuration::new(bindings, cut), &degraded);
                assert!(held.total().fps() >= candidate.total().fps());
            }
        }
    }

    #[test]
    #[should_panic(expected = "committed has")]
    fn held_cuts_shape_mismatch_panics() {
        let space = sample_space();
        let _ = IncrementalSearch::over_held_cuts(&space, &[0]);
    }

    #[test]
    #[should_panic(expected = "binding choices")]
    fn shape_mismatch_panics() {
        let space = sample_space();
        let _ = space.realize(&Configuration::new(vec![0], 1));
    }

    #[test]
    #[should_panic(expected = "at least one candidate binding")]
    fn empty_bindings_panic() {
        let _ = BlockSpace::new(BlockSpec::core("b", DataTransform::Identity), vec![]);
    }
}
