//! The equivalence oracle for the layered search engine.
//!
//! Every pruning layer in `incam_core::explore` claims to be
//! behavior-preserving: `SearchPlan` (per-block dominance pre-pruning +
//! prefix-bound subtree pruning + memoized frontier) and
//! `IncrementalSearch` (link-only re-ranking of a committed frontier)
//! must return results *bit-identical* to the exhaustive enumeration.
//! These properties generate random spaces — deliberately discretized
//! so ties and dominated bindings are common, the regimes where pruning
//! bugs hide — and compare against the unpruned reference paths.

use incam_core::block::{Backend, BlockSpec, DataTransform};
use incam_core::explore::{
    pareto_frontier, Binding, BlockSpace, ConfigAnalysis, Configuration, IncrementalSearch,
    PipelineSpace, SearchPlan, PARETO_SWEEP_THRESHOLD,
};
use incam_core::link::Link;
use incam_core::pipeline::Source;
use incam_core::units::{Bytes, BytesPerSec, Fps, Joules};
use incam_rng::prelude::*;

/// One generated binding: discretized throughput (10–50 FPS in steps of
/// 10), energy (0–4 µJ in steps of 1), and an output override drawn
/// from a small palette. Discretization makes exact ties and dominated
/// siblings common.
type BindingGen = (u32, u32, u32);

/// One generated block: a spec-transform selector plus 1–4 bindings.
type BlockGen = (u32, Vec<BindingGen>);

fn make_binding(index: usize, (t, e, o): BindingGen, degenerate: bool) -> Binding {
    let backend = if index.is_multiple_of(2) {
        Backend::Asic
    } else {
        Backend::Cpu
    };
    let mut binding = Binding::new(backend, Fps::new(10.0 * f64::from(t)))
        .with_energy_per_frame(Joules::new(f64::from(e) * 1e-6));
    binding = match o {
        0..=3 => binding, // no override: the block's own transform
        4 => binding.with_output(DataTransform::Scale(0.5)),
        5 => binding.with_output(DataTransform::Scale(0.25)),
        6 => binding.with_output(DataTransform::Fixed(Bytes::new(64.0))),
        7 if degenerate => binding.with_output(DataTransform::Scale(0.0)),
        _ => binding.with_output(DataTransform::Identity),
    };
    binding
}

fn make_space(blocks: &[BlockGen], degenerate: bool) -> PipelineSpace {
    let mut space = PipelineSpace::new(
        Source::new("s", Bytes::new(1000.0), Fps::new(100.0))
            .with_capture_energy(Joules::new(2e-6)),
    );
    for (b, (spec_sel, bindings)) in blocks.iter().enumerate() {
        let transform = match spec_sel {
            0 | 1 => DataTransform::Identity,
            2 => DataTransform::Scale(0.5),
            3 => DataTransform::Scale(0.25),
            4 => DataTransform::Scale(2.0),
            5 if degenerate => DataTransform::Fixed(Bytes::ZERO),
            _ => DataTransform::Fixed(Bytes::new(128.0)),
        };
        space.push(BlockSpace::new(
            BlockSpec::core(format!("b{b}"), transform),
            bindings
                .iter()
                .enumerate()
                .map(|(i, &g)| make_binding(i, g, degenerate))
                .collect(),
        ));
    }
    space
}

fn make_link(rate: u32) -> Link {
    Link::new("l", BytesPerSec::new(10.0 * f64::from(rate)), 1.0)
}

/// The pre-engine held-cut re-selection loop, kept verbatim as the
/// oracle for the held-cut chain: canonicalize each cut, evaluate from
/// scratch, keep the first strict maximum.
fn legacy_held_cut_loop(space: &PipelineSpace, link: &Link, committed: &[usize]) -> ConfigAnalysis {
    let mut best: Option<ConfigAnalysis> = None;
    for cut in 0..=space.len() {
        let mut bindings = committed.to_vec();
        bindings[cut..].fill(0);
        let analysis = space.evaluate(&Configuration::new(bindings, cut), link);
        let better = match &best {
            Some(b) => analysis.total().fps() > b.total().fps(),
            None => true,
        };
        if better {
            best = Some(analysis);
        }
    }
    best.unwrap()
}

fn block_strategy() -> impl Strategy<Value = BlockGen> {
    (
        0u32..6,
        prop::collection::vec((1u32..6, 0u32..5, 0u32..8), 1..5),
    )
}

proptest! {
    /// Pruned winner == exhaustive winner, bit-for-bit, on random
    /// regular spaces under random links — including a second call
    /// answered from the memoized frontier.
    #[test]
    fn plan_best_equals_exhaustive(
        blocks in prop::collection::vec(block_strategy(), 1..5),
        rates in prop::collection::vec(1u32..2000, 1..5),
    ) {
        let space = make_space(&blocks, false);
        let plan = SearchPlan::new(&space);
        for &rate in &rates {
            let link = make_link(rate);
            let exhaustive = space.best(&link);
            prop_assert_eq!(&plan.best(&link), &exhaustive);
            // the memoized frontier answers identically
            prop_assert_eq!(&plan.best(&link), &exhaustive);
        }
        // the pruned descent never evaluates more than the exhaustive count
        let stats = plan.stats();
        prop_assert!(stats.evaluated <= stats.exhaustive);
    }

    /// Pruned Pareto frontier == exhaustive Pareto frontier on random
    /// regular spaces (same members, same order), under several links
    /// answered from one memoized frontier.
    #[test]
    fn plan_pareto_equals_exhaustive(
        blocks in prop::collection::vec(block_strategy(), 1..5),
        rates in prop::collection::vec(1u32..2000, 1..5),
    ) {
        let space = make_space(&blocks, false);
        let plan = SearchPlan::new(&space);
        for &rate in &rates {
            let link = make_link(rate);
            prop_assert_eq!(plan.pareto_frontier(&link), space.pareto_frontier(&link));
        }
    }

    /// Degenerate spaces (zero scales / zero fixed outputs, which
    /// saturate uploads to zero FPS) disable the monotone pruning rules
    /// but must still produce the exact exhaustive winner and frontier.
    #[test]
    fn degenerate_spaces_still_exact(
        blocks in prop::collection::vec(block_strategy(), 1..4),
        rate in 1u32..2000,
    ) {
        let space = make_space(&blocks, true);
        let plan = SearchPlan::new(&space);
        let link = make_link(rate);
        prop_assert_eq!(&plan.best(&link), &space.best(&link));
        prop_assert_eq!(plan.pareto_frontier(&link), space.pareto_frontier(&link));
    }

    /// `IncrementalSearch` under a random sequence of link changes
    /// always equals a from-scratch search on the same space: the
    /// committed whole-space frontier reproduces `best`, and the
    /// held-cut chain reproduces the legacy cut loop, byte-equal.
    #[test]
    fn incremental_equals_from_scratch_under_link_changes(
        blocks in prop::collection::vec(block_strategy(), 1..5),
        committed_raw in prop::collection::vec(0u32..64, 4..5),
        rates in prop::collection::vec(1u32..2000, 1..6),
        degenerate in any::<bool>(),
    ) {
        let space = make_space(&blocks, degenerate);
        let whole = SearchPlan::new(&space).frontier().clone();
        let committed: Vec<usize> = space
            .blocks()
            .iter()
            .zip(committed_raw.iter().cycle())
            .map(|(block, &r)| r as usize % block.bindings().len())
            .collect();
        let held = IncrementalSearch::over_held_cuts(&space, &committed);
        for &rate in &rates {
            let link = make_link(rate);
            prop_assert_eq!(whole.best_analysis(&space, &link), space.best(&link));
            let chain_best = held.best_analysis(&space, &link).unwrap();
            prop_assert_eq!(&chain_best, &legacy_held_cut_loop(&space, &link, &committed));
        }
    }

    /// The sort-then-sweep Pareto path agrees exactly (members and
    /// order) with a reference quadratic scan on inputs large enough to
    /// cross `PARETO_SWEEP_THRESHOLD`.
    #[test]
    fn pareto_sweep_matches_quadratic_reference(
        rows in prop::collection::vec((0u32..8, 0u32..8, 0u32..8), 70..160),
    ) {
        let analyses: Vec<ConfigAnalysis> = rows
            .iter()
            .enumerate()
            .map(|(i, &(f, e, u))| ConfigAnalysis {
                config: Configuration::new(vec![i], 1),
                label: format!("r{i}"),
                compute: Fps::new(f64::from(f)),
                communication: Fps::new(f64::MAX),
                upload: Bytes::new(f64::from(u)),
                energy: Joules::new(f64::from(e) * 1e-6),
            })
            .collect();
        // reference: the pre-engine quadratic scan, verbatim
        let mut reference: Vec<ConfigAnalysis> = Vec::new();
        for candidate in analyses.clone() {
            if reference.iter().any(|kept| {
                kept.dominates(&candidate)
                    || (kept.total() == candidate.total()
                        && kept.energy == candidate.energy
                        && kept.upload == candidate.upload)
            }) {
                continue;
            }
            reference.retain(|kept| !candidate.dominates(kept));
            reference.push(candidate);
        }
        prop_assert_eq!(pareto_frontier(analyses), reference);
    }
}

#[test]
fn cardinalities_saturate_instead_of_overflowing() {
    let mut space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)));
    for b in 0..50 {
        space.push(BlockSpace::new(
            BlockSpec::core(format!("b{b}"), DataTransform::Identity),
            (0..16)
                .map(|_| Binding::new(Backend::Asic, Fps::new(30.0)))
                .collect(),
        ));
    }
    // 16^50 = 2^200 overflows u128; both counts must pin to the max.
    assert_eq!(space.cardinality(), u128::MAX);
    assert_eq!(space.distinct_cardinality(), u128::MAX);
}

#[test]
fn dominated_siblings_are_pre_pruned_and_index_zero_survives() {
    let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
        .with_block(BlockSpace::new(
            BlockSpec::core("b", DataTransform::Identity),
            vec![
                // 0: fast and cheap — dominates 1 and 2
                Binding::new(Backend::Asic, Fps::new(100.0))
                    .with_energy_per_frame(Joules::new(1e-6)),
                // 1: slower, hungrier, same output — pruned
                Binding::new(Backend::Cpu, Fps::new(10.0)).with_energy_per_frame(Joules::new(5e-6)),
                // 2: exact duplicate of 0 — weakly dominated, pruned
                Binding::new(Backend::Asic, Fps::new(100.0))
                    .with_energy_per_frame(Joules::new(1e-6)),
                // 3: hungrier but emits less — incomparable, survives
                Binding::new(Backend::Asic, Fps::new(100.0))
                    .with_energy_per_frame(Joules::new(2e-6))
                    .with_output(DataTransform::Scale(0.5)),
            ],
        ));
    let plan = SearchPlan::new(&space);
    assert!(plan.is_regular());
    assert_eq!(plan.live_bindings(0), &[0, 3]);
    assert_eq!(plan.stats().bindings_pruned, 2);
}

#[test]
fn frontier_is_memoized_and_digest_tagged() {
    let space = PipelineSpace::new(Source::new("s", Bytes::new(1000.0), Fps::new(100.0)))
        .with_block(BlockSpace::new(
            BlockSpec::core("b", DataTransform::Scale(0.5)),
            vec![
                Binding::new(Backend::Asic, Fps::new(50.0)),
                Binding::new(Backend::Cpu, Fps::new(20.0)),
            ],
        ));
    let plan = SearchPlan::new(&space);
    let first = plan.frontier() as *const _;
    let second = plan.frontier() as *const _;
    assert_eq!(
        first, second,
        "second call must reuse the memoized frontier"
    );
    assert_eq!(
        plan.frontier().space_digest(),
        incam_core::explore::space_digest(&space),
        "the frontier is tagged with its space's digest"
    );
    // a clone re-ranks on its own, after the plan is gone
    let owned = plan.frontier().clone();
    drop(plan);
    let link = make_link(40);
    assert_eq!(owned.best_analysis(&space, &link), space.best(&link));
}

#[test]
fn subtree_pruning_fires_on_deep_uniform_spaces() {
    // Four blocks, each with one clearly-best binding plus distinct
    // non-dominated alternatives (faster-but-hungrier), so pre-pruning
    // keeps several bindings per block and the prefix bounds must do
    // real work.
    let mut space = PipelineSpace::new(Source::new("s", Bytes::new(1_000_000.0), Fps::new(30.0)));
    for b in 0..4 {
        space.push(BlockSpace::new(
            BlockSpec::core(format!("b{b}"), DataTransform::Scale(0.5)),
            vec![
                Binding::new(Backend::Asic, Fps::new(30.0))
                    .with_energy_per_frame(Joules::new(1e-6)),
                Binding::new(Backend::Fpga, Fps::new(60.0))
                    .with_energy_per_frame(Joules::new(4e-6)),
                Binding::new(Backend::Gpu, Fps::new(120.0))
                    .with_energy_per_frame(Joules::new(9e-6)),
            ],
        ));
    }
    let plan = SearchPlan::new(&space);
    let stats = plan.stats();
    assert_eq!(stats.exhaustive, 1 + 3 + 9 + 27 + 81);
    assert!(stats.evaluated < stats.exhaustive, "{stats:?}");
    assert!(stats.subtrees_pruned > 0, "{stats:?}");
    assert!(stats.reduction() > 1.0);
    // and the pruned plan still matches the oracle
    let link = make_link(40);
    assert_eq!(plan.best(&link), space.best(&link));
    assert_eq!(plan.pareto_frontier(&link), space.pareto_frontier(&link));
}

#[test]
fn plan_pareto_past_the_sweep_threshold_equals_exhaustive() {
    // Equal throughputs, and per block an energy rising and an output
    // scale falling with the binding index: no binding dominates a
    // sibling, and the (energy, upload) trade-offs of the deepest cut
    // leave a frontier wide enough for the filter's sort-then-sweep.
    let mut space = PipelineSpace::new(
        Source::new("s", Bytes::new(1_000_000.0), Fps::new(100.0))
            .with_capture_energy(Joules::new(2e-6)),
    );
    for (b, weight) in [1.0, 2.7, 7.3, 19.1].into_iter().enumerate() {
        space.push(BlockSpace::new(
            BlockSpec::core(format!("b{b}"), DataTransform::Identity),
            (0..5)
                .map(|i| {
                    let i = f64::from(i);
                    Binding::new(Backend::Asic, Fps::new(50.0))
                        .with_energy_per_frame(Joules::new(weight * i * 1e-6))
                        .with_output(DataTransform::Scale(1.0 / (1.0 + i)))
                })
                .collect(),
        ));
    }
    let plan = SearchPlan::new(&space);
    assert!(
        plan.frontier().len() > PARETO_SWEEP_THRESHOLD,
        "frontier of {} points",
        plan.frontier().len()
    );
    for rate in [1, 40, 1_000, 100_000, 1_000_000_000] {
        let link = make_link(rate);
        assert_eq!(plan.pareto_frontier(&link), space.pareto_frontier(&link));
        assert_eq!(plan.best(&link), space.best(&link));
    }
}

#[test]
fn incremental_search_rejects_foreign_spaces() {
    let a = make_space(&[(0, vec![(3, 1, 0)])], false);
    let b = make_space(&[(2, vec![(3, 1, 0)])], false);
    let held = IncrementalSearch::over_held_cuts(&a, &[0]);
    let result = std::panic::catch_unwind(|| held.best_analysis(&b, &make_link(10)));
    assert!(result.is_err(), "digest mismatch must panic");
}
