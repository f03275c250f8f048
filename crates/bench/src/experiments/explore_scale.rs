//! `explore-scale` — the pruned search engine on the widened space.
//!
//! The paper's central artifact is a search over compute-vs-communicate
//! configurations; this experiment scales it. The widened raw-imaging
//! space ([`incam_imaging::stages`]: demosaic / denoise / tone-map /
//! key-frame dual-stream / feature / verdict over a 1080p Bayer source)
//! has 1413 distinct configurations — and the branch-and-bound
//! [`SearchPlan`] visits a small fraction of them while returning, by
//! construction and by proptest, exactly the winners and Pareto
//! frontier exhaustive enumeration would.
//!
//! Reported here, deterministically:
//!
//! 1. the space's shape and which quality tiers dominance pre-pruning
//!    removes (the Buckler et al. observation, discovered by the
//!    search rather than asserted);
//! 2. exhaustive-vs-pruned node counts and the reduction factor
//!    (≥ 10× is an acceptance criterion, enforced here);
//! 3. winner agreement between the pruned and exhaustive paths across
//!    the repo's whole link range (backscatter → 25 GbE);
//! 4. link-only incremental re-search ([`IncrementalSearch`]) agreeing
//!    with from-scratch search under degraded goodput;
//! 5. the widened space's Pareto frontier on a WiFi-class uplink —
//!    the NeuriCam-style dual-stream points are the new extreme
//!    early-reduction entries.

use incam_core::explore::{IncrementalSearch, SearchPlan};
use incam_core::link::Link;
use incam_core::report::{sig3, Table};
use incam_core::units::BytesPerSec;
use incam_imaging::stages::widened_space;

/// The minimum exhaustive-to-pruned node-count reduction this
/// experiment promises (the ISSUE's acceptance floor).
pub const MIN_REDUCTION: f64 = 10.0;

/// Uplinks swept for winner agreement, spanning the repo's range.
fn link_range() -> Vec<Link> {
    vec![
        Link::new(
            "backscatter-256k",
            BytesPerSec::from_bits_per_sec(256e3),
            1.0,
        ),
        Link::new("lpwan-1M", BytesPerSec::from_bits_per_sec(1e6), 1.0),
        Link::new("wifi-5M", BytesPerSec::from_bits_per_sec(5e6), 1.0),
        Link::new("wifi-50M", BytesPerSec::from_bits_per_sec(50e6), 1.0),
        Link::new("ethernet-1G", BytesPerSec::from_bits_per_sec(1e9), 1.0),
        Link::new("ethernet-25G", BytesPerSec::from_bits_per_sec(25e9), 1.0),
    ]
}

/// Renders the full explore-scale study behind `results/explore-scale.txt`.
///
/// The study is pure arithmetic over the widened space — no workload
/// replay — so `seed` and `quick` only keep the repro CLI uniform; the
/// output is identical under both.
///
/// # Panics
///
/// Panics if the pruned search falls short of [`MIN_REDUCTION`] or any
/// pruned winner disagrees with the exhaustive oracle — either would
/// mean the engine regressed, and the experiment fails loudly rather
/// than record it.
pub fn run(_seed: u64, _quick: bool) -> String {
    let mut out = String::new();
    let space = widened_space();
    let plan = SearchPlan::new(&space);

    // 1. the widened space's shape and what pre-pruning removed
    out.push_str("== widened raw-imaging space ==\n");
    let mut shape = Table::new(&["block", "kind", "bindings", "live", "pruned"]);
    for (index, block) in space.blocks().iter().enumerate() {
        let live = plan.live_bindings(index).len();
        shape.row_owned(vec![
            block.spec().name().to_string(),
            if block.spec().kind().is_optional() {
                "optional".to_string()
            } else {
                "core".to_string()
            },
            block.bindings().len().to_string(),
            live.to_string(),
            (block.bindings().len() - live).to_string(),
        ]);
    }
    out.push_str(&shape.render());
    out.push('\n');

    // 2. node counts
    let stats = plan.stats();
    assert!(
        stats.reduction() >= MIN_REDUCTION,
        "pruned search reduction {:.1}x fell below the {MIN_REDUCTION}x floor",
        stats.reduction()
    );
    out.push_str("== node counts: exhaustive vs pruned ==\n");
    out.push_str(&format!(
        "distinct configurations (exhaustive): {}\n",
        stats.exhaustive
    ));
    out.push_str(&format!(
        "configurations evaluated (pruned):    {}\n",
        stats.evaluated
    ));
    out.push_str(&format!(
        "bindings pre-pruned by dominance:     {}\n",
        stats.bindings_pruned
    ));
    out.push_str(&format!(
        "subtrees cut by prefix bounds:        {}\n",
        stats.subtrees_pruned
    ));
    out.push_str(&format!("reduction: {}x\n\n", sig3(stats.reduction())));

    // 3. winner agreement across the link range
    out.push_str("== winners: pruned search vs exhaustive oracle ==\n");
    let mut winners = Table::new(&["link", "winner", "total", "energy/frame", "agree"]);
    for link in link_range() {
        let pruned = plan.best(&link);
        let exhaustive = space.best(&link);
        assert_eq!(pruned, exhaustive, "winner diverged on {}", link.name());
        let analysis = pruned.expect("the widened space is never empty"); // incam-lint: allow(fallible-unwrap) — cut 0 always exists, so best() is Some
        winners.row_owned(vec![
            link.name().to_string(),
            analysis.label.clone(),
            format!("{} fps", sig3(analysis.total().fps())),
            analysis.energy.human(),
            "yes".to_string(),
        ]);
    }
    out.push_str(&winners.render());
    out.push('\n');

    // 4. incremental link-only re-search under degraded goodput
    out.push_str("== incremental re-search under degraded goodput ==\n");
    let nominal = Link::new("wifi-5M", BytesPerSec::from_bits_per_sec(5e6), 1.0);
    let incremental: &IncrementalSearch = plan.frontier();
    let mut degrade = Table::new(&["goodput", "winner", "total", "matches from-scratch"]);
    for percent in [100u32, 50, 20, 5, 1] {
        let degraded = nominal.degraded(f64::from(percent) / 100.0);
        let re_ranked = incremental.best_analysis(&space, &degraded);
        let scratch = space.best(&degraded);
        assert_eq!(re_ranked, scratch, "re-rank diverged at {percent}%");
        let analysis = re_ranked.expect("the widened space is never empty"); // incam-lint: allow(fallible-unwrap) — cut 0 always exists, so best() is Some
        degrade.row_owned(vec![
            format!("{percent}%"),
            analysis.label.clone(),
            format!("{} fps", sig3(analysis.total().fps())),
            "yes".to_string(),
        ]);
    }
    out.push_str(&degrade.render());
    out.push('\n');

    // 5. the new Pareto points on a WiFi-class uplink
    out.push_str("== pareto frontier on the 5 Mb/s uplink ==\n");
    let mut frontier = Table::new(&["configuration", "compute", "comm", "upload", "energy/frame"]);
    for analysis in plan.pareto_frontier(&nominal) {
        frontier.row_owned(vec![
            analysis.label.clone(),
            format!("{} fps", sig3(analysis.compute.fps())),
            format!("{} fps", sig3(analysis.communication.fps())),
            analysis.upload.human(),
            analysis.energy.human(),
        ]);
    }
    out.push_str(&frontier.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_and_complete() {
        let a = run(2017, false);
        let b = run(7, true);
        assert_eq!(a, b, "seed/quick must not affect the report");
        for section in [
            "widened raw-imaging space",
            "node counts",
            "winners",
            "incremental re-search",
            "pareto frontier",
        ] {
            assert!(a.contains(section), "missing section '{section}'");
        }
        assert!(a.contains("reduction:"));
    }
}
