//! Exhaustive-vs-pruned search wall clock on the widened raw-imaging
//! space (1413 distinct configurations; see `incam_imaging::stages`).
//!
//! Methodology: three points per concern. `exhaustive_best` is the
//! pre-engine baseline — a full `PipelineSpace::best` enumeration.
//! `plan_build_and_best` pays the whole engine path from cold: per-block
//! dominance pre-pruning, the branch-and-bound frontier build, then the
//! winner scan. `incremental_rerank` is the link-only re-search the
//! fleet's per-camera re-selection leans on: the frontier is already
//! committed and only the re-rank under a degraded link is measured.
//! The node-count reduction itself is pinned by
//! `repro --experiment explore-scale`; this bench guards the *time*
//! story those counts promise. Results land in `BENCH_explore.json`
//! (see `INCAM_BENCH_DIR`).

use incam_core::explore::SearchPlan;
use incam_core::link::Link;
use incam_core::units::BytesPerSec;
use incam_imaging::stages::widened_space;
use incam_rng::bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn wifi() -> Link {
    Link::new("wifi", BytesPerSec::from_bits_per_sec(5e6), 1.0)
}

/// Exhaustive enumeration vs the pruned engine vs incremental re-rank.
fn bench_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_scale");
    group.sample_size(10);
    let space = widened_space();
    let link = wifi();

    group.bench_function("exhaustive_best", |b| {
        b.iter(|| black_box(&space).best(black_box(&link)))
    });

    group.bench_function("plan_build_and_best", |b| {
        b.iter(|| {
            let plan = SearchPlan::new(black_box(&space));
            plan.best(black_box(&link))
        })
    });

    let committed = SearchPlan::new(&space).frontier().clone();
    group.bench_function("incremental_rerank", |b| {
        b.iter(|| {
            black_box(&committed)
                .best(black_box(&link.degraded(0.2)))
                .cloned()
        })
    });

    group.finish();
}

criterion_group!(explore, bench_explore);
criterion_main!(explore);
