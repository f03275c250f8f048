//! Quickstart: build an in-camera pipeline, analyze every offload cut
//! (a fixed pipeline is the configuration space with one binding per
//! block), find the cut that meets a real-time target, then widen the
//! search to candidate bindings per block.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use incam::core::block::{Backend, BlockSpec, DataTransform};
use incam::core::explore::{pareto_frontier, Binding, BlockSpace, PipelineSpace};
use incam::core::link::Link;
use incam::core::pipeline::{Pipeline, Source, Stage};
use incam::core::report::{sig3, Table};
use incam::core::units::{Bytes, Fps};

fn main() {
    // A camera pipeline in the paper's Fig. 1 shape: the sensor emits
    // 8 MiB frames; an enhancement block expands data 4x; an analysis
    // block reduces it to a compact result.
    let pipeline = Pipeline::new(Source::new("sensor", Bytes::from_mib(8.0), Fps::new(120.0)))
        .then(Stage::new(
            BlockSpec::core("denoise", DataTransform::Identity),
            Backend::Asic,
            Fps::new(240.0),
        ))
        .then(Stage::new(
            BlockSpec::core("enhance", DataTransform::Scale(4.0)),
            Backend::Fpga,
            Fps::new(90.0),
        ))
        .then(Stage::new(
            BlockSpec::core("analyze", DataTransform::Fixed(Bytes::from_kib(64.0))),
            Backend::Fpga,
            Fps::new(45.0),
        ));

    let link = Link::new(
        "uplink",
        incam::core::units::BytesPerSec::from_gbps(2.0),
        0.9,
    );

    println!("Offload analysis over a 2 Gb/s uplink:\n");
    let mut table = Table::new(&[
        "cut",
        "upload/frame",
        "compute FPS",
        "comm FPS",
        "total FPS",
    ]);
    let cuts = PipelineSpace::from(&pipeline);
    for cut in cuts.explore(&link) {
        table.row_owned(vec![
            cut.label.clone(),
            cut.upload.human(),
            sig3(cut.compute.fps()),
            sig3(cut.communication.fps()),
            sig3(cut.total().fps()),
        ]);
    }
    println!("{}", table.render());

    let best = cuts.best(&link).expect("cut 0 always exists");
    println!(
        "best cut: {} at {} FPS ({})",
        best.label,
        sig3(best.total().fps()),
        best.constraint()
    );
    let target = Fps::new(30.0);
    println!(
        "meets a {} FPS real-time target: {}",
        target.fps(),
        if best.meets(target) { "yes" } else { "no" }
    );

    // ---- the same pipeline as a configuration space ---------------------
    // Each block now declares *candidate* bindings — alternative backends
    // with their own throughput — and exploration enumerates every
    // (binding, cut) combination through one engine.
    let space = PipelineSpace::new(Source::new("sensor", Bytes::from_mib(8.0), Fps::new(120.0)))
        .with_block(BlockSpace::new(
            BlockSpec::core("denoise", DataTransform::Identity),
            vec![Binding::new(Backend::Asic, Fps::new(240.0))],
        ))
        .with_block(BlockSpace::new(
            BlockSpec::core("enhance", DataTransform::Scale(4.0)),
            vec![
                Binding::new(Backend::Fpga, Fps::new(90.0)),
                Binding::new(Backend::Gpu, Fps::new(150.0)),
            ],
        ))
        .with_block(BlockSpace::new(
            BlockSpec::core("analyze", DataTransform::Fixed(Bytes::from_kib(64.0))),
            vec![
                Binding::new(Backend::Fpga, Fps::new(45.0)),
                Binding::new(Backend::Cpu, Fps::new(20.0)),
            ],
        ));
    println!(
        "\nConfiguration space: {} full / {} distinct configurations",
        space.cardinality(),
        space.distinct_cardinality()
    );
    let best = space.best(&link).expect("the space is non-empty");
    println!(
        "best configuration: {} at {} FPS",
        best.label,
        sig3(best.total().fps())
    );
    println!("Pareto frontier (total FPS / energy / upload):");
    for a in pareto_frontier(space.explore(&link).collect()) {
        println!(
            "  {:<40} {} FPS, {} up",
            a.label,
            sig3(a.total().fps()),
            a.upload.human()
        );
    }
}
