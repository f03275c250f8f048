//! The repository benchmark driver. Run it through `run.sh` in this
//! directory; README.md documents the workloads and metrics.
//!
//! The driver reads one request line on stdin (the wrapper writes it):
//!
//! ```text
//! run <workload> <seed> <seconds> <trace 0|1> <quick 0|1>
//! check <dir> <BENCHMARK.json>
//! compare <dir A> <dir B> <BENCHMARK.json>
//! ```
//!
//! and, for `run`, takes the workload as its first command-line argument,
//! which the `incam-rng` bench harness uses as its filter. A `run` prints
//! harness lines, then one JSON result line last. Everything runs on one
//! thread, closed loop: the next unit starts when the previous one ends.

mod alloc;
mod explore;
mod fa;
mod fleet;
mod harness;
mod report;
mod verify;
mod vr;

use harness::{end_to_end, Harness, Plan, Tally, Unit};
use report::Metric;
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;

/// Workload names, as listed in `BENCHMARK.json`.
const WORKLOADS: [&str; 6] = [
    "fa_gated",
    "fa_dense",
    "vr_rig",
    "verify_chaos",
    "fleet_20k",
    "explore_sweep",
];

fn main() -> ExitCode {
    incam_parallel::set_thread_override(Some(1));
    let mut request = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut request) {
        eprintln!("error: cannot read the request: {e}");
        return ExitCode::from(2);
    }
    let words: Vec<&str> = request.split_whitespace().collect();
    let outcome = match words.as_slice() {
        ["run", workload, seed, seconds, trace, quick] => {
            run(workload, seed, seconds, trace, quick)
        }
        ["check", dir, spec] => report::check(Path::new(dir), Path::new(spec)).map(|n| n == 0),
        ["compare", a, b, spec] => {
            report::compare(Path::new(a), Path::new(b), Path::new(spec)).map(|n| n == 0)
        }
        _ => Err(format!("unrecognised request `{}`", request.trim())),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Measures one workload and prints its result line. A result line with
/// failed checks still exits 0; it reports `"correct": false`.
fn run(
    workload: &str,
    seed: &str,
    seconds: &str,
    trace: &str,
    quick: &str,
) -> Result<bool, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let seconds: f64 = seconds
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .ok_or_else(|| format!("bad seconds `{seconds}`"))?;
    let plan = if quick == "1" {
        Plan::quick()
    } else {
        Plan::measure(seconds)
    };
    let harness = Harness::new(workload);
    let tally = Tally::default();
    let metrics = match trace {
        "0" => measure(workload, seed, &harness, &plan, &tally)?,
        "1" => layers(workload, seed, &harness, &plan, &tally)?,
        _ => return Err(format!("bad trace flag `{trace}`")),
    };
    println!("{}", report::result_line(&tally, &metrics));
    Ok(true)
}

/// The end-to-end metrics of one workload.
fn measure(
    workload: &str,
    seed: u64,
    harness: &Harness,
    plan: &Plan,
    tally: &Tally,
) -> Result<Vec<Metric>, String> {
    match workload {
        "fa_gated" => end_to_end(harness, plan, tally, || {
            fa::Fa::setup(seed, fa::Variant::Gated)
        }),
        "fa_dense" => end_to_end(harness, plan, tally, || {
            fa::Fa::setup(seed, fa::Variant::Dense)
        }),
        "vr_rig" => end_to_end(harness, plan, tally, || vr::Vr::setup(seed)),
        "verify_chaos" => end_to_end(harness, plan, tally, || verify::Verify::setup(seed)),
        "fleet_20k" => end_to_end(harness, plan, tally, || fleet::Fleet::setup(seed)),
        _ => end_to_end(harness, plan, tally, || explore::Explore::setup(seed)),
    }
}

/// The per-layer metrics. Every layer of every subsystem is timed in each
/// per-layer run, so each run reports the full per-layer table; the
/// workload picks the FA variant whose pass the FA counters describe.
fn layers(
    workload: &str,
    seed: u64,
    harness: &Harness,
    plan: &Plan,
    tally: &Tally,
) -> Result<Vec<Metric>, String> {
    let variant = if workload == "fa_dense" {
        fa::Variant::Dense
    } else {
        fa::Variant::Gated
    };
    let mut fa = fa::Fa::setup(seed, variant);
    let mut vr = vr::Vr::setup(seed);
    let mut verify = verify::Verify::setup(seed);
    let mut fleet = fleet::Fleet::setup(seed);
    let mut explore = explore::Explore::setup(seed);
    fa.run(tally);
    vr.run(tally);
    verify.run(tally);
    fleet.run(tally);
    explore.run(tally);

    let (fa_prep, vr_prep, verify_prep, fleet_prep) =
        (fa.prep(), vr.prep(), verify.prep(), fleet.prep());
    let mut points = fa.points(&fa_prep, tally);
    points.extend(vr.points(&vr_prep, tally));
    points.extend(verify.points(&verify_prep, tally));
    points.extend(fleet.points(&fleet_prep, tally));
    points.extend(explore.points());
    let timings = harness.time_layers(plan, &mut points)?;
    drop(points);

    for line in verify.info(&verify_prep, &timings) {
        println!("{line}");
    }
    let mut metrics = fa.metrics(&timings);
    metrics.extend(vr.metrics(&timings));
    metrics.extend(verify.metrics(&verify_prep, &timings));
    metrics.extend(fleet.metrics(&timings));
    metrics.extend(explore.metrics(&timings));
    Ok(metrics)
}
