//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro --all                 # run every experiment
//! repro --experiment fig10    # run one (`repro --help` lists them all)
//! repro --seed 7              # change the workload seed
//! repro --quick               # reduced workloads (CI-sized)
//! ```

use incam_bench::experiments::{
    ablations, chaos, compression, explore_scale, fa_pipeline, fig4c, fleet, harvest, kernels,
    nn_studies, verify, vr_studies,
};
use incam_vr::analysis::VrModel;
use incam_wispcam::workload::TrainEffort;
use std::process::ExitCode;

struct Options {
    seed: u64,
    quick: bool,
    experiments: Vec<String>,
    output_dir: Option<std::path::PathBuf>,
}

const ALL: &[&str] = &[
    "fig4c",
    "nn-topology",
    "pe-geometry",
    "bitwidth",
    "sigmoid",
    "fa-pipeline",
    "fa-space",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "links",
    "table1",
    "compression",
    "ablations",
    "harvest",
    "chaos",
    "fault-sweep",
    "fleet",
    "fleet-sweep",
    "kernels",
    "verify",
    "verify-storm",
    "explore-scale",
];

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 2017,
        quick: false,
        experiments: Vec::new(),
        output_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => opts.experiments = ALL.iter().map(|s| s.to_string()).collect(),
            "--experiment" | "-e" => {
                let name = args
                    .next()
                    .ok_or_else(|| "--experiment needs a name".to_string())?;
                if !ALL.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown experiment '{name}'; known: {}",
                        ALL.join(", ")
                    ));
                }
                opts.experiments.push(name);
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or_else(|| "--seed needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--quick" => opts.quick = true,
            "--output" | "-o" => {
                let dir = args
                    .next()
                    .ok_or_else(|| "--output needs a directory".to_string())?;
                opts.output_dir = Some(std::path::PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--all | --experiment <name>]... [--seed N] [--quick] [--output DIR]\n\
                     experiments: {}",
                    ALL.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments = ALL.iter().map(|s| s.to_string()).collect();
    }
    Ok(opts)
}

fn run_experiment(name: &str, opts: &Options) -> (String, String) {
    let seed = opts.seed;
    let mut title = String::new();
    let mut body = String::new();
    let mut banner = |t: &str| title = t.to_string();
    macro_rules! print {
        ($($arg:tt)*) => { body.push_str(&format!($($arg)*)) };
    }
    match name {
        "fig4c" => {
            banner("Fig. 4c — Viola-Jones parameter impact on relative accuracy");
            let result = fig4c::run(seed);
            print!("{}", fig4c::render(&result));
        }
        "nn-topology" => {
            banner("NN topology study — accuracy vs. energy (SIII-A)");
            let points = nn_studies::nn_topology(seed);
            print!("{}", nn_studies::render_topology(&points));
        }
        "pe-geometry" => {
            banner("Accelerator geometry study — energy vs. #PEs (SIII-A)");
            print!("{}", nn_studies::render_pe_geometry());
        }
        "bitwidth" => {
            banner("Datapath-width study — accuracy and power (SIII-A)");
            let points = nn_studies::nn_bitwidth(seed);
            print!("{}", nn_studies::render_bitwidth(&points));
        }
        "sigmoid" => {
            banner("Sigmoid-approximation study (SIII-A)");
            print!("{}", nn_studies::sigmoid_study(seed));
        }
        "fa-pipeline" => {
            banner("Face-authentication pipeline — end-to-end evaluation (SIII)");
            let (frames, effort) = if opts.quick {
                (120, TrainEffort::Quick)
            } else {
                (400, TrainEffort::Full)
            };
            let results = fa_pipeline::run(seed, frames, effort);
            print!("{}", fa_pipeline::render(&results));
        }
        "fa-space" => {
            banner("FA configuration space — measured bindings and the sub-mW sweep (SIII)");
            let (frames, effort) = if opts.quick {
                (120, TrainEffort::Quick)
            } else {
                (400, TrainEffort::Full)
            };
            let result = fa_pipeline::space_run(seed, frames, effort);
            print!("{}", fa_pipeline::render_space(&result));
        }
        "fig6" => {
            banner("Fig. 6 — the bilateral filter is edge-aware");
            print!("{}", vr_studies::fig6(seed));
        }
        "fig7" => {
            banner("Fig. 7 — depth quality vs. bilateral grid size");
            let divisor = if opts.quick { 16.0 } else { 8.0 };
            let points = vr_studies::fig7(seed, divisor);
            print!("{}", vr_studies::render_fig7(&points));
        }
        "fig9" => {
            banner("Fig. 9 — VR pipeline compute distribution and data sizes");
            print!("{}", vr_studies::render_fig9(&VrModel::paper_default()));
        }
        "fig10" => {
            banner("Fig. 10 — pipeline configurations vs. 30 FPS real-time target");
            print!("{}", vr_studies::render_fig10(&VrModel::paper_default()));
        }
        "links" => {
            banner("Network sensitivity — uplink sweep");
            print!(
                "{}",
                vr_studies::render_link_sweep(&VrModel::paper_default())
            );
        }
        "table1" => {
            banner("Table I — FPGA acceleration platform requirements");
            print!("{}", vr_studies::render_table1());
        }
        "compression" => {
            banner("Extension — compression as an optional pipeline block");
            print!("{}", compression::run(seed));
        }
        "ablations" => {
            banner("Ablations — grouping, solver depth, overheads, motion gate");
            print!("{}", ablations::run(seed));
        }
        "harvest" => {
            banner("Platform — sustainable FPS vs. reader distance");
            print!("{}", harvest::run(seed, opts.quick));
        }
        "chaos" => {
            banner("Chaos study — degradation under link, harvest and compute faults");
            print!("{}", chaos::run(seed, opts.quick));
        }
        "fault-sweep" => {
            banner("Fault sweep — bursty loss and harvest distance against recovery policy");
            print!("{}", chaos::fault_sweep(seed));
        }
        "fleet" => {
            banner("Fleet study — contended spectrum, cloud ingest, online cut re-selection");
            print!("{}", fleet::run(seed, opts.quick));
        }
        "fleet-sweep" => {
            banner("Fleet sweep — fleet size against spectrum channels");
            print!("{}", fleet::sweep(seed));
        }
        "kernels" => {
            banner("Kernel digests — hot-kernel fast paths vs reference oracles");
            print!("{}", kernels::run(seed, opts.quick));
        }
        "verify" => {
            banner("Verify service — fail-closed face authentication under chaos");
            print!("{}", verify::run(seed, opts.quick));
        }
        "verify-storm" => {
            banner("Verify storm — burst loss against request load, fail-closed");
            print!("{}", verify::storm(seed));
        }
        "explore-scale" => {
            banner("Explore at scale — pruned branch-and-bound on the widened imaging space");
            print!("{}", explore_scale::run(seed, opts.quick));
        }
        _ => unreachable!("validated in parse_args"),
    }
    (title, body)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "incam reproduction harness (seed {}, {})",
        opts.seed,
        if opts.quick { "quick" } else { "full" }
    );
    if let Some(dir) = &opts.output_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    for name in opts.experiments.clone() {
        let (title, body) = run_experiment(&name, &opts);
        println!("\n=== {title} ===\n");
        println!("{body}");
        if let Some(dir) = &opts.output_dir {
            let path = dir.join(format!("{name}.txt"));
            if let Err(e) = std::fs::write(&path, format!("=== {title} ===\n\n{body}")) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
