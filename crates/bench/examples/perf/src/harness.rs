//! Timing through the `incam-rng` bench harness, the run plan, and the
//! output-check tally.
//!
//! The driver never reads a clock itself: the workspace lint confines
//! wall-clock reads to `incam_rng::bench`. Every measurement opens a
//! fresh harness, times one point named `<workload>/<name>`, lets the
//! harness write `BENCH_perf.json` into the working directory, and reads
//! the point back with `incam_bench::benchjson`. The harness takes its
//! filter from the first command-line argument, which is the workload, so
//! every point's group is the workload name.
//!
//! A measurement is many short harness rounds of two samples each. Other
//! tenants of the shared host slow whole stretches of seconds by up to
//! two thirds; a low percentile of the round medians reads the speed
//! outside those stretches, where the median follows them.

use crate::report::Metric;
use incam_bench::benchjson;
use incam_rng::bench::Criterion;
use std::cell::Cell;

/// Bench target: the harness writes `BENCH_perf.json`.
const TARGET: &str = "perf";

/// Samples per harness round (the harness needs at least two).
const SAMPLES: usize = 2;

/// Most rounds one measurement may take, whatever the budget.
const MAX_ROUNDS: usize = 1000;

/// Percentile of the round medians a time is read at.
const TIME_PERCENTILE: f64 = 0.10;

/// How much one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Wall time the timed rounds fill, nanoseconds.
    pub budget_ns: f64,
    /// Fewest rounds of the whole-unit point.
    pub min_rounds: usize,
    /// Fewest rounds over the per-layer points.
    pub min_layer_rounds: usize,
    /// Fewest rounds of the set-up point.
    pub setup_rounds: usize,
    /// Wall time the set-up rounds fill, nanoseconds.
    pub setup_budget_ns: f64,
    /// Units per allocation-counting pass.
    pub alloc_units: usize,
}

impl Plan {
    /// A measuring run of `seconds` timed seconds.
    pub fn measure(seconds: f64) -> Self {
        Self {
            budget_ns: seconds * 1e9,
            min_rounds: 10,
            min_layer_rounds: 3,
            setup_rounds: 5,
            setup_budget_ns: 1e9,
            alloc_units: 2,
        }
    }

    /// One short round of everything, for the smoke check.
    pub fn quick() -> Self {
        Self {
            budget_ns: 0.0,
            min_rounds: 1,
            min_layer_rounds: 1,
            setup_rounds: 1,
            setup_budget_ns: 0.0,
            alloc_units: 1,
        }
    }
}

/// One round of a point, as the harness recorded it.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Wall time the round took: its samples plus about one sample of
    /// calibration, nanoseconds.
    pub spent_ns: f64,
}

/// Times points of one workload through the harness.
pub struct Harness {
    group: String,
}

impl Harness {
    /// A harness whose points are grouped under `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            group: workload.to_string(),
        }
    }

    /// Times `routine` as point `<workload>/<name>` for one round and
    /// reads the harness's record of it back.
    pub fn time<O>(&self, name: &str, mut routine: impl FnMut() -> O) -> Result<Point, String> {
        let mut criterion = Criterion::new(TARGET);
        let mut group = criterion.benchmark_group(&self.group);
        group.sample_size(SAMPLES);
        group.bench_function(name, |b| b.iter(&mut routine));
        group.finish();
        criterion.final_summary();
        let path = format!("BENCH_{TARGET}.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let file = benchjson::validate(&text).map_err(|e| format!("{path}: {e}"))?;
        file.results
            .iter()
            .find(|r| r.group == self.group && r.name == name)
            .map(|r| Point {
                median_ns: r.median_ns,
                spent_ns: r.median_ns * (r.iters_per_sample * (r.samples + 1)) as f64,
            })
            .ok_or_else(|| {
                format!(
                    "the harness skipped {}/{name}: pass the workload as the filter argument",
                    self.group
                )
            })
    }

    /// Times every layer point once per round, round after round, until
    /// `plan.min_layer_rounds` rounds and `plan.budget_ns` of wall time.
    pub fn time_layers(
        &self,
        plan: &Plan,
        points: &mut [LayerPoint<'_>],
    ) -> Result<Timings, String> {
        let mut medians: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
        let mut spent = 0.0;
        let mut rounds = 0;
        while rounds < plan.min_layer_rounds || (spent < plan.budget_ns && rounds < MAX_ROUNDS) {
            for (point, values) in points.iter_mut().zip(&mut medians) {
                let timed = self.time(point.name, &mut point.routine)?;
                spent += timed.spent_ns;
                values.push(timed.median_ns);
            }
            rounds += 1;
        }
        Ok(Timings(
            points
                .iter()
                .zip(medians)
                .map(|(point, mut values)| (point.name, percentile(&mut values, TIME_PERCENTILE)))
                .collect(),
        ))
    }
}

/// A per-layer harness point: one call (or a fixed batch of calls) into
/// a layer's public function per iteration.
pub struct LayerPoint<'a> {
    /// Point name within the workload's group.
    pub name: &'static str,
    /// The timed routine.
    pub routine: Box<dyn FnMut() + 'a>,
}

impl<'a> LayerPoint<'a> {
    /// A point timing `routine`, whose result passes through
    /// [`std::hint::black_box`] so the work cannot be optimized away.
    pub fn new<O>(name: &'static str, mut routine: impl FnMut() -> O + 'a) -> Self {
        Self {
            name,
            routine: Box::new(move || {
                std::hint::black_box(routine());
            }),
        }
    }
}

/// Per-iteration times of the layer points, by point name.
pub struct Timings(Vec<(&'static str, f64)>);

impl Timings {
    /// Nanoseconds per iteration of point `name` (NaN when absent, which
    /// the report turns into a failed check).
    pub fn ns(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Counts output checks and failures. Interior mutability lets many
/// timed closures share one tally.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: Cell<u64>,
    failed: Cell<u64>,
}

impl Tally {
    /// Records one check; a failure is reported on stderr.
    pub fn check(&self, ok: bool, what: &str) {
        self.attempted.set(self.attempted.get() + 1);
        if !ok {
            self.failed.set(self.failed.get() + 1);
            eprintln!("check failed: {what}");
        }
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.get()
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.get()
    }
}

/// A workload's unit of work, run closed-loop by one caller.
pub trait Unit {
    /// What one unit completes (frames, requests, link queries, …).
    fn items(&self) -> f64;

    /// Runs one unit and checks its output. The first call is the
    /// reference pass; later calls must reproduce it.
    fn run(&mut self, tally: &Tally);
}

/// Runs the end-to-end protocol on one workload and returns its metrics.
/// The untimed part runs first and in a fixed order, so the peak memory
/// it leaves is the same every run: set-up, one reference pass, two
/// allocation-counting passes that must agree. Then the set-up rounds,
/// and the unit rounds.
pub fn end_to_end<W: Unit>(
    harness: &Harness,
    plan: &Plan,
    tally: &Tally,
    mut setup: impl FnMut() -> W,
) -> Result<Vec<Metric>, String> {
    let mut workload = setup();
    workload.run(tally);
    let mut count_pass = || {
        crate::alloc::count(|| {
            for _ in 0..plan.alloc_units {
                workload.run(tally);
            }
        })
    };
    let first = count_pass();
    let second = count_pass();
    tally.check(
        first == second,
        &format!("allocation counts differ between passes: {first:?} vs {second:?}"),
    );
    let peak_mib = peak_anon_rss_mib()?;

    let mut setup_ns = rounds(plan.setup_rounds, plan.setup_budget_ns, || {
        harness.time("setup", &mut setup)
    })?;
    let mut unit_ns = rounds(plan.min_rounds, plan.budget_ns, || {
        harness.time("unit", || workload.run(tally))
    })?;

    let per_unit = |n: u64| n as f64 / plan.alloc_units as f64;
    Ok(vec![
        Metric::new(
            "throughput_per_s",
            workload.items() * 1e9 / percentile(&mut unit_ns, TIME_PERCENTILE),
            "1/s",
        ),
        Metric::new(
            "setup_s",
            percentile(&mut setup_ns, TIME_PERCENTILE) / 1e9,
            "s",
        ),
        Metric::new("peak_anon_rss_mib", peak_mib, "MiB"),
        Metric::new("allocs_per_unit", per_unit(first.0), "count"),
        Metric::new("alloc_bytes_per_unit", per_unit(first.1), "B"),
    ])
}

/// Round medians of one point: at least `min` rounds, and more until
/// `budget_ns` of wall time.
fn rounds(
    min: usize,
    budget_ns: f64,
    mut round: impl FnMut() -> Result<Point, String>,
) -> Result<Vec<f64>, String> {
    let mut medians = Vec::new();
    let mut spent = 0.0;
    while medians.len() < min || (spent < budget_ns && medians.len() < MAX_ROUNDS) {
        let point = round()?;
        spent += point.spent_ns;
        medians.push(point.median_ns);
    }
    Ok(medians)
}

/// Peak resident set size of this process without its file-backed pages
/// (`VmHWM` − `RssFile`), MiB: the program's own memory at its peak. The
/// binary's code pages are left out because how many of them are
/// resident varies run to run with the page cache (±5 % of a small run).
fn peak_anon_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = |field: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(field))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or_else(|| format!("no {field} line in /proc/self/status"))
    };
    Ok((kib("VmHWM:")? - kib("RssFile:")?) / 1024.0)
}

/// The `q`-quantile of a non-empty slice (sorts it), interpolating
/// between closest ranks.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = (values.len() - 1) as f64 * q;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}
