//! Minimal statistics-reporting bench harness (the `criterion` surface
//! the workspace uses, with `harness = false` bench targets).
//!
//! Each benchmark is calibrated (iteration count doubled until a probe
//! exceeds the calibration budget), warmed up by that probe, then timed
//! for N samples; the harness reports the **median** and **MAD** (median
//! absolute deviation) of per-iteration time — both robust to the odd
//! scheduler hiccup — and appends every result to `BENCH_<target>.json`
//! for cross-commit trajectory tracking.
//!
//! ```ignore
//! use incam_rng::bench::{criterion_group, criterion_main, Criterion};
//!
//! fn bench_sum(c: &mut Criterion) {
//!     let mut group = c.benchmark_group("sums");
//!     group.bench_function("naive", |b| {
//!         b.iter(|| (0..1000u64).sum::<u64>())
//!     });
//!     group.finish();
//! }
//!
//! criterion_group!(benches, bench_sum);
//! criterion_main!(benches);
//! ```
//!
//! Knobs: a positional CLI argument filters benchmarks by substring
//! (`cargo bench -p incam-bench --bench kernels -- scan`);
//! `INCAM_BENCH_DIR` redirects the JSON output directory (default:
//! current directory; a directory that cannot be written fails the run
//! with status 1); `INCAM_BENCH_SAMPLES` overrides every group's sample
//! count.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use crate::{criterion_group, criterion_main};

/// Default samples per benchmark (groups may override via
/// [`BenchmarkGroup::sample_size`]).
const DEFAULT_SAMPLE_SIZE: usize = 30;

/// Calibration probe budget: double iterations until one probe run
/// takes at least this long.
const CALIBRATION_BUDGET: Duration = Duration::from_millis(25);

/// Target wall time per sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name (e.g. `fig4c_vj_scan`).
    pub group: String,
    /// Benchmark name within the group (e.g. `scale_factor/1.25`).
    pub name: String,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of per-iteration time, nanoseconds.
    pub mad_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations folded into each sample.
    pub iters_per_sample: u64,
}

/// The harness root: collects results from every group and writes the
/// JSON summary.
pub struct Criterion {
    target: String,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Creates a harness for the named bench target, reading the filter
    /// from the command line (`cargo bench ... -- <substring>`).
    pub fn new(target: &str) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Self {
            target: target.to_string(),
            filter,
            results: Vec::new(),
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
        }
    }

    /// Writes `BENCH_<target>.json` into `INCAM_BENCH_DIR` (default: the
    /// current directory) and prints the closing line.
    ///
    /// A run whose results cannot be recorded has failed: when the write
    /// fails, this prints the path and the OS error and exits the process
    /// with status 1.
    pub fn final_summary(&mut self) {
        let dir = std::env::var("INCAM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        match self.write_json(Path::new(&dir)) {
            Ok(path) => println!(
                "\n{} benchmark(s) -> {}",
                self.results.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Writes `BENCH_<target>.json` into `dir` and returns its path; the
    /// error names the path and the OS error.
    fn write_json(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = dir.join(format!("BENCH_{}.json", self.target));
        std::fs::write(&path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Renders all results as a JSON document (hand-rolled: the hermetic
    /// build has no serde).
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"harness\": \"incam-rng/bench\",\n");
        out.push_str(&format!("  \"target\": \"{}\",\n", self.target));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns\": {:.1}, \
                 \"mad_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
                r.group,
                r.name,
                r.median_ns,
                r.mad_ns,
                r.samples,
                r.iters_per_sample,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A named set of benchmarks sharing a sample-size override.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for subsequent benchmarks in this
    /// group (use for expensive end-to-end benches).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = Some(n);
        self
    }

    /// Measures a benchmark identified by a plain name.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into().0;
        self.run(&id, &mut routine);
        self
    }

    /// Measures a parameterized benchmark; the closure receives the
    /// input by reference, criterion-style.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into().0;
        self.run(&id, &mut |b: &mut Bencher| routine(b, input));
        self
    }

    /// Closes the group (all work already happened eagerly; this exists
    /// for criterion source compatibility).
    pub fn finish(self) {}

    fn run(&mut self, id: &str, routine: &mut dyn FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let samples = std::env::var("INCAM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .or(self.sample_size)
            .unwrap_or(DEFAULT_SAMPLE_SIZE);

        // Calibrate (doubling probes double as warmup: caches, branch
        // predictors, and lazily initialized state all get exercised).
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        loop {
            routine(&mut bencher);
            if bencher.elapsed >= CALIBRATION_BUDGET || bencher.iters >= 1 << 20 {
                break;
            }
            bencher.iters *= 2;
        }
        let per_iter_ns = bencher.elapsed.as_nanos() as f64 / bencher.iters as f64;
        let iters_per_sample =
            ((SAMPLE_TARGET.as_nanos() as f64 / per_iter_ns.max(1.0)) as u64).clamp(1, 1 << 24);

        let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
        bencher.iters = iters_per_sample;
        for _ in 0..samples {
            routine(&mut bencher);
            per_iter.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }

        let med = median(&mut per_iter);
        let mut deviations: Vec<f64> = per_iter.iter().map(|&t| (t - med).abs()).collect();
        let mad = median(&mut deviations);

        println!(
            "{:<60} median {:>12}  mad {:>12}  ({} samples x {} iters)",
            full,
            human_ns(med),
            human_ns(mad),
            samples,
            iters_per_sample
        );
        self.criterion.results.push(BenchResult {
            group: self.name.clone(),
            name: id.to_string(),
            median_ns: med,
            mad_ns: mad,
            samples,
            iters_per_sample,
        });
    }
}

/// A benchmark identifier, optionally parameterized (`name/param`).
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An identifier for one point of a parameter sweep.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self(format!("{}/{}", name.into(), parameter))
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        Self(name.to_string())
    }
}

/// Passed to the benchmark routine; [`Bencher::iter`] times the hot
/// closure for the harness-chosen iteration count.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the planned number of iterations. The closure's
    /// return value is passed through [`std::hint::black_box`] so the
    /// optimizer cannot delete the work.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            let _ = std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundles benchmark functions into one registration function, exactly
/// like criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::new(env!("CARGO_CRATE_NAME"));
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        let mut v = vec![4.0, 1.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn bench_group_measures_and_records() {
        let mut c = Criterion {
            target: "selftest".to_string(),
            filter: None,
            results: Vec::new(),
        };
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(3);
            group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
            group.bench_with_input(BenchmarkId::new("sum_to", 50u64), &50u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
            group.finish();
        }
        assert_eq!(c.results.len(), 2);
        assert_eq!(c.results[0].name, "sum");
        assert_eq!(c.results[1].name, "sum_to/50");
        assert!(c.results.iter().all(|r| r.median_ns > 0.0));
        let json = c.to_json();
        assert!(json.contains("\"group\": \"g\""));
        assert!(json.contains("sum_to/50"));
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            target: "selftest".to_string(),
            filter: Some("nomatch".to_string()),
            results: Vec::new(),
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("sum", |b| b.iter(|| 1u64 + 1));
        group.finish();
        assert!(c.results.is_empty());
    }

    #[test]
    fn summary_write_into_missing_dir_fails() {
        let c = Criterion {
            target: "selftest".to_string(),
            filter: None,
            results: Vec::new(),
        };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir");
        let err = c.write_json(&dir).unwrap_err();
        assert!(
            err.starts_with("cannot write ") && err.contains("no-such-dir/BENCH_selftest.json: "),
            "{err}"
        );
        assert!(!dir.exists());
    }

    #[test]
    fn human_units() {
        assert_eq!(human_ns(12.3), "12.3 ns");
        assert_eq!(human_ns(12_300.0), "12.300 us");
        assert_eq!(human_ns(12_300_000.0), "12.300 ms");
        assert_eq!(human_ns(2_500_000_000.0), "2.500 s");
    }
}
