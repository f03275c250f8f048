//! The result line, and the `compare` and `check` modes that read result
//! lines back against the bounds in `BENCHMARK.json`.
//!
//! A result line is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
//! A record directory holds one line per file: `<workload>.json` for the
//! end-to-end run and `<workload>.layers.json` for the per-layer run.

use crate::harness::Tally;
use incam_bench::benchjson::{self, Json};
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Renders the result line. A non-finite value fails a check and is
/// written as 0 so the line stays valid JSON.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    for m in metrics {
        tally.check(m.value.is_finite(), m.name);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    )
}

/// A metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the modes below need.
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    benchjson::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn text<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    match doc.get(key) {
        Some(Json::String(s)) => Some(s),
        _ => None,
    }
}

fn number(doc: &Json, key: &str) -> Option<f64> {
    match doc.get(key) {
        Some(Json::Number(n)) => Some(*n),
        _ => None,
    }
}

fn entries<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` must be an array")),
    }
}

impl Spec {
    fn read(path: &Path) -> Result<Self, String> {
        let doc = read_json(path)?;
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            entries(&doc, key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text(m, "name").ok_or("metric without a name")?.to_string(),
                        unit: text(m, "unit").unwrap_or("").to_string(),
                        lower_is_better: text(m, "better") == Some("lower"),
                        bound: number(m, "bound"),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: entries(&doc, "workloads")?
                .iter()
                .filter_map(|w| text(w, "name").map(str::to_string))
                .collect(),
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }
}

/// A parsed result line.
struct Outcome {
    correct: bool,
    failed: f64,
    metrics: Json,
}

impl Outcome {
    fn read(path: &Path) -> Result<Self, String> {
        let doc = read_json(path)?;
        Ok(Self {
            correct: doc.get("correct") == Some(&Json::Bool(true)),
            failed: number(&doc, "failed").unwrap_or(f64::NAN),
            metrics: doc.get("metrics").cloned().unwrap_or(Json::Null),
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(|m| number(m, "value"))
    }

    fn unit(&self, name: &str) -> Option<&str> {
        self.metrics.get(name).and_then(|m| text(m, "unit"))
    }
}

/// `check DIR BENCHMARK.json`: every workload has a correct end-to-end
/// result carrying every end-to-end metric with its declared unit, and
/// every per-layer result present carries every per-layer metric. At
/// least one per-layer result must exist. Returns the number of problems.
pub fn check(dir: &Path, spec_path: &Path) -> Result<usize, String> {
    let spec = Spec::read(spec_path)?;
    let mut problems = Vec::new();
    let mut layer_files = 0;
    for workload in &spec.workloads {
        let mut expect = |file: String, declared: &[Declared]| match Outcome::read(&dir.join(&file))
        {
            Err(e) => problems.push(e),
            Ok(outcome) => {
                if !outcome.correct || outcome.failed != 0.0 {
                    problems.push(format!("{file}: output checks failed"));
                }
                for d in declared {
                    match (
                        outcome.value(d.name.as_str()),
                        outcome.unit(d.name.as_str()),
                    ) {
                        (Some(_), Some(unit)) if unit == d.unit => {}
                        (Some(_), Some(unit)) => problems.push(format!(
                            "{file}: `{}` has unit `{unit}`, declared `{}`",
                            d.name, d.unit
                        )),
                        _ => problems.push(format!("{file}: metric `{}` missing", d.name)),
                    }
                }
            }
        };
        expect(format!("{workload}.json"), &spec.end_to_end);
        let layers = format!("{workload}.layers.json");
        if dir.join(&layers).is_file() {
            layer_files += 1;
            expect(layers, &spec.per_layer);
        }
    }
    if layer_files == 0 {
        problems.push("no per-layer result to check".to_string());
    }
    for p in &problems {
        println!("problem: {p}");
    }
    println!(
        "checked {} workloads, {} per-layer results: {}",
        spec.workloads.len(),
        layer_files,
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.len())
}

/// `compare A B BENCHMARK.json`: for every workload and end-to-end
/// metric, B's change against A and whether it stays within the declared
/// bound; per-layer results present in both are listed without a
/// verdict. Returns the number of failures.
pub fn compare(a: &Path, b: &Path, spec_path: &Path) -> Result<usize, String> {
    let spec = Spec::read(spec_path)?;
    let mut failures = 0;
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for workload in &spec.workloads {
        let file = format!("{workload}.json");
        let (ra, rb) = (
            Outcome::read(&a.join(&file))?,
            Outcome::read(&b.join(&file))?,
        );
        if !(ra.correct && rb.correct) {
            failures += 1;
            println!(
                "{workload:<14} output checks failed (A correct: {}, B correct: {})",
                ra.correct, rb.correct
            );
        }
        for d in &spec.end_to_end {
            let (va, vb) = (ra.value(&d.name), rb.value(&d.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                failures += 1;
                println!("{workload:<14} {:<30} missing", d.name);
                continue;
            };
            let change = (vb - va) / va;
            let worse = if d.lower_is_better { change } else { -change };
            let bound = d.bound.unwrap_or(0.0);
            let pass = worse <= bound + 1e-12;
            if !pass {
                failures += 1;
            }
            println!(
                "{workload:<14} {:<30} {va:>16.4} {vb:>16.4} {:>+7.2}% {:>5.1}%  {}",
                d.name,
                change * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
        let layers = format!("{workload}.layers.json");
        if a.join(&layers).is_file() && b.join(&layers).is_file() {
            let (la, lb) = (
                Outcome::read(&a.join(&layers))?,
                Outcome::read(&b.join(&layers))?,
            );
            for d in &spec.per_layer {
                if let (Some(va), Some(vb)) = (la.value(&d.name), lb.value(&d.name)) {
                    let change = if va == 0.0 { 0.0 } else { (vb - va) / va };
                    println!(
                        "{workload:<14} {:<30} {va:>16.4} {vb:>16.4} {:>+7.2}% {:>6}  layer",
                        d.name,
                        change * 100.0,
                        "-"
                    );
                }
            }
        }
    }
    println!("{failures} failure(s)");
    Ok(failures)
}
