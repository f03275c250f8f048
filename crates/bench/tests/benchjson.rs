//! Schema-checks every committed `BENCH_*.json` trajectory file in the
//! repository — all of them live in `results/` (local `cargo bench`
//! output elsewhere is not scanned). `ci.sh` runs this test before the
//! bench smoke, so a harness change that breaks the JSON shape — or a
//! hand-edited file with a negative median — fails fast.

use incam_bench::benchjson;
use std::path::{Path, PathBuf};

/// Collects `BENCH_*.json` files directly inside `dir` (no recursion:
/// trajectory files live at the top of their directory).
fn bench_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_committed_bench_json_matches_the_schema() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = manifest.parent().and_then(Path::parent).expect("workspace");

    let files = bench_files(&workspace.join("results"));
    assert!(
        !files.is_empty(),
        "no BENCH_*.json found; the repo commits at least results/BENCH_fleet.json"
    );

    for path in files {
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let file = benchjson::validate(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !file.results.is_empty(),
            "{}: results array is empty",
            path.display()
        );
        let expected = format!("BENCH_{}.json", file.target);
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(expected.as_str()),
            "{}: target `{}` disagrees with the file name",
            path.display(),
            file.target
        );
    }
}
