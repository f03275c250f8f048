//! Fixture-based tests: each rule fires on its bad-source fixture with
//! the exact `file:line:col: [rule-id]` diagnostic, pragmas suppress and
//! demand reasons, and — the point of the whole exercise — the live
//! workspace is clean.

use incam_lint::{check_manifest, check_rust_source, lint_workspace};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rust_diags(relpath: &str, fixture_name: &str) -> Vec<String> {
    check_rust_source(relpath, &fixture(fixture_name))
        .iter()
        .map(|d| d.to_string())
        .collect()
}

#[test]
fn wall_clock_fires_outside_the_bench_harness() {
    let msg = "`Instant` is a wall-clock read; model time through the deterministic cost \
               framework (only the bench harness measures real time)";
    assert_eq!(
        rust_diags("crates/demo/src/timing.rs", "wall_clock.rs"),
        [
            format!("crates/demo/src/timing.rs:1:16: [wall-clock] {msg}"),
            format!("crates/demo/src/timing.rs:4:17: [wall-clock] {msg}"),
        ]
    );
}

#[test]
fn wall_clock_allows_the_bench_harness() {
    assert!(rust_diags("crates/rng/src/bench.rs", "wall_clock.rs").is_empty());
}

#[test]
fn unordered_iteration_fires_in_non_test_code_only() {
    let msg = "`HashMap` iterates in arbitrary order; use Vec or BTreeMap/BTreeSet so \
               report-visible state is byte-stable";
    // The HashSet inside the fixture's #[cfg(test)] module must not fire.
    assert_eq!(
        rust_diags("crates/demo/src/histo.rs", "unordered_iteration.rs"),
        [
            format!("crates/demo/src/histo.rs:1:23: [unordered-iteration] {msg}"),
            format!("crates/demo/src/histo.rs:4:17: [unordered-iteration] {msg}"),
        ]
    );
}

#[test]
fn unordered_iteration_exempts_test_directories() {
    assert!(rust_diags("crates/demo/tests/histo.rs", "unordered_iteration.rs").is_empty());
    assert!(rust_diags("crates/demo/benches/histo.rs", "unordered_iteration.rs").is_empty());
}

#[test]
fn raw_thread_fires_outside_incam_parallel() {
    assert_eq!(
        rust_diags("crates/demo/src/pool.rs", "raw_thread.rs"),
        [
            "crates/demo/src/pool.rs:2:18: [raw-thread] `std::thread` outside incam-parallel; \
          spawn work through the deterministic worker pool (incam_parallel::par_*)"
        ]
    );
}

#[test]
fn raw_thread_allows_the_worker_pool() {
    // crate-hygiene still applies to that path; only raw-thread is waived.
    assert!(rust_diags("crates/parallel/src/lib.rs", "raw_thread.rs")
        .iter()
        .all(|d| !d.contains("[raw-thread]")));
}

#[test]
fn env_read_fires_outside_allowlisted_sites() {
    assert_eq!(
        rust_diags("crates/demo/src/config.rs", "env_read.rs"),
        [
            "crates/demo/src/config.rs:2:11: [env-read] `std::env` outside the allowlisted \
          INCAM_* sites; thread configuration through explicit parameters"
        ]
    );
}

#[test]
fn env_read_allows_incam_knob_sites() {
    // crate-hygiene still applies to lib.rs paths; only env-read is waived.
    assert!(rust_diags("crates/parallel/src/lib.rs", "env_read.rs")
        .iter()
        .all(|d| !d.contains("[env-read]")));
    assert!(rust_diags("crates/rng/src/prop.rs", "env_read.rs").is_empty());
}

#[test]
fn crate_hygiene_fires_on_bare_lib_roots() {
    assert_eq!(
        rust_diags("crates/demo/src/lib.rs", "crate_hygiene/src/lib.rs"),
        [
            "crates/demo/src/lib.rs:1:1: [crate-hygiene] crate root missing \
             `#![forbid(unsafe_code)]`",
            "crates/demo/src/lib.rs:1:1: [crate-hygiene] crate root missing a `missing_docs` \
             lint (add `#![warn(missing_docs)]`)",
        ]
    );
}

#[test]
fn crate_hygiene_ignores_non_lib_files() {
    assert!(rust_diags("crates/demo/src/util.rs", "crate_hygiene/src/lib.rs").is_empty());
}

#[test]
fn crate_hygiene_accepts_attributed_roots() {
    let src = "//! Docs.\n\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\npub fn f() {}\n";
    assert!(check_rust_source("crates/demo/src/lib.rs", src).is_empty());
}

#[test]
fn registry_dep_fires_on_non_path_sources() {
    let msg = "must use `path = …` or `workspace = true`; registry/git sources break the \
               hermetic offline build";
    let diags: Vec<String> = check_manifest(
        "crates/demo/Cargo.toml",
        &fixture("registry_dep/Cargo.toml"),
    )
    .iter()
    .map(|d| d.to_string())
    .collect();
    assert_eq!(
        diags,
        [
            format!("crates/demo/Cargo.toml:7:1: [registry-dep] dependency `serde` {msg}"),
            format!("crates/demo/Cargo.toml:8:1: [registry-dep] dependency `rand` {msg}"),
            format!("crates/demo/Cargo.toml:10:1: [registry-dep] dependency `libc` {msg}"),
            format!("crates/demo/Cargo.toml:15:1: [registry-dep] dependency `criterion` {msg}"),
        ]
    );
}

#[test]
fn registry_dep_accepts_this_workspace_style() {
    let src = "[package]\nname = \"x\"\n\n[dependencies]\nincam-core.workspace = true\n\
               incam-rng = { path = \"../rng\" }\n\n[dependencies.incam-nn]\npath = \"../nn\"\n";
    assert!(check_manifest("Cargo.toml", src).is_empty());
}

#[test]
fn valid_pragmas_suppress_with_reasons() {
    assert!(rust_diags("crates/demo/src/cache.rs", "pragma_ok.rs").is_empty());
}

#[test]
fn pragmas_without_reasons_are_violations_and_do_not_suppress() {
    let unordered = "[unordered-iteration] `HashSet` iterates in arbitrary order; use Vec or \
                     BTreeMap/BTreeSet so report-visible state is byte-stable";
    let rules = "rules: wall-clock, unordered-iteration, raw-thread, env-read, registry-dep, \
                 crate-hygiene, fallible-unwrap, par-capture-mut, par-float-accum, lossy-cast, \
                 unchecked-arith, unreferenced-pub";
    assert_eq!(
        rust_diags("crates/demo/src/bad.rs", "pragma_bad.rs"),
        [
            format!("crates/demo/src/bad.rs:2:31: {unordered}"),
            format!(
                "crates/demo/src/bad.rs:2:54: [pragma] pragma must be `incam-lint: \
                 allow(<rule>) — <reason>` with a non-empty reason ({rules})"
            ),
            format!("crates/demo/src/bad.rs:7:31: {unordered}"),
            format!(
                "crates/demo/src/bad.rs:7:54: [pragma] unknown rule `no-such-rule` in \
                     pragma ({rules})"
            ),
        ]
    );
}

#[test]
fn hazards_inside_comments_and_strings_do_not_fire() {
    let src = "// Instant::now() and std::thread are discussed here\n\
               const DOC: &str = \"HashMap, SystemTime, std::env\";\n\
               /* std::thread::spawn */\n";
    assert!(check_rust_source("crates/demo/src/doc.rs", src).is_empty());
}

/// The committed tree must be lint-clean: the same invariant
/// `cargo run -p incam-lint` gates in ci.sh, checked here so plain
/// `cargo test` catches violations too.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("walk workspace");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

#[test]
fn fallible_unwrap_fires_in_library_code() {
    let msg = |m: &str| {
        format!(
            "`.{m}(` can panic in non-test library code; propagate the error to the \
             caller, or state the invariant that makes it unreachable in a pragma"
        )
    };
    // .unwrap_or( never matches, the pragma'd unwrap is waived, and the
    // #[cfg(test)] module is exempt — only the two real panic sites fire.
    // Since v2 the rule covers every library source, not just crates/auth.
    for relpath in ["crates/auth/src/service.rs", "crates/demo/src/service.rs"] {
        assert_eq!(
            rust_diags(relpath, "fallible_unwrap.rs"),
            [
                format!("{relpath}:2:15: [fallible-unwrap] {}", msg("unwrap")),
                format!("{relpath}:3:15: [fallible-unwrap] {}", msg("expect")),
            ]
        );
    }
}

#[test]
fn fallible_unwrap_exempts_binaries_and_test_trees() {
    // binaries may unwrap: a CLI panic is a legible failure, not a shed
    assert!(rust_diags("crates/demo/src/main.rs", "fallible_unwrap.rs").is_empty());
    assert!(rust_diags("crates/demo/src/bin/tool.rs", "fallible_unwrap.rs").is_empty());
    // and test trees are scaffolding, not the serving path
    assert!(rust_diags("crates/auth/tests/fail_closed.rs", "fallible_unwrap.rs").is_empty());
    assert!(rust_diags("crates/demo/benches/speed.rs", "fallible_unwrap.rs").is_empty());
}

#[test]
fn par_capture_mut_fires_on_mutated_captures() {
    // `hits` is declared outside the closure passed to `par_map`, so the
    // `.push(` is a capture mutation; `*f * 2.0` (a read) is fine.
    assert_eq!(
        rust_diags("crates/demo/src/kernels.rs", "par_capture_mut.rs"),
        [
            "crates/demo/src/kernels.rs:6:9: [par-capture-mut] closure passed to `par_map` \
             mutates captured `hits`; per-item work must be pure — return the value and let \
             the deterministic pool combine results"
        ]
    );
}

#[test]
fn par_float_accum_fires_on_compound_accumulation() {
    // `total += s` inside the `par_map_rows` closure accumulates in
    // schedule order; the `let s: f32 = …` type ascription must not be
    // mistaken for an assignment.
    assert_eq!(
        rust_diags("crates/demo/src/kernels.rs", "par_float_accum.rs"),
        [
            "crates/demo/src/kernels.rs:7:9: [par-float-accum] order-sensitive `+=` \
             accumulation into captured `total` inside a `par_map_rows` closure; use \
             `par_reduce` or the banded helpers (`par_bands_mut2`) so combination order is \
             fixed"
        ]
    );
}

#[test]
fn race_rules_exempt_test_trees() {
    assert!(rust_diags("crates/demo/tests/kernels.rs", "par_capture_mut.rs").is_empty());
    assert!(rust_diags("crates/demo/benches/kernels.rs", "par_float_accum.rs").is_empty());
}

#[test]
fn lossy_cast_fires_on_unguarded_narrowing_in_hot_crates() {
    // The unguarded cast fires; the clamp-guarded one on line 6 is the
    // approved idiom and stays silent.
    assert_eq!(
        rust_diags("crates/imaging/src/quant.rs", "lossy_cast.rs"),
        [
            "crates/imaging/src/quant.rs:2:17: [lossy-cast] `as u8` silently truncates in a \
             hot kernel; clamp or mask the value explicitly before narrowing, or justify the \
             range with a pragma"
        ]
    );
    // Outside the hot-kernel crates the cast is not a paper-accuracy
    // hazard and the rule does not apply.
    assert!(rust_diags("crates/demo/src/quant.rs", "lossy_cast.rs").is_empty());
}

#[test]
fn unchecked_arith_fires_in_hot_crates_only() {
    assert_eq!(
        rust_diags("crates/imaging/src/wrap.rs", "unchecked_arith.rs"),
        [
            "crates/imaging/src/wrap.rs:2:7: [unchecked-arith] `.wrapping_add(` bypasses \
             overflow/bounds checks in a hot kernel; use widening or checked arithmetic, or \
             justify the wrap with a pragma"
        ]
    );
    assert!(rust_diags("crates/demo/src/wrap.rs", "unchecked_arith.rs").is_empty());
    assert!(rust_diags("crates/imaging/tests/wrap.rs", "unchecked_arith.rs").is_empty());
}

#[test]
fn diagnostics_are_ordered_and_deduplicated() {
    // Two rules interleave across four sites; the output must come back
    // sorted by (path, line, col, rule, message) regardless of which
    // rule pass emitted what first, with no duplicates.
    let unordered = "[unordered-iteration] `HashMap` iterates in arbitrary order; use Vec or \
                     BTreeMap/BTreeSet so report-visible state is byte-stable";
    let wall = "[wall-clock] `Instant` is a wall-clock read; model time through the \
                deterministic cost framework (only the bench harness measures real time)";
    let diags = rust_diags("crates/demo/src/metrics.rs", "multi_finding.rs");
    assert_eq!(
        diags,
        [
            format!("crates/demo/src/metrics.rs:1:23: {unordered}"),
            format!("crates/demo/src/metrics.rs:2:16: {wall}"),
            format!("crates/demo/src/metrics.rs:4:21: {unordered}"),
            format!("crates/demo/src/metrics.rs:5:13: {wall}"),
        ]
    );
    let mut resorted = diags.clone();
    resorted.sort();
    resorted.dedup();
    assert_eq!(
        diags, resorted,
        "engine output must already be sorted + deduped"
    );
}

/// The coherence pass over a planted fixture tree: `beta` is registered
/// but never gated, documented, or archived, and ci.sh gates a `ghost`
/// experiment the registry doesn't know.
#[test]
fn coherence_flags_registry_drift() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/coherence_tree");
    let report = lint_workspace(&root).expect("walk fixture tree");
    let diags: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        diags,
        [
            "EXPERIMENTS.md:1:1: [coherence] experiment `beta` is not documented in \
             EXPERIMENTS.md (mention `beta` or `--experiment beta`)"
                .to_string(),
            "ci.sh:1:1: [coherence] ci.sh gates unknown experiment `ghost` (not in repro's \
             ALL list)"
                .to_string(),
            "ci.sh:1:1: [coherence] experiment `beta` has no CI determinism gate (expected a \
             `repro_diff beta` invocation in ci.sh)"
                .to_string(),
            "crates/bench/src/bin/repro.rs:1:1: [coherence] experiment `beta` has no \
             committed results (expected results/beta.txt; run `repro --experiment beta \
             --seed 2017 --output results`)"
                .to_string(),
        ]
    );
}

/// The workspace-wide dead-API rule over a planted tree: of four
/// library `pub fn`s, one is called from the binary, one is named
/// nowhere else, one is kept by a pragma, and one sits under
/// `cfg(test)`. Only the second is a finding, and the pragma is audited.
#[test]
fn unreferenced_pub_flags_only_the_uncalled_function() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unreferenced_tree");
    let report = lint_workspace(&root).expect("walk fixture tree");
    let diags: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        diags,
        [
            "src/lib.rs:10:1: [unreferenced-pub] `pub fn orphaned` is named nowhere else in the \
             workspace; delete it, give it a caller, or keep it with a reasoned pragma"
        ]
    );
    assert!(
        incam_lint::json::render_audit(&report).contains(
            "src/lib.rs:13: allow(unreferenced-pub) — stable entry point for callers outside \
             the tree"
        ),
        "the pragma that keeps `kept` must show in --audit"
    );
}
