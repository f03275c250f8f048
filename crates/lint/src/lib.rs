//! # incam-lint — determinism & hermeticity static analysis
//!
//! The workspace's load-bearing invariant — byte-identical reports
//! across seeds and thread counts, offline zero-registry builds — is
//! enforced at runtime by the ci.sh diff gates (threads 1 vs 4,
//! double-run smoke). This crate enforces it at the *source* level: a
//! total Rust lexer ([`lexer`]) feeds a lightweight recursive-descent
//! parser ([`parser`]) whose item tree a visitor-based rule engine
//! ([`visit`], [`rules`], [`manifest`]) walks for every workspace `.rs`
//! file and `Cargo.toml`, reporting hazards before they ever reach a
//! runtime diff. A cross-artifact pass ([`coherence`]) then checks that
//! the experiment registry, CI gates, docs and committed results agree
//! with each other.
//!
//! The rules:
//!
//! | rule | hazard |
//! |------|--------|
//! | `wall-clock` | `Instant`/`SystemTime` outside the bench harness |
//! | `unordered-iteration` | `HashMap`/`HashSet` in non-test code |
//! | `raw-thread` | `std::thread` outside incam-parallel |
//! | `env-read` | `std::env` outside the allowlisted `INCAM_*` sites |
//! | `registry-dep` | non-`path` dependencies in any `Cargo.toml` |
//! | `crate-hygiene` | crate roots missing `#![forbid(unsafe_code)]` or a `missing_docs` lint |
//! | `fallible-unwrap` | `.unwrap()`/`.expect(` in non-test library code |
//! | `par-capture-mut` | mutation of captured state in an `incam_parallel` closure |
//! | `par-float-accum` | order-sensitive `+=` into a capture in an `incam_parallel` closure |
//! | `lossy-cast` | unguarded narrowing `as` casts in hot-kernel crates |
//! | `unchecked-arith` | wrapping/unchecked ops in hot-kernel crates |
//! | `unreferenced-pub` | a library `pub fn` whose name appears nowhere else in the tree |
//! | `coherence` | experiment/CI/docs/results/module-map drift |
//! | `pragma` | malformed / reasonless suppression pragmas |
//!
//! Suppression is per line, and the reason is mandatory (see [`pragma`]):
//!
//! ```text
//! let t = Instant::now(); // incam-lint: allow(wall-clock) — measuring the harness itself
//! ```
//!
//! Diagnostics print as `file:line:col: [rule-id] message`, sorted by
//! (path, line, col, rule, message) and deduplicated; the CLI
//! (`cargo run -p incam-lint`) exits nonzero when any are emitted, which
//! is how ci.sh consumes it. `--format json` renders the report as a
//! schema-checked JSON document ([`json`]) and `--audit` lists every
//! suppression pragma in the tree with its rule, location and reason.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coherence;
pub mod json;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod pragma;
pub mod rules;
pub mod visit;
pub mod workspace;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub use manifest::check_manifest;
pub use rules::check_rust_source;

/// One finding: `path:line:col: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
    /// Rule id, e.g. `wall-clock`.
    pub rule: &'static str,
    /// Human-readable explanation of the hazard.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// One valid suppression pragma, for the `--audit` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Workspace-relative path of the file carrying the pragma.
    pub path: String,
    /// 1-based line the pragma comment starts on.
    pub line: u32,
    /// The suppressed rule id.
    pub rule: &'static str,
    /// The written justification.
    pub reason: String,
}

/// Result of a whole-workspace pass.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (path, line, col, rule, message),
    /// deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// Every valid allow pragma in the tree, sorted by (path, line).
    pub audit: Vec<AuditEntry>,
    /// How many files were scanned (`.rs` + `Cargo.toml`).
    pub files_scanned: usize,
}

/// Lints every `.rs` and `Cargo.toml` under `root`, skipping `target/`,
/// dot-directories, and this crate's own bad-source fixtures, then runs
/// the cross-artifact coherence pass and the workspace-wide
/// `unreferenced-pub` rule over the same tree.
///
/// File order and diagnostic order are deterministic (sorted), so the
/// output is byte-stable across platforms and runs.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = workspace::collect_files(root)?;
    let files_scanned = files.len();
    let mut diagnostics = Vec::new();
    let mut audit = Vec::new();
    let mut modmap = workspace::ModuleMap::default();
    let mut pub_fns = rules::unreferenced::PubFnIndex::default();
    for path in files {
        let rel = workspace::relpath(root, &path);
        let bytes = fs::read(&path)?;
        let src = String::from_utf8_lossy(&bytes);
        if rel.ends_with("Cargo.toml") {
            let (d, a) = manifest::check_manifest_full(&rel, &src);
            diagnostics.extend(d);
            audit.extend(a);
        } else {
            let ctx = visit::FileCtx::new(&rel, &src);
            let (d, a) = rules::check_file(&ctx);
            diagnostics.extend(d);
            audit.extend(a);
            modmap.record(&rel, &ctx.file);
            pub_fns.record(&ctx);
        }
    }
    diagnostics.extend(coherence::check(root, &modmap));
    diagnostics.extend(pub_fns.check(&audit));
    diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
    diagnostics.dedup();
    audit.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report {
        diagnostics,
        audit,
        files_scanned,
    })
}
