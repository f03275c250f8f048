//! The determinism, hermeticity, race and numeric-safety rules.
//!
//! v2 of the engine: every Rust source is lexed *and parsed* (see
//! [`crate::parser`]) into a [`FileCtx`], and the
//! rules are small visitor passes over that context — token-pattern
//! scans for the symbol rules, closure walks for the race detector,
//! parsed `cfg(test)` regions instead of the v1 brace heuristic. The
//! rules name *hazards* (a wall-clock symbol, an unordered container, a
//! mutated capture in a parallel closure) that a reviewer then either
//! removes or justifies with a reasoned pragma — they are not a type
//! checker, and a determined author can evade them; CI review is the
//! backstop for that.
//!
//! Rule families:
//! - [`determinism`] — wall-clock, unordered-iteration, raw-thread,
//!   env-read (the v1 allowlist rules).
//! - [`races`] — par-capture-mut and par-float-accum, the determinism
//!   race detector over closures passed to `incam_parallel::par_*`.
//! - [`numeric`] — lossy-cast and unchecked-arith in the hot-kernel
//!   crates, plus fallible-unwrap over all non-test library code.
//! - [`hygiene`] — crate-root lint attributes.
//! - [`unreferenced`] — unreferenced-pub, the one rule that needs every
//!   file: [`crate::lint_workspace`] runs it after the walk.
//!
//! `registry-dep` stays in [`crate::manifest`] (it reads TOML, not
//! Rust) and the cross-artifact checks live in [`crate::coherence`].

pub mod determinism;
pub mod hygiene;
pub mod numeric;
pub mod races;
pub mod unreferenced;

use crate::lexer::TokenKind;
use crate::pragma::{self, Pragma};
use crate::visit::FileCtx;
use crate::{AuditEntry, Diagnostic};

/// `Instant`/`SystemTime` — wall-clock reads outside the bench harness.
pub const WALL_CLOCK: &str = "wall-clock";
/// `HashMap`/`HashSet` in non-test code — unstable iteration order.
pub const UNORDERED_ITERATION: &str = "unordered-iteration";
/// `std::thread` outside the deterministic worker pool.
pub const RAW_THREAD: &str = "raw-thread";
/// `std::env` outside the allowlisted `INCAM_*` configuration sites.
pub const ENV_READ: &str = "env-read";
/// Non-`path` dependencies in a `Cargo.toml`.
pub const REGISTRY_DEP: &str = "registry-dep";
/// Crate roots missing `#![forbid(unsafe_code)]` / a `missing_docs` lint.
pub const CRATE_HYGIENE: &str = "crate-hygiene";
/// `.unwrap()`/`.expect(...)` in non-test library code.
pub const FALLIBLE_UNWRAP: &str = "fallible-unwrap";
/// Mutation of captured state inside an `incam_parallel` closure.
pub const PAR_CAPTURE_MUT: &str = "par-capture-mut";
/// Order-sensitive compound accumulation into a captured binding
/// inside an `incam_parallel` closure.
pub const PAR_FLOAT_ACCUM: &str = "par-float-accum";
/// Narrowing `as` casts without an explicit clamp in hot-kernel crates.
pub const LOSSY_CAST: &str = "lossy-cast";
/// Wrapping/unchecked arithmetic in hot-kernel crates.
pub const UNCHECKED_ARITH: &str = "unchecked-arith";
/// A library `pub fn` whose name appears nowhere else in the workspace.
pub const UNREFERENCED_PUB: &str = "unreferenced-pub";
/// Experiment/CI/docs/results drift (see [`crate::coherence`]).
pub const COHERENCE: &str = "coherence";
/// Meta-rule: malformed pragmas, unknown rule ids, missing reasons.
pub const PRAGMA: &str = "pragma";

/// Rules a pragma may suppress ([`PRAGMA`] and [`COHERENCE`] are not
/// suppressible: the former is the meta-rule, the latter is repaired by
/// fixing the artifact drift it names, not by waiving it).
pub const ALLOWABLE_RULES: [&str; 12] = [
    WALL_CLOCK,
    UNORDERED_ITERATION,
    RAW_THREAD,
    ENV_READ,
    REGISTRY_DEP,
    CRATE_HYGIENE,
    FALLIBLE_UNWRAP,
    PAR_CAPTURE_MUT,
    PAR_FLOAT_ACCUM,
    LOSSY_CAST,
    UNCHECKED_ARITH,
    UNREFERENCED_PUB,
];

/// Runs every Rust-source rule over `src`, applying pragma suppression.
///
/// `relpath` is the workspace-relative path with `/` separators; the
/// allowlists and the test/bench-directory exemptions key off it, and it
/// prefixes every diagnostic.
pub fn check_rust_source(relpath: &str, src: &str) -> Vec<Diagnostic> {
    check_rust_source_full(relpath, src).0
}

/// Like [`check_rust_source`], also returning the audit trail of valid
/// suppression pragmas (for `--audit`).
pub fn check_rust_source_full(relpath: &str, src: &str) -> (Vec<Diagnostic>, Vec<AuditEntry>) {
    let ctx = FileCtx::new(relpath, src);
    check_file(&ctx)
}

/// Runs every Rust-source rule over an already-built [`FileCtx`] (the
/// workspace walk builds the context once and reuses its parse for the
/// module map).
pub fn check_file(ctx: &FileCtx<'_>) -> (Vec<Diagnostic>, Vec<AuditEntry>) {
    let relpath = ctx.relpath;
    let mut diags = Vec::new();
    let pragmas = collect_pragmas(ctx, &mut diags);

    determinism::check(ctx, &mut diags);
    races::check(ctx, &mut diags);
    numeric::check(ctx, &mut diags);
    hygiene::check(ctx, &mut diags);

    let audit = pragmas
        .iter()
        .map(|p| AuditEntry {
            path: relpath.to_string(),
            line: p.line,
            rule: p.rule,
            reason: p.reason.clone(),
        })
        .collect();
    (suppress(diags, &pragmas), audit)
}

/// Extracts pragmas from plain `//` comments (doc comments excluded);
/// malformed ones become [`PRAGMA`] diagnostics.
fn collect_pragmas(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for tok in &ctx.tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let text = tok.text(ctx.src);
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        match pragma::parse_pragma(&text[2..]) {
            Ok(None) => {}
            Ok(Some((rule, reason))) => pragmas.push(Pragma {
                line: tok.line,
                rule,
                reason,
            }),
            Err(e) => diags.push(Diagnostic {
                path: ctx.relpath.to_string(),
                line: tok.line,
                col: tok.col,
                rule: PRAGMA,
                message: e.message(),
            }),
        }
    }
    pragmas
}

/// Drops diagnostics whose rule is allowed by a pragma on the same line
/// or the line directly above, then sorts and deduplicates for
/// deterministic output.
pub fn suppress(diags: Vec<Diagnostic>, pragmas: &[Pragma]) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| {
            !pragmas
                .iter()
                .any(|p| p.rule == d.rule && (d.line == p.line || d.line == p.line + 1))
        })
        .collect();
    out.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
    out.dedup();
    out
}

/// The v1 `cfg(test)` brace-matching heuristic, kept as the oracle the
/// parser-based extraction is compared against in `tests/parser_prop.rs`.
///
/// Inclusive line ranges of `#[cfg(test)]`-gated items (the attribute
/// line through the closing brace of the item body). Items gated but
/// braceless (`mod tests;`) contribute no range.
pub fn brace_cfg_test_line_spans(src: &str) -> Vec<(u32, u32)> {
    let tokens = crate::lexer::lex(src);
    let sig: Vec<&crate::lexer::Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let is_punct =
        |t: &crate::lexer::Token, c: char| t.kind == TokenKind::Punct && t.text(src).starts_with(c);
    let is_ident =
        |t: &crate::lexer::Token, name: &str| t.kind == TokenKind::Ident && t.text(src) == name;
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 4 < sig.len() {
        let is_cfg_attr = is_punct(sig[i], '#')
            && is_punct(sig[i + 1], '[')
            && is_ident(sig[i + 2], "cfg")
            && is_punct(sig[i + 3], '(');
        if !is_cfg_attr {
            i += 1;
            continue;
        }
        // Scan the balanced (...) group looking for a `test` token.
        let mut j = i + 4;
        let mut depth = 1u32;
        let mut saw_test = false;
        while j < sig.len() && depth > 0 {
            if is_punct(sig[j], '(') {
                depth += 1;
            } else if is_punct(sig[j], ')') {
                depth -= 1;
            } else if is_ident(sig[j], "test") {
                saw_test = true;
            }
            j += 1;
        }
        // Expect the closing `]`, then the gated item's body brace.
        if !saw_test || j >= sig.len() || !is_punct(sig[j], ']') {
            i = j;
            continue;
        }
        let mut k = j + 1;
        while k < sig.len() && !is_punct(sig[k], '{') && !is_punct(sig[k], ';') {
            k += 1;
        }
        if k >= sig.len() || is_punct(sig[k], ';') {
            i = k;
            continue;
        }
        let open = k;
        let mut braces = 1u32;
        k += 1;
        while k < sig.len() && braces > 0 {
            if is_punct(sig[k], '{') {
                braces += 1;
            } else if is_punct(sig[k], '}') {
                braces -= 1;
            }
            k += 1;
        }
        let close_line = sig[(k.max(open + 1) - 1).min(sig.len() - 1)].line;
        spans.push((sig[i].line, close_line));
        i = k;
    }
    spans
}
