//! Numeric-safety rules.
//!
//! The hot-kernel crates (`imaging`, `bilateral`, `viola`, `nn`) carry
//! the paper's accuracy claims: a silent truncation or wrap in an
//! accumulator changes reported energy/accuracy numbers without failing
//! any test until a golden transcript moves. Two rules make those
//! hazards explicit there, and a third widens the fail-closed unwrap
//! rule from `crates/auth` to every non-test library source.
//!
//! - **lossy-cast** — `as u8`/`i8`/`u16`/`i16` narrowing casts with no
//!   visible guard. A `.clamp(`/`.min(`/`%` within the preceding few
//!   tokens counts as a guard (the idiomatic `x.clamp(0.0, 255.0) as
//!   u8` stays silent); anything else either gets an explicit clamp or
//!   a pragma explaining why the range is known.
//! - **unchecked-arith** — `.wrapping_*(`, `.get_unchecked*(`,
//!   `.unwrap_unchecked(`: wraps and check-bypasses in kernels are
//!   occasionally intentional (the delta codec's bias shifts) but must
//!   say so.
//! - **fallible-unwrap** — `.unwrap()`/`.expect(` anywhere in non-test
//!   library code. The serving path is fail-closed by contract
//!   (PR 8): a panic sheds every camera behind the service, so
//!   recoverable errors must flow to callers. Binaries
//!   (`src/main.rs`, `src/bin/`), examples, tests, benches and
//!   `cfg(test)` regions are exempt.

use super::{FALLIBLE_UNWRAP, LOSSY_CAST, UNCHECKED_ARITH};
use crate::lexer::TokenKind;
use crate::visit::FileCtx;
use crate::Diagnostic;

/// Crates whose inner loops feed the paper's accuracy/energy numbers.
const HOT_KERNEL_CRATES: &[&str] = &[
    "crates/imaging/",
    "crates/bilateral/",
    "crates/viola/",
    "crates/nn/",
];

/// Narrow integer targets that drop bits from any wider source.
const NARROW_TYPES: &[&str] = &["u8", "i8", "u16", "i16"];

/// Methods that bypass overflow or bounds checks.
const UNCHECKED_METHODS: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "wrapping_neg",
    "wrapping_shl",
    "wrapping_shr",
    "get_unchecked",
    "get_unchecked_mut",
    "unwrap_unchecked",
];

/// How many significant tokens before `as` are searched for a guard
/// (wide enough for `(p.clamp(0.0, 1.0) * 255.0).round() as u8`).
const GUARD_WINDOW: usize = 16;

/// Runs the numeric-safety rules over one file.
pub fn check(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    let hot = HOT_KERNEL_CRATES.iter().any(|c| ctx.relpath.starts_with(c));
    if hot && !ctx.in_test_tree() {
        check_lossy_casts(ctx, diags);
        check_unchecked(ctx, diags);
    }
    check_unwraps(ctx, diags);
}

fn check_lossy_casts(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    for w in 0..ctx.sig.len().saturating_sub(1) {
        let as_ix = ctx.sig[w];
        if !ctx.is_ident(as_ix, "as") {
            continue;
        }
        let ty_ix = ctx.sig[w + 1];
        if ctx.tokens[ty_ix].kind != TokenKind::Ident || !NARROW_TYPES.contains(&ctx.text(ty_ix)) {
            continue;
        }
        let tok = &ctx.tokens[as_ix];
        if ctx.in_cfg_test(tok.line) {
            continue;
        }
        // A visible guard upstream of the cast silences the rule.
        let lo = w.saturating_sub(GUARD_WINDOW);
        let guarded = (lo..w).any(|k| {
            let ix = ctx.sig[k];
            ctx.is_ident(ix, "clamp") || ctx.is_ident(ix, "min") || ctx.is_punct(ix, '%')
        });
        if guarded {
            continue;
        }
        diags.push(ctx.diag(
            LOSSY_CAST,
            tok,
            format!(
                "`as {}` silently truncates in a hot kernel; clamp or mask the value \
                 explicitly before narrowing, or justify the range with a pragma",
                ctx.text(ty_ix)
            ),
        ));
    }
}

fn check_unchecked(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    for tok in ctx.method_calls(UNCHECKED_METHODS) {
        if ctx.in_cfg_test(tok.line) {
            continue;
        }
        diags.push(ctx.diag(
            UNCHECKED_ARITH,
            tok,
            format!(
                "`.{}(` bypasses overflow/bounds checks in a hot kernel; use widening or \
                 checked arithmetic, or justify the wrap with a pragma",
                tok.text(ctx.src)
            ),
        ));
    }
}

/// True for paths the widened fallible-unwrap rule covers: library
/// sources (`src/` trees) excluding binaries, examples and test trees.
pub(crate) fn is_library_code(relpath: &str) -> bool {
    let in_src = relpath.starts_with("src/") || relpath.contains("/src/");
    let is_bin = relpath.ends_with("src/main.rs") || relpath.contains("/src/bin/");
    let exempt_tree = relpath
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    in_src && !is_bin && !exempt_tree
}

fn check_unwraps(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if !is_library_code(ctx.relpath) {
        return;
    }
    for tok in ctx.method_calls(&["unwrap", "expect"]) {
        if ctx.in_cfg_test(tok.line) {
            continue;
        }
        diags.push(ctx.diag(
            FALLIBLE_UNWRAP,
            tok,
            format!(
                "`.{}(` can panic in non-test library code; propagate the error to the \
                 caller, or state the invariant that makes it unreachable in a pragma",
                tok.text(ctx.src)
            ),
        ));
    }
}
