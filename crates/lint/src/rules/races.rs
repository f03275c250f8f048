//! The determinism race detector.
//!
//! `incam-parallel` keeps outputs byte-identical at any thread count by
//! construction: workers compute into disjoint, pre-placed slots and
//! the pool combines them in a fixed order. That contract only holds if
//! the closures handed to `par_map` are pure per-item functions — the
//! borrow checker stops most shared-mutation attempts, but interior
//! mutability (`Mutex`, `RefCell`, atomics) and `unsafe`-free cell types
//! slip through it, and those are exactly the races that reintroduce
//! schedule-dependent output.
//!
//! Two rules walk every closure whose call target is a pool entry point:
//!
//! - **par-capture-mut** — the closure mutates a binding it *captured*
//!   (anything not bound by its own parameters, `let`s, or `for`
//!   patterns): plain assignment, mutating method calls
//!   (`push`/`insert`/`lock`/`fetch_add`/…), or taking `&mut` to it.
//! - **par-float-accum** — compound `+=`/`-=`/`*=` accumulation into a
//!   captured binding: even when synchronized, the combination order
//!   depends on the schedule, which is non-associative for floats.
//!   The approved shape returns the value from the closure and folds the
//!   results in index order on the calling thread.
//!
//! The capture analysis is lexical and over-approximate in the safe
//! direction: nested-closure parameters and all `let`/`for` bindings in
//! the body count as locals, so a flagged name is genuinely captured;
//! reads of captures are always fine.

use super::{PAR_CAPTURE_MUT, PAR_FLOAT_ACCUM};
use crate::lexer::TokenKind;
use crate::parser::Closure;
use crate::visit::FileCtx;
use crate::Diagnostic;

/// The deterministic pool's entry points taking per-item closures.
pub const PAR_FNS: &[&str] = &["par_map"];

/// Method names that mutate their receiver (or its interior).
const MUT_METHODS: &[&str] = &[
    "push",
    "push_str",
    "pop",
    "insert",
    "insert_str",
    "remove",
    "extend",
    "extend_from_slice",
    "append",
    "clear",
    "truncate",
    "resize",
    "fill",
    "swap",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "retain",
    "drain",
    "dedup",
    "rotate_left",
    "rotate_right",
    "lock",
    "borrow_mut",
    "get_mut",
    "iter_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "store",
    "set",
    "replace",
    "take",
    "write",
];

/// Primitive and keyword names that appear after `&mut` in *type*
/// position; never capture targets.
const TYPE_NAMES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str", "dyn", "impl",
];

/// Runs the race detector over every parallel closure in the file.
pub fn check(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if ctx.in_test_tree() {
        return;
    }
    ctx.each_closure(|_item, closure| {
        let Some(callee) = &closure.callee else {
            return;
        };
        if !PAR_FNS.contains(&callee.as_str()) {
            return;
        }
        if ctx.in_cfg_test(closure.line) {
            return;
        }
        analyze(ctx, callee, closure, diags);
    });
}

/// True when `name` is bound by the closure itself (parameter, `let`,
/// `for` pattern, or a nested closure's parameter).
fn is_bound(closure: &Closure, name: &str) -> bool {
    closure.params.iter().any(|p| p == name) || closure.locals.iter().any(|l| l == name)
}

fn analyze(ctx: &FileCtx<'_>, callee: &str, closure: &Closure, diags: &mut Vec<Diagnostic>) {
    // Significant tokens of the closure body.
    let bsig: Vec<usize> = (closure.body.0..closure.body.1.min(ctx.tokens.len()))
        .filter(|&i| {
            !matches!(
                ctx.tokens[i].kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();

    let adjacent = |a: usize, b: usize| ctx.tokens[a].end == ctx.tokens[b].start;

    for j in 0..bsig.len() {
        let t = bsig[j];
        if ctx.is_punct(t, '=') {
            // Disambiguate `=` from `==`, `=>`, `<=`, `>=`, `!=`, `..=`.
            if j + 1 < bsig.len() {
                let n = bsig[j + 1];
                if (ctx.is_punct(n, '=') || ctx.is_punct(n, '>')) && adjacent(t, n) {
                    continue;
                }
            }
            if j == 0 {
                continue;
            }
            let p = bsig[j - 1];
            let pc = if ctx.tokens[p].kind == TokenKind::Punct {
                ctx.text(p).chars().next().unwrap_or(' ')
            } else {
                ' '
            };
            if matches!(pc, '=' | '<' | '>' | '!' | '.') && adjacent(p, t) {
                continue;
            }
            let compound = "+-*/%&|^".contains(pc) && adjacent(p, t);
            let place_end = if compound {
                if j < 2 {
                    continue;
                }
                j - 2
            } else {
                j - 1
            };
            let Some(base) = place_base(ctx, &bsig, place_end) else {
                continue;
            };
            // `let y: f32 = …` — a type ascription, not a mutation.
            if !compound && base > 0 && ctx.is_punct(bsig[base - 1], ':') {
                continue;
            }
            let name = ctx.text(bsig[base]);
            if is_bound(closure, name) {
                continue;
            }
            let tok = &ctx.tokens[bsig[base]];
            if compound && matches!(pc, '+' | '-' | '*') {
                diags.push(ctx.diag(
                    PAR_FLOAT_ACCUM,
                    tok,
                    format!(
                        "order-sensitive `{pc}=` accumulation into captured `{name}` inside a \
                         `{callee}` closure; return the value from the closure and fold the \
                         results in index order on the calling thread"
                    ),
                ));
            } else {
                diags.push(ctx.diag(PAR_CAPTURE_MUT, tok, mutation_message(callee, name)));
            }
        } else if ctx.tokens[t].kind == TokenKind::Ident
            && j >= 2
            && ctx.is_punct(bsig[j - 1], '.')
            && j + 1 < bsig.len()
            && ctx.is_punct(bsig[j + 1], '(')
            && MUT_METHODS.contains(&ctx.text(t))
        {
            // `captured.push(…)` and friends: resolve the receiver.
            let Some(base) = place_base(ctx, &bsig, j - 2) else {
                continue;
            };
            let name = ctx.text(bsig[base]);
            if is_bound(closure, name) {
                continue;
            }
            let tok = &ctx.tokens[bsig[base]];
            diags.push(ctx.diag(PAR_CAPTURE_MUT, tok, mutation_message(callee, name)));
        } else if ctx.is_punct(t, '&')
            && j + 2 < bsig.len()
            && ctx.is_ident(bsig[j + 1], "mut")
            && ctx.tokens[bsig[j + 2]].kind == TokenKind::Ident
        {
            // `&mut captured` handed onward. Type positions (`&mut [T]`,
            // `&mut f32`, `&mut Writer`) are excluded by the primitive /
            // uppercase-initial screen: captured bindings are lowercase.
            let name = ctx.text(bsig[j + 2]);
            if is_bound(closure, name)
                || TYPE_NAMES.contains(&name)
                || name.chars().next().is_some_and(|c| c.is_uppercase())
            {
                continue;
            }
            let tok = &ctx.tokens[bsig[j + 2]];
            diags.push(ctx.diag(PAR_CAPTURE_MUT, tok, mutation_message(callee, name)));
        }
    }
}

fn mutation_message(callee: &str, name: &str) -> String {
    format!(
        "closure passed to `{callee}` mutates captured `{name}`; per-item work must be \
         pure — return the value and let the deterministic pool combine results"
    )
}

/// Resolves the base identifier of a place expression whose last token
/// sits at `bsig[end]`: walks `a.b`, `a.0`, and `a[i]` chains back to
/// `a`. Returns `None` when the chain bottoms out in anything but a
/// plain identifier (a call result, a parenthesized expression, …).
fn place_base(ctx: &FileCtx<'_>, bsig: &[usize], end: usize) -> Option<usize> {
    let mut k = end;
    loop {
        let t = *bsig.get(k)?;
        if ctx.is_punct(t, ']') {
            // Walk back to the matching `[`, then the token before it.
            let mut depth = 0i64;
            loop {
                let tt = bsig[k];
                if ctx.is_punct(tt, ']') {
                    depth += 1;
                } else if ctx.is_punct(tt, '[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        } else if matches!(ctx.tokens[t].kind, TokenKind::Ident | TokenKind::Number) {
            if k > 0 && ctx.is_punct(bsig[k - 1], '.') {
                if k < 2 {
                    return None;
                }
                k -= 2;
            } else if ctx.tokens[t].kind == TokenKind::Ident {
                // Path segments (`Mod::CONST = …` can't happen; `::`
                // before the ident means this is not a local capture).
                if k > 0 && ctx.is_punct(bsig[k - 1], ':') {
                    return None;
                }
                return Some(k);
            } else {
                return None;
            }
        } else {
            return None;
        }
    }
}
