//! `unreferenced-pub` — public functions nothing in the workspace names.
//!
//! A `pub fn` (or `pub const fn`) in non-test library code whose name
//! appears as a whole word nowhere else in any linted `.rs` file has no
//! caller: no call site, no test, no doc link, no doc-test. Comments and
//! strings count as uses, so the match is the same as `grep -w` over the
//! tree; a name shared with any other word counts as referenced, so the
//! rule can miss dead code but never flags a function something names.
//! "Library code" is the `fallible-unwrap` scope.
//!
//! Unlike the per-file rules, this one needs every file. The workspace
//! walk feeds each parsed file to a [`PubFnIndex`], then asks it for
//! findings once the walk is done, honouring the pragmas the per-file
//! pass already collected.

use super::numeric::is_library_code;
use super::UNREFERENCED_PUB;
use crate::parser::{Item, ItemKind};
use crate::visit::FileCtx;
use crate::{AuditEntry, Diagnostic};
use std::collections::BTreeMap;

/// Workspace-wide word counts plus every library `pub fn` definition.
#[derive(Debug, Default)]
pub struct PubFnIndex {
    /// Each library `pub fn`'s name with the finding it would raise.
    defs: Vec<(String, Diagnostic)>,
    /// Whole-word occurrence counts over every recorded file.
    words: BTreeMap<String, u32>,
}

impl PubFnIndex {
    /// Counts the words of one file and records its library `pub fn`s.
    pub fn record(&mut self, ctx: &FileCtx<'_>) {
        for word in ctx
            .src
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
        {
            *self.words.entry(word.to_string()).or_insert(0) += 1;
        }
        if is_library_code(ctx.relpath) {
            self.collect(ctx, &ctx.file.items);
        }
    }

    fn collect(&mut self, ctx: &FileCtx<'_>, items: &[Item]) {
        for item in items.iter().filter(|i| !i.cfg_test) {
            if let (ItemKind::Fn, Some(name)) = (item.kind, &item.name) {
                let pub_ix = item.tokens.0;
                if ctx.is_ident(pub_ix, "pub") && !next_sig_is_paren(ctx, pub_ix) {
                    let message = format!(
                        "`pub fn {name}` is named nowhere else in the workspace; delete it, \
                         give it a caller, or keep it with a reasoned pragma"
                    );
                    let diag = ctx.diag(UNREFERENCED_PUB, &ctx.tokens[pub_ix], message);
                    self.defs.push((name.clone(), diag));
                }
            }
            self.collect(ctx, &item.children);
        }
    }

    /// The recorded definitions whose name occurs only once in the
    /// whole tree (the definition itself), minus those an
    /// `allow(unreferenced-pub)` pragma in `audit` keeps.
    pub fn check(&self, audit: &[AuditEntry]) -> Vec<Diagnostic> {
        self.defs
            .iter()
            .filter(|(name, _)| self.words.get(name.as_str()) == Some(&1))
            .map(|(_, d)| d)
            .filter(|d| {
                !audit.iter().any(|a| {
                    a.rule == UNREFERENCED_PUB
                        && a.path == d.path
                        && (d.line == a.line || d.line == a.line + 1)
                })
            })
            .cloned()
            .collect()
    }
}

/// True when the significant token after `ix` opens a `(` — the
/// restricted visibility of `pub(crate)` and friends.
fn next_sig_is_paren(ctx: &FileCtx<'_>, ix: usize) -> bool {
    let next = ctx
        .sig
        .binary_search(&ix)
        .ok()
        .and_then(|p| ctx.sig.get(p + 1));
    next.is_some_and(|&n| ctx.is_punct(n, '('))
}
