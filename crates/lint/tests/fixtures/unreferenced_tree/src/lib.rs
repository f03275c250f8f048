//! A fixture crate for the `unreferenced-pub` rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Called by the binary next door.
pub fn referenced() {}

/// Nothing names this function.
pub fn orphaned() {}

/// Kept on purpose.
// incam-lint: allow(unreferenced-pub) — stable entry point for callers outside the tree
pub fn kept() {}

/// Crate-visible only, so out of the rule's scope.
pub(crate) fn internal() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
