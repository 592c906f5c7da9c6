//! Static and dynamic correctness tooling for the workspace.
//!
//! Two engines live here, both dependency-free and both wired into CI as
//! required gates:
//!
//! * [`lint`] — `wfsim_lint`, a token-level lint pass over the workspace
//!   sources enforcing repo-specific invariants that `rustc`/`clippy`
//!   cannot know about: the no-panic discipline of the library core, the
//!   justification comments on atomic memory orderings, the lock- and
//!   allocation-freedom of marked hot loops, the frozen-interner
//!   convention on search read paths, and the workspace-wide `unsafe`
//!   ban.  Run it with `cargo run -p wf-analyze --bin wfsim_lint`.
//! * the model-check suite (under `tests/`) — deterministic interleaving
//!   exploration of the lock-free search core using the vendored
//!   `shuttle-mini` scheduler: the monotone `SearchThreshold` floor
//!   under concurrent observers, merge determinism, and `CorpusService`
//!   plain and deadline search-versus-churn linearizability, plus a
//!   mutation test proving the checker actually catches the bug class it
//!   exists for.
//!
//! The rule table, the allow-comment syntax, and how to reproduce a
//! failing model-check schedule from its seed are documented in the
//! repository README under "Correctness tooling".

#![deny(unsafe_code)]

pub mod lexer;
pub mod lint;

pub use lint::{
    config_for_path, lint_source, lint_workspace, Diagnostic, LintConfig, RuleInfo, RULES,
};
