#![warn(missing_docs)]

//! `pombm-lint` — the workspace determinism-and-unsafety auditor.
//!
//! The repo's signature guarantee — byte-identical output at any
//! shard/thread/partition count — rests on conventions no compiler
//! checks: seed-derived RNG only, no wall-clock reads outside the
//! timings-gated `wall_ms` path, no hash-iteration order leaking into
//! serialized output, and hand-audited `unsafe` SIMD kernels. This crate
//! enforces those conventions mechanically on every push: a hand-rolled
//! lexer ([`lexer`], no `syn` — the container has no crates.io) feeds a
//! rule engine ([`rules`], [`engine`]) that walks `crates/` and `shims/`
//! and emits deterministic, path/line-sorted diagnostics in human and
//! `--json` form, with stable rule ids and exit codes (`0` clean, `1`
//! findings, `2` usage/IO error).
//!
//! # Rule catalogue
//!
//! | Rule | What it enforces |
//! |------|------------------|
//! | `UNSAFE-SAFETY` | Every `unsafe` token (block, fn, impl) is immediately preceded by a `// SAFETY:` comment — same line, or the contiguous comment/attribute run directly above (a blank line breaks the run). |
//! | `TF-DISPATCH` | Every `#[target_feature(enable = "F")]` fn is an `unsafe fn`, and every mention of it outside its definition is either inside the body of a fn gated on the same feature or within [`rules::TF_GUARD_WINDOW`] lines below an `is_x86_feature_detected!("F")` check in the same file. |
//! | `DET-HASH` | No `HashMap`/`HashSet` in non-test code without a waiver: their iteration order is seeded per-process, so any iteration that reaches serialized or order-canonical output flakes goldens. Convert to `BTreeMap`/`BTreeSet`, sort explicitly, or waive stating why order never escapes. `use` declarations are exempt. |
//! | `DET-TIME` | No `Instant::now` / `SystemTime` in non-test code without a waiver: wall-clock belongs only to the timings-gated `wall_ms` path (stripped from golden output) and to the bench crate's measurement code. |
//! | `DET-RNG` | No entropy seeding anywhere — `from_entropy`, `thread_rng`, `OsRng`, `getrandom`, `from_os_rng`. Every RNG state must derive from an explicit seed; this one applies to test code too. |
//! | `WAIVER-REASON` | Escape hatches must explain themselves: `lint:` pragmas need a justification and must name known rules, and every `#[allow(...)]` attribute needs a `reason = "…"` or an adjacent comment. Not itself waivable. |
//! | `UNSAFE-BASELINE` | The per-crate `unsafe` count matches `ci/unsafe-baseline.json` exactly (two-sided ratchet); regenerate with `--update-baseline` after an audited change. |
//!
//! # Waiver syntax
//!
//! A plain line comment (never a doc comment) of the form:
//!
//! ```text
//! // lint: allow(DET-HASH) — lookups only; never iterated.
//! // lint: allow-file(DET-TIME) — wall-clock measurement is this file's purpose.
//! ```
//!
//! `allow` covers the pragma's contiguous comment run (so a multi-line
//! justification stays one waiver) plus the first code line after it —
//! a blank line ends coverage; `allow-file` covers the whole file. The
//! separator may be `—`, `–`, `--`, `-` or `:`; the justification must
//! be non-empty. Several rules may be waived at once:
//! `allow(DET-HASH, DET-TIME) — …`.
//!
//! # Test-code policy
//!
//! Files under `tests/`, `benches/` or `examples/` directories and items
//! under `#[cfg(test)]` are exempt from `DET-HASH`/`DET-TIME` (golden
//! bytes are produced by non-test code), but **not** from `DET-RNG`
//! (an entropy-seeded test is a flaky test) or `UNSAFE-SAFETY`.
//!
//! # CLI
//!
//! ```text
//! pombm-lint [--root DIR] [--json] [--baseline FILE] [--update-baseline] [--list-rules]
//! ```

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{crate_key, Report, SourceFile, Workspace};
pub use lexer::{lex, Lexed, Span, Tok, TokKind};
pub use rules::{Diagnostic, ALL_RULES};
