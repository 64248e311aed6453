//! `determinism` — reports must be a pure function of
//! (artifact, scenario, seed, config).
//!
//! Bans, in lib and bin code (tests exempt):
//!
//! * wall-clock types (`Instant`, `SystemTime`) — timing belongs in
//!   the bench harness, never in simulation or rendering;
//! * hash-order collections (`HashMap`, `HashSet`, `RandomState`,
//!   `DefaultHasher`) — iteration order varies run to run, the exact
//!   bug class PRs 4–6 scrubbed out of render paths;
//! * runtime environment reads (`env::var`, `env::args`, ...) —
//!   ambient inputs that bypass the config hash.
//!
//! Legitimate wall-time capture (the sweep's per-job timings, the
//! serve daemon's socket timeouts) and CLI argv intake live behind
//! `lint.toml` allowlists or per-line annotations, each with a
//! recorded reason.

use super::{ident_in, punct_is, FileCtx};
use crate::context::FileKind;
use crate::diag::{Diagnostic, Rule};

const BANNED_TYPES: [&str; 6] = [
    "Instant",
    "SystemTime",
    "HashMap",
    "HashSet",
    "RandomState",
    "DefaultHasher",
];

const ENV_READS: [&str; 9] = [
    "var",
    "vars",
    "var_os",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "current_exe",
    "temp_dir",
];

/// Scans one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::TestLike {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let line = toks[i].line;
        if ctx.in_test(line) {
            continue;
        }
        if ident_in(toks, i, &BANNED_TYPES) {
            let what = &toks[i].text;
            let hint = match what.as_str() {
                "Instant" | "SystemTime" => {
                    "wall-clock reads make output depend on the host; \
                     timing capture belongs in allowlisted bench code"
                }
                _ => {
                    "iteration order is nondeterministic; \
                      use BTreeMap/BTreeSet or a sorted Vec"
                }
            };
            ctx.diag(
                out,
                line,
                Rule::Determinism,
                format!("banned nondeterministic construct `{what}` — {hint}"),
            );
        }
        if super::ident_is(toks, i, "env")
            && punct_is(toks, i + 1, "::")
            && ident_in(toks, i + 2, &ENV_READS)
        {
            ctx.diag(
                out,
                line,
                Rule::Determinism,
                format!(
                    "runtime environment read `env::{}` — ambient input \
                     bypasses the (artifact, scenario, seed, config) contract",
                    toks[i + 2].text
                ),
            );
        }
    }
}
