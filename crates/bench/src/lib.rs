//! # hyvec-bench — the `hyvec` command-line front end
//!
//! The one binary, `src/bin/hyvec.rs`, regenerates every figure and
//! table of the paper's evaluation. Each report command (`fig3`,
//! `area`, `ablations`, `run-all`, ...) is a filtered view of the
//! standard [`Registry`](hyvec_core::registry::Registry): the [`cli`]
//! module parses the shared flags and builds the
//! [`SweepBuilder`](hyvec_core::sweep::SweepBuilder), the core sweep
//! engine runs it, and the shared text/JSON/CSV backends render it
//! (`--format`). The [`tracecmd`] module implements the `hyvec trace`
//! subcommand (generate/encode/decode/info/replay over trace files),
//! and `hyvec serve` hands over to [`hyvec_serve`].
//!
//! Performance is measured by the separate `benchmark/` package, not
//! by this crate: a report run writes its report to stdout and
//! nothing else.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cli;
pub mod tracecmd;
