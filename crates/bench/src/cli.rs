//! Shared command-line plumbing for the `hyvec` front end.
//!
//! Every report command is the same pipeline: parse the common
//! flags, select experiments from the standard
//! [`Registry`] with a [`SweepBuilder`], run, and hand the typed
//! report to the requested [`Format`] backend. A job's output is
//! therefore byte-identical whether it is produced by a single
//! `hyvec` subcommand or by `hyvec run-all`, serially or in parallel.

use std::io::{ErrorKind, Write};

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::registry::Registry;
use hyvec_core::render::Format;
use hyvec_core::sweep::{default_jobs, SweepBuilder};

/// Options shared by every report command and `hyvec list`.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Run parameters (instruction budget + base seed).
    pub params: ExperimentParams,
    /// Worker threads; defaults to the core count.
    pub jobs: usize,
    /// Output format.
    pub format: Format,
    /// Glob filters over experiment ids (`--filter`, repeatable).
    pub globs: Vec<String>,
    /// Decode every word every access touches, pristine ones
    /// included (`--force-slow-path`): the reference path. The report
    /// is byte-identical with or without it.
    pub force_slow_path: bool,
    /// Worker threads of the epoch-parallel multi-core engine
    /// (`--sim-threads`; default 1 = the worker phase runs inline).
    /// Orthogonal to `--jobs`, which parallelizes across experiments;
    /// the report is byte-identical at every value.
    pub sim_threads: usize,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            params: ExperimentParams::default(),
            jobs: default_jobs(),
            format: Format::Text,
            globs: Vec::new(),
            force_slow_path: false,
            sim_threads: 1,
        }
    }
}

/// The flag summary shared by every usage string.
pub const FLAGS_USAGE: &str = "[--instructions N] [--seed S] [--jobs J] [--sim-threads T] [--format text|json|csv] [--filter GLOB] [--force-slow-path]";

/// Parses the common flags from an argument iterator (after any
/// subcommand has been consumed).
pub fn parse_flags(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut args = args.peekable();
    let mut options = CliOptions::default();
    while let Some(flag) = args.next() {
        // Boolean flags take no value.
        if flag == "--force-slow-path" {
            options.force_slow_path = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--instructions" | "-n" => {
                options.params.instructions = value
                    .parse()
                    .map_err(|e| format!("bad --instructions: {e}"))?;
            }
            "--seed" | "-s" => {
                options.params.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--jobs" | "-j" => {
                options.jobs = value.parse().map_err(|e| format!("bad --jobs: {e}"))?;
                if options.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--sim-threads" => {
                options.sim_threads = value
                    .parse()
                    .map_err(|e| format!("bad --sim-threads: {e}"))?;
                if options.sim_threads == 0 {
                    return Err("--sim-threads must be at least 1".to_string());
                }
            }
            "--format" | "-f" => {
                options.format = value.parse()?;
            }
            "--filter" => {
                options.globs.push(value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    options
        .params
        .validate()
        .map_err(|e| format!("bad --instructions: {e}"))?;
    Ok(options)
}

/// Builds the sweep for `options`, restricted to `artifacts` (empty =
/// everything).
pub fn sweep_for(options: &CliOptions, artifacts: &[&str]) -> SweepBuilder {
    let mut builder = SweepBuilder::new()
        .params(options.params)
        .jobs(options.jobs)
        .force_slow_path(options.force_slow_path)
        .sim_threads(options.sim_threads);
    if !artifacts.is_empty() {
        builder = builder.artifacts(artifacts.iter().copied());
    }
    for glob in &options.globs {
        builder = builder.filter(glob.clone());
    }
    builder
}

/// [`sweep_for`] for a report command, refused when it selects no
/// registered experiment: a mistyped `--filter` glob fails instead of
/// printing an empty report.
pub fn report_sweep(options: &CliOptions, artifacts: &[&str]) -> Result<SweepBuilder, String> {
    let builder = sweep_for(options, artifacts);
    if Registry::standard()
        .ids()
        .iter()
        .any(|id| builder.selects(id))
    {
        return Ok(builder);
    }
    let scope = if artifacts.is_empty() {
        "the registry".to_string()
    } else {
        artifacts.join(", ")
    };
    let globs: Vec<String> = options
        .globs
        .iter()
        .map(|g| format!("--filter {g:?}"))
        .collect();
    Err(format!(
        "no experiment in {scope} matches {} (`hyvec list` shows the ids)",
        globs.join(" ")
    ))
}

/// Writes a command's whole output to `out`. A reader that has gone
/// away (`hyvec list | head`) ends the output quietly; any other
/// write error is returned.
pub fn write_output(out: &mut impl Write, text: &str) -> Result<(), String> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("could not write output: {e}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_flags(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags_parse() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.format, Format::Text);
        assert_eq!(d.params.instructions, 100_000);
        let o = parse(&[
            "--instructions",
            "5000",
            "--seed",
            "9",
            "--jobs",
            "2",
            "--format",
            "json",
            "--filter",
            "fig3/*",
            "--filter",
            "area/*",
        ])
        .unwrap();
        assert_eq!(o.params.instructions, 5000);
        assert_eq!(o.params.seed, 9);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.globs, vec!["fig3/*", "area/*"]);
    }

    #[test]
    fn force_slow_path_is_a_bare_flag() {
        assert!(!parse(&[]).unwrap().force_slow_path);
        // Takes no value, anywhere in the argument list.
        let o = parse(&["--force-slow-path", "--jobs", "2"]).unwrap();
        assert!(o.force_slow_path);
        assert_eq!(o.jobs, 2);
        let o = parse(&["--jobs", "2", "--force-slow-path"]).unwrap();
        assert!(o.force_slow_path);
    }

    #[test]
    fn sim_threads_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().sim_threads, 1);
        let o = parse(&["--sim-threads", "8", "--jobs", "2"]).unwrap();
        assert_eq!(o.sim_threads, 8);
        assert_eq!(o.jobs, 2);
        assert!(parse(&["--sim-threads", "0"]).is_err());
        assert!(parse(&["--sim-threads"]).is_err());
    }

    #[test]
    fn zero_instructions_is_rejected() {
        let err = parse(&["--instructions", "0"]).unwrap_err();
        assert!(err.contains("instructions must be at least 1"), "{err}");
        assert!(parse(&["-n", "1"]).is_ok());
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--format", "yaml"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--wat", "1"]).is_err());
        // Report commands write only to stdout: no side-file option.
        assert!(parse(&["--bench-out", "x.json"]).is_err());
    }

    #[test]
    fn sweep_for_applies_artifact_and_glob_filters() {
        let mut options = CliOptions::default();
        options.globs.push("*/A".to_string());
        let builder = sweep_for(&options, &["fig3", "fig4"]);
        assert!(builder.selects("fig3/A"));
        assert!(!builder.selects("fig3/B"));
        assert!(!builder.selects("area/A"));
        let unrestricted = sweep_for(&CliOptions::default(), &[]);
        assert!(unrestricted.selects("soft-errors/B"));
    }

    #[test]
    fn report_sweep_refuses_an_empty_selection() {
        let with_globs = |globs: &[&str]| CliOptions {
            globs: globs.iter().map(|g| g.to_string()).collect(),
            ..CliOptions::default()
        };
        let err = report_sweep(&with_globs(&["nonesuch/*"]), &[]).unwrap_err();
        assert!(err.contains("the registry"), "{err}");
        assert!(err.contains("--filter \"nonesuch/*\""), "{err}");
        // A glob that names an artifact outside the command's own.
        let err = report_sweep(&with_globs(&["fig4/*"]), &["fig3"]).unwrap_err();
        assert!(err.contains("fig3"), "{err}");
        assert!(err.contains("--filter \"fig4/*\""), "{err}");
        // One matching glob among several is enough.
        assert!(report_sweep(&with_globs(&["nonesuch/*", "fig3/A"]), &[]).is_ok());
        assert!(report_sweep(&CliOptions::default(), &["area"]).is_ok());
    }

    /// A writer whose every write fails with one error kind.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_output_ends_quietly_on_a_closed_pipe() {
        let mut out = Vec::new();
        assert_eq!(write_output(&mut out, "fig3/A\n"), Ok(()));
        assert_eq!(out, b"fig3/A\n");
        assert_eq!(
            write_output(&mut Failing(ErrorKind::BrokenPipe), "fig3/A\n"),
            Ok(())
        );
        let err = write_output(&mut Failing(ErrorKind::PermissionDenied), "x").unwrap_err();
        assert!(err.contains("could not write output"), "{err}");
    }
}
