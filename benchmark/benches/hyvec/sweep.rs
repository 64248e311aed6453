//! `sweep`: the full standard registry at the CLI default budget, run
//! in-process through `SweepBuilder` the way `hyvec run-all` runs it.

use std::time::Instant;

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::render::{render, Format};
use hyvec_core::sweep::{default_jobs, SweepBuilder, SweepOutcome};
use hyvec_core::Registry;

use crate::check::{csv_parses, json_parses};
use crate::stats::{fnv1a, Samples};
use crate::{rounds, set_up, Ctx, Outcome};

/// Instructions per benchmark: the `hyvec run-all` default.
pub const INSTRUCTIONS: u64 = 100_000;
/// Budget of the untimed warm-up sweep that ends set-up.
const WARMUP_INSTRUCTIONS: u64 = 10_000;

/// The artifact whose jobs run the multi-core engine; every other job
/// is single-core.
const MULTICORE_ARTIFACT: &str = "ablation-cores/";

/// Metric-name form of an experiment id (`ablation-cores/B` →
/// `ablation-cores.B`).
pub fn metric_id(id: &str) -> String {
    id.replace('/', ".")
}

pub fn run(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let params = ExperimentParams {
        instructions: INSTRUCTIONS,
        seed: ctx.seed,
    };
    let jobs = default_jobs();
    // Set-up: build the registry a sweep enumerates, then one reduced
    // sweep so lazy initialisation is done before the first timed round.
    let setup = || {
        let r = Registry::standard();
        SweepBuilder::new()
            .params(ExperimentParams {
                instructions: WARMUP_INSTRUCTIONS,
                seed: ctx.seed,
            })
            .jobs(jobs)
            .run_with(&r);
        r
    };
    let registry = set_up(&mut out, setup);
    let builder = SweepBuilder::new().params(params).jobs(jobs);

    let tracer = ctx.tracer;
    let mut reference: Option<u64> = None;
    let mut first: Option<SweepOutcome> = None;
    let mut jobs_summed = Samples::default();
    rounds(ctx, seconds, &mut out, |out, traced| {
        let start = Instant::now();
        let (outcome, text) = tracer.time("bench.sweep.round", None, |root| {
            let outcome = tracer.time("core.sweep.run", root, |_| builder.run_with(&registry));
            let text = tracer.time("core.render.text", root, |_| {
                render(&outcome.report, Format::Text)
            });
            (outcome, text)
        });
        let secs = start.elapsed().as_secs_f64();
        let fingerprint = fnv1a(text.as_bytes());
        let expected = *reference.get_or_insert(fingerprint);
        let sections = outcome.report.sections.len();
        out.op(fingerprint == expected && sections == registry.len(), || {
            format!("sweep report fingerprint {fingerprint:016x} != {expected:016x} ({sections} sections)")
        });
        if !traced {
            let single_core: u128 = outcome
                .timings
                .iter()
                .filter(|t| !t.label.starts_with(MULTICORE_ARTIFACT))
                .map(|t| t.wall_nanos)
                .sum();
            out.fast.push(single_core as f64 / 1e9);
            let critical = outcome
                .timings
                .iter()
                .map(|t| t.wall_nanos)
                .max()
                .unwrap_or(0);
            out.slow.push(critical as f64 / 1e9);
            jobs_summed.push(outcome.summed_job_wall_nanos() as f64 / 1e9);
        }
        if first.is_none() {
            let json = render(&outcome.report, Format::Json);
            let csv = render(&outcome.report, Format::Csv);
            out.op(json_parses(&json), || {
                "sweep JSON render does not parse".to_string()
            });
            out.op(csv_parses(&csv), || {
                "sweep CSV render does not parse".to_string()
            });
            first = Some(outcome);
        }
        secs
    });

    drop(set_up(&mut out, setup));

    out.param("instructions", INSTRUCTIONS.to_string());
    out.param("jobs", jobs.to_string());
    out.param("sim_threads", "1".to_string());
    out.param("sections", registry.len().to_string());
    out.param(
        "report_fingerprint",
        format!("\"{:016x}\"", reference.unwrap_or(0)),
    );
    out.timing("sweep_wall_s", out.rounds.clone(), 1.0, "s");
    out.timing("sweep_cpu_s", jobs_summed, 1.0, "s");
    out.timing("critical_job_s", out.slow.clone(), 1.0, "s");
    if let Some(first) = first {
        out.layer_metrics(layer_metrics(&first, jobs));
        out.report = Some(first.report);
    }
    out
}

/// The per-layer figures one sweep yields: per-job wall times, the
/// critical job and the parallel efficiency.
fn layer_metrics(outcome: &SweepOutcome, jobs: usize) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = outcome
        .timings
        .iter()
        .map(|t| {
            (
                format!("core.sweep.job_s.{}", metric_id(&t.label)),
                t.wall_nanos as f64 / 1e9,
            )
        })
        .collect();
    let critical = outcome
        .timings
        .iter()
        .map(|t| t.wall_nanos)
        .max()
        .unwrap_or(0);
    m.push((
        "core.sweep.critical_job_s".to_string(),
        critical as f64 / 1e9,
    ));
    let elapsed = outcome.elapsed_wall_nanos as f64;
    m.push((
        "core.sweep.parallel_efficiency".to_string(),
        outcome.summed_job_wall_nanos() as f64 / (elapsed * jobs as f64),
    ));
    m
}
