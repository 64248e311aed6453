//! Regression tests for the sweep engine's determinism contract:
//! reports are a pure function of (base seed, instruction count), and
//! worker count is not observable in the output.

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::seed::{derive_seed, fnv1a};
use hyvec_core::sweep::{full_matrix, run_all};

fn quick() -> ExperimentParams {
    ExperimentParams {
        instructions: 2_000,
        seed: 0xD47E_2013,
    }
}

/// FNV-1a of `run_all(quick(), 1).render()`.
const REPORT_FINGERPRINT: u64 = 0x7a20_6e8e_9907_b99e;

#[test]
fn same_seed_gives_byte_identical_reports() {
    let first = run_all(quick(), 1);
    let second = run_all(quick(), 1);
    assert_eq!(
        first.render(),
        second.render(),
        "two sweeps with the same base seed must render identically"
    );
    // The report bytes are also pinned across commits, so a refactor
    // that moves them fails here rather than going unnoticed. An
    // intentional model change updates this constant, with a CHANGES
    // entry that explains the change.
    assert_eq!(
        fnv1a(&first.render()),
        REPORT_FINGERPRINT,
        "the rendered report moved: update REPORT_FINGERPRINT only for an intentional model change"
    );
}

#[test]
fn parallel_sweep_matches_serial_sweep() {
    let serial = run_all(quick(), 1);
    for jobs in [2, 8] {
        let parallel = run_all(quick(), jobs);
        assert_eq!(
            serial.render(),
            parallel.render(),
            "worker count {jobs} changed the report"
        );
    }
}

#[test]
fn different_base_seeds_give_different_reports() {
    let a = run_all(quick(), 4);
    let b = run_all(
        ExperimentParams {
            seed: quick().seed + 1,
            ..quick()
        },
        4,
    );
    assert_ne!(
        a.render(),
        b.render(),
        "the base seed must actually reach the experiments"
    );
}

#[test]
fn report_sections_follow_canonical_matrix_order() {
    let report = run_all(quick(), 4);
    let labels: Vec<_> = report.sections.iter().map(|s| s.label.clone()).collect();
    let expected: Vec<_> = full_matrix(quick()).into_iter().map(|j| j.label).collect();
    assert_eq!(labels, expected, "sections must keep matrix order");
}

#[test]
fn section_seeds_use_the_shared_derivation() {
    // The report records each job's private seed; it must come from
    // the shared hyvec_core::seed derivation of (base seed, label) —
    // not from some scheduler-dependent source.
    let report = run_all(quick(), 2);
    for section in &report.sections {
        assert_eq!(
            section.seed,
            derive_seed(quick().seed, &section.label),
            "section {} carries a foreign seed",
            section.label
        );
    }
}

#[test]
fn multi_core_interleaved_runs_are_jobs_invariant() {
    // The ablation-cores sections simulate up to 8 round-robin
    // interleaved cores over one shared L2; their output must be
    // bit-reproducible whether the sweep runs serially or fanned
    // across workers.
    use hyvec_core::render::{render, Format};
    use hyvec_core::sweep::SweepBuilder;
    let sweep = |jobs: usize| {
        SweepBuilder::new()
            .params(quick())
            .jobs(jobs)
            .filter("ablation-cores/*")
            .run()
            .report
    };
    let serial = sweep(1);
    assert_eq!(serial.sections.len(), 2, "ablation-cores/A and /B");
    for jobs in [2, 4] {
        let parallel = sweep(jobs);
        for format in [Format::Text, Format::Json, Format::Csv] {
            assert_eq!(
                render(&serial, format),
                render(&parallel, format),
                "worker count {jobs} changed the multi-core {format} output"
            );
        }
    }
}

#[test]
fn sim_threads_are_invariant_across_all_render_formats() {
    // The epoch-parallel engine must be invisible in the output: the
    // ablation-cores sections (up to 64 cores, shared and private-L2
    // MESI topologies) rendered in every format must come out
    // byte-identical between the inline and the threaded worker
    // phase of the epoch engine.
    use hyvec_core::render::{render, Format};
    use hyvec_core::sweep::SweepBuilder;
    let sweep = |sim_threads: usize| {
        SweepBuilder::new()
            .params(quick())
            .jobs(2)
            .sim_threads(sim_threads)
            .filter("ablation-cores/*")
            .run()
            .report
    };
    let serial = sweep(1);
    for sim_threads in [2, 8] {
        let threaded = sweep(sim_threads);
        for format in [Format::Text, Format::Json, Format::Csv] {
            assert_eq!(
                render(&serial, format),
                render(&threaded, format),
                "--sim-threads {sim_threads} changed the {format} output"
            );
        }
    }
}

#[test]
fn multi_core_engine_is_bit_reproducible() {
    // Below the sweep layer: two identical 4-core interleaved runs
    // must produce identical per-core and chain statistics.
    use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
    use hyvec_cachesim::engine::System;
    use hyvec_mediabench::{multiprogram_sources, Benchmark};
    let build = || {
        System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
            .build_multi(4)
            .expect("4-core system")
    };
    let benches = [
        Benchmark::Mpeg2C,
        Benchmark::Mpeg2D,
        Benchmark::GsmC,
        Benchmark::GsmD,
    ];
    let run = || build().run(multiprogram_sources(&benches, 10_000, 42), Mode::Hp);
    assert_eq!(run(), run(), "4-core interleaved run must be reproducible");
}

#[test]
fn forced_slow_path_matches_fast_path_counters() {
    // `hyvec run-all --force-slow-path` routes every access through
    // the full EDC decode path; the fast path is a pure optimization,
    // so every rendered format must come out byte-identical.
    use hyvec_core::render::{render, Format};
    use hyvec_core::sweep::SweepBuilder;
    let sweep = |force: bool| {
        SweepBuilder::new()
            .params(quick())
            .jobs(2)
            .force_slow_path(force)
            .run()
            .report
    };
    let fast = sweep(false);
    let slow = sweep(true);
    for format in [Format::Text, Format::Json, Format::Csv] {
        assert_eq!(
            render(&fast, format),
            render(&slow, format),
            "--force-slow-path changed the {format} output"
        );
    }
}

#[test]
fn structured_formats_are_jobs_invariant_too() {
    // The determinism contract extends beyond the text renderer: the
    // JSON and CSV outputs must also be independent of worker count.
    use hyvec_core::render::{render, Format};
    let serial = run_all(quick(), 1);
    let parallel = run_all(quick(), 4);
    for format in [Format::Json, Format::Csv] {
        assert_eq!(
            render(&serial, format),
            render(&parallel, format),
            "worker count changed the {format} output"
        );
    }
}
