//! Epoch-parallel engine scaling: inline vs threaded worker phase,
//! wall time per core count.
//!
//! The multi-core engine
//! ([`hyvec_cachesim::multicore::MultiCoreSystem`]) simulates the N
//! private L1 front ends epoch by epoch — inline at `sim_threads = 1`,
//! on worker threads above — and replays each epoch's chain-bound
//! requests in canonical order at the merge, with counters
//! bit-identical to the serial reference loop. This module measures
//! what the threads buy: the same multi-program workload is run once
//! with `sim_threads = 1` (the "serial" rows: the inline epoch path)
//! and once threaded, per core count, and the reports are asserted
//! equal before any timing is trusted — the artifact doubles as an
//! equivalence smoke check, exactly like the hot-path bench.
//!
//! The result serializes as the `BENCH_multicore.json` artifact
//! (schema `hyvec-bench-multicore/v1`), written by `hyvec run-all`
//! alongside `BENCH_hotpath.json` and by the `benches/multicore.rs`
//! harness. `merge_barrier_overhead_ms` is the threaded-minus-serial
//! wall time of the 1-core run — the pure cost of the worker threads
//! (barriers, hand-off) with zero parallelism to pay for it, which is
//! exactly the overhead a speedup at N cores must first amortize.

use std::time::Instant;

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::multicore::MultiCoreSystem;
use hyvec_mediabench::{multiprogram_sources, Benchmark};

/// Instruction budget per core `hyvec run-all` uses for the artifact
/// it writes (fixed so BENCH_multicore.json trajectories are
/// comparable across runs regardless of `--instructions`).
pub const RUN_ALL_INSTRUCTIONS: u64 = 20_000;

/// Core counts measured, smallest first (the 1-core row calibrates
/// the merge-barrier overhead).
pub const CORE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Shared-L2 capacity of the measured machine, KB — the ablation's
/// deliberately small L2, so the chain sees real miss traffic and the
/// merge phase does real work.
const L2_KB: u64 = 16;

/// The program mix, as in the core-count ablation: core `i` runs
/// program `i mod 6` in its own address window.
const PROGRAMS: [Benchmark; 6] = [
    Benchmark::Mpeg2C,
    Benchmark::Mpeg2D,
    Benchmark::GsmC,
    Benchmark::GsmD,
    Benchmark::G721C,
    Benchmark::G721D,
];

/// Trace seed of the measured runs (results are timing-only, but the
/// equivalence gate wants identical inputs on both paths).
const SEED: u64 = 0xEB0C;

/// Wall time of one core count on both engine paths.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreScalingResult {
    /// Number of cores simulated.
    pub cores: usize,
    /// Best wall time at `sim_threads = 1` (the inline epoch path),
    /// milliseconds.
    pub serial_ms: f64,
    /// Best wall time of the epoch-parallel engine, milliseconds.
    pub threaded_ms: f64,
}

impl CoreScalingResult {
    /// Serial-over-threaded wall-time ratio (> 1 means the threaded
    /// engine won).
    pub fn speedup(&self) -> f64 {
        if self.threaded_ms > 0.0 {
            self.serial_ms / self.threaded_ms
        } else {
            0.0
        }
    }
}

/// The full scaling measurement: every core count, both paths.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreReport {
    /// Instructions per core per measured run.
    pub instructions_per_core: u64,
    /// Worker threads the threaded runs used.
    pub sim_threads: usize,
    /// Per-core-count wall times, in [`CORE_COUNTS`] order.
    pub rows: Vec<CoreScalingResult>,
    /// Threaded minus serial wall time of the 1-core run,
    /// milliseconds: the pure cost of the worker threads (may dip
    /// below zero within timing noise).
    pub merge_barrier_overhead_ms: f64,
}

impl MulticoreReport {
    /// Serializes as the `BENCH_multicore.json` artifact (hand-rolled
    /// JSON, like the other bench artifacts).
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"hyvec-bench-multicore/v1\",\n");
        out.push_str(&format!(
            "  \"instructions_per_core\": {},\n",
            self.instructions_per_core
        ));
        out.push_str(&format!("  \"sim_threads\": {},\n", self.sim_threads));
        out.push_str(&format!(
            "  \"merge_barrier_overhead_ms\": {:.3},\n",
            self.merge_barrier_overhead_ms
        ));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"cores\": {}, \"serial_ms\": {:.3}, \
                 \"threaded_ms\": {:.3}, \"speedup\": {:.3}}}",
                r.cores,
                r.serial_ms,
                r.threaded_ms,
                r.speedup()
            ));
        }
        if self.rows.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// A human-readable table of the same figures.
    pub fn text(&self) -> String {
        let mut out = format!(
            "epoch-parallel scaling ({} instructions/core, {} sim threads, \
             merge-barrier overhead {:.2} ms)\n{:>5} {:>12} {:>12} {:>9}\n",
            self.instructions_per_core,
            self.sim_threads,
            self.merge_barrier_overhead_ms,
            "cores",
            "serial ms",
            "threaded ms",
            "speedup"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:>5} {:>12.2} {:>12.2} {:>8.2}x\n",
                r.cores,
                r.serial_ms,
                r.threaded_ms,
                r.speedup()
            ));
        }
        out
    }
}

fn build_machine(cores: usize) -> MultiCoreSystem {
    let l1s = SystemConfig::uniform_6t();
    System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .l2(L2Config::unified(L2_KB))
        .memory(MemoryConfig::with_latency(80))
        .build_multi(cores)
        // hyvec-lint: allow(no-panic, "the stock bench shape is a compile-time constant validated by every measurement run")
        .expect("stock bench machine shape is valid")
}

fn sources(cores: usize, instructions: u64) -> Vec<impl hyvec_mediabench::TraceSource + Send> {
    let benchmarks: Vec<Benchmark> = (0..cores).map(|i| PROGRAMS[i % PROGRAMS.len()]).collect();
    multiprogram_sources(&benchmarks, instructions, SEED)
}

/// Best-of-`samples` wall time of one configuration, milliseconds,
/// plus the report of the last run (for the equivalence gate).
fn time_path(
    cores: usize,
    instructions: u64,
    sim_threads: usize,
    samples: u32,
) -> (f64, hyvec_cachesim::multicore::MultiCoreReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..samples {
        let mut machine = build_machine(cores);
        machine.set_sim_threads(sim_threads);
        let start = Instant::now();
        let report = machine.run(sources(cores, instructions), Mode::Hp);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    // hyvec-lint: allow(no-panic, "samples >= 1 always; the loop body ran at least once")
    (best, last.expect("at least one sample"))
}

/// Measures every core count on both engine paths with `instructions`
/// per core, `threads` workers on the threaded path, asserting
/// serial/threaded report equivalence as it goes.
///
/// # Panics
///
/// Panics if the two paths ever disagree on a report — the epoch
/// merge would not be deterministic, and no timing should be trusted.
pub fn measure(instructions: u64, threads: usize) -> MulticoreReport {
    let samples = 2;
    let rows: Vec<CoreScalingResult> = CORE_COUNTS
        .iter()
        .map(|&cores| {
            let (serial_ms, serial_report) = time_path(cores, instructions, 1, samples);
            let (threaded_ms, threaded_report) = time_path(cores, instructions, threads, samples);
            // hyvec-lint: allow(no-panic, "the equivalence gate is the bench's whole point: a divergence must abort, not be reported as a timing")
            assert_eq!(
                serial_report, threaded_report,
                "{cores}-core reports diverged between sim-threads 1 and {threads}"
            );
            CoreScalingResult {
                cores,
                serial_ms,
                threaded_ms,
            }
        })
        .collect();
    let merge_barrier_overhead_ms = rows
        .first()
        .map(|r| r.threaded_ms - r.serial_ms)
        .unwrap_or(0.0);
    MulticoreReport {
        instructions_per_core: instructions,
        sim_threads: threads,
        rows,
        merge_barrier_overhead_ms,
    }
}

/// The worker-thread count `hyvec run-all` measures with: the
/// machine's available parallelism, capped at 8 (the scaling story is
/// told by then, and CI runners rarely have more) and floored at 2 so
/// the epoch-parallel engine — and its equivalence gate — is always
/// actually exercised, even on a single-CPU runner (where the
/// threaded figures measure the epoch machinery's overhead against
/// its locality win rather than real parallelism).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_smoke_produces_all_rows_and_valid_json() {
        let report = measure(1_500, 2);
        assert_eq!(report.rows.len(), CORE_COUNTS.len());
        assert_eq!(
            report.rows.iter().map(|r| r.cores).collect::<Vec<_>>(),
            CORE_COUNTS
        );
        for r in &report.rows {
            assert!(r.serial_ms > 0.0, "{}-core serial time missing", r.cores);
            assert!(
                r.threaded_ms > 0.0,
                "{}-core threaded time missing",
                r.cores
            );
        }
        let json = report.json();
        assert!(json.contains("\"schema\": \"hyvec-bench-multicore/v1\""));
        assert!(json.contains("\"merge_barrier_overhead_ms\""));
        assert!(json.contains("\"cores\": 16"));
        let text = report.text();
        assert!(text.contains("speedup"));
        assert!(text.contains("16"));
    }

    #[test]
    fn default_threads_actually_engages_the_epoch_engine() {
        let t = default_threads();
        assert!((2..=8).contains(&t));
    }
}
