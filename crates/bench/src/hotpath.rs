//! Hot-path throughput measurement: simulated cache accesses per
//! wall-clock second, fast path vs forced slow path.
//!
//! The simulator's tiered dispatch (see
//! [`hyvec_cachesim::cache::HybridCache`]) skips all EDC
//! encode/decode and payload verification while a cache is
//! fault-free. This module quantifies that tier split on four
//! canonical workloads:
//!
//! | id | shape | where accesses land |
//! |---|---|---|
//! | `l1_hit` | flat memory | working set fits the L1s |
//! | `l2_hit` | 64KB unified L2 | overflows the L1s, fits the L2 |
//! | `memory_miss` | flat 80-cycle memory | streams past every cache |
//! | `faulty_line` | flat memory | `l1_hit` with stuck-at faults armed |
//!
//! Each workload runs twice: once as-is (the fast path engages
//! whenever the caches are fault-free) and once with
//! [`set_force_slow_path`](hyvec_cachesim::cache::HybridCache::set_force_slow_path)
//! decoding every word every access touches, pristine ones included.
//! On `faulty_line` the armed fault map moves the DL1 off the fast
//! path, so there the as-is figure measures the per-word decode gate
//! (only the faulty words decode) against decoding every word.
//!
//! The result serializes as the `BENCH_hotpath.json` artifact
//! (schema `hyvec-bench-hotpath/v2`), written by `hyvec run-all`
//! alongside `BENCH_sweep.json` and by the `benches/hotpath.rs`
//! harness. v2 adds a per-workload `elapsed_wall_ms` field — the
//! total wall time the workload's measurement took (equivalence gate
//! plus every timed sample on both tiers), so artifact trajectories
//! expose measurement cost alongside throughput. Counters are
//! asserted identical between the two paths on every measurement run,
//! so the artifact doubles as an equivalence smoke check.

use std::time::Instant;

use hyvec_cachesim::cache::{StuckBits, WordSlot};
use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::stats::RunStats;
use hyvec_mediabench::{DataAccess, TraceEntry};

/// Instruction budget `hyvec run-all` uses for the artifact it writes
/// (kept fixed so BENCH_hotpath.json trajectories are comparable
/// across runs regardless of `--instructions`).
pub const RUN_ALL_INSTRUCTIONS: u64 = 120_000;

/// Measured throughput of one workload on both dispatch tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Stable workload id (`l1_hit`, `l2_hit`, `memory_miss`,
    /// `faulty_line`).
    pub id: &'static str,
    /// L1 accesses (IL1 + DL1) one run performs.
    pub accesses: u64,
    /// Accesses per second with tiered dispatch active.
    pub fast_accesses_per_sec: f64,
    /// Accesses per second with every access forced down the slow
    /// path.
    pub slow_accesses_per_sec: f64,
    /// Total wall time this workload's measurement took, in
    /// milliseconds: the equivalence gate plus every timed sample on
    /// both tiers.
    pub elapsed_wall_ms: f64,
}

impl WorkloadResult {
    /// Fast-path speedup over the forced slow path.
    pub fn speedup(&self) -> f64 {
        if self.slow_accesses_per_sec > 0.0 {
            self.fast_accesses_per_sec / self.slow_accesses_per_sec
        } else {
            0.0
        }
    }
}

/// The full hot-path measurement: every workload, both tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathReport {
    /// Instructions per measured run.
    pub instructions: u64,
    /// Per-workload throughput, in canonical order.
    pub workloads: Vec<WorkloadResult>,
}

impl HotpathReport {
    /// The fast-over-slow speedup of the fault-free L1-hit workload —
    /// the headline figure of the tiered dispatch.
    pub fn l1_hit_speedup(&self) -> Option<f64> {
        self.workloads
            .iter()
            .find(|w| w.id == "l1_hit")
            .map(WorkloadResult::speedup)
    }

    /// Serializes as the `BENCH_hotpath.json` artifact (hand-rolled
    /// JSON, like `BENCH_sweep.json`).
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"hyvec-bench-hotpath/v2\",\n");
        out.push_str(&format!("  \"instructions\": {},\n", self.instructions));
        out.push_str("  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"accesses\": {}, \
                 \"fast_accesses_per_sec\": {:.1}, \
                 \"slow_accesses_per_sec\": {:.1}, \
                 \"speedup\": {:.3}, \
                 \"elapsed_wall_ms\": {:.3}}}",
                w.id,
                w.accesses,
                w.fast_accesses_per_sec,
                w.slow_accesses_per_sec,
                w.speedup(),
                w.elapsed_wall_ms
            ));
        }
        if self.workloads.is_empty() {
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
            "hot-path throughput ({} instructions/run)\n{:<14} {:>16} {:>16} {:>9} {:>10}\n",
            self.instructions, "workload", "fast acc/s", "slow acc/s", "speedup", "wall ms"
        );
        for w in &self.workloads {
            out.push_str(&format!(
                "{:<14} {:>16.0} {:>16.0} {:>8.2}x {:>10.1}\n",
                w.id,
                w.fast_accesses_per_sec,
                w.slow_accesses_per_sec,
                w.speedup(),
                w.elapsed_wall_ms
            ));
        }
        out
    }
}

/// One synthetic workload: a system shape plus an address stream.
struct Workload {
    id: &'static str,
    /// Bytes of hot code the fetch stream cycles through.
    code_bytes: u64,
    /// Bytes of data the access stream cycles through.
    data_bytes: u64,
    /// Data stride between consecutive accesses.
    data_stride: u64,
    /// Insert a unified L2 of this many KB (0 = flat memory).
    l2_kb: u64,
    /// Arm stuck-at faults on a few lines before running.
    faulty: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        id: "l1_hit",
        code_bytes: 2 * 1024,
        data_bytes: 4 * 1024,
        data_stride: 4,
        l2_kb: 0,
        faulty: false,
    },
    Workload {
        id: "l2_hit",
        code_bytes: 2 * 1024,
        data_bytes: 32 * 1024,
        data_stride: 32,
        l2_kb: 64,
        faulty: false,
    },
    Workload {
        id: "memory_miss",
        code_bytes: 2 * 1024,
        data_bytes: 4 * 1024 * 1024,
        data_stride: 32,
        l2_kb: 0,
        faulty: false,
    },
    Workload {
        id: "faulty_line",
        code_bytes: 2 * 1024,
        data_bytes: 4 * 1024,
        data_stride: 4,
        l2_kb: 0,
        faulty: true,
    },
];

fn build_system(w: &Workload) -> System {
    let l1s = SystemConfig::uniform_6t();
    let mut builder = System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .memory(MemoryConfig::with_latency(80));
    if w.l2_kb > 0 {
        builder = builder.l2(L2Config::unified(w.l2_kb));
    }
    // hyvec-lint: allow(no-panic, "stock workload shapes are compile-time constants validated by the equivalence gate on every bench run")
    let mut sys = builder.build().expect("stock workload shapes are valid");
    if w.faulty {
        // Stuck bits on a handful of hot data words: the armed fault
        // map moves every DL1 access onto the gated path, which
        // decodes those words, and the unprotected 6T baseline
        // delivers the faults silently — the costliest decode
        // outcome.
        for set in 0..4 {
            for way in 0..2 {
                sys.dl1_mut().set_stuck_bits(
                    WordSlot { way, set, slot: 0 },
                    StuckBits {
                        mask: 1 << (set % 32),
                        value: 0,
                    },
                );
            }
        }
    }
    sys
}

/// The deterministic instruction stream of one workload: sequential
/// fetch over the hot code region, every other instruction touching
/// data (3:1 loads to stores) with the workload's stride.
fn trace(w: &Workload, instructions: u64) -> impl Iterator<Item = TraceEntry> {
    let code_bytes = w.code_bytes;
    let data_bytes = w.data_bytes;
    let stride = w.data_stride;
    (0..instructions).map(move |i| TraceEntry {
        pc: 0x1000 + (i * 4) % code_bytes,
        access: (i % 2 == 0).then(|| DataAccess {
            addr: 0x10_0000 + (i / 2 * stride) % data_bytes,
            size: 4,
            is_write: i % 8 == 6,
        }),
    })
}

fn accesses_of(stats: &RunStats) -> u64 {
    stats.il1.accesses + stats.dl1.accesses
}

/// Runs `w` once on a fresh system, returning `(accesses, seconds,
/// stats)`.
fn run_once(w: &Workload, instructions: u64, force_slow: bool) -> (u64, f64, RunStats) {
    let mut sys = build_system(w);
    if force_slow {
        sys.il1_mut().set_force_slow_path(true);
        sys.dl1_mut().set_force_slow_path(true);
    }
    let start = Instant::now();
    let report = sys.run(trace(w, instructions), Mode::Hp);
    let seconds = start.elapsed().as_secs_f64();
    (accesses_of(&report.stats), seconds, report.stats)
}

/// Best-of-`samples` throughput in accesses/sec.
fn measure_path(w: &Workload, instructions: u64, force_slow: bool, samples: u32) -> (u64, f64) {
    let mut best = 0.0f64;
    let mut accesses = 0;
    for _ in 0..samples {
        let (n, seconds, _) = run_once(w, instructions, force_slow);
        accesses = n;
        if seconds > 0.0 {
            best = best.max(n as f64 / seconds);
        }
    }
    (accesses, best)
}

/// Measures every workload on both tiers with `instructions` per run,
/// asserting fast/slow counter equivalence as it goes.
///
/// # Panics
///
/// Panics if the two dispatch tiers ever disagree on the run's
/// counters — that would mean the fast path is not semantics-
/// preserving, and no throughput number should be trusted.
pub fn measure(instructions: u64) -> HotpathReport {
    let samples = 3;
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let workload_start = Instant::now();
            // Equivalence gate: one run per tier, counters compared.
            let (_, _, fast_stats) = run_once(w, instructions.min(20_000), false);
            let (_, _, slow_stats) = run_once(w, instructions.min(20_000), true);
            // hyvec-lint: allow(no-panic, "the equivalence gate is the bench's whole point: a divergence must abort, not be reported as a timing")
            assert_eq!(
                fast_stats, slow_stats,
                "{}: fast and slow paths diverged",
                w.id
            );
            let (accesses, fast) = measure_path(w, instructions, false, samples);
            let (_, slow) = measure_path(w, instructions, true, samples);
            WorkloadResult {
                id: w.id,
                accesses,
                fast_accesses_per_sec: fast,
                slow_accesses_per_sec: slow,
                elapsed_wall_ms: workload_start.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect();
    HotpathReport {
        instructions,
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_traces_are_deterministic_and_sized() {
        for w in &WORKLOADS {
            let a: Vec<_> = trace(w, 500).collect();
            let b: Vec<_> = trace(w, 500).collect();
            assert_eq!(a, b);
            assert_eq!(a.len(), 500);
            assert!(a.iter().any(|e| e.access.is_some()));
        }
    }

    #[test]
    fn measure_smoke_produces_all_workloads_and_valid_json() {
        let report = measure(2_000);
        assert_eq!(report.workloads.len(), 4);
        let json = report.json();
        assert!(json.contains("\"schema\": \"hyvec-bench-hotpath/v2\""));
        for id in ["l1_hit", "l2_hit", "memory_miss", "faulty_line"] {
            assert!(json.contains(id), "missing workload {id}");
        }
        assert!(json.contains("\"elapsed_wall_ms\""));
        for w in &report.workloads {
            assert!(
                w.elapsed_wall_ms > 0.0,
                "{}: measurement must take nonzero wall time",
                w.id
            );
        }
        assert!(report.l1_hit_speedup().is_some());
        assert!(report.text().contains("l1_hit"));
        assert!(report.text().contains("wall ms"));
    }

    #[test]
    fn faulty_workload_arms_the_slow_path() {
        let w = &WORKLOADS[3];
        assert!(w.faulty);
        let mut sys = build_system(w);
        // The armed fault map alone must disable the fast path.
        assert!(!sys.dl1_mut().is_fault_free());
        let (_, _, stats) = run_once(w, 5_000, false);
        assert!(
            stats.dl1.silent_corruptions > 0,
            "stuck bits on the unprotected baseline must corrupt"
        );
    }
}
