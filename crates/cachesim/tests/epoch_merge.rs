//! Epoch-merge determinism properties: the epoch engine behind
//! `MultiCoreSystem::run` and `run_prefixes` must be **bit-identical**
//! to the serial reference loop (`run_interleaved`) — same per-core
//! counters, same chain counters, same energy — for every core count,
//! worker-thread count (1 runs the worker phase inline), topology,
//! SEU setting and nested core-count set, including cores that drain
//! mid-epoch and traces that end exactly on an epoch boundary.
//!
//! This is the contract that makes `--sim-threads` a pure wall-time
//! knob: `hyvec run-all` output stays byte-identical at any value
//! (the render-format byte-identity itself is pinned by the
//! workspace-level determinism suite; these properties pin the
//! underlying reports).

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mesi, Mode, SystemConfig, Topology};
use hyvec_cachesim::engine::{System, SystemBuilder};
use hyvec_cachesim::{MultiCoreReport, MultiCoreSystem, EPOCH_INSTRUCTIONS};
use hyvec_mediabench::{per_core_seed, Benchmark, Interleave, TraceSource};
use proptest::prelude::*;

fn builder(topology: Topology, seu: bool) -> SystemBuilder {
    let l1s = SystemConfig::uniform_6t();
    let builder = System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .l2(L2Config::unified(16))
        .memory(MemoryConfig::with_latency(40))
        .topology(topology);
    if seu {
        builder.seu(5e-8, 17)
    } else {
        builder
    }
}

fn build(cores: usize, topology: Topology, seu: bool) -> MultiCoreSystem {
    builder(topology, seu)
        .build_multi(cores)
        .expect("valid configuration")
}

/// The serial reference: a fresh `cores`-core machine running the
/// canonical interleaving of `sources` through `run_interleaved`.
fn reference<T: TraceSource>(
    cores: usize,
    topology: Topology,
    seu: bool,
    sources: Vec<T>,
    mode: Mode,
) -> MultiCoreReport {
    build(cores, topology, seu).run_interleaved(
        Interleave::new(sources),
        mode,
        mode.operating_point(),
    )
}

/// Per-core traces of deliberately unequal lengths (so cores drain in
/// different epochs and the round-robin drop-out order is exercised),
/// over a shared address space to keep private-L2 coherence busy.
fn sources(cores: usize, base_len: usize, seed: u64) -> Vec<impl hyvec_mediabench::TraceSource> {
    (0..cores)
        .map(|core| {
            let len = base_len + 97 * core + (seed as usize % 63);
            Benchmark::BIG[core % Benchmark::BIG.len()].trace(len as u64, per_core_seed(seed, core))
        })
        .collect()
}

proptest! {
    /// Counters are invariant across `--sim-threads` on the shared-L2
    /// topology, fault-free and with accelerated soft errors active.
    #[test]
    fn threaded_merge_matches_serial_shared_l2(
        cores_sel in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
        threads in prop::sample::select(vec![1usize, 2, 8]),
        base_len in 300usize..900,
        seed in 0u64..500,
        seu: bool,
        mode_sel: bool,
    ) {
        let mode = if mode_sel { Mode::Hp } else { Mode::Ule };
        let reference = reference(
            cores_sel,
            Topology::SharedL2,
            seu,
            sources(cores_sel, base_len, seed),
            mode,
        );
        let mut parallel = build(cores_sel, Topology::SharedL2, seu);
        parallel.set_sim_threads(threads);
        let threaded = parallel.run(sources(cores_sel, base_len, seed), mode);
        prop_assert_eq!(
            reference, threaded,
            "sim-threads {} diverged from serial on {} cores (seu {})",
            threads, cores_sel, seu
        );
    }

    /// Same invariance over private MESI-coherent L2s: the merge also
    /// replays coherence probes in canonical order.
    #[test]
    fn threaded_merge_matches_serial_private_mesi(
        cores_sel in prop::sample::select(vec![2usize, 4, 8]),
        threads in prop::sample::select(vec![1usize, 2, 8]),
        base_len in 300usize..900,
        seed in 0u64..500,
        coherent: bool,
    ) {
        let topology = Topology::PrivateL2 {
            coherence: coherent.then(Mesi::default),
        };
        let reference = reference(
            cores_sel,
            topology,
            false,
            sources(cores_sel, base_len, seed),
            Mode::Hp,
        );
        let mut parallel = build(cores_sel, topology, false);
        parallel.set_sim_threads(threads);
        let threaded = parallel.run(sources(cores_sel, base_len, seed), Mode::Hp);
        prop_assert_eq!(
            reference, threaded,
            "sim-threads {} diverged from serial on {} private L2s (coherent {})",
            threads, cores_sel, coherent
        );
    }

    /// Warm re-runs reproduce under threading too: the per-core SEU
    /// streams are re-derived from the stored seed every run, so the
    /// same system re-running the same sources gives the same report.
    #[test]
    fn warm_threaded_reruns_reproduce(
        threads in prop::sample::select(vec![1usize, 2, 8]),
        seed in 0u64..200,
    ) {
        let mut sys = build(4, Topology::SharedL2, true);
        sys.set_sim_threads(threads);
        let first = sys.run(sources(4, 400, seed), Mode::Ule);
        let second = sys.run(sources(4, 400, seed), Mode::Ule);
        prop_assert_eq!(first, second, "warm threaded re-run diverged");
    }

    /// One nested run equals a separate `build_multi(n)` reference run
    /// for every core count in a random ascending set, report for
    /// report: shared, private MESI and private incoherent L2s, SEU
    /// on and off, inline and threaded worker phases. Trace lengths
    /// are unequal (cores drain mid-epoch), and with `exact` some are
    /// whole multiples of `EPOCH_INSTRUCTIONS`.
    #[test]
    fn prefix_runs_match_separate_serial_references(
        mask in 1u32..32,
        topology_sel in 0usize..3,
        threads in prop::sample::select(vec![1usize, 2, 8]),
        seu: bool,
        exact: bool,
        base_len in 150usize..500,
        seed in 0u64..500,
    ) {
        // A random non-empty ascending subset of 1..=5 cores.
        let counts: Vec<usize> = (1..=5).filter(|c| mask & (1 << (c - 1)) != 0).collect();
        let topology = match topology_sel {
            0 => Topology::SharedL2,
            1 => Topology::PrivateL2 { coherence: Some(Mesi::default()) },
            _ => Topology::PrivateL2 { coherence: None },
        };
        let lengths = |cores: usize| -> Vec<u64> {
            (0..cores)
                .map(|core| {
                    if exact && core % 2 == 0 {
                        (EPOCH_INSTRUCTIONS * (1 + core / 2)) as u64
                    } else {
                        (base_len + 131 * core) as u64
                    }
                })
                .collect()
        };
        let sources = |cores: usize| -> Vec<_> {
            lengths(cores)
                .into_iter()
                .enumerate()
                .map(|(core, len)| {
                    Benchmark::BIG[core % Benchmark::BIG.len()].trace(len, per_core_seed(seed, core))
                })
                .collect()
        };
        let widest = *counts.last().expect("non-empty subset");
        let mut nested = builder(topology, seu)
            .build_multi_prefixes(&counts)
            .expect("ascending counts");
        nested.set_sim_threads(threads);
        let reports = nested.run_prefixes(sources(widest), Mode::Ule);
        prop_assert_eq!(reports.len(), counts.len());
        for (report, &cores) in reports.iter().zip(&counts) {
            let expected = reference(cores, topology, seu, sources(cores), Mode::Ule);
            prop_assert_eq!(
                report, &expected,
                "{}-core prefix of {:?} diverged (threads {}, seu {})",
                cores, &counts, threads, seu
            );
        }
    }
}

/// A 64-core spot check at both ends of the sim-threads range — the
/// widest machine the ablation sweeps, run short to stay cheap.
#[test]
fn sixty_four_cores_stay_deterministic() {
    let sources = || sources(64, 120, 9);
    let reference = reference(64, Topology::SharedL2, false, sources(), Mode::Hp);
    for threads in [1, 8] {
        let mut epochs = build(64, Topology::SharedL2, false);
        epochs.set_sim_threads(threads);
        let r = epochs.run(sources(), Mode::Hp);
        assert_eq!(
            reference, r,
            "64-core epoch merge diverged at {threads} threads"
        );
    }
    assert_eq!(reference.per_core.len(), 64);
}

/// An SEU-active threaded run actually injects: the invariance tests
/// above would pass vacuously if the accelerated rate never fired.
#[test]
fn threaded_seu_runs_actually_inject() {
    let mut sys = build(2, Topology::SharedL2, true);
    sys.set_sim_threads(2);
    let sources = vec![
        Benchmark::AdpcmC.trace(30_000, 1),
        Benchmark::AdpcmD.trace(30_000, 2),
    ];
    let r = sys.run(sources, Mode::Ule);
    let corrupted: u64 = r
        .per_core
        .iter()
        .map(|c| c.stats.silent_corruptions())
        .sum();
    assert!(corrupted > 0, "accelerated SEUs must land under threading");
}
