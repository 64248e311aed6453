//! The multi-core engine: N private split-L1 front ends over a
//! shared-L2 or private-L2 topology, simulated epoch by epoch.
//!
//! The paper's evaluation is single-core, but the composable
//! [`MemoryLevel`] chain was built so
//! new platform shapes could be assembled on top of it. This module
//! adds the baseline shape every cache-reliability study assumes —
//! several in-order cores, each with its own IL1/DL1 pair (the same
//! hybrid-way, bit-accurate caches the single-core engine drives),
//! missing into **one** shared L2/memory chain — plus the
//! [`Topology::PrivateL2`](crate::config::Topology) variant: a
//! private L2 per core over one shared memory, optionally kept
//! MESI-coherent (see [`PrivateL2s`]).
//!
//! # Execution model
//!
//! The canonical order is a round-robin interleaving of the N
//! independent [`TraceSource`]s at instruction granularity (one
//! instruction per core per round, core 0 first, via
//! [`hyvec_mediabench::Interleave`]); cores whose trace ends drop out
//! of the rotation. Each core keeps its own cycle count — cores
//! execute concurrently, so per-core time is what IPC means here —
//! while *contention* appears architecturally: the cores' miss
//! streams interleave in the shared L2, evicting each other's lines.
//!
//! # Epoch simulation
//!
//! An L1 hit or miss depends only on the issuing core's own address
//! stream, never on the chain below — so the expensive part of the
//! simulation (driving the bit-accurate L1s) can run core by core.
//! [`run`](MultiCoreSystem::run) proceeds in epochs of
//! [`EPOCH_INSTRUCTIONS`] per core:
//!
//! 1. the worker phase: each core streams its next epoch from its
//!    [`EpochSource`], drives its private L1 front end, charges the
//!    chain-independent stats, and logs only its chain-bound fill
//!    requests (`front_entry`), each tagged with its round in the
//!    epoch. At [`set_sim_threads`](MultiCoreSystem::set_sim_threads)
//!    1 this phase runs inline; above 1 it runs on scoped worker
//!    threads between two barriers;
//! 2. the merge phase: one pass orders the logged requests by
//!    (round, core) and replays them against the chain (`apply_fill`),
//!    charging fill stalls and energy.
//!
//! Every live core contributes entries to consecutive rounds from the
//! start of each epoch until it drains, so the merge visits the chain
//! in exactly the serial interleaving order — counters are
//! **bit-identical** to the serial reference loop
//! ([`run_interleaved`](MultiCoreSystem::run_interleaved)) at any
//! core count and invariant across `--sim-threads 1/2/8` (pinned by
//! the determinism suite and the `epoch_merge` proptests).
//!
//! # Nested machines
//!
//! The (round, core) order restricted to the cores below N *is* the
//! N-core order, and core `i`'s front phase is the same in every
//! machine that contains it. A system built with
//! [`build_multi_prefixes`](crate::engine::SystemBuilder::build_multi_prefixes)
//! therefore carries one chain per nested core count but front ends
//! only for the widest machine: [`run_prefixes`](MultiCoreSystem::run_prefixes)
//! runs each core's front phase once per epoch and replays its log
//! into every chain whose machine contains that core, so a 1..64-core
//! sweep simulates 64 fronts instead of 127, and each report is
//! bit-identical to a separate `build_multi(n)` run.
//!
//! Soft-error draws come from *per-core* RNG streams seeded with
//! [`per_core_seed`], and exposure integrates each instruction's
//! core-local cycles (base + bubbles, excluding chain fill stalls),
//! so injection happens in the front phase and lands identically in
//! the serial and epoch schedules and in every nested machine.
//!
//! Bandwidth arbitration (queueing at the shared L2 port) is *not*
//! modeled; the contention cost is the architectural one above. Nor
//! is idle-tail leakage: a core that drains its trace early is
//! treated as gated off until the makespan (its energy integrates
//! over its own active cycles only — see
//! [`MultiCoreReport::total_energy_pj`]).
//!
//! # Example
//!
//! ```
//! use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
//! use hyvec_cachesim::engine::System;
//! use hyvec_mediabench::Benchmark;
//!
//! let l1s = SystemConfig::uniform_6t();
//! let builder = System::builder()
//!     .il1(l1s.il1.clone())
//!     .dl1(l1s.dl1.clone())
//!     .l2(L2Config::unified(64))
//!     .memory(MemoryConfig::with_latency(80));
//! let traces = || vec![
//!     Benchmark::GsmC.trace(5_000, 1),
//!     Benchmark::Mpeg2C.trace(5_000, 2),
//! ];
//! let mut system = builder.clone().build_multi(2).expect("valid configuration");
//! system.set_sim_threads(2); // threaded worker phase; same counters as 1
//! let report = system.run(traces(), Mode::Hp);
//! assert_eq!(report.per_core.len(), 2);
//! assert_eq!(report.instructions(), 10_000);
//! assert!(report.l2.expect("shared L2").accesses > 0);
//!
//! // The 1- and 2-core machines from one front pass.
//! let mut nested = builder.build_multi_prefixes(&[1, 2]).expect("ascending counts");
//! let reports = nested.run_prefixes(traces(), Mode::Hp);
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0].per_core.len(), 1);
//! assert_eq!(reports[1], report);
//! ```

use crate::cache::HybridCache;
use crate::config::{CacheConfig, Mode};
use crate::engine::{apply_fill, front_entry, ChainRequest, CoreTiming, RunReport};
use crate::faults::{maybe_inject_seu, ule_exposure_bits};
use crate::hierarchy::{AccessOutcome, MemoryLevel, PrivateL2s};
use crate::power::PowerModel;
use crate::stats::{CacheStats, RunStats};
use hyvec_cachemodel::OperatingPoint;
use hyvec_mediabench::{per_core_seed, EpochSource, TraceEntry, TraceSource};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Instructions each core simulates per epoch between merges.
///
/// Large enough that per-epoch coordination (ordering the request
/// log, plus two barrier waits and one lock per core when threaded)
/// amortizes to noise against ~4k instructions of bit-accurate L1
/// simulation; small enough that the epoch's request log — only
/// chain-bound fills, about 1% of instructions — stays a few
/// kilobytes even at 64 cores. Results do not depend on this value —
/// the merge replays the canonical order exactly at any epoch length.
pub const EPOCH_INSTRUCTIONS: usize = 4096;

/// Process-wide default for [`MultiCoreSystem::set_sim_threads`],
/// applied at construction. 1 (the initial value) runs the worker
/// phase inline.
static GLOBAL_SIM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default worker-thread count newly built
/// [`MultiCoreSystem`]s start with (clamped to at least 1). The
/// `--sim-threads` CLI flag lands here via the sweep runner; results
/// are invariant to the value by construction.
pub fn set_global_sim_threads(threads: usize) {
    GLOBAL_SIM_THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// The process-wide default worker-thread count (see
/// [`set_global_sim_threads`]).
pub fn global_sim_threads() -> usize {
    GLOBAL_SIM_THREADS.load(Ordering::Relaxed)
}

/// The chain below the L1s of a multi-core machine: one shared
/// L2/memory chain (the default topology), or a private L2 per core.
#[derive(Debug)]
pub(crate) enum MultiChain {
    /// One L2/memory chain shared by every core.
    Shared(Box<dyn MemoryLevel>),
    /// A private L2 per core over one shared memory
    /// ([`crate::config::Topology::PrivateL2`]).
    Private(Box<PrivateL2s>),
}

impl MultiChain {
    /// Serves one chain-bound request from `core`: the one dispatch
    /// site of both run paths. Requests are about 1% of instructions,
    /// so matching per request costs nothing measurable.
    #[inline]
    fn access(&mut self, core: usize, req: ChainRequest) -> AccessOutcome {
        match self {
            MultiChain::Shared(h) => h.access(req.access()),
            MultiChain::Private(p) => p.access_from(core, req.access()),
        }
    }

    fn as_dyn(&self) -> &dyn MemoryLevel {
        match self {
            MultiChain::Shared(h) => h.as_ref(),
            MultiChain::Private(p) => p.as_ref(),
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn MemoryLevel {
        match self {
            MultiChain::Shared(h) => h.as_mut(),
            MultiChain::Private(p) => p.as_mut(),
        }
    }
}

/// Result of one multi-core run: per-core reports plus the merged
/// counters of the chain below the L1s.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreReport {
    /// One [`RunReport`] per core, in core order. Per-core
    /// `stats.memory_accesses` counts the core's *demand* fills that
    /// reached memory; buffered writebacks are only attributable to
    /// the shared chain and appear in [`MultiCoreReport::memory`].
    pub per_core: Vec<RunReport>,
    /// Counters of the L2 level, when the chain has one: the shared
    /// L2, or the aggregate over all private L2s (including their
    /// coherence `invalidations`/`interventions`).
    pub l2: Option<CacheStats>,
    /// Counters of the shared memory level (demand fills plus
    /// writebacks from every core).
    pub memory: CacheStats,
    /// The mode the run executed in.
    pub mode: Mode,
}

impl MultiCoreReport {
    /// Instructions executed across all cores.
    pub fn instructions(&self) -> u64 {
        self.per_core.iter().map(|r| r.stats.instructions).sum()
    }

    /// Total energy across all cores (each core's L1s + its share of
    /// the hierarchy below), pJ.
    ///
    /// Each core's energy integrates over its *own active window*
    /// (its cycle count): a core that drains its trace before the
    /// makespan is treated as gated off — the same gated-Vdd
    /// machinery the paper's HP ways use at ULE — so it leaks nothing
    /// while the stragglers finish. Idle-tail leakage of an
    /// *ungated* finished core is deliberately not modeled.
    pub fn total_energy_pj(&self) -> f64 {
        self.per_core.iter().map(|r| r.energy.total_pj()).sum()
    }

    /// Energy per instruction over the whole machine, pJ (see
    /// [`MultiCoreReport::total_energy_pj`] for the active-window
    /// energy semantics).
    pub fn epi_pj(&self) -> f64 {
        let instructions = self.instructions();
        if instructions == 0 {
            0.0
        } else {
            self.total_energy_pj() / instructions as f64
        }
    }

    /// Hit ratio of the L2 level (0 when the chain has none).
    pub fn l2_hit_ratio(&self) -> f64 {
        self.l2.map_or(0.0, |l2| l2.hit_ratio())
    }

    /// Cycles of the slowest core: the wall-clock length of the run,
    /// since cores execute concurrently.
    pub fn makespan_cycles(&self) -> u64 {
        self.per_core
            .iter()
            .map(|r| r.stats.cycles)
            .max()
            .unwrap_or(0)
    }
}

/// Everything one core owns during an epoch run: its L1 front end,
/// its trace, its SEU stream, its front-phase stats, and the epoch
/// log the merge replays. Wrapped in a `Mutex` purely as a
/// thread-safe cell — the worker phase and the merge phase never
/// overlap, so locks are uncontended by construction.
#[derive(Debug)]
struct CoreWork<T> {
    il1: HybridCache,
    dl1: HybridCache,
    source: EpochSource<T>,
    rng: SmallRng,
    /// Chain-independent counters: instructions, bubbles, and the
    /// core-local cycles in `cycles`.
    stats: RunStats,
    /// This epoch's chain-bound requests, in program order, each
    /// tagged with its round (reused across epochs).
    log: Vec<ChainRequest>,
}

impl<T: TraceSource> CoreWork<T> {
    /// The worker phase of one epoch: stream the next epoch from the
    /// source, drive the L1s, log chain-bound requests tagged with
    /// their round, draw SEUs from the core's own stream over
    /// core-local cycles.
    fn run_epoch(&mut self, timing: CoreTiming, seu_rate: f64, ule_bits: u64) {
        self.log.clear();
        let seu_active = seu_rate > 0.0;
        for (round, entry) in (0u32..).zip(self.source.next_epoch(EPOCH_INSTRUCTIONS)) {
            self.stats.instructions += 1;
            let local = front_entry(
                &mut self.il1,
                &mut self.dl1,
                timing,
                &mut self.stats,
                entry,
                round,
                &mut self.log,
            );
            self.stats.cycles += local;
            if seu_active {
                maybe_inject_seu(
                    &mut self.il1,
                    &mut self.dl1,
                    &mut self.rng,
                    seu_rate,
                    ule_bits,
                    local,
                );
            }
        }
    }
}

/// Locks one core's work cell. The cells are never contended; a
/// poisoned one means a worker already panicked, which the thread
/// scope re-raises.
fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock()
        // hyvec-lint: allow(no-panic, "poisoned only if a worker panicked; propagating is the only sane option")
        .expect("a worker thread panicked")
}

/// One machine's side of the merge: its core count, its chain, and
/// its cores' chain-side counters.
struct MachineRun<'a> {
    cores: usize,
    chain: &'a mut MultiChain,
    /// Per core: fill stalls (also in `cycles`), demand memory
    /// accesses and below-L1 EDC events.
    stats: Vec<RunStats>,
    below_pj: Vec<f64>,
}

impl MachineRun<'_> {
    /// Releases the chain, keeping the counters.
    fn into_counters(self) -> (Vec<RunStats>, Vec<f64>) {
        (self.stats, self.below_pj)
    }
}

/// The merge phase of the epoch engine: the nested machines and the
/// widest one, plus reused buffers that put the epoch's requests in
/// canonical order.
struct Merge<'a> {
    nested: Vec<MachineRun<'a>>,
    widest: MachineRun<'a>,
    /// Per round of the epoch: its first slot in `order`.
    starts: Vec<usize>,
    /// The issuing core of each of the epoch's requests, in canonical
    /// (round, core) order.
    order: Vec<u32>,
    /// Per core: its next log entry to replay.
    cursors: Vec<usize>,
}

impl Merge<'_> {
    /// Replays one epoch's logs into every machine that contains the
    /// issuing core, in canonical (round, core) order. Returns `true`
    /// once every source has drained.
    fn epoch<T: TraceSource>(&mut self, works: &[Mutex<CoreWork<T>>], timing: CoreTiming) -> bool {
        let cores: Vec<MutexGuard<'_, CoreWork<T>>> = works.iter().map(lock).collect();
        // A counting sort by round. Scattering core by core keeps it
        // stable: each round lists its cores in ascending order, and
        // one instruction's requests in program order.
        self.starts.clear();
        self.starts.resize(EPOCH_INSTRUCTIONS + 1, 0);
        for req in cores.iter().flat_map(|work| &work.log) {
            self.starts[req.round as usize + 1] += 1;
        }
        for round in 1..self.starts.len() {
            self.starts[round] += self.starts[round - 1];
        }
        self.order.resize(self.starts[EPOCH_INSTRUCTIONS], 0);
        for (core, work) in (0u32..).zip(&cores) {
            for req in &work.log {
                let slot = &mut self.starts[req.round as usize];
                self.order[*slot] = core;
                *slot += 1;
            }
        }
        for machine in self.nested.iter_mut().chain([&mut self.widest]) {
            self.cursors.clear();
            self.cursors.resize(machine.cores, 0);
            for &core in &self.order {
                let core = core as usize;
                if core >= machine.cores {
                    continue;
                }
                let req = cores[core].log[self.cursors[core]];
                self.cursors[core] += 1;
                let fill = machine.chain.access(core, req);
                let stats = &mut machine.stats[core];
                let stall = apply_fill(timing, req.kind, fill, stats, &mut machine.below_pj[core]);
                stats.cycles += stall;
            }
        }
        cores.iter().all(|work| work.source.is_done())
    }
}

/// One core's report counters: its front-phase counters plus one
/// machine's chain-side counters. Every field is named, so a counter
/// added to [`RunStats`] must be placed here deliberately.
fn combine(front: &RunStats, chain: &RunStats) -> RunStats {
    RunStats {
        instructions: front.instructions + chain.instructions,
        cycles: front.cycles + chain.cycles,
        il1_stall_cycles: front.il1_stall_cycles + chain.il1_stall_cycles,
        dl1_stall_cycles: front.dl1_stall_cycles + chain.dl1_stall_cycles,
        edc_stall_cycles: front.edc_stall_cycles + chain.edc_stall_cycles,
        // Read from the L1s themselves when the report is assembled.
        il1: front.il1,
        dl1: front.dl1,
        // Per-core stats never carry an L2; the machine's is in
        // `MultiCoreReport::l2`.
        l2: None,
        memory_accesses: front.memory_accesses + chain.memory_accesses,
        below_corrected: front.below_corrected + chain.below_corrected,
        below_detected: front.below_detected + chain.below_detected,
    }
}

/// The multi-core machine: N private front ends (core + IL1 + DL1)
/// over one shared [`MemoryLevel`] chain or per-core private L2s —
/// optionally with the chains of smaller nested machines beside it
/// (see the module docs).
///
/// Built by [`SystemBuilder::build_multi`](crate::engine::SystemBuilder::build_multi)
/// or [`build_multi_prefixes`](crate::engine::SystemBuilder::build_multi_prefixes);
/// with soft errors off, a 1-core instance reproduces
/// [`System`](crate::engine::System) runs counter-for-counter
/// (asserted in the test suite; `faults::maybe_inject_seu` says why
/// runs with soft errors differ).
#[derive(Debug)]
pub struct MultiCoreSystem {
    /// Per-core `(il1, dl1)` pairs of the widest machine.
    fronts: Vec<(HybridCache, HybridCache)>,
    /// The chain below the L1s of the widest machine (shared, or
    /// private L2s per core).
    below: MultiChain,
    /// The chains of the smaller nested machines, ascending by core
    /// count; the machine of `n` cores is the first `n` fronts over
    /// its own chain.
    nested: Vec<(usize, MultiChain)>,
    /// One power model (all cores share a configuration).
    power: PowerModel,
    /// Soft-error injection, as in [`System`](crate::engine::System);
    /// an upset lands in the caches of the core whose entry triggered
    /// it (the one accruing the exposure cycles).
    seu_rate_per_bit_cycle: f64,
    /// Base seed of the per-core SEU streams (see [`per_core_seed`]);
    /// streams are re-derived at the start of every run, so warm
    /// re-runs are reproducible.
    seu_seed: u64,
    /// Worker threads of the epoch engine; 1 = worker phase inline.
    sim_threads: usize,
}

impl MultiCoreSystem {
    /// Assembles the machine from parts the builder validated.
    pub(crate) fn from_parts(
        fronts: Vec<(HybridCache, HybridCache)>,
        below: MultiChain,
        nested: Vec<(usize, MultiChain)>,
        power: PowerModel,
        seu_rate_per_bit_cycle: f64,
        seu_seed: u64,
    ) -> Self {
        MultiCoreSystem {
            fronts,
            below,
            nested,
            power,
            seu_rate_per_bit_cycle,
            seu_seed,
            sim_threads: global_sim_threads(),
        }
    }

    /// Number of cores (of the widest machine).
    pub fn cores(&self) -> usize {
        self.fronts.len()
    }

    /// The chain beneath the widest machine's L1s, for inspection (the
    /// shared hierarchy, or the [`PrivateL2s`] set under a private
    /// topology).
    pub fn below(&self) -> &dyn MemoryLevel {
        self.below.as_dyn()
    }

    /// Worker threads the next run will use (1 = worker phase
    /// inline).
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Sets the worker-thread count of the epoch engine (clamped to
    /// at least 1; 1 runs the worker phase inline, with no threads or
    /// barriers). Counters are bit-identical at any value; only wall
    /// time changes. New instances default to [`global_sim_threads`].
    pub fn set_sim_threads(&mut self, threads: usize) {
        self.sim_threads = threads.max(1);
    }

    /// One core's caches, for fault injection (`core` panics when out
    /// of range).
    pub fn core_mut(&mut self, core: usize) -> (&mut HybridCache, &mut HybridCache) {
        let (il1, dl1) = &mut self.fronts[core];
        (il1, dl1)
    }

    /// The one IL1/DL1 configuration every front end shares.
    ///
    /// The cores of a [`MultiCoreSystem`] are homogeneous by
    /// construction (`build_multi` clones one configuration), and the
    /// run paths rely on that: one [`CoreTiming`], one SEU exposure
    /// figure. This helper is the single place that reads core 0's
    /// configs on behalf of all cores, and debug-asserts the
    /// invariant instead of silently assuming it.
    fn shared_core_config(&self) -> (&CacheConfig, &CacheConfig) {
        let (il1, dl1) = &self.fronts[0];
        debug_assert!(
            self.fronts
                .iter()
                .all(|(i, d)| i.config() == il1.config() && d.config() == dl1.config()),
            "multi-core fronts must share one IL1/DL1 configuration"
        );
        (il1.config(), dl1.config())
    }

    /// Timing constants shared by every core this run.
    fn core_timing(&self, mode: Mode) -> CoreTiming {
        let (_, dl1) = self.shared_core_config();
        CoreTiming {
            il1_edc_latency: self.power.il1.edc_latency_cycles(mode),
            dl1_edc_latency: self.power.dl1.edc_latency_cycles(mode),
            dl1_line_bytes: dl1.line_bytes,
        }
    }

    /// Per-core SEU streams for one run, derived fresh from the base
    /// seed so warm re-runs reproduce.
    fn core_rngs(&self) -> Vec<SmallRng> {
        (0..self.fronts.len())
            .map(|core| SmallRng::seed_from_u64(per_core_seed(self.seu_seed, core)))
            .collect()
    }

    /// Mode transition: flush and reset every L1 and every chain.
    fn prepare(&mut self, mode: Mode) {
        for (il1, dl1) in &mut self.fronts {
            il1.set_mode(mode);
            dl1.set_mode(mode);
            il1.reset_stats();
            dl1.reset_stats();
        }
        for chain in self
            .nested
            .iter_mut()
            .map(|(_, c)| c)
            .chain([&mut self.below])
        {
            let chain = chain.as_dyn_mut();
            chain.flush();
            chain.reset_stats();
        }
    }

    /// Assembles one machine's report: fold the L1 counters of its
    /// cores (the first `stats.len()` fronts) back in, price the
    /// energy, read its chain.
    fn finish(
        &self,
        chain: &MultiChain,
        stats: Vec<RunStats>,
        below_pj: Vec<f64>,
        mode: Mode,
        op: OperatingPoint,
    ) -> MultiCoreReport {
        let chain = chain.as_dyn().chain_stats();
        let l2 = chain
            .iter()
            .find(|(name, _)| *name == "l2")
            .map(|(_, s)| *s);
        let memory = chain
            .iter()
            .find(|(name, _)| *name == "memory")
            .map(|(_, s)| *s)
            .unwrap_or_default();

        let per_core = self
            .fronts
            .iter()
            .zip(stats)
            .zip(below_pj)
            .map(|((front, mut stats), below_pj)| {
                stats.il1 = *front.0.stats();
                stats.dl1 = *front.1.stats();
                let mut energy = self.power.breakdown_at(&stats, mode, op);
                if below_pj > 0.0 {
                    energy.other_pj += below_pj;
                }
                let seconds = stats.cycles as f64 * op.cycle_s();
                RunReport {
                    stats,
                    energy,
                    mode,
                    seconds,
                }
            })
            .collect();

        MultiCoreReport {
            per_core,
            l2,
            memory,
            mode,
        }
    }

    /// Runs one trace per core to completion at `mode`, in the
    /// canonical round-robin order (core 0 first), through the epoch
    /// engine; counters are bit-identical at any
    /// [`set_sim_threads`](MultiCoreSystem::set_sim_threads) value.
    /// Returns the widest machine's report; a system built with
    /// nested core counts still drives every chain — use
    /// [`run_prefixes`](MultiCoreSystem::run_prefixes) to read them.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the core count.
    pub fn run<T>(&mut self, sources: Vec<T>, mode: Mode) -> MultiCoreReport
    where
        T: TraceSource + Send,
    {
        self.run_at(sources, mode, mode.operating_point())
    }

    /// Like [`run`](MultiCoreSystem::run) but at an explicit operating
    /// point (the DVS-sweep entry point).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the core count.
    pub fn run_at<T>(&mut self, sources: Vec<T>, mode: Mode, op: OperatingPoint) -> MultiCoreReport
    where
        T: TraceSource + Send,
    {
        self.run_epochs(sources, mode, op).1
    }

    /// Runs one trace per core of the widest machine to completion at
    /// `mode`, and reports every nested machine, ascending by core
    /// count as built. The machine of `n` cores runs the first `n`
    /// sources; its report is bit-identical to `build_multi(n)`
    /// running those sources.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the (widest) core count.
    pub fn run_prefixes<T>(&mut self, sources: Vec<T>, mode: Mode) -> Vec<MultiCoreReport>
    where
        T: TraceSource + Send,
    {
        let (mut reports, widest) = self.run_epochs(sources, mode, mode.operating_point());
        reports.push(widest);
        reports
    }

    /// Runs an already-interleaved stream of `(core, entry)` pairs on
    /// the widest machine — the serial reference loop the epoch
    /// engine is pinned bit-identical to, and the general entry point
    /// for custom schedules (unequal time slices, bursty arrivals,
    /// recorded multi-core traces). Each entry runs its front phase
    /// and its chain requests back-to-back; nested machines' chains
    /// are left idle.
    ///
    /// Caches are flushed on entry (the mode transition) and
    /// statistics reset, as in
    /// [`System::run`](crate::engine::System::run).
    ///
    /// # Panics
    ///
    /// Panics if an entry names a core at or beyond the core count.
    pub fn run_interleaved<I>(
        &mut self,
        entries: I,
        mode: Mode,
        op: OperatingPoint,
    ) -> MultiCoreReport
    where
        I: IntoIterator<Item = (usize, TraceEntry)>,
    {
        self.prepare(mode);
        let timing = self.core_timing(mode);
        let (il1, dl1) = self.shared_core_config();
        let ule_bits = ule_exposure_bits(il1, dl1);
        let seu_rate = self.seu_rate_per_bit_cycle;
        let seu_active = seu_rate > 0.0;
        let mut rngs = self.core_rngs();

        let n = self.fronts.len();
        let mut stats = vec![RunStats::default(); n];
        let mut below_pj = vec![0.0f64; n];
        let mut requests: Vec<ChainRequest> = Vec::new();
        for (core, entry) in entries {
            // hyvec-lint: allow(no-panic, "documented precondition (# Panics): Interleave tags every entry with a core index < n by construction")
            assert!(core < n, "entry for core {core} on a {n}-core system");
            let (il1, dl1) = &mut self.fronts[core];
            stats[core].instructions += 1;
            requests.clear();
            let local = front_entry(il1, dl1, timing, &mut stats[core], entry, 0, &mut requests);
            let mut cycles = local;
            for &req in &requests {
                let fill = self.below.access(core, req);
                cycles += apply_fill(
                    timing,
                    req.kind,
                    fill,
                    &mut stats[core],
                    &mut below_pj[core],
                );
            }
            stats[core].cycles += cycles;
            if seu_active {
                maybe_inject_seu(il1, dl1, &mut rngs[core], seu_rate, ule_bits, local);
            }
        }

        self.finish(&self.below, stats, below_pj, mode, op)
    }

    /// The epoch engine behind [`run`](MultiCoreSystem::run) and
    /// [`run_prefixes`](MultiCoreSystem::run_prefixes): the worker
    /// phase drives each core's L1 front end once per epoch (inline,
    /// or on worker threads), the merge replays the logs into every
    /// machine's chain. Returns the nested machines' reports and the
    /// widest machine's. See the module docs for the protocol.
    fn run_epochs<T>(
        &mut self,
        sources: Vec<T>,
        mode: Mode,
        op: OperatingPoint,
    ) -> (Vec<MultiCoreReport>, MultiCoreReport)
    where
        T: TraceSource + Send,
    {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): one trace source per core")
        assert_eq!(
            sources.len(),
            self.fronts.len(),
            "need exactly one trace source per core"
        );
        self.prepare(mode);
        let timing = self.core_timing(mode);
        let (il1, dl1) = self.shared_core_config();
        let ule_bits = ule_exposure_bits(il1, dl1);
        let rate = self.seu_rate_per_bit_cycle;
        let n = self.fronts.len();
        let threads = self.sim_threads.min(n);

        let rngs = self.core_rngs();
        let works: Vec<Mutex<CoreWork<T>>> = std::mem::take(&mut self.fronts)
            .into_iter()
            .zip(sources)
            .zip(rngs)
            .map(|(((il1, dl1), source), rng)| {
                Mutex::new(CoreWork {
                    il1,
                    dl1,
                    source: EpochSource::new(source),
                    rng,
                    stats: RunStats::default(),
                    log: Vec::new(),
                })
            })
            .collect();

        let machine = |cores: usize, chain| MachineRun {
            cores,
            chain,
            stats: vec![RunStats::default(); cores],
            below_pj: vec![0.0; cores],
        };
        let mut merge = Merge {
            nested: self
                .nested
                .iter_mut()
                .map(|(cores, chain)| machine(*cores, chain))
                .collect(),
            widest: machine(n, &mut self.below),
            starts: Vec::new(),
            order: Vec::new(),
            cursors: Vec::new(),
        };
        if threads <= 1 {
            loop {
                for work in &works {
                    lock(work).run_epoch(timing, rate, ule_bits);
                }
                if merge.epoch(&works, timing) {
                    break;
                }
            }
        } else {
            let works = &works;
            // Barrier A releases the workers into an epoch; barrier B
            // tells the coordinator the worker phase is over. Workers
            // then block at the next A while the coordinator merges.
            let barrier = &Barrier::new(threads + 1);
            let next_core = &AtomicUsize::new(0);
            let stop = &AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(move || loop {
                        barrier.wait(); // A
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        loop {
                            let core = next_core.fetch_add(1, Ordering::Relaxed);
                            if core >= works.len() {
                                break;
                            }
                            lock(&works[core]).run_epoch(timing, rate, ule_bits);
                        }
                        barrier.wait(); // B
                    });
                }
                loop {
                    next_core.store(0, Ordering::Relaxed);
                    barrier.wait(); // A: workers start the epoch
                    barrier.wait(); // B: workers are done, parked before next A
                    if merge.epoch(works, timing) {
                        break;
                    }
                }
                stop.store(true, Ordering::Release);
                barrier.wait(); // final A: workers observe `stop` and exit
            });
        }
        let nested: Vec<_> = merge
            .nested
            .into_iter()
            .map(MachineRun::into_counters)
            .collect();
        let widest = merge.widest.into_counters();

        let mut fronts = Vec::with_capacity(n);
        self.fronts.reserve_exact(n);
        for work in works {
            let work = work
                .into_inner()
                // hyvec-lint: allow(no-panic, "poisoned only if a worker panicked, which the scope already propagated")
                .expect("a worker thread panicked");
            self.fronts.push((work.il1, work.dl1));
            fronts.push(work.stats);
        }
        let report = |chain: &MultiChain, (stats, below_pj): (Vec<RunStats>, Vec<f64>)| {
            let stats = fronts
                .iter()
                .zip(&stats)
                .map(|(f, c)| combine(f, c))
                .collect();
            self.finish(chain, stats, below_pj, mode, op)
        };
        let reports = self
            .nested
            .iter()
            .zip(nested)
            .map(|((_, chain), counters)| report(chain, counters))
            .collect();
        (reports, report(&self.below, widest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        ConfigError, CoreCountsProblem, L2Config, MemoryConfig, Mesi, SystemConfig, Topology,
    };
    use crate::engine::System;
    use hyvec_mediabench::{Benchmark, Interleave};

    fn builder() -> crate::engine::SystemBuilder {
        System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
    }

    #[test]
    fn zero_cores_is_rejected() {
        assert_eq!(builder().build_multi(0).unwrap_err(), ConfigError::NoCores);
    }

    #[test]
    fn private_topology_needs_an_l2_geometry() {
        let err = System::builder()
            .config(SystemConfig::uniform_6t())
            .topology(Topology::PrivateL2 { coherence: None })
            .build_multi(2)
            .unwrap_err();
        assert_eq!(err, ConfigError::MissingCache { cache: "l2" });
    }

    #[test]
    fn one_core_matches_the_single_core_engine() {
        // The multi-core engine with one core must reproduce System
        // counter-for-counter: same caches, same chain, same timing.
        // Cases: the L2 shape at HP, flat memory, and a ULE run over
        // hard faults in a SECDED ULE way (the EDC slow path). SEU
        // stays off: the engines integrate exposure differently by
        // design (see `faults::maybe_inject_seu`).
        use crate::config::WaySpec;
        use crate::faults::sample_faults;
        use hyvec_edc::Protection;
        use hyvec_sram::CellKind;
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        let pf: Vec<f64> = ways
            .iter()
            .map(|w| if w.ule_enabled { 2e-3 } else { 0.0 })
            .collect();
        let flat = System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80));
        let faulty = System::builder()
            .config(SystemConfig::with_ways(ways, 80))
            .l2(L2Config::unified(16));
        let cases = [
            (builder(), Mode::Hp, false),
            (flat, Mode::Hp, false),
            (faulty, Mode::Ule, true),
        ];
        for (case, (builder, mode, faults)) in cases.into_iter().enumerate() {
            let mut single = builder.clone().build().expect("single");
            let mut multi = builder.build_multi(1).expect("multi");
            if faults {
                let inject = |cache: &mut HybridCache| {
                    sample_faults(cache, &pf, &mut SmallRng::seed_from_u64(9));
                };
                inject(single.il1_mut());
                inject(single.dl1_mut());
                let (il1, dl1) = multi.core_mut(0);
                inject(il1);
                inject(dl1);
            }
            let trace = || Benchmark::Mpeg2C.trace(20_000, 3);
            let s = single.run(trace(), mode);
            let m = multi.run(vec![trace()], mode);
            let core = &m.per_core[0];
            assert_eq!(core.stats.instructions, s.stats.instructions, "case {case}");
            assert_eq!(core.stats.cycles, s.stats.cycles, "case {case}");
            assert_eq!(core.stats.il1, s.stats.il1, "case {case}");
            assert_eq!(core.stats.dl1, s.stats.dl1, "case {case}");
            assert_eq!(core.stats.il1_stall_cycles, s.stats.il1_stall_cycles);
            assert_eq!(core.stats.dl1_stall_cycles, s.stats.dl1_stall_cycles);
            assert_eq!(core.stats.edc_stall_cycles, s.stats.edc_stall_cycles);
            assert_eq!(m.l2, s.stats.l2, "case {case}");
            assert_eq!(m.memory.accesses, s.stats.memory_accesses, "case {case}");
            assert_eq!(core.seconds, s.seconds, "case {case}");
            assert_eq!(s.stats.corrected() > 0, faults, "case {case}");
            // Energy matches except the per-core report keeps its
            // demand memory count rather than the chain's total.
            assert!((core.energy.total_pj() - s.energy.total_pj()).abs() < 1e-9);
        }
    }

    #[test]
    fn interleaved_runs_are_deterministic() {
        let sources = || {
            (0..4)
                .map(|i| Benchmark::BIG[i].trace(5_000, i as u64 + 1))
                .collect::<Vec<_>>()
        };
        let mut a = builder().build_multi(4).expect("4 cores");
        let mut b = builder().build_multi(4).expect("4 cores");
        let ra = a.run(sources(), Mode::Hp);
        let rb = b.run(sources(), Mode::Hp);
        assert_eq!(ra, rb, "same sources must give identical reports");
        // And re-running the same warm system matches too (run resets
        // all state).
        let ra2 = a.run(sources(), Mode::Hp);
        assert_eq!(ra, ra2);
    }

    #[test]
    fn threaded_epochs_match_the_serial_reference() {
        // The flagship invariant: the epoch engine is bit-identical to
        // the serial reference loop at every thread count (inline at
        // 1, threaded above), including with soft errors active and
        // unequal trace lengths (cores drain mid-epoch). The
        // epoch_merge proptests sweep the grid; this is the fast
        // deterministic anchor.
        let build = || {
            System::builder()
                .config(SystemConfig::uniform_6t())
                .memory(MemoryConfig::with_latency(80))
                .l2(L2Config::unified(16))
                .seu(5e-8, 11)
                .build_multi(3)
                .expect("3 cores")
        };
        let sources = || {
            vec![
                Benchmark::AdpcmC.trace(4_100, 1),
                Benchmark::GsmC.trace(1_300, 2),
                Benchmark::Mpeg2C.trace(2_600, 3),
            ]
        };
        let reference = build().run_interleaved(
            Interleave::new(sources()),
            Mode::Ule,
            Mode::Ule.operating_point(),
        );
        for threads in [1, 2, 8] {
            let mut epochs = build();
            epochs.set_sim_threads(threads);
            assert_eq!(epochs.sim_threads(), threads);
            let r = epochs.run(sources(), Mode::Ule);
            assert_eq!(
                r, reference,
                "sim-threads {threads} must match the serial reference"
            );
        }
    }

    #[test]
    fn nested_machines_match_separate_builds() {
        let counts = [1, 2, 3];
        let sources = |cores: usize| {
            (0..cores)
                .map(|i| Benchmark::BIG[i].trace(3_000 + 700 * i as u64, i as u64 + 1))
                .collect::<Vec<_>>()
        };
        let mut nested = builder().build_multi_prefixes(&counts).expect("nested");
        assert_eq!(nested.cores(), 3);
        let reports = nested.run_prefixes(sources(3), Mode::Hp);
        assert_eq!(reports.len(), counts.len());
        for (report, cores) in reports.iter().zip(counts) {
            let alone = builder()
                .build_multi(cores)
                .expect("one machine")
                .run(sources(cores), Mode::Hp);
            assert_eq!(*report, alone, "{cores}-core prefix diverged");
        }
        // run() on a nested system reports the widest machine.
        assert_eq!(nested.run(sources(3), Mode::Hp), reports[2]);
    }

    #[test]
    fn empty_core_counts_are_rejected() {
        assert_eq!(
            builder().build_multi_prefixes(&[]).unwrap_err(),
            ConfigError::InvalidCoreCounts(CoreCountsProblem::Empty)
        );
    }

    #[test]
    fn zero_core_count_is_rejected() {
        assert_eq!(
            builder().build_multi_prefixes(&[0, 2]).unwrap_err(),
            ConfigError::InvalidCoreCounts(CoreCountsProblem::Zero)
        );
    }

    #[test]
    fn unsorted_core_counts_are_rejected() {
        assert_eq!(
            builder().build_multi_prefixes(&[1, 4, 2]).unwrap_err(),
            ConfigError::InvalidCoreCounts(CoreCountsProblem::Unsorted)
        );
    }

    #[test]
    fn duplicate_core_counts_are_rejected() {
        let err = builder().build_multi_prefixes(&[1, 2, 2]).unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidCoreCounts(CoreCountsProblem::Duplicate)
        );
        assert!(err.to_string().contains("repeated"));
    }

    #[test]
    fn cores_contend_for_the_shared_l2() {
        // The same L1-overflowing program on 4 cores (each in its
        // private address window) behind one small shared L2 must see
        // a lower L2 hit ratio and more memory traffic per
        // instruction than it does alone: the cores' disjoint working
        // sets evict each other's lines.
        use hyvec_mediabench::multiprogram_sources;
        let mut one = builder().build_multi(1).expect("1 core");
        let mut four = builder().build_multi(4).expect("4 cores");
        let n = 20_000u64;
        let r1 = one.run(multiprogram_sources(&[Benchmark::Mpeg2C], n, 1), Mode::Hp);
        let r4 = four.run(
            multiprogram_sources(&[Benchmark::Mpeg2C; 4], n, 1),
            Mode::Hp,
        );
        let traffic =
            |mem: &CacheStats, instructions: u64| mem.accesses as f64 / instructions as f64;
        assert!(
            traffic(&r4.memory, r4.instructions()) > traffic(&r1.memory, r1.instructions()),
            "shared-L2 contention must raise per-instruction memory traffic: {} vs {}",
            traffic(&r4.memory, r4.instructions()),
            traffic(&r1.memory, r1.instructions())
        );
        assert!(
            r4.l2_hit_ratio() < r1.l2_hit_ratio(),
            "contention must depress the shared-L2 hit ratio: {} vs {}",
            r4.l2_hit_ratio(),
            r1.l2_hit_ratio()
        );
        assert_eq!(r4.per_core.len(), 4);
        assert!(r4.makespan_cycles() >= r4.per_core.iter().map(|r| r.stats.cycles).max().unwrap());
        // Per-core demand memory fills never exceed the chain's total
        // (the chain additionally absorbs writebacks).
        let demand: u64 = r4.per_core.iter().map(|r| r.stats.memory_accesses).sum();
        assert!(demand <= r4.memory.accesses);
        assert!(demand > 0);
    }

    #[test]
    fn private_l2_mesi_topology_counts_coherence_traffic() {
        // Two cores running decorrelated streams over the SAME
        // address space (no rebasing — a shared-memory program, not a
        // multi-programmed one): MESI must record interventions and
        // invalidations, and the report surfaces them through the
        // aggregate l2 counters.
        let mut sys = System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
            .topology(Topology::PrivateL2 {
                coherence: Some(Mesi::default()),
            })
            .build_multi(2)
            .expect("2 cores, private MESI L2s");
        let sources = vec![
            Benchmark::Mpeg2C.trace(20_000, 1),
            Benchmark::Mpeg2C.trace(20_000, 2),
        ];
        let r = sys.run(sources, Mode::Hp);
        let l2 = r.l2.expect("private L2s still report an l2 level");
        assert!(
            l2.interventions > 0,
            "shared lines must be supplied cache-to-cache"
        );
        assert!(l2.invalidations > 0, "writes must invalidate peer copies");
        // Interventions are satisfied at the L2 layer: memory sees
        // fewer reads than the L2s recorded misses.
        assert!(r.memory.accesses < l2.misses + l2.writebacks);
    }

    #[test]
    fn incoherent_private_l2s_isolate_the_cores() {
        // Multi-programmed (disjoint windows) on private L2s: no
        // coherence traffic at all, with or without MESI.
        use hyvec_mediabench::multiprogram_sources;
        let mut sys = System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
            .topology(Topology::PrivateL2 { coherence: None })
            .build_multi(2)
            .expect("2 cores, incoherent private L2s");
        let r = sys.run(
            multiprogram_sources(&[Benchmark::GsmC, Benchmark::Mpeg2C], 10_000, 5),
            Mode::Hp,
        );
        let l2 = r.l2.expect("aggregate private-L2 counters");
        assert_eq!(l2.interventions, 0);
        assert_eq!(l2.invalidations, 0);
        assert!(l2.accesses > 0);
    }

    #[test]
    fn unequal_trace_lengths_drain_round_robin() {
        let mut sys = builder().build_multi(2).expect("2 cores");
        let short = Benchmark::AdpcmC.trace(1_000, 1);
        let long = Benchmark::AdpcmD.trace(3_000, 2);
        let r = sys.run(vec![short, long], Mode::Hp);
        assert_eq!(r.per_core[0].stats.instructions, 1_000);
        assert_eq!(r.per_core[1].stats.instructions, 3_000);
    }

    #[test]
    fn soft_errors_reach_multi_core_caches() {
        let mut sys = System::builder()
            .config(SystemConfig::uniform_6t())
            .seu(5e-8, 11)
            .build_multi(2)
            .expect("2 cores with SEU");
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
        assert!(
            corrupted > 0,
            "unprotected 6T ULE ways must corrupt under accelerated SEUs"
        );
    }

    #[test]
    fn global_sim_threads_seeds_new_instances() {
        let prior = global_sim_threads();
        set_global_sim_threads(4);
        let sys = builder().build_multi(2).expect("2 cores");
        assert_eq!(sys.sim_threads(), 4);
        set_global_sim_threads(0); // clamped
        assert_eq!(global_sim_threads(), 1);
        set_global_sim_threads(prior);
    }
}
