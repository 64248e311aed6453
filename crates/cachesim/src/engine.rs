//! The in-order core timing model driving both L1 caches.
//!
//! The paper's platform is deliberately simple: one in-order core
//! (resembling the Intel wide-operating-range IA-32 part), split 8KB
//! L1s, ~20-cycle memory. The timing model is correspondingly simple:
//!
//! * one base cycle per instruction (scalar, in-order);
//! * a miss in either L1 stalls for the memory latency plus the EDC
//!   pipeline latency of the fill path (encode before write);
//! * an EDC *correction* event costs one recovery bubble;
//! * hits are EDC-latency-free: at 200ns ULE cycles the syndrome
//!   logic fits comfortably in the existing pipeline slack, matching
//!   the paper's "negligible (around 3%)" execution-time overhead,
//!   which stems from the fill/correction path.

use crate::cache::HybridCache;
use crate::config::{
    CacheConfig, ConfigError, CoreCountsProblem, L2Config, MemoryConfig, Mode, SystemConfig,
    Topology,
};
use crate::faults::{maybe_inject_seu, ule_exposure_bits};
use crate::hierarchy::{
    AccessOutcome, AccessRequest, HitDepth, L2Cache, MainMemory, MemoryLevel, PrivateL2s,
};
use crate::multicore::{MultiChain, MultiCoreSystem};
use crate::power::{EnergyBreakdown, PowerModel};
use crate::stats::RunStats;
use hyvec_cachemodel::{OperatingPoint, TechnologyParams};
use hyvec_mediabench::{TraceEntry, TraceSource};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Default seed of the soft-error RNG, used when
/// [`SystemBuilder::seu`] is not called. The multi-core engine derives
/// per-core streams from the same seed.
pub(crate) const DEFAULT_SEU_SEED: u64 = 0x5E0_E44;

/// Per-core timing constants hoisted out of the instruction loop
/// (identical across the cores of a [`MultiCoreSystem`], which share
/// one configuration).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreTiming {
    /// EDC pipeline latency charged on IL1 fills, cycles.
    pub il1_edc_latency: u32,
    /// EDC pipeline latency charged on DL1 fills, cycles.
    pub dl1_edc_latency: u32,
    /// DL1 line size, for splitting line-crossing data accesses.
    pub dl1_line_bytes: u64,
}

/// The byte pieces of one data access split at cache-line boundaries.
///
/// A `DataAccess` is at most 8 bytes and lines are powers of two, so a
/// fixed-capacity buffer suffices (8 pieces covers even degenerate
/// 1-byte lines) and the hot path never allocates. A non-crossing
/// access yields exactly one piece at the original address, keeping
/// the historical single-lookup behavior bit-for-bit.
pub(crate) struct AccessPieces {
    pieces: [(u64, u8); 8],
    len: usize,
    next: usize,
}

impl Iterator for AccessPieces {
    type Item = (u64, u8);

    fn next(&mut self) -> Option<(u64, u8)> {
        if self.next < self.len {
            let piece = self.pieces[self.next];
            self.next += 1;
            Some(piece)
        } else {
            None
        }
    }
}

/// Splits `size` bytes at `addr` into per-line pieces. Accesses that
/// stay within one line (the only kind the synthetic generators emit)
/// come back unchanged as a single piece; a replayed or hand-built
/// access that crosses a boundary is charged once per touched line.
pub(crate) fn split_at_line_boundaries(addr: u64, size: u8, line_bytes: u64) -> AccessPieces {
    debug_assert!(
        size <= 8,
        "DataAccess size {size} exceeds the documented 1-8 byte range"
    );
    let mut out = AccessPieces {
        pieces: [(0, 0); 8],
        len: 0,
        next: 0,
    };
    let mut addr = addr;
    let mut remaining = u64::from(size);
    loop {
        let room = line_bytes - (addr % line_bytes);
        let take = remaining.min(room);
        out.pieces[out.len] = (addr, take as u8);
        out.len += 1;
        remaining -= take;
        if remaining == 0 {
            return out;
        }
        if out.len == out.pieces.len() {
            // Unreachable within the DataAccess contract (size <= 8
            // needs at most 8 one-byte pieces). If a release build is
            // handed a contract-violating size, charge the tail to
            // the final piece rather than silently dropping bytes.
            out.pieces[out.len - 1].1 = out.pieces[out.len - 1].1.saturating_add(remaining as u8);
            return out;
        }
        addr += take;
    }
}

/// Which L1 a chain-bound fill request belongs to (decides the EDC
/// latency charged on top of the composed fill latency and which
/// stall counter absorbs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqKind {
    /// An IL1 fetch miss.
    Il1,
    /// A DL1 piece miss.
    Dl1,
}

/// One chain-bound request recorded by the L1 front phase, to be
/// replayed against the chain at the merge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainRequest {
    /// Byte address of the fill.
    pub addr: u64,
    /// Round of the issuing instruction within its epoch (its index
    /// in the core's epoch), the merge's ordering key.
    pub round: u32,
    /// `true` when the missing access was a store (write-allocate).
    pub is_write: bool,
    /// Which L1 missed.
    pub kind: ReqKind,
}

impl ChainRequest {
    /// The request as the chain sees it.
    pub(crate) fn access(self) -> AccessRequest {
        AccessRequest {
            addr: self.addr,
            is_write: self.is_write,
        }
    }
}

/// The L1-front phase of one entry: drives IL1/DL1, charges the
/// chain-independent stats (correction and RMW bubbles), and appends
/// the entry's chain-bound fill requests to `requests` in program
/// order (IL1 fetch first, then DL1 pieces). Returns the entry's
/// *core-local* cycles: the base cycle plus every bubble, excluding
/// fill stalls, which [`apply_fill`] charges when the chain outcome
/// is known.
///
/// This and [`apply_fill`] are the one timing model of an in-order
/// core. The L1s never observe the chain, and the chain never observes
/// the L1s, so the two phases may run apart. [`System::run_at`] and
/// the serial reference path ([`MultiCoreSystem::run_interleaved`])
/// apply each entry's fills right after its front phase; the
/// epoch-parallel multi-core engine runs the front phase once per core
/// and epoch and replays the logs at the epoch barrier, tagged with
/// `round`.
#[inline]
pub(crate) fn front_entry(
    il1: &mut HybridCache,
    dl1: &mut HybridCache,
    timing: CoreTiming,
    stats: &mut RunStats,
    entry: TraceEntry,
    round: u32,
    requests: &mut Vec<ChainRequest>,
) -> u64 {
    let mut cycles = 1u64;

    let fetch = il1.access(entry.pc, false);
    if !fetch.hit {
        requests.push(ChainRequest {
            addr: entry.pc,
            round,
            is_write: false,
            kind: ReqKind::Il1,
        });
    }
    if fetch.corrected > 0 {
        stats.edc_stall_cycles += 1;
        cycles += 1;
    }

    if let Some(access) = entry.access {
        for (addr, size) in
            split_at_line_boundaries(access.addr, access.size, timing.dl1_line_bytes)
        {
            let data = dl1.access(addr, access.is_write);
            if !data.hit {
                requests.push(ChainRequest {
                    addr,
                    round,
                    is_write: access.is_write,
                    kind: ReqKind::Dl1,
                });
            }
            if data.corrected > 0 {
                stats.edc_stall_cycles += 1;
                cycles += 1;
            }
            if access.is_write && size < 4 && timing.dl1_edc_latency > 0 {
                stats.edc_stall_cycles += 1;
                cycles += 1;
            }
        }
    }

    cycles
}

/// The chain phase of one recorded request: charges the composed fill
/// outcome to the issuing core's stats and energy, returning the
/// stall cycles the core pays (composed fill latency + the missing
/// L1's EDC pipeline). Counterpart of [`front_entry`]; see there.
///
/// `stats.memory_accesses` counts every fill satisfied at
/// [`HitDepth::Memory`]: the core's *demand* memory traffic. The
/// multi-core engine reports that figure per core, since a shared
/// chain cannot attribute writebacks to cores; [`System::run_at`]
/// replaces it with the chain's own count, which also includes
/// buffered writebacks.
#[inline]
pub(crate) fn apply_fill(
    timing: CoreTiming,
    kind: ReqKind,
    fill: AccessOutcome,
    stats: &mut RunStats,
    below_pj: &mut f64,
) -> u64 {
    *below_pj += fill.energy_pj;
    stats.below_corrected += u64::from(fill.corrected);
    stats.below_detected += u64::from(fill.detected);
    stats.memory_accesses += u64::from(fill.depth == HitDepth::Memory);
    let edc_latency = match kind {
        ReqKind::Il1 => timing.il1_edc_latency,
        ReqKind::Dl1 => timing.dl1_edc_latency,
    };
    let stall = u64::from(fill.latency_cycles + edc_latency);
    match kind {
        ReqKind::Il1 => stats.il1_stall_cycles += stall,
        ReqKind::Dl1 => stats.dl1_stall_cycles += stall,
    }
    stats.edc_stall_cycles += u64::from(edc_latency);
    stall
}

/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Timing and event statistics.
    pub stats: RunStats,
    /// Energy breakdown over the whole run.
    pub energy: EnergyBreakdown,
    /// The mode the run executed in.
    pub mode: Mode,
    /// Wall-clock execution time in seconds at the mode's frequency.
    pub seconds: f64,
}

impl RunReport {
    /// Energy per instruction, pJ.
    pub fn epi_pj(&self) -> f64 {
        self.energy.epi_pj(self.stats.instructions)
    }
}

/// The simulated system: core + IL1 + DL1 + the [`MemoryLevel`] chain
/// below them + power model.
#[derive(Debug)]
pub struct System {
    il1: HybridCache,
    dl1: HybridCache,
    /// The memory hierarchy beneath both L1s: the stock shape the
    /// builder picked, or a custom chain.
    below: Box<dyn MemoryLevel>,
    power: PowerModel,
    /// Soft-error injection: expected upsets per stored bit per cycle
    /// (0 disables). Real rates are ~1e-17/bit/s; experiments
    /// accelerate this by many orders of magnitude to observe events
    /// in feasible simulations.
    seu_rate_per_bit_cycle: f64,
    seu_rng: SmallRng,
}

/// Fluent, validating constructor for [`System`]: pick the L1s, an
/// optional unified L2, the memory model, and soft-error injection,
/// then [`build`](SystemBuilder::build).
///
/// ```
/// use hyvec_cachesim::config::{L2Config, MemoryConfig, SystemConfig};
/// use hyvec_cachesim::engine::System;
///
/// let l1s = SystemConfig::uniform_6t();
/// let system = System::builder()
///     .il1(l1s.il1.clone())
///     .dl1(l1s.dl1.clone())
///     .l2(L2Config::unified(64))
///     .memory(MemoryConfig::with_latency(80))
///     .seu(1e-9, 7)
///     .build()
///     .expect("valid configuration");
/// # let _ = system;
/// ```
///
/// A [`SystemConfig`] seeds the L1s, memory latency, technology and
/// uncore sizing in one call ([`SystemBuilder::config`]); with no
/// further calls it builds the flat-memory, soft-error-free system of
/// that configuration.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    il1: Option<CacheConfig>,
    dl1: Option<CacheConfig>,
    l2: Option<L2Config>,
    memory: MemoryConfig,
    tech: TechnologyParams,
    uncore_ten_t_sizing: f64,
    seu: Option<(f64, u64)>,
    topology: Topology,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            il1: None,
            dl1: None,
            l2: None,
            memory: MemoryConfig::default(),
            tech: TechnologyParams::nm32(),
            uncore_ten_t_sizing: 2.65,
            seu: None,
            topology: Topology::SharedL2,
        }
    }
}

impl SystemBuilder {
    /// Seeds the L1s, memory latency, technology and uncore sizing
    /// from a legacy [`SystemConfig`] (the pre-builder configuration
    /// shape). Later calls override individual pieces.
    pub fn config(mut self, config: SystemConfig) -> SystemBuilder {
        self.il1 = Some(config.il1);
        self.dl1 = Some(config.dl1);
        self.memory.latency = config.memory_latency;
        self.tech = config.tech;
        self.uncore_ten_t_sizing = config.uncore_ten_t_sizing;
        self
    }

    /// Sets the instruction-L1 configuration.
    pub fn il1(mut self, config: CacheConfig) -> SystemBuilder {
        self.il1 = Some(config);
        self
    }

    /// Sets the data-L1 configuration.
    pub fn dl1(mut self, config: CacheConfig) -> SystemBuilder {
        self.dl1 = Some(config);
        self
    }

    /// Inserts a unified L2 between the L1s and main memory.
    pub fn l2(mut self, config: L2Config) -> SystemBuilder {
        self.l2 = Some(config);
        self
    }

    /// Sets the main-memory model (latency + per-access energy).
    pub fn memory(mut self, config: MemoryConfig) -> SystemBuilder {
        self.memory = config;
        self
    }

    /// Shorthand for [`SystemBuilder::memory`] with only a latency.
    pub fn memory_latency(mut self, cycles: u32) -> SystemBuilder {
        self.memory.latency = cycles;
        self
    }

    /// Sets the technology constants of the power model.
    pub fn tech(mut self, tech: TechnologyParams) -> SystemBuilder {
        self.tech = tech;
        self
    }

    /// Sets the 10T sizing of the always-on uncore SRAM arrays.
    pub fn uncore_sizing(mut self, sizing: f64) -> SystemBuilder {
        self.uncore_ten_t_sizing = sizing;
        self
    }

    /// Enables runtime soft-error injection at `rate` expected upsets
    /// per stored bit per cycle, with a deterministic RNG `seed`.
    ///
    /// Terrestrial rates are around 1e-17 per bit-second (amplified at
    /// NST voltage); pass an accelerated figure (e.g. `1e-9`) to
    /// observe upsets within a short simulation.
    pub fn seu(mut self, rate: f64, seed: u64) -> SystemBuilder {
        self.seu = Some((rate, seed));
        self
    }

    /// Selects the L2 arrangement of a multi-core build
    /// ([`SystemBuilder::build_multi`]): the default shared L2, or a
    /// private L2 per core with an optional MESI coherence policy.
    /// Ignored by the single-core [`SystemBuilder::build`].
    pub fn topology(mut self, topology: Topology) -> SystemBuilder {
        self.topology = topology;
        self
    }

    /// Validates every configured piece and assembles the system (in
    /// HP mode, caches empty).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: a missing L1
    /// ([`ConfigError::MissingCache`]), an invalid L1/L2 geometry, or
    /// an invalid soft-error rate ([`ConfigError::InvalidSeuRate`]).
    pub fn build(self) -> Result<System, ConfigError> {
        let il1 = self.il1.ok_or(ConfigError::MissingCache { cache: "il1" })?;
        let dl1 = self.dl1.ok_or(ConfigError::MissingCache { cache: "dl1" })?;
        if let Some(l2) = &self.l2 {
            l2.validate()?;
        }
        if let Some((rate, _)) = self.seu {
            if !rate.is_finite() || rate < 0.0 {
                return Err(ConfigError::InvalidSeuRate);
            }
        }
        let config = SystemConfig {
            il1,
            dl1,
            memory_latency: self.memory.latency,
            tech: self.tech,
            uncore_ten_t_sizing: self.uncore_ten_t_sizing,
        };
        let il1 = HybridCache::try_new(config.il1.clone(), Mode::Hp)?;
        let dl1 = HybridCache::try_new(config.dl1.clone(), Mode::Hp)?;
        let power = PowerModel::new(&config);
        let below = stock_hierarchy(self.l2, self.memory);
        let (rate, seed) = self.seu.unwrap_or((0.0, DEFAULT_SEU_SEED));
        Ok(System {
            il1,
            dl1,
            below,
            power,
            seu_rate_per_bit_cycle: rate,
            seu_rng: SmallRng::seed_from_u64(seed),
        })
    }

    /// Validates the configuration and assembles a `cores`-core
    /// machine: `cores` private split-L1 front ends (all built from
    /// the same IL1/DL1 configuration) over the configured
    /// [`Topology`] — **one** shared L2/memory chain by default, or a
    /// private L2 per core (optionally MESI-coherent) over one shared
    /// memory. See [`MultiCoreSystem`] for the execution model.
    ///
    /// # Errors
    ///
    /// Everything [`SystemBuilder::build`] rejects, plus
    /// [`ConfigError::NoCores`] when `cores` is zero and
    /// [`ConfigError::MissingCache`] (`"l2"`) when a private-L2
    /// topology is requested without an L2 geometry.
    pub fn build_multi(self, cores: usize) -> Result<MultiCoreSystem, ConfigError> {
        if cores == 0 {
            return Err(ConfigError::NoCores);
        }
        self.build_multi_prefixes(&[cores])
    }

    /// Like [`build_multi`](SystemBuilder::build_multi), for a family
    /// of nested machines: the widest count in `core_counts` gets the
    /// private front ends, and every count gets its own chain below
    /// the L1s (a machine of the first N cores), so one
    /// [`MultiCoreSystem::run_prefixes`] simulates each core's L1s
    /// once and reports every machine. Each report is bit-identical
    /// to a separate `build_multi(n)` run.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidCoreCounts`] unless `core_counts` is a
    /// non-empty, strictly ascending list of positive counts, plus
    /// everything [`build_multi`](SystemBuilder::build_multi) rejects.
    pub fn build_multi_prefixes(
        self,
        core_counts: &[usize],
    ) -> Result<MultiCoreSystem, ConfigError> {
        let invalid = |problem| Err(ConfigError::InvalidCoreCounts(problem));
        let Some((&cores, nested_counts)) = core_counts.split_last() else {
            return invalid(CoreCountsProblem::Empty);
        };
        if core_counts.contains(&0) {
            return invalid(CoreCountsProblem::Zero);
        }
        for pair in core_counts.windows(2) {
            if pair[0] == pair[1] {
                return invalid(CoreCountsProblem::Duplicate);
            }
            if pair[0] > pair[1] {
                return invalid(CoreCountsProblem::Unsorted);
            }
        }
        let il1_cfg = self
            .il1
            .clone()
            .ok_or(ConfigError::MissingCache { cache: "il1" })?;
        let dl1_cfg = self
            .dl1
            .clone()
            .ok_or(ConfigError::MissingCache { cache: "dl1" })?;
        let topology = self.topology;
        let l2_cfg = self.l2.clone();
        let memory_cfg = self.memory;
        let (_, seu_seed) = self.seu.unwrap_or((0.0, DEFAULT_SEU_SEED));
        // Core 0 (and the power model and SEU state) comes from the
        // single-core constructor, so the two paths can never diverge
        // on validation or assembly.
        let System {
            il1,
            dl1,
            power,
            seu_rate_per_bit_cycle,
            ..
        } = self.build()?;
        let chain = |cores: usize| -> Result<MultiChain, ConfigError> {
            Ok(match topology {
                Topology::SharedL2 => {
                    MultiChain::Shared(stock_hierarchy(l2_cfg.clone(), memory_cfg))
                }
                Topology::PrivateL2 { coherence } => {
                    let l2 = l2_cfg
                        .clone()
                        .ok_or(ConfigError::MissingCache { cache: "l2" })?;
                    MultiChain::Private(Box::new(PrivateL2s::new(
                        l2,
                        cores,
                        coherence,
                        MainMemory::new(memory_cfg),
                    )))
                }
            })
        };
        let below = chain(cores)?;
        let nested = nested_counts
            .iter()
            .map(|&n| Ok((n, chain(n)?)))
            .collect::<Result<Vec<_>, ConfigError>>()?;
        let mut fronts = vec![(il1, dl1)];
        for _ in 1..cores {
            fronts.push((
                HybridCache::try_new(il1_cfg.clone(), Mode::Hp)?,
                HybridCache::try_new(dl1_cfg.clone(), Mode::Hp)?,
            ));
        }
        Ok(MultiCoreSystem::from_parts(
            fronts,
            below,
            nested,
            power,
            seu_rate_per_bit_cycle,
            seu_seed,
        ))
    }
}

/// The stock chain for a configured shape: an L2 over memory, or
/// memory alone. The engines dispatch on the box once per L1 miss;
/// inside it, `L2Cache<MainMemory>` descends with static calls.
fn stock_hierarchy(l2: Option<L2Config>, memory: MemoryConfig) -> Box<dyn MemoryLevel> {
    let memory = MainMemory::new(memory);
    match l2 {
        Some(l2) => Box::new(L2Cache::new(l2, memory)),
        None => Box::new(memory),
    }
}

impl System {
    /// Starts a [`SystemBuilder`] with nothing configured.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The instruction cache (e.g. for fault injection).
    pub fn il1_mut(&mut self) -> &mut HybridCache {
        &mut self.il1
    }

    /// The data cache (e.g. for fault injection).
    pub fn dl1_mut(&mut self) -> &mut HybridCache {
        &mut self.dl1
    }

    /// The memory hierarchy beneath the L1s.
    pub fn below(&self) -> &dyn MemoryLevel {
        self.below.as_ref()
    }

    /// Replaces the memory hierarchy beneath the L1s with a custom
    /// [`MemoryLevel`] chain (a prefetcher, an ECC memory model, a
    /// NUMA stack, ...). The engine charges whatever composed
    /// latency/energy/EDC events the chain reports on each L1 miss,
    /// dispatched exactly like the stock chains.
    pub fn set_hierarchy(&mut self, below: Box<dyn MemoryLevel>) {
        self.below = below;
    }

    /// The power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// Runs `trace` to completion at `mode`, returning timing and
    /// energy. Any [`TraceSource`] feeds the engine — the synthetic
    /// generator, a [`hyvec_mediabench::Replay`] file, or a plain
    /// iterator of entries. Caches are flushed on entry (the mode
    /// transition) and statistics are reset; installed fault maps
    /// persist.
    pub fn run<T>(&mut self, trace: T, mode: Mode) -> RunReport
    where
        T: TraceSource,
    {
        self.run_at(trace, mode, mode.operating_point())
    }

    /// Like [`run`](System::run) but at an explicit operating point —
    /// the DVS-sweep entry point (`mode` still decides which ways and
    /// codes are active). The one-system case of
    /// [`run_many`](System::run_many).
    pub fn run_at<T>(&mut self, trace: T, mode: Mode, op: OperatingPoint) -> RunReport
    where
        T: TraceSource,
    {
        System::run_many(std::slice::from_mut(self), trace, mode, &[op])[0]
    }

    /// Runs one trace through every system of `systems` in lockstep at
    /// `mode`, system `i` at operating point `ops[i]`: each entry is
    /// drawn from `trace` once and executed on every system, a block
    /// of entries per system at a time. Systems share nothing — each
    /// keeps its own L1s, chain, fault maps and soft-error RNG — so
    /// report `i` equals `systems[i].run_at(trace, mode, ops[i])` on
    /// its own, soft errors included. This is how design points
    /// compared on one input pay for generating it once.
    ///
    /// # Panics
    ///
    /// Panics if `ops` and `systems` differ in length.
    pub fn run_many<T>(
        systems: &mut [System],
        mut trace: T,
        mode: Mode,
        ops: &[OperatingPoint],
    ) -> Vec<RunReport>
    where
        T: TraceSource,
    {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): one operating point per system")
        assert_eq!(systems.len(), ops.len(), "one operating point per system");
        let mut lanes: Vec<Lane> = systems
            .iter_mut()
            .zip(ops)
            .map(|(system, &op)| system.begin(mode, op))
            .collect();
        let mut requests = Vec::new();
        let mut block = [TraceEntry {
            pc: 0,
            access: None,
        }; LOCKSTEP_BLOCK];
        loop {
            let len = block
                .iter_mut()
                .map_while(|slot| trace.next_entry().map(|entry| *slot = entry))
                .count();
            for (system, lane) in systems.iter_mut().zip(&mut lanes) {
                let mut state = *lane;
                for &entry in &block[..len] {
                    system.step(&mut state, entry, &mut requests);
                }
                *lane = state;
            }
            if len < LOCKSTEP_BLOCK {
                break;
            }
        }
        systems
            .iter_mut()
            .zip(lanes)
            .map(|(system, lane)| system.finish(lane))
            .collect()
    }

    /// Starts a run: the mode transition flushes both L1s and the
    /// chain, and every statistic is reset.
    fn begin(&mut self, mode: Mode, op: OperatingPoint) -> Lane {
        self.il1.set_mode(mode);
        self.dl1.set_mode(mode);
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.below.flush();
        self.below.reset_stats();
        Lane {
            mode,
            op,
            timing: CoreTiming {
                il1_edc_latency: self.power.il1.edc_latency_cycles(mode),
                dl1_edc_latency: self.power.dl1.edc_latency_cycles(mode),
                dl1_line_bytes: self.dl1.config().line_bytes,
            },
            ule_bits: ule_exposure_bits(self.il1.config(), self.dl1.config()),
            below_pj: 0.0,
            stats: RunStats::default(),
        }
    }

    /// Executes one entry: the L1 front phase, its fills through the
    /// chain, then the entry's soft-error draw. `requests` is scratch
    /// space, cleared here, so one buffer serves every lane.
    #[inline]
    fn step(&mut self, lane: &mut Lane, entry: TraceEntry, requests: &mut Vec<ChainRequest>) {
        lane.stats.instructions += 1;
        requests.clear();
        let mut cycles = front_entry(
            &mut self.il1,
            &mut self.dl1,
            lane.timing,
            &mut lane.stats,
            entry,
            0,
            requests,
        );
        for &req in requests.iter() {
            let fill = self.below.access(req.access());
            cycles += apply_fill(
                lane.timing,
                req.kind,
                fill,
                &mut lane.stats,
                &mut lane.below_pj,
            );
        }
        lane.stats.cycles += cycles;
        // Exposure integrates full cycles, fill stalls included (see
        // `maybe_inject_seu`). The draw is skipped entirely for the
        // default fault-free runs, keeping the hot path free of RNG
        // work.
        if self.seu_rate_per_bit_cycle > 0.0 {
            maybe_inject_seu(
                &mut self.il1,
                &mut self.dl1,
                &mut self.seu_rng,
                self.seu_rate_per_bit_cycle,
                lane.ule_bits,
                cycles,
            );
        }
    }

    /// Ends a run: collects the cache and chain counters and prices the
    /// run at the lane's operating point.
    fn finish(&mut self, lane: Lane) -> RunReport {
        let (mode, op, mut stats) = (lane.mode, lane.op, lane.stats);
        stats.il1 = *self.il1.stats();
        stats.dl1 = *self.dl1.stats();
        // The single-core report keeps the historical chain-reported
        // memory count (demand fills *plus* buffered writebacks),
        // discarding the loop's demand-only tally — and stays zero for
        // custom chains that expose no "memory" level.
        stats.memory_accesses = 0;
        for (name, level) in self.below.chain_stats() {
            match name {
                "l2" => stats.l2 = Some(level),
                "memory" => stats.memory_accesses = level.accesses,
                _ => {}
            }
        }

        let mut energy = self.power.breakdown_at(&stats, mode, op);
        if lane.below_pj > 0.0 {
            energy.other_pj += lane.below_pj;
        }
        RunReport {
            stats,
            energy,
            mode,
            seconds: stats.cycles as f64 * op.cycle_s(),
        }
    }
}

/// Entries [`System::run_many`] draws from its trace at a time. Each
/// system runs the whole block before the next one starts it, so a
/// system's caches stay warm and its [`Lane`] stays in registers.
const LOCKSTEP_BLOCK: usize = 64;

/// One system's state over a run, between [`System::begin`] and
/// [`System::finish`].
#[derive(Debug, Clone, Copy)]
struct Lane {
    mode: Mode,
    op: OperatingPoint,
    timing: CoreTiming,
    /// Bits exposed to soft errors in the powered ULE ways of both
    /// caches.
    ule_bits: u64,
    /// Dynamic energy spent below the L1s (zero for the default
    /// energy-free flat memory; folded into the `other` component so
    /// the paper's breakdown categories stay stable).
    below_pj: f64,
    stats: RunStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaySpec;
    use hyvec_edc::Protection;
    use hyvec_mediabench::Benchmark;
    use hyvec_sram::CellKind;

    fn baseline_a() -> SystemConfig {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram10T,
            2.65,
            Protection::None,
            Protection::None,
        ));
        SystemConfig::with_ways(ways, 20)
    }

    fn built(config: SystemConfig) -> System {
        System::builder().config(config).build().unwrap()
    }

    fn proposal_a() -> SystemConfig {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        SystemConfig::with_ways(ways, 20)
    }

    #[test]
    fn trace_runs_to_completion() {
        let mut sys = built(baseline_a());
        let report = sys.run(Benchmark::G721C.trace(30_000, 1), Mode::Hp);
        assert_eq!(report.stats.instructions, 30_000);
        assert!(report.stats.cycles >= 30_000);
        assert!(report.stats.cpi() >= 1.0);
        assert!(report.epi_pj() > 0.0);
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn bigbench_hits_well_at_hp() {
        // "their workloads fit pretty well in cache" — Sec. IV-B.1.
        let mut sys = built(baseline_a());
        for b in Benchmark::BIG {
            let report = sys.run(b.trace(60_000, 2), Mode::Hp);
            assert!(
                report.stats.il1.hit_ratio() > 0.95,
                "{b}: IL1 hit ratio {}",
                report.stats.il1.hit_ratio()
            );
            assert!(
                report.stats.dl1.hit_ratio() > 0.85,
                "{b}: DL1 hit ratio {}",
                report.stats.dl1.hit_ratio()
            );
        }
    }

    #[test]
    fn smallbench_hits_well_at_ule() {
        // SmallBench fits the single 1KB ULE way — Sec. IV-A.1.
        let mut sys = built(proposal_a());
        for b in Benchmark::SMALL {
            let report = sys.run(b.trace(60_000, 3), Mode::Ule);
            assert!(
                report.stats.il1.hit_ratio() > 0.95,
                "{b}: IL1 hit ratio {}",
                report.stats.il1.hit_ratio()
            );
            assert!(
                report.stats.dl1.hit_ratio() > 0.90,
                "{b}: DL1 hit ratio {}",
                report.stats.dl1.hit_ratio()
            );
        }
    }

    #[test]
    fn ule_mode_runs_slower_in_wall_clock() {
        let mut sys = built(proposal_a());
        let hp = sys.run(Benchmark::AdpcmC.trace(20_000, 1), Mode::Hp);
        let ule = sys.run(Benchmark::AdpcmC.trace(20_000, 1), Mode::Ule);
        // 1GHz vs 5MHz: wall clock ~200x slower even with similar CPI.
        assert!(ule.seconds > 50.0 * hp.seconds);
    }

    #[test]
    fn edc_latency_shows_up_in_proposal_at_ule() {
        let mut base = built(baseline_a());
        let mut prop = built(proposal_a());
        let b = base.run(Benchmark::EpicC.trace(50_000, 4), Mode::Ule);
        let p = prop.run(Benchmark::EpicC.trace(50_000, 4), Mode::Ule);
        assert_eq!(b.stats.edc_stall_cycles, 0, "baseline A has no EDC");
        assert!(p.stats.edc_stall_cycles > 0, "proposal A pays EDC fills");
        assert!(p.stats.cycles > b.stats.cycles);
        // ...but the overhead is small (paper: ~3%).
        let overhead = p.stats.cycles as f64 / b.stats.cycles as f64 - 1.0;
        assert!(overhead < 0.10, "EDC overhead too large: {overhead}");
    }

    #[test]
    fn proposal_epi_lower_at_hp() {
        let mut base = built(baseline_a());
        let mut prop = built(proposal_a());
        let b = base.run(Benchmark::GsmC.trace(50_000, 5), Mode::Hp);
        let p = prop.run(Benchmark::GsmC.trace(50_000, 5), Mode::Hp);
        assert!(
            p.epi_pj() < b.epi_pj(),
            "proposal {} vs baseline {}",
            p.epi_pj(),
            b.epi_pj()
        );
    }

    #[test]
    fn soft_errors_are_corrected_by_secded_but_corrupt_unprotected() {
        // Accelerated SEU rate so a 50k-instruction run sees many
        // upsets.
        let rate = 2e-8;
        let mut prop = System::builder()
            .config(proposal_a())
            .seu(rate, 77)
            .build()
            .expect("valid rate");
        let p = prop.run(Benchmark::AdpcmC.trace(50_000, 7), Mode::Ule);
        assert!(
            p.stats.corrected() > 0,
            "accelerated SEUs should trigger corrections"
        );
        assert_eq!(
            p.stats.silent_corruptions(),
            0,
            "SECDED must absorb single upsets"
        );

        let mut base = System::builder()
            .config(baseline_a())
            .seu(rate, 77)
            .build()
            .expect("valid rate");
        let b = base.run(Benchmark::AdpcmC.trace(50_000, 7), Mode::Ule);
        assert!(
            b.stats.silent_corruptions() > 0,
            "the unprotected baseline must corrupt under the same rate"
        );
    }

    #[test]
    fn zero_rate_means_no_injection() {
        let mut sys = System::builder()
            .config(proposal_a())
            .seu(0.0, 1)
            .build()
            .expect("valid rate");
        let r = sys.run(Benchmark::EpicC.trace(20_000, 1), Mode::Ule);
        assert_eq!(r.stats.corrected(), 0);
        assert_eq!(r.stats.silent_corruptions(), 0);
    }

    #[test]
    fn split_pieces_cover_the_access_exactly() {
        // Crossing accesses split at the boundary...
        let pieces: Vec<_> = split_at_line_boundaries(30, 4, 32).collect();
        assert_eq!(pieces, [(30, 2), (32, 2)]);
        let pieces: Vec<_> = split_at_line_boundaries(31, 8, 32).collect();
        assert_eq!(pieces, [(31, 1), (32, 7)]);
        // ...aligned and boundary-ending accesses stay whole...
        assert_eq!(
            split_at_line_boundaries(28, 4, 32).collect::<Vec<_>>(),
            [(28, 4)]
        );
        assert_eq!(
            split_at_line_boundaries(24, 8, 32).collect::<Vec<_>>(),
            [(24, 8)]
        );
        // ...and degenerate tiny lines still terminate.
        let pieces: Vec<_> = split_at_line_boundaries(3, 8, 4).collect();
        assert_eq!(pieces, [(3, 1), (4, 4), (8, 3)]);
    }

    #[test]
    fn line_crossing_accesses_are_charged_per_touched_line() {
        // The synthetic generators never emit line-crossing accesses,
        // but replayed traces can: pin the chosen behavior — the
        // access is split and each touched line is charged its own
        // DL1 access (and fill, on a miss).
        use hyvec_mediabench::{DataAccess, TraceEntry};
        let cfg = SystemConfig::uniform_6t();
        let line = cfg.dl1.line_bytes;
        let mut sys = built(cfg);
        let entry = |addr, size| TraceEntry {
            pc: 0x1000_0000,
            access: Some(DataAccess {
                addr,
                size,
                is_write: false,
            }),
        };
        // Non-crossing control: one lookup, one line filled.
        let r = sys.run(vec![entry(0x2000_0000 + line - 4, 4)].into_iter(), Mode::Hp);
        assert_eq!(r.stats.dl1.accesses, 1);
        assert_eq!(r.stats.dl1.fills, 1);
        // Crossing: two lookups, both lines filled, both stalls paid.
        let r = sys.run(vec![entry(0x2000_0000 + line - 2, 4)].into_iter(), Mode::Hp);
        assert_eq!(r.stats.dl1.accesses, 2, "crossing access charged per line");
        assert_eq!(r.stats.dl1.fills, 2, "both lines are filled");
        assert_eq!(r.stats.memory_accesses, 3, "IL1 fill + two DL1 fills");
    }

    #[test]
    fn builder_without_l1s_is_rejected() {
        use crate::config::ConfigError;
        assert_eq!(
            System::builder().build().unwrap_err(),
            ConfigError::MissingCache { cache: "il1" }
        );
        let cfg = SystemConfig::uniform_6t();
        assert_eq!(
            System::builder().il1(cfg.il1).build().unwrap_err(),
            ConfigError::MissingCache { cache: "dl1" }
        );
    }

    #[test]
    fn builder_rejects_bad_seu_and_l2() {
        use crate::config::{ConfigError, L2Config};
        let cfg = SystemConfig::uniform_6t();
        let base = System::builder().config(cfg);
        assert_eq!(
            base.clone().seu(-1.0, 3).build().unwrap_err(),
            ConfigError::InvalidSeuRate
        );
        assert_eq!(
            base.clone().seu(f64::NAN, 3).build().unwrap_err(),
            ConfigError::InvalidSeuRate
        );
        let mut l2 = L2Config::unified(32);
        l2.ways = 0;
        assert_eq!(base.l2(l2).build().unwrap_err(), ConfigError::NoWays);
    }

    #[test]
    fn l2_reduces_miss_stalls_behind_slow_memory() {
        use crate::config::{L2Config, MemoryConfig};
        let cfg = baseline_a();
        let flat = System::builder()
            .config(cfg.clone())
            .memory(MemoryConfig::with_latency(80))
            .build()
            .expect("flat system");
        let mut flat = flat;
        let mut with_l2 = System::builder()
            .config(cfg)
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(64))
            .build()
            .expect("L2 system");
        let f = flat.run(Benchmark::Mpeg2C.trace(40_000, 2), Mode::Hp);
        let l = with_l2.run(Benchmark::Mpeg2C.trace(40_000, 2), Mode::Hp);
        // Same L1 behavior, so the same misses descend...
        assert_eq!(f.stats.il1, l.stats.il1);
        assert_eq!(f.stats.dl1, l.stats.dl1);
        // ...but the L2 absorbs part of each one's latency.
        let l2_stats = l.stats.l2.expect("L2 stats recorded");
        assert!(l2_stats.accesses > 0, "misses must reach the L2");
        assert!(l2_stats.hits > 0, "the L2 must absorb some misses");
        assert!(l.stats.cycles < f.stats.cycles);
        assert!(l.stats.memory_accesses < f.stats.memory_accesses);
        assert!(f.stats.l2.is_none(), "flat system reports no L2");
    }

    #[test]
    fn proposal_epi_much_lower_at_ule() {
        let mut base = built(baseline_a());
        let mut prop = built(proposal_a());
        let b = base.run(Benchmark::AdpcmD.trace(50_000, 6), Mode::Ule);
        let p = prop.run(Benchmark::AdpcmD.trace(50_000, 6), Mode::Ule);
        let saving = 1.0 - p.epi_pj() / b.epi_pj();
        assert!(saving > 0.20, "ULE saving too small: {saving}");
    }
}
