//! Tier equivalence properties. `set_force_slow_path(true)` is the
//! reference: every access decodes every word it touches, pristine
//! ones included. The default dispatch must match it outcome for
//! outcome and counter for counter — same `RunStats`, same energy
//! totals, same derived report figures — in both of its tiers:
//!
//! * the fault-free fast path, which skips EDC entirely while a cache
//!   has no stuck bit and no soft flip;
//! * the gated path, which decodes only the tag and data words whose
//!   slots carry a stuck bit or a flip once a cache has any, plus any
//!   word read through a false tag hit.
//!
//! This is the contract that makes both tiers pure optimizations:
//! `hyvec run-all` output stays byte-identical with and without
//! `--force-slow-path`.

use hyvec_cachesim::cache::{AccessOutcome, HybridCache, StuckBits, WordSlot};
use hyvec_cachesim::config::{CacheConfig, L2Config, MemoryConfig, Mode, SystemConfig, WaySpec};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::faults::sample_faults;
use hyvec_cachesim::MultiCoreSystem;
use hyvec_edc::Protection;
use hyvec_mediabench::{Benchmark, DataAccess, TraceEntry};
use hyvec_sram::CellKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const PROTECTIONS: [Protection; 3] = [Protection::None, Protection::Secded, Protection::Dected];

/// A 4-way cache: two HP-only ways and two ULE ways, each mode's
/// protection narrowed to `None` where the family cannot cover
/// `word_bits` (no code fits 64-bit words into a `u64` codeword).
fn mixed_cache(word_bits: u32, hp: Protection, ule: Protection, mode: Mode) -> HybridCache {
    let fit = |p: Protection| {
        if p.supports(word_bits as usize) {
            p
        } else {
            Protection::None
        }
    };
    let (hp, ule) = (fit(hp), fit(ule));
    let mut ways = vec![WaySpec::hp_way(1.0, hp); 2];
    ways.extend([WaySpec::ule_way(CellKind::Sram8T, 1.8, hp, ule); 2]);
    let mut config = CacheConfig::l1_8kb(ways);
    config.word_bits = word_bits;
    HybridCache::new(config, mode)
}

/// One step of a cache-level scenario, replayed on both caches.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access {
        addr: u64,
        is_write: bool,
    },
    /// A soft error; the way, set, slot and bit are reduced modulo the
    /// geometry when applied.
    Flip {
        way: usize,
        set: u64,
        slot: u64,
        bit: u32,
    },
    SwitchMode,
}

prop_compose! {
    /// Mostly accesses, some flips, rare mode switches, all inside
    /// four hot sets with six competing tags each (set stride 2KB in
    /// `mixed_cache`): enough conflict for misses and writebacks, and
    /// enough reuse that flipped and faulty words get read back.
    fn op()(kind in 0u8..15, a: u64, b: u64) -> Op {
        let set = (a >> 8) % 4;
        match kind {
            0..=11 => Op::Access {
                addr: (a % 6) * 0x800 + set * 32 + b % 32,
                is_write: (b >> 8) & 1 == 1,
            },
            12 | 13 => Op::Flip { way: a as usize, set, slot: b, bit: (b >> 32) as u32 },
            _ => Op::SwitchMode,
        }
    }
}

/// Applies `op` to `cache`, returning the access outcome if it was an
/// access (a mode switch's writebacks land in the stats).
fn apply(cache: &mut HybridCache, op: Op) -> Option<AccessOutcome> {
    match op {
        Op::Access { addr, is_write } => Some(cache.access(addr, is_write)),
        Op::Flip {
            way,
            set,
            slot,
            bit,
        } => {
            let config = cache.config();
            let way = way % config.ways.len();
            let words = config.words_per_line();
            let slot = slot % (words + 1);
            let payload = if slot == words {
                config.tag_bits
            } else {
                config.word_bits
            };
            let stored = payload as usize + config.ways[way].stored_check_bits();
            let set = set % config.sets();
            let bit = bit % stored as u32;
            cache.inject_soft_error(WordSlot { way, set, slot }, bit);
            None
        }
        Op::SwitchMode => {
            let next = match cache.mode() {
                Mode::Hp => Mode::Ule,
                Mode::Ule => Mode::Hp,
            };
            cache.set_mode(next);
            None
        }
    }
}

fn build(with_l2: bool, seu: bool) -> System {
    let l1s = SystemConfig::uniform_6t();
    let mut builder = System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .memory(MemoryConfig::with_latency(40));
    if with_l2 {
        builder = builder.l2(L2Config::unified(16));
    }
    if seu {
        builder = builder.seu(2e-8, 11);
    }
    builder.build().expect("valid configuration")
}

/// Stuck bits in word 0 of every line of the DL1's first two ways.
/// On the unprotected 6T baseline the armed fault map moves every DL1
/// access onto the gated path, which delivers the faults silently.
fn arm_stuck_bits(sys: &mut System) {
    let dl1 = sys.dl1_mut();
    for set in 0..dl1.config().sets() {
        for way in 0..2 {
            let faults = StuckBits {
                mask: 1 << (set % 32),
                value: 0,
            };
            dl1.set_stuck_bits(WordSlot { way, set, slot: 0 }, faults);
        }
    }
}

fn force_slow(sys: &mut System) {
    sys.il1_mut().set_force_slow_path(true);
    sys.dl1_mut().set_force_slow_path(true);
}

fn multi(with_l2: bool, cores: usize) -> MultiCoreSystem {
    let l1s = SystemConfig::uniform_6t();
    let mut builder = System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .memory(MemoryConfig::with_latency(40));
    if with_l2 {
        builder = builder.l2(L2Config::unified(16));
    }
    builder.build_multi(cores).expect("valid configuration")
}

proptest! {
    /// Under dense stuck-at faults, soft flips, stores and mode
    /// switches, the per-word gate decodes exactly the words whose
    /// decode can differ from what was written: every outcome and
    /// every counter matches the decode-everything reference.
    #[test]
    fn gated_path_matches_reference_under_faults(
        word_bits in prop::sample::select(vec![16u32, 32, 64]),
        hp in prop::sample::select(PROTECTIONS.to_vec()),
        ule in prop::sample::select(PROTECTIONS.to_vec()),
        start_hp: bool,
        pf in 4e-3f64..6e-2,
        fault_seed: u64,
        ops in prop::collection::vec(op(), 1..500),
    ) {
        let mode = if start_hp { Mode::Hp } else { Mode::Ule };
        let mut gated = mixed_cache(word_bits, hp, ule, mode);
        let mut reference = mixed_cache(word_bits, hp, ule, mode);
        reference.set_force_slow_path(true);
        let pf_by_way: Vec<f64> = gated
            .config()
            .ways
            .iter()
            .map(|w| if w.ule_enabled { pf } else { 0.0 })
            .collect();
        for cache in [&mut gated, &mut reference] {
            sample_faults(cache, &pf_by_way, &mut SmallRng::seed_from_u64(fault_seed));
        }
        for (i, &op) in ops.iter().enumerate() {
            let a = apply(&mut gated, op);
            let b = apply(&mut reference, op);
            prop_assert_eq!(a, b, "outcome diverged at op {} ({:?})", i, op);
        }
        prop_assert_eq!(gated.stats(), reference.stats());
    }

    /// Arbitrary synthetic traces — including line-crossing and
    /// sub-word accesses — replay identically on both tiers, with and
    /// without an L2 in the chain, and with stuck bits armed on the
    /// DL1 (the gated path against the decode-everything reference).
    #[test]
    fn forced_slow_replay_matches_fast_path(
        ops in prop::collection::vec(
            (0u64..0x20000, 1u8..=8, any::<bool>(), any::<bool>()),
            1..400,
        ),
        mode_sel: bool,
        with_l2: bool,
        stuck: bool,
    ) {
        let mode = if mode_sel { Mode::Hp } else { Mode::Ule };
        let trace = || {
            ops.clone().into_iter().map(|(a, size, is_write, has_data)| TraceEntry {
                pc: 0x40_0000 + (a & !3),
                access: has_data.then_some(DataAccess {
                    addr: 0x80_0000 + a,
                    size,
                    is_write,
                }),
            })
        };
        let mut fast = build(with_l2, false);
        let mut slow = build(with_l2, false);
        if stuck {
            arm_stuck_bits(&mut fast);
            arm_stuck_bits(&mut slow);
        }
        force_slow(&mut slow);
        let rf = fast.run(trace(), mode);
        let rs = slow.run(trace(), mode);
        prop_assert_eq!(rf, rs, "fast and armed-slow runs diverged");
    }

    /// The generated MediaBench-style traces agree too, across
    /// benchmarks and seeds (energy totals included).
    #[test]
    fn benchmark_replay_matches_fast_path(
        bench_idx in 0usize..Benchmark::BIG.len(),
        seed in 0u64..1000,
        with_l2: bool,
    ) {
        let b = Benchmark::BIG[bench_idx];
        let mut fast = build(with_l2, false);
        let mut slow = build(with_l2, false);
        force_slow(&mut slow);
        let rf = fast.run(b.trace(8_000, seed), Mode::Hp);
        let rs = slow.run(b.trace(8_000, seed), Mode::Hp);
        prop_assert_eq!(rf.stats, rs.stats);
        prop_assert_eq!(rf.energy, rs.energy);
        prop_assert_eq!(rf.seconds, rs.seconds);
        prop_assert_eq!(rf.epi_pj(), rs.epi_pj());
    }
}

#[test]
fn multicore_forced_slow_matches_fast_path() {
    let sources = || {
        vec![
            Benchmark::GsmC.trace(6_000, 1),
            Benchmark::Mpeg2C.trace(6_000, 2),
        ]
    };
    let mut fast = multi(true, 2);
    let mut slow = multi(true, 2);
    for core in 0..2 {
        let (il1, dl1) = slow.core_mut(core);
        il1.set_force_slow_path(true);
        dl1.set_force_slow_path(true);
    }
    let rf = fast.run(sources(), Mode::Hp);
    let rs = slow.run(sources(), Mode::Hp);
    assert_eq!(rf, rs, "multi-core fast and armed-slow runs diverged");
}

#[test]
fn faulty_die_with_seus_matches_reference() {
    // A whole system on a faulty die (dense stuck bits in the DECTED
    // ULE ways of both L1s) with accelerated SEUs landing on top: the
    // gated path must match the decode-everything reference.
    let mut ways = vec![WaySpec::hp_way(1.0, Protection::Secded); 7];
    ways.push(WaySpec::ule_way(
        CellKind::Sram8T,
        1.9,
        Protection::Secded,
        Protection::Dected,
    ));
    let pf: Vec<f64> = ways
        .iter()
        .map(|w| if w.ule_enabled { 8e-3 } else { 0.0 })
        .collect();
    let run = |force: bool| {
        let mut sys = System::builder()
            .config(SystemConfig::with_ways(ways.clone(), 40))
            .l2(L2Config::unified(16))
            .seu(2e-8, 5)
            .build()
            .expect("valid configuration");
        let mut rng = SmallRng::seed_from_u64(13);
        sample_faults(sys.il1_mut(), &pf, &mut rng);
        sample_faults(sys.dl1_mut(), &pf, &mut rng);
        if force {
            force_slow(&mut sys);
        }
        sys.run(Benchmark::EpicC.trace(30_000, 4), Mode::Ule)
    };
    let gated = run(false);
    assert_eq!(gated, run(true));
    let l1 = [gated.stats.il1, gated.stats.dl1];
    assert!(
        l1.iter().map(|s| s.corrected).sum::<u64>() > 0,
        "the die must exercise the decoder"
    );
}

#[test]
fn seu_runs_disengage_the_fast_path_by_themselves() {
    // With an accelerated soft-error rate the caches stop being
    // fault-free mid-run; forcing the slow path must then change
    // nothing at all (the injected upsets land identically because
    // the RNG stream only advances per retired instruction).
    let mut fast = build(false, true);
    let mut slow = build(false, true);
    force_slow(&mut slow);
    let rf = fast.run(Benchmark::AdpcmC.trace(30_000, 7), Mode::Ule);
    let rs = slow.run(Benchmark::AdpcmC.trace(30_000, 7), Mode::Ule);
    assert_eq!(rf, rs);
    assert!(
        rf.stats.silent_corruptions() > 0,
        "accelerated SEUs on the unprotected 6T way must corrupt"
    );
}
