//! Monte-Carlo sampling of hard-fault maps.
//!
//! Hard faults are variation-induced cell failures *at the ULE
//! voltage*: a cell that cannot hold/read its value at 350mV works
//! fine at 1V (which is why the fault budget only matters for the ULE
//! ways — the HP ways are gated off at ULE anyway). A fault map is
//! sampled per manufactured die: each bit of each ULE-way word is
//! faulty independently with the cell's failure probability `Pf`, and
//! a faulty bit is stuck at a random value.
//!
//! Soft errors are transient upsets injected at run time, one draw per
//! instruction, into the powered ULE ways of an L1 pair (see
//! `maybe_inject_seu`).

use crate::cache::{HybridCache, StuckBits, WordSlot};
use crate::config::{CacheConfig, WaySpec};
use hyvec_sram::FailureModel;
use rand::rngs::SmallRng;
use rand::Rng;

/// Per-bit hard-failure probability of `spec`'s cell at `vdd`, from
/// the failure model.
pub fn pf_for_way(model: &FailureModel, spec: &WaySpec, vdd: f64) -> f64 {
    model.pf(&spec.cell, vdd)
}

/// Samples a stuck-at fault map for the ULE-enabled ways of `cache`,
/// with per-way bit-failure probabilities `pf_by_way` (indexed like
/// the config's way list). Returns the number of faulty bits
/// installed.
///
/// # Panics
///
/// Panics if `pf_by_way.len()` differs from the way count or any
/// probability is outside `[0, 1]`.
pub fn sample_faults<R: Rng>(cache: &mut HybridCache, pf_by_way: &[f64], rng: &mut R) -> u64 {
    let config = cache.config().clone();
    // hyvec-lint: allow(no-panic, "documented precondition (# Panics): one probability per way")
    assert_eq!(
        pf_by_way.len(),
        config.ways.len(),
        "one pf per way required"
    );
    let words_per_line = config.words_per_line();
    let mut injected = 0u64;
    for (w, (spec, &pf)) in config.ways.iter().zip(pf_by_way).enumerate() {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): probabilities live in [0, 1]")
        assert!((0.0..=1.0).contains(&pf), "pf out of range: {pf}");
        if !spec.ule_enabled || pf == 0.0 {
            continue;
        }
        let data_bits = config.word_bits as usize + spec.stored_check_bits();
        let tag_bits = config.tag_bits as usize + spec.stored_check_bits();
        for set in 0..config.sets() {
            for slot in 0..=words_per_line {
                let bits = if slot == words_per_line {
                    tag_bits
                } else {
                    data_bits
                };
                let mut mask = 0u64;
                for b in 0..bits {
                    if rng.gen::<f64>() < pf {
                        mask |= 1u64 << b;
                    }
                }
                if mask != 0 {
                    injected += u64::from(mask.count_ones());
                    let value = rng.gen::<u64>() & mask;
                    cache.set_stuck_bits(WordSlot { way: w, set, slot }, StuckBits { mask, value });
                }
            }
        }
    }
    injected
}

/// Expected number of faulty bits for a way geometry and failure
/// probability (for sanity checks and tests).
pub fn expected_faulty_bits(
    sets: u64,
    words_per_line: u64,
    word_bits: u64,
    tag_bits: u64,
    check_bits: u64,
    pf: f64,
) -> f64 {
    let bits = sets * (words_per_line * (word_bits + check_bits) + tag_bits + check_bits);
    bits as f64 * pf
}

/// Stored bits in the ULE-enabled ways of an IL1/DL1 pair (data and
/// tag, payload and check bits alike): the soft-error exposure of one
/// core's L1s.
pub(crate) fn ule_exposure_bits(il1: &CacheConfig, dl1: &CacheConfig) -> u64 {
    [il1, dl1]
        .iter()
        .map(|c| {
            c.ways
                .iter()
                .filter(|w| w.ule_enabled)
                .map(|w| {
                    let check = w.stored_check_bits() as u64;
                    c.sets()
                        * (c.words_per_line() * (u64::from(c.word_bits) + check)
                            + u64::from(c.tag_bits)
                            + check)
                })
                .sum::<u64>()
        })
        .sum()
}

/// One soft-error draw for one instruction: `cycles` of exposure over
/// `ule_bits` powered ULE bits at `seu_rate` upsets per bit per cycle.
/// On a hit, one random stored bit of the IL1 or the DL1 (a fair coin)
/// flips.
///
/// Both engines call this once per instruction, but they deliberately
/// integrate different clocks:
///
/// * the single-core [`System`](crate::engine::System) passes the
///   instruction's *full* cycles, fill stalls included, on one stream
///   seeded with the configured seed, because that is the physical
///   clock the ULE bits sit exposed on;
/// * the [`MultiCoreSystem`](crate::multicore::MultiCoreSystem)
///   passes *core-local* cycles (base + bubbles, no fill stalls) on the
///   stream of [`per_core_seed`](hyvec_mediabench::per_core_seed)`(seed,
///   core)`, because its epoch front phase runs before the chain and
///   cannot see fill stalls. That keeps injection identical across
///   `--sim-threads` and every nested machine.
///
/// So a 1-core multi-core run matches [`System`](crate::engine::System)
/// with soft errors off, but not with them on.
pub(crate) fn maybe_inject_seu(
    il1: &mut HybridCache,
    dl1: &mut HybridCache,
    rng: &mut SmallRng,
    seu_rate: f64,
    ule_bits: u64,
    cycles: u64,
) {
    let expected = seu_rate * ule_bits as f64 * cycles as f64;
    if rng.gen::<f64>() < expected {
        if rng.gen::<bool>() {
            inject_random_seu(il1, rng);
        } else {
            inject_random_seu(dl1, rng);
        }
    }
}

/// Flips one uniformly random stored bit among the ULE-way words of
/// `cache` (data and tag, payload and check bits alike); a no-op when
/// no way is ULE-enabled.
pub(crate) fn inject_random_seu(cache: &mut HybridCache, rng: &mut SmallRng) {
    let config = cache.config().clone();
    let ule_ways: Vec<usize> = config
        .ways
        .iter()
        .enumerate()
        .filter(|(_, w)| w.ule_enabled)
        .map(|(i, _)| i)
        .collect();
    if ule_ways.is_empty() {
        return;
    }
    let way = ule_ways[rng.gen_range(0..ule_ways.len())];
    let set = rng.gen_range(0..config.sets());
    let slot = rng.gen_range(0..=config.words_per_line());
    let spec = config.ways[way];
    let bits = if slot == config.words_per_line() {
        config.tag_bits as usize + spec.stored_check_bits()
    } else {
        config.word_bits as usize + spec.stored_check_bits()
    };
    let bit = rng.gen_range(0..bits) as u32;
    cache.inject_soft_error(WordSlot { way, set, slot }, bit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, Mode, WaySpec};
    use hyvec_edc::Protection;
    use hyvec_sram::CellKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cache_8t_secded() -> HybridCache {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule)
    }

    #[test]
    fn zero_pf_injects_nothing() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = sample_faults(&mut c, &[0.0; 8], &mut rng);
        assert_eq!(n, 0);
        assert_eq!(c.fault_bit_count(), 0);
    }

    #[test]
    fn injection_count_tracks_probability() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut pf = [0.0f64; 8];
        pf[7] = 0.01;
        let n = sample_faults(&mut c, &pf, &mut rng);
        // ULE way: 32 sets x (8 words x 39 bits + 33 tag bits) = 11040
        // bits; expect ~110 faults.
        let expect = expected_faulty_bits(32, 8, 32, 26, 7, 0.01);
        assert!((expect - 110.4).abs() < 0.1);
        assert!(
            (n as f64) > expect * 0.6 && (n as f64) < expect * 1.4,
            "injected {n}, expected ~{expect}"
        );
        assert_eq!(c.fault_bit_count(), n);
    }

    #[test]
    fn hp_ways_never_receive_faults() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(3);
        // Even with pf=1 on HP ways, nothing is injected there.
        let mut pf = [0.5f64; 8];
        pf[7] = 0.0;
        let n = sample_faults(&mut c, &pf, &mut rng);
        assert_eq!(n, 0, "HP ways are gated at ULE; no faults modeled");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let mut pf = [0.0f64; 8];
        pf[7] = 0.005;
        let run = |seed| {
            let mut c = cache_8t_secded();
            let mut rng = SmallRng::seed_from_u64(seed);
            sample_faults(&mut c, &pf, &mut rng)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn pf_for_way_uses_cell_and_voltage() {
        let model = FailureModel::default();
        let ule8 = WaySpec::ule_way(CellKind::Sram8T, 1.0, Protection::None, Protection::Secded);
        let high = pf_for_way(&model, &ule8, 1.0);
        let low = pf_for_way(&model, &ule8, 0.35);
        assert!(low > high * 1e6, "NST must be far riskier");
    }

    #[test]
    fn seu_exposure_follows_each_engine_clock() {
        // The exposure decision documented on `maybe_inject_seu`: the
        // multi-core front phase integrates core-local cycles, so its
        // L1 counters ignore memory latency; the single-core engine
        // integrates full cycles, so slower fills mean more upsets.
        use crate::config::SystemConfig;
        use crate::engine::System;
        use hyvec_mediabench::Benchmark;
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        let builder = |latency| {
            System::builder()
                .config(SystemConfig::with_ways(ways.clone(), latency))
                .seu(5e-8, 11)
        };
        let trace = || Benchmark::AdpcmC.trace(20_000, 1);
        let multi = |latency| {
            let mut sys = builder(latency).build_multi(1).expect("1 core");
            let core = &sys.run(vec![trace()], Mode::Ule).per_core[0];
            (core.stats.il1, core.stats.dl1)
        };
        let single = |latency| {
            let mut sys = builder(latency).build().expect("single core");
            let r = sys.run(trace(), Mode::Ule);
            (r.stats.il1, r.stats.dl1)
        };
        let fast = multi(20);
        assert!(fast.0.corrected + fast.1.corrected > 0, "SEUs must land");
        assert_eq!(fast, multi(2000), "multi-core exposure is core-local");
        assert_ne!(single(20), single(2000), "single-core exposure has stalls");
    }

    #[test]
    #[should_panic(expected = "one pf per way")]
    fn wrong_length_rejected() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = sample_faults(&mut c, &[0.0; 3], &mut rng);
    }
}
