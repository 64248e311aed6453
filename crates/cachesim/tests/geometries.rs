//! The paper notes that "significant parts of our study can be easily
//! reused for direct-mapped and fully-associative caches" — these
//! tests exercise the cache and power models across geometries beyond
//! the paper's 8KB 8-way point.

use hyvec_cachesim::cache::HybridCache;
use hyvec_cachesim::config::{CacheConfig, Mode, SystemConfig, WaySpec};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::power::PowerModel;
use hyvec_edc::Protection;
use hyvec_mediabench::Benchmark;
use hyvec_sram::CellKind;

fn config(size_bytes: u64, line_bytes: u64, hp_ways: usize, ule_ways: usize) -> CacheConfig {
    let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); hp_ways];
    for _ in 0..ule_ways {
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.75,
            Protection::None,
            Protection::Secded,
        ));
    }
    CacheConfig {
        size_bytes,
        line_bytes,
        ways,
        word_bits: 32,
        tag_bits: 26,
    }
}

#[test]
fn two_way_hybrid_works() {
    let cfg = config(4 * 1024, 32, 1, 1);
    cfg.validate().expect("valid geometry");
    let mut cache = HybridCache::new(cfg, Mode::Hp);
    assert_eq!(cache.config().sets(), 64);
    let sets = cache.config().sets();
    let line = cache.config().line_bytes;
    cache.access(0, false);
    cache.access(sets * line, false);
    assert!(cache.access(0, false).hit, "2-way must hold both lines");
    assert!(cache.access(sets * line, false).hit);
}

#[test]
fn direct_mapped_ule_only_cache() {
    // A 1-way cache whose single way is the ULE way: the degenerate
    // direct-mapped organization.
    let cfg = config(1024, 32, 0, 1);
    cfg.validate().expect("valid geometry");
    let mut cache = HybridCache::new(cfg, Mode::Ule);
    assert_eq!(cache.config().sets(), 32);
    assert_eq!(cache.enabled_ways(), 1);
    let sets = cache.config().sets();
    let line = cache.config().line_bytes;
    cache.access(0, false);
    assert!(cache.access(4, false).hit);
    cache.access(sets * line, false); // conflicting line evicts
    assert!(!cache.access(0, false).hit);
}

#[test]
fn sixteen_way_fully_associative_like_cache() {
    // 16 ways of 32B lines over 512B: a single set — fully
    // associative.
    let cfg = config(512, 32, 15, 1);
    cfg.validate().expect("valid geometry");
    assert_eq!(cfg.sets(), 1);
    let mut cache = HybridCache::new(cfg, Mode::Hp);
    // 16 distinct lines all fit.
    for i in 0..16u64 {
        cache.access(i * 32, false);
    }
    for i in 0..16u64 {
        assert!(cache.access(i * 32, false).hit, "line {i} evicted");
    }
    // A 17th line evicts exactly the least-recently-used line (line
    // 0, touched first in the verification pass) and nothing else.
    cache.access(16 * 32, false);
    assert!(cache.access(16 * 32, false).hit, "new line resident");
    assert!(cache.access(15 * 32, false).hit, "MRU line untouched");
    assert!(!cache.access(0, false).hit, "LRU line evicted");
}

#[test]
fn sixty_four_byte_lines_work() {
    let cfg = config(8 * 1024, 64, 7, 1);
    cfg.validate().expect("valid geometry");
    assert_eq!(cfg.words_per_line(), 16);
    let mut cache = HybridCache::new(cfg, Mode::Hp);
    cache.access(0, false);
    assert!(cache.access(60, false).hit, "same 64B line");
    assert!(!cache.access(64, false).hit, "next line");
}

#[test]
fn full_system_runs_on_a_16kb_geometry() {
    let il1 = config(16 * 1024, 32, 7, 1);
    let dl1 = il1.clone();
    let sys_cfg = SystemConfig {
        il1,
        dl1,
        memory_latency: 20,
        tech: Default::default(),
        uncore_ten_t_sizing: 2.65,
    };
    let pm = PowerModel::new(&sys_cfg);
    assert!(pm.il1.area_um2() > 0.0);
    let mut sys = System::builder().config(sys_cfg).build().unwrap();
    let r = sys.run(Benchmark::Mpeg2C.trace(20_000, 1), Mode::Hp);
    assert_eq!(r.stats.instructions, 20_000);
    // Twice the capacity can only help mpeg2's larger working set.
    assert!(r.stats.dl1.hit_ratio() > 0.9);
}

#[test]
fn power_model_scales_with_capacity() {
    let small = SystemConfig::with_ways(config(8 * 1024, 32, 7, 1).ways.clone(), 20);
    let mut big_cfg = small.clone();
    big_cfg.il1.size_bytes = 16 * 1024;
    big_cfg.dl1.size_bytes = 16 * 1024;
    let pm_small = PowerModel::new(&small);
    let pm_big = PowerModel::new(&big_cfg);
    assert!(pm_big.il1.area_um2() > 1.8 * pm_small.il1.area_um2());
    assert!(pm_big.il1.leakage_w(Mode::Hp, 1.0) > 1.8 * pm_small.il1.leakage_w(Mode::Hp, 1.0));
    // Bigger arrays cost more per lookup (longer bitlines or more
    // columns).
    assert!(
        pm_big.il1.lookup_energy_pj(Mode::Hp, 1.0) > pm_small.il1.lookup_energy_pj(Mode::Hp, 1.0)
    );
}
