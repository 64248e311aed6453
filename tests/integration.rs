//! Cross-crate integration tests: the full pipeline from EDC codes
//! through the failure/yield models, the architecture builder, the
//! functional cache with fault injection, and the simulator.

use hyvec_cachesim::cache::{HybridCache, StuckBits, WordSlot};
use hyvec_cachesim::config::Mode;
use hyvec_cachesim::engine::System;
use hyvec_cachesim::faults::sample_faults;
use hyvec_cachesim::power::PowerModel;
use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
use hyvec_core::experiments::{
    ablation_memory_latency, ablation_ways, reliability, ExperimentParams,
};
use hyvec_edc::{Decoded, DectedCode, EdcCode, HsiaoCode};
use hyvec_mediabench::Benchmark;
use hyvec_sram::FailureModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn quick() -> ExperimentParams {
    ExperimentParams {
        instructions: 20_000,
        seed: 42,
    }
}

#[test]
fn end_to_end_proposal_runs_both_modes() {
    for s in Scenario::ALL {
        let arch = Architecture::build(s, DesignPoint::Proposal).unwrap();
        let mut sys = System::builder().config(arch.config).build().unwrap();
        let hp = sys.run(Benchmark::Mpeg2C.trace(30_000, 1), Mode::Hp);
        assert_eq!(hp.stats.instructions, 30_000);
        assert!(hp.stats.il1.hit_ratio() > 0.9);
        assert_eq!(hp.stats.silent_corruptions(), 0, "clean silicon");
        let ule = sys.run(Benchmark::EpicD.trace(30_000, 1), Mode::Ule);
        assert!(ule.epi_pj() < hp.epi_pj(), "ULE must be far more frugal");
        assert_eq!(ule.stats.silent_corruptions(), 0);
    }
}

#[test]
fn the_codes_in_the_cache_are_the_real_codes() {
    // The cache datapath and the standalone codecs agree bit for bit:
    // encode a word through the codec and verify the cache's stored
    // encoding decodes identically after corruption.
    let secded = HsiaoCode::secded32();
    let dected = DectedCode::dected32();
    for data in [0u64, 0xFFFF_FFFF, 0x1234_5678] {
        let cw = secded.encode(data);
        assert_eq!(
            secded.decode(cw ^ 2),
            Decoded::Corrected { data, errors: 1 }
        );
        let cw = dected.encode(data);
        assert_eq!(
            dected.decode(cw ^ 0b110),
            Decoded::Corrected { data, errors: 2 }
        );
    }
}

#[test]
fn sampled_fault_maps_stay_within_the_edc_budget() {
    // Manufacture many dies of the scenario-A proposal at its design
    // Pf and verify the vast majority satisfy the per-word budget —
    // the Monte-Carlo counterpart of the yield math.
    let arch = Architecture::build(Scenario::A, DesignPoint::Proposal).unwrap();
    let design = arch.design;
    let mut ok = 0u32;
    let dies = 40;
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..dies {
        let mut cache = HybridCache::new(arch.config.dl1.clone(), Mode::Ule);
        let mut pf = vec![0.0; 8];
        pf[7] = design.pf_8t;
        sample_faults(&mut cache, &pf, &mut rng);
        // Walk the whole ULE way: every word must decode.
        let mut die_ok = true;
        for addr in (0..1024u64).step_by(4) {
            let out = cache.access(addr, false);
            if out.detected > 0 || out.silent > 0 {
                die_ok = false;
            }
        }
        if die_ok {
            ok += 1;
        }
    }
    let mc_yield = f64::from(ok) / f64::from(dies);
    assert!(
        mc_yield >= design.yield_baseline - 0.12,
        "MC yield {mc_yield} far below analytic {}",
        design.yield_baseline
    );
}

#[test]
fn reliability_experiment_shows_edc_value() {
    let r = reliability(Scenario::B, 30, quick());
    assert_eq!(r.proposal_silent, 0);
    assert!(r.analytic_proposal >= r.analytic_baseline);
}

#[test]
fn ablation_way_split_shows_no_further_insight() {
    // 6+2 behaves in the same direction as 7+1 (the paper's reason to
    // show only 7+1).
    let rows = ablation_ways(Scenario::A, quick());
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert!(
            row.hp_saving > 0.05,
            "{}+{}: HP saving {}",
            row.hp_ways,
            row.ule_ways,
            row.hp_saving
        );
        assert!(
            row.ule_saving > 0.20,
            "{}+{}: ULE saving {}",
            row.hp_ways,
            row.ule_ways,
            row.ule_saving
        );
    }
}

#[test]
fn ablation_memory_latency_does_not_change_trends() {
    let rows = ablation_memory_latency(Scenario::A, quick());
    assert_eq!(rows.len(), 4);
    let savings: Vec<f64> = rows.iter().map(|r| r.hp_saving).collect();
    for s in &savings {
        assert!(*s > 0.05, "saving collapsed: {savings:?}");
    }
    // The spread across latencies stays small: trends unchanged.
    let max = savings.iter().cloned().fold(f64::MIN, f64::max);
    let min = savings.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.06, "latency changed the trend: {savings:?}");
}

#[test]
fn area_model_is_consistent_across_crates() {
    // The architecture's area (through the power model) must reflect
    // the cell areas from hyvec-sram: swapping 10T->8T+checks shrinks
    // the ULE way.
    for s in Scenario::ALL {
        let base = Architecture::build(s, DesignPoint::Baseline).unwrap();
        let prop = Architecture::build(s, DesignPoint::Proposal).unwrap();
        let bp = PowerModel::new(&base.config);
        let pp = PowerModel::new(&prop.config);
        assert!(pp.il1.area_um2() < bp.il1.area_um2(), "scenario {s}");
    }
}

#[test]
fn stuck_bits_follow_through_the_whole_stack() {
    // Install a specific stuck bit in the proposal's ULE way and watch
    // the run report count exactly the corrections it causes.
    let arch = Architecture::build(Scenario::A, DesignPoint::Proposal).unwrap();
    let mut sys = System::builder().config(arch.config).build().unwrap();
    // Fill will happen at set 0, word 0 of the ULE way (way 7).
    sys.dl1_mut().set_stuck_bits(
        WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        },
        StuckBits {
            mask: 1 << 4,
            value: 0,
        },
    );
    let report = sys.run(Benchmark::AdpcmC.trace(30_000, 3), Mode::Ule);
    // The fault may or may not be exercised by the trace, but there
    // must never be a silent corruption and the run must finish.
    assert_eq!(report.stats.silent_corruptions(), 0);
    assert_eq!(report.stats.instructions, 30_000);
}

#[test]
fn failure_model_and_methodology_agree() {
    // The sizing chosen by the methodology actually achieves the
    // target failure rate according to the failure model.
    let model = FailureModel::default();
    for s in Scenario::ALL {
        let arch = Architecture::build(s, DesignPoint::Baseline).unwrap();
        let d = &arch.design;
        let achieved = model.pf(
            &hyvec_sram::SizedCell::new(hyvec_sram::CellKind::Sram10T, d.sizing_10t),
            0.35,
        );
        assert!(
            achieved <= d.pf_target * 1.0001,
            "scenario {s}: 10T sizing misses the anchor"
        );
    }
}

#[test]
fn deterministic_experiments() {
    // Same params -> bit-identical experiment outputs (everything is
    // seeded).
    use hyvec_core::experiments::fig3_hp_epi;
    let a = fig3_hp_epi(Scenario::A, quick());
    let b = fig3_hp_epi(Scenario::A, quick());
    assert_eq!(a.saving.to_bits(), b.saving.to_bits());
}
