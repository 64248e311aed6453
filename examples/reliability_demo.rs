//! Reliability demonstration: manufacture faulty dies, run real
//! workloads through the bit-accurate cache, and watch EDC do its job.
//!
//! Three systems run the same SmallBench workloads at ULE mode on
//! dies sampled at the 8T design failure rate:
//!
//! 1. the proposed 8T+SECDED way — corrects every hard fault it hits;
//! 2. the same faulty 8T cells with EDC disabled — silently corrupts
//!    data (what "just use smaller cells" would do, the failure the
//!    paper's methodology exists to prevent);
//! 3. an over-stressed die (10x the design failure rate) — SECDED now
//!    *detects* uncorrectable double faults instead of lying.
//!
//! ```text
//! cargo run --example reliability_demo --release
//! ```

use hyvec_cachesim::faults::sample_faults;
use hyvec_cachesim::{Mode, System};
use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
use hyvec_edc::Protection;
use hyvec_mediabench::Benchmark;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::error::Error;

fn run_faulty(mut system: System, pf_ule_way: f64, seed: u64) -> (u64, u64, u64) {
    let mut pf = vec![0.0f64; 8];
    pf[7] = pf_ule_way;
    let mut rng = SmallRng::seed_from_u64(seed);
    let injected_d = sample_faults(system.dl1_mut(), &pf, &mut rng);
    let injected_i = sample_faults(system.il1_mut(), &pf, &mut rng);
    let mut corrected = 0;
    let mut detected = 0;
    let mut silent = 0;
    for b in Benchmark::SMALL {
        let r = system.run(b.trace(100_000, seed), Mode::Ule);
        corrected += r.stats.corrected();
        detected += r.stats.detected();
        silent += r.stats.silent_corruptions();
    }
    println!(
        "    injected {} faulty bits -> corrected {corrected}, detected {detected}, silent {silent}",
        injected_d + injected_i
    );
    (corrected, detected, silent)
}

fn main() -> Result<(), Box<dyn Error>> {
    let arch = Architecture::build(Scenario::A, DesignPoint::Proposal)?;
    let pf = arch.design.pf_8t;
    println!(
        "scenario A proposal: {} (8T sized x{:.2}, design Pf = {:.2e})\n",
        arch.composition(),
        arch.design.sizing_8t,
        pf
    );

    println!("[1] proposed design at its design failure rate:");
    let system = |config| System::builder().config(config).build();
    let (corrected, _, silent) = run_faulty(system(arch.config.clone())?, pf, 99);
    assert_eq!(silent, 0, "SECDED must deliver correct data");
    println!("    -> every exercised fault corrected ({corrected} corrections), zero corruption\n");

    println!("[2] same faulty cells, EDC turned off (the naive approach):");
    let mut naked = arch.config.clone();
    for way in naked.il1.ways.iter_mut().chain(naked.dl1.ways.iter_mut()) {
        way.protection_hp = Protection::None;
        way.protection_ule = Protection::None;
    }
    let (_, _, silent) = run_faulty(system(naked)?, pf, 99);
    println!("    -> {silent} silently corrupted loads: unusable for critical applications\n");

    println!("[3] proposed design on an over-stressed die (10x design Pf):");
    let (corrected, detected, silent) = run_faulty(system(arch.config.clone())?, pf * 10.0, 99);
    println!(
        "    -> {corrected} corrected; {detected} uncorrectable but *detected* (never silent: {silent})"
    );

    println!("\nWord-level SECDED turns the 8T way's hard faults from silent data");
    println!("corruption into transparent corrections — the reliability");
    println!("equivalence the paper's design methodology guarantees.");
    Ok(())
}
