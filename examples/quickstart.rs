//! Quickstart: build the paper's proposed cache architecture, run a
//! workload in both operating modes, and print the energy results.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use hyvec_cachesim::{Mode, System};
use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
use hyvec_mediabench::Benchmark;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Size the cells with the paper's Fig. 2 methodology and build
    //    the scenario-A proposal: 7 ways of 6T + 1 ULE way of
    //    8T+SECDED (SECDED active only at 350mV).
    let arch = Architecture::build(Scenario::A, DesignPoint::Proposal)?;
    println!("architecture : {}", arch.composition());
    println!(
        "cell sizing  : 6T x{:.2}  10T x{:.2} (baseline)  8T x{:.2} (proposal)",
        arch.design.sizing_6t, arch.design.sizing_10t, arch.design.sizing_8t
    );
    println!(
        "yield        : baseline {:.5}  proposal {:.5} (Pf anchor {:.3e})",
        arch.design.yield_baseline, arch.design.yield_proposal, arch.design.pf_target
    );

    // 2. Run a big workload at HP mode (1V, 1GHz, all 8 ways).
    let mut system = System::builder().config(arch.config.clone()).build()?;
    let hp = system.run(Benchmark::Mpeg2C.trace(200_000, 1), Mode::Hp);
    println!(
        "\nHP  mode ({}): EPI {:.2} pJ, CPI {:.3}, IL1 hit {:.1}%, DL1 hit {:.1}%",
        Benchmark::Mpeg2C,
        hp.epi_pj(),
        hp.stats.cpi(),
        100.0 * hp.stats.il1.hit_ratio(),
        100.0 * hp.stats.dl1.hit_ratio(),
    );

    // 3. Switch to ULE mode (350mV, 5MHz): the seven 6T ways are
    //    gated off and SECDED turns on in the remaining 8T way.
    let ule = system.run(Benchmark::AdpcmC.trace(200_000, 1), Mode::Ule);
    println!(
        "ULE mode ({}): EPI {:.3} pJ, CPI {:.3}, IL1 hit {:.1}%, DL1 hit {:.1}%",
        Benchmark::AdpcmC,
        ule.epi_pj(),
        ule.stats.cpi(),
        100.0 * ule.stats.il1.hit_ratio(),
        100.0 * ule.stats.dl1.hit_ratio(),
    );
    println!(
        "energy split : L1 dynamic {:.3} pJ/instr, L1 leakage {:.3}, EDC {:.4}, rest {:.3}",
        ule.energy.l1_dynamic_pj / ule.stats.instructions as f64,
        ule.energy.l1_leakage_pj / ule.stats.instructions as f64,
        ule.energy.edc_pj / ule.stats.instructions as f64,
        ule.energy.other_pj / ule.stats.instructions as f64,
    );
    Ok(())
}
