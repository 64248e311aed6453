//! Lane independence of the lockstep engine. `System::run_many` draws
//! each entry of one trace once and runs it on several systems; each
//! system must come out exactly as if it had run the trace alone
//! through `run_at`:
//! same `RunReport`, report for report, over flat and L2 chains, HP
//! and ULE, faulty dies, soft errors and per-system operating points.

use hyvec_cachemodel::OperatingPoint;
use hyvec_cachesim::config::{L2Config, Mode, SystemConfig, WaySpec};
use hyvec_cachesim::engine::{RunReport, System};
use hyvec_cachesim::faults::sample_faults;
use hyvec_edc::Protection;
use hyvec_mediabench::Benchmark;
use hyvec_sram::CellKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One lane's machine: a 7+1 hybrid L1 pair whose 8T ULE way carries
/// `ule_protection`, over flat memory or a 16KB L2.
#[derive(Debug, Clone, Copy)]
struct Lane {
    l2: bool,
    ule_protection: Protection,
    memory_latency: u32,
    /// Soft-error RNG seed; `None` leaves injection off.
    seu_seed: Option<u64>,
    /// Per-bit failure probability and seed of the ULE-way fault map.
    faults: Option<(f64, u64)>,
    op: OperatingPoint,
}

prop_compose! {
    fn lane()(
        l2: bool,
        ule_protection in prop::sample::select(vec![
            Protection::None,
            Protection::Secded,
            Protection::Dected,
        ]),
        memory_latency in 10u32..=80,
        seu: bool,
        seu_seed: u64,
        faulty: bool,
        pf in 2e-3f64..2e-2,
        fault_seed: u64,
        vdd in 0.3f64..1.1,
        freq in 1e6f64..2e9,
    ) -> Lane {
        Lane {
            l2,
            ule_protection,
            memory_latency,
            seu_seed: seu.then_some(seu_seed),
            faults: faulty.then_some((pf, fault_seed)),
            op: OperatingPoint::new(vdd, freq),
        }
    }
}

fn build(lane: &Lane) -> System {
    let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
    ways.push(WaySpec::ule_way(
        CellKind::Sram8T,
        1.8,
        Protection::None,
        lane.ule_protection,
    ));
    let mut builder = System::builder().config(SystemConfig::with_ways(ways, lane.memory_latency));
    if lane.l2 {
        builder = builder.l2(L2Config::unified(16));
    }
    if let Some(seed) = lane.seu_seed {
        // Accelerated far enough that a short trace sees dozens of
        // upsets in the ULE way.
        builder = builder.seu(1e-6, seed);
    }
    let mut system = builder.build().expect("valid configuration");
    if let Some((pf, seed)) = lane.faults {
        let mut pf_by_way = [0.0; 8];
        pf_by_way[7] = pf;
        let mut rng = SmallRng::seed_from_u64(seed);
        sample_faults(system.dl1_mut(), &pf_by_way, &mut rng);
        sample_faults(system.il1_mut(), &pf_by_way, &mut rng);
    }
    system
}

proptest! {
    /// Two consecutive traces (the second at the other mode, so soft-
    /// error streams and fault maps carry across runs) through 1-4
    /// lanes in lockstep, against each lane run alone.
    #[test]
    fn run_many_matches_each_system_run_alone(
        lanes in prop::collection::vec(lane(), 1..=4),
        benchmark in prop::sample::select(Benchmark::ALL.to_vec()),
        instructions in 200u64..2_000,
        seed: u64,
        start_ule: bool,
    ) {
        let first = if start_ule { Mode::Ule } else { Mode::Hp };
        let second = match first {
            Mode::Hp => Mode::Ule,
            Mode::Ule => Mode::Hp,
        };
        let ops: Vec<OperatingPoint> = lanes.iter().map(|lane| lane.op).collect();
        let mut together: Vec<System> = lanes.iter().map(build).collect();
        let mut alone: Vec<System> = lanes.iter().map(build).collect();
        for (round, mode) in [first, second].into_iter().enumerate() {
            let trace_seed = seed.wrapping_add(round as u64);
            let many = System::run_many(
                &mut together,
                benchmark.trace(instructions, trace_seed),
                mode,
                &ops,
            );
            let solo: Vec<RunReport> = alone
                .iter_mut()
                .zip(&ops)
                .map(|(system, &op)| system.run_at(benchmark.trace(instructions, trace_seed), mode, op))
                .collect();
            prop_assert_eq!(many.len(), lanes.len());
            for (i, (m, s)) in many.iter().zip(&solo).enumerate() {
                prop_assert!(m == s, "round {round}, lane {i} of {:?}:\n{m:?}\nvs\n{s:?}", lanes);
            }
        }
    }
}

#[test]
fn run_many_matches_at_every_trace_length_edge() {
    // Empty traces, and lengths on both sides of the engine's block
    // boundaries.
    let lanes = [true, false].map(|l2| Lane {
        l2,
        ule_protection: Protection::Secded,
        memory_latency: 40,
        seu_seed: Some(5),
        faults: Some((1e-2, 9)),
        op: Mode::Ule.operating_point(),
    });
    let ops = [Mode::Ule.operating_point(); 2];
    for len in [0, 1, 63, 64, 65, 127, 128, 129] {
        let mut together = lanes.map(|lane| build(&lane));
        let mut alone = lanes.map(|lane| build(&lane));
        let trace = || Benchmark::EpicC.trace(len, 3);
        let many = System::run_many(&mut together, trace(), Mode::Ule, &ops);
        for (m, system) in many.iter().zip(&mut alone) {
            assert_eq!(
                *m,
                system.run_at(trace(), Mode::Ule, ops[0]),
                "length {len}"
            );
            assert_eq!(m.stats.instructions, len);
        }
    }
}

#[test]
fn run_many_over_no_systems_reports_nothing() {
    let reports = System::run_many(&mut [], Benchmark::AdpcmC.trace(100, 1), Mode::Hp, &[]);
    assert!(reports.is_empty());
}

#[test]
#[should_panic(expected = "one operating point per system")]
fn run_many_needs_one_operating_point_per_system() {
    let lane = Lane {
        l2: false,
        ule_protection: Protection::Secded,
        memory_latency: 20,
        seu_seed: None,
        faults: None,
        op: Mode::Hp.operating_point(),
    };
    System::run_many(
        &mut [build(&lane), build(&lane)],
        Benchmark::AdpcmC.trace(100, 1),
        Mode::Hp,
        &[lane.op],
    );
}
