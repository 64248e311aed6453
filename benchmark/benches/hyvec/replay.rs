//! `replay`: a seeded multi-million-entry corpus, binfmt-encoded in
//! set-up and streamed through `BinaryReplay` into `System::run`, once
//! in HP mode fault-free and once in ULE mode with a sampled hard-fault
//! map on the ULE way. Caches start empty on every pass.

use std::time::Instant;

use hyvec_cachesim::config::{CacheConfig, L2Config, MemoryConfig, Mode, SystemConfig};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::faults::sample_faults;
use hyvec_cachesim::stats::RunStats;
use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
use hyvec_core::experiments::ABLATION_L2_MEMORY_LATENCY;
use hyvec_core::methodology::MethodologyInputs;
use hyvec_core::seed::split_mix64;
use hyvec_mediabench::binfmt::{encode_entries, BinaryReplay, DEFAULT_CHUNK_ENTRIES};
use hyvec_mediabench::{zoo, Benchmark, TraceEntry};
use hyvec_sram::failure::FailureModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::spans::SpanId;
use crate::stats::{fnv1a, Samples};
use crate::{rounds, set_up, Ctx, Outcome};

/// Corpus length, entries (one entry = one simulated instruction).
pub const ENTRIES: u64 = 3_000_000;
/// Passes per mode in one round. A round (about 4 s on a 2-vCPU host)
/// then spans several of the host's short contention swings, so the
/// per-round figures average them instead of landing on one.
const PASSES_PER_ROUND: usize = 4;
/// Unified L2 below the L1s, KB: the zoo ablation's machine.
const L2_KB: u64 = 16;
/// Floor on the ULE way's per-bit failure probability, so faults land
/// in live words on every seed (the reliability experiment's
/// demonstration rate).
const PF_ULE_FLOOR: f64 = 1.5e-3;

/// The corpus plus the machine it replays on.
#[derive(Debug)]
pub struct Corpus {
    pub entries: Vec<TraceEntry>,
    pub bytes: Vec<u8>,
    config: SystemConfig,
    pf_by_way: Vec<f64>,
    fault_seed: u64,
    pub gen_s: f64,
    pub encode_s: f64,
}

/// One source of the corpus mix.
#[derive(Debug, Clone, Copy)]
enum Source {
    Program(Benchmark),
    Zoo(zoo::Workload),
}

impl Corpus {
    /// Generates the corpus from `seed`: every mediabench program and
    /// every zoo generator, one equal segment each, in a seeded order
    /// with per-segment seeds.
    pub fn build(seed: u64) -> Corpus {
        let mut sources: Vec<Source> = Benchmark::ALL.into_iter().map(Source::Program).collect();
        sources.extend(zoo::Workload::ALL.into_iter().map(Source::Zoo));
        let mut order_key = split_mix64(seed);
        for i in (1..sources.len()).rev() {
            order_key = split_mix64(order_key);
            sources.swap(i, (order_key % (i as u64 + 1)) as usize);
        }
        let per = ENTRIES / sources.len() as u64;
        let start = Instant::now();
        let mut entries = Vec::with_capacity(ENTRIES as usize);
        for (i, source) in sources.iter().enumerate() {
            let n = if i + 1 == sources.len() {
                ENTRIES - per * i as u64
            } else {
                per
            };
            let s = split_mix64(seed ^ (i as u64 + 1));
            match *source {
                Source::Program(b) => entries.extend(b.trace(n, s)),
                Source::Zoo(w) => entries.extend(w.trace(n, s)),
            }
        }
        let gen_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (bytes, _) = encode_entries(entries.iter().copied(), DEFAULT_CHUNK_ENTRIES);
        let encode_s = start.elapsed().as_secs_f64();

        let arch = Architecture::build_with(
            Scenario::B,
            DesignPoint::Proposal,
            &FailureModel::default(),
            &MethodologyInputs::default(),
            7,
            1,
            ABLATION_L2_MEMORY_LATENCY,
        )
        .expect("the Scenario B proposal sizes with default models");
        let pf_ule = arch.design.pf_8t.max(PF_ULE_FLOOR);
        let pf_by_way = arch
            .config
            .dl1
            .ways
            .iter()
            .map(|w| if w.ule_enabled { pf_ule } else { 0.0 })
            .collect();
        Corpus {
            entries,
            bytes,
            config: arch.config,
            pf_by_way,
            fault_seed: split_mix64(seed ^ 0xFA17),
            gen_s,
            encode_s,
        }
    }

    /// A fresh machine with empty caches; in ULE mode its ULE ways
    /// carry the seeded hard-fault map.
    pub fn system(&self, mode: Mode) -> System {
        let mut sys = System::builder()
            .config(self.config.clone())
            .memory(MemoryConfig::with_latency(ABLATION_L2_MEMORY_LATENCY))
            .l2(L2Config::unified(L2_KB))
            .build()
            .expect("the Scenario B proposal with a unified L2 is a valid machine");
        if mode == Mode::Ule {
            let mut rng = SmallRng::seed_from_u64(self.fault_seed);
            sample_faults(sys.dl1_mut(), &self.pf_by_way, &mut rng);
            sample_faults(sys.il1_mut(), &self.pf_by_way, &mut rng);
        }
        sys
    }

    /// The data L1's geometry and ways.
    pub fn dl1_config(&self) -> CacheConfig {
        self.config.dl1.clone()
    }

    /// Streams the encoded corpus through a fresh machine; returns the
    /// run's counters, `System::run` seconds, and whether the stream
    /// decoded without error.
    pub fn replay(&self, mode: Mode, ctx: &Ctx, parent: SpanId) -> (RunStats, f64, bool) {
        let tracer = ctx.tracer;
        let mut sys = tracer.time("cachesim.system.build", parent, |_| self.system(mode));
        let mut reader = BinaryReplay::from_reader(self.bytes.as_slice())
            .expect("the corpus was just encoded with a valid header");
        let name = if mode == Mode::Hp {
            "cachesim.run.hp"
        } else {
            "cachesim.run.ule"
        };
        let start = Instant::now();
        let report = tracer.time(name, parent, |_| sys.run(&mut reader, mode));
        let secs = start.elapsed().as_secs_f64();
        (report.stats, secs, reader.error().is_none())
    }
}

/// The simulated counts of one pass (simulated quantities, exact).
pub fn sim_counts(prefix: &str, s: &RunStats) -> Vec<(String, f64)> {
    let l1_accesses = s.il1.accesses + s.dl1.accesses;
    let l1_misses = s.il1.misses + s.dl1.misses;
    let l2 = s.l2.unwrap_or_default();
    [
        ("cycles", s.cycles as f64),
        ("ipc", s.instructions as f64 / s.cycles as f64),
        ("l1_miss_ratio", l1_misses as f64 / l1_accesses as f64),
        ("l2_hit_ratio", l2.hit_ratio()),
        ("edc_stall_cycles", s.edc_stall_cycles as f64),
        ("corrected", s.corrected() as f64),
        ("detected", s.detected() as f64),
        ("silent", s.silent_corruptions() as f64),
    ]
    .into_iter()
    .map(|(k, v)| (format!("cachesim.{prefix}.{k}"), v))
    .collect()
}

pub fn run(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    // Building the machines (and sampling the fault map) is set-up too;
    // each timed pass then starts from a fresh copy.
    let setup = || {
        let c = Corpus::build(ctx.seed);
        drop((c.system(Mode::Hp), c.system(Mode::Ule)));
        c
    };
    let corpus = set_up(&mut out, setup);
    let n = corpus.entries.len() as f64;

    let tracer = ctx.tracer;
    let mut reference: Option<(RunStats, RunStats)> = None;
    let (mut hp_rate, mut ule_rate) = (Samples::default(), Samples::default());
    rounds(ctx, seconds, &mut out, |out, traced| {
        let start = Instant::now();
        let (mut hp_s, mut ule_s) = (0.0, 0.0);
        tracer.time("bench.replay.round", None, |root| {
            for _ in 0..PASSES_PER_ROUND {
                let hp = corpus.replay(Mode::Hp, ctx, root);
                let ule = corpus.replay(Mode::Ule, ctx, root);
                let (hp_ref, ule_ref) = *reference.get_or_insert((hp.0, ule.0));
                out.op(hp.2 && hp.0 == hp_ref, || {
                    "HP stream replay diverged or failed to decode".to_string()
                });
                out.op(ule.2 && ule.0 == ule_ref && ule.0.corrected() > 0, || {
                    format!(
                        "ULE stream replay diverged, failed to decode, or corrected nothing ({} corrected)",
                        ule.0.corrected()
                    )
                });
                hp_s += hp.1;
                ule_s += ule.1;
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let passes = PASSES_PER_ROUND as f64;
        if !traced {
            out.fast.push(hp_s / passes);
            out.slow.push(ule_s / passes);
            hp_rate.push(n * passes / hp_s / 1e6);
            ule_rate.push(n * passes / ule_s / 1e6);
        }
        secs
    });

    // The stream must count exactly what in-memory replay of the same
    // entries counts.
    let (hp_ref, ule_ref) = reference.expect("at least one round ran");
    for (mode, expected) in [(Mode::Hp, hp_ref), (Mode::Ule, ule_ref)] {
        let got = corpus
            .system(mode)
            .run(corpus.entries.iter().copied(), mode)
            .stats;
        out.op(got == expected, || {
            format!("{mode:?} in-memory replay differs from the stream")
        });
    }

    out.param("entries", corpus.entries.len().to_string());
    out.param("encoded_bytes", corpus.bytes.len().to_string());
    out.param(
        "corpus_fingerprint",
        format!("\"{:016x}\"", fnv1a(&corpus.bytes)),
    );
    out.param("machine", "\"Scenario B proposal (7x 6T+SECDED HP ways, 1x 8T+DECTED ULE way), 16KB unified L2, 80-cycle memory, caches start empty\"".to_string());
    out.param(
        "sim_fingerprint",
        format!(
            "\"{:016x}\"",
            fnv1a(format!("{hp_ref:?}{ule_ref:?}").as_bytes())
        ),
    );
    out.timing("replay_hp_minst_s", hp_rate, 1.0, "Minst/s");
    out.timing("replay_ule_minst_s", ule_rate, 1.0, "Minst/s");
    let mut layer = sim_counts("hp", &hp_ref);
    layer.extend(sim_counts("ule", &ule_ref));
    for (name, value) in &layer {
        out.figure(&format!("simulated {name}"), *value, "sim");
    }
    layer.push(("mediabench.gen_meps".into(), n / corpus.gen_s / 1e6));
    layer.push((
        "mediabench.binfmt.encode_meps".into(),
        n / corpus.encode_s / 1e6,
    ));
    layer.push((
        "mediabench.binfmt.bytes_per_entry".into(),
        corpus.bytes.len() as f64 / n,
    ));
    out.layer_metrics(layer);
    out.corpus = Some(corpus);
    drop(set_up(&mut out, setup));
    out
}
