//! Layer probes of the traced run: each times one public entry point
//! of a layer in isolation (median of a few repetitions), inside a
//! span named after the layer.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use hyvec_cachesim::cache::HybridCache;
use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::multicore::MultiCoreReport;
use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
use hyvec_core::experiments::{
    ExperimentParams, ABLATION_CORES_L2_KB, ABLATION_CORES_PROGRAMS, ABLATION_L2_MEMORY_LATENCY,
};
use hyvec_core::render::{render, Format};
use hyvec_core::report::Report;
use hyvec_core::seed::split_mix64;
use hyvec_core::sweep::default_jobs;
use hyvec_core::Registry;
use hyvec_edc::Protection;
use hyvec_mediabench::binfmt::BinaryReplay;
use hyvec_mediabench::multiprogram_sources;
use hyvec_serve::http::read_request;
use hyvec_serve::{RenderSet, ResultCache};

use crate::replay::Corpus;
use crate::serve::{reference, COLD, COLD_INSTRUCTIONS};
use crate::spans::Tracer;
use crate::stats::Samples;

/// Repetitions per probe.
const REPS: usize = 5;
/// Corpus prefix the engine and L1 probes run over.
const PROBE_ENTRIES: usize = 500_000;
/// Instructions per core of the multi-core probe (the sweep default).
const MULTICORE_INSTRUCTIONS: u64 = 100_000;
/// Operations per EDC, HTTP-parse and cache-hit probe repetition.
const MICRO_OPS: usize = 1 << 16;

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..reps {
        let start = Instant::now();
        f();
        s.push(start.elapsed().as_secs_f64());
    }
    s.median()
}

/// Runs every probe; returns the per-layer figures plus whether every
/// equivalence check the probes make held.
pub fn run(tracer: &Tracer, report: &Report, corpus: &Corpus) -> (Vec<(String, f64)>, Vec<String>) {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut failures = Vec::new();

    tracer.time("core.registry.standard", None, |_| {
        let s = median_secs(50, || drop(black_box(Registry::standard())));
        m.push(("core.registry.standard_ms".into(), s * 1e3));
    });
    tracer.time("core.render", None, |_| {
        for f in [Format::Text, Format::Json, Format::Csv] {
            let s = median_secs(REPS, || drop(black_box(render(report, f))));
            m.push((format!("core.render.{}_ms", f.name()), s * 1e3));
        }
    });

    tracer.time("cachesim.multicore", None, |_| {
        let (per_core, ok) = multicore();
        m.extend(per_core);
        if !ok {
            failures.push("threaded multi-core report differs from the serial one".to_string());
        }
    });

    let entries = &corpus.entries[..PROBE_ENTRIES.min(corpus.entries.len())];
    tracer.time("cachesim.engine", None, |_| {
        for (mode, name) in [(Mode::Hp, "hp"), (Mode::Ule, "ule")] {
            let s = median_secs(3, || {
                let mut sys = corpus.system(mode);
                black_box(sys.run(entries.iter().copied(), mode));
            });
            m.push((
                format!("cachesim.engine.{name}_vec_minst_s"),
                entries.len() as f64 / s / 1e6,
            ));
        }
    });
    tracer.time("cachesim.l1", None, |_| {
        let accesses: Vec<(u64, bool)> = entries
            .iter()
            .filter_map(|e| e.access.map(|a| (a.addr, a.is_write)))
            .collect();
        let mut stats = Vec::new();
        for (force_slow, name) in [(false, "fast"), (true, "slow")] {
            let s = median_secs(3, || {
                let mut cache = HybridCache::new(corpus.dl1_config(), Mode::Hp);
                cache.set_force_slow_path(force_slow);
                for &(addr, w) in &accesses {
                    black_box(cache.access(addr, w));
                }
                stats.push(*cache.stats());
            });
            m.push((
                format!("cachesim.l1.{name}_maccess_s"),
                accesses.len() as f64 / s / 1e6,
            ));
        }
        if stats.windows(2).any(|w| w[0] != w[1]) {
            failures.push("L1 fast and slow paths counted differently".to_string());
        }
    });

    tracer.time("mediabench.binfmt.decode", None, |_| {
        let s = median_secs(3, || {
            let reader =
                BinaryReplay::from_reader(corpus.bytes.as_slice()).expect("valid corpus header");
            black_box(reader.count());
        });
        m.push((
            "mediabench.binfmt.decode_meps".into(),
            corpus.entries.len() as f64 / s / 1e6,
        ));
    });

    tracer.time("edc.codec", None, |_| m.extend(edc()));

    tracer.time("serve.http.read_request", None, |_| {
        let one = b"GET /report/fig3/A?seed=7&instructions=100000&format=json HTTP/1.1\r\nHost: bench\r\nIf-None-Match: \"0123456789abcdef-json\"\r\n\r\n";
        let canned: Vec<u8> = one.iter().copied().cycle().take(one.len() * MICRO_OPS).collect();
        let s = median_secs(REPS, || {
            let mut reader = Cursor::new(canned.as_slice());
            for _ in 0..MICRO_OPS {
                black_box(read_request(&mut reader).expect("canned request parses"));
            }
        });
        m.push(("serve.http.read_request_ns".into(), s / MICRO_OPS as f64 * 1e9));
    });
    tracer.time("serve.cache.hit", None, |_| {
        let cache = ResultCache::new(1 << 20);
        let value = || RenderSet::new("t".repeat(4096), "j".repeat(4096), "c".repeat(4096));
        cache.get_or_compute(7, value);
        let s = median_secs(REPS, || {
            for _ in 0..MICRO_OPS {
                black_box(cache.get_or_compute(black_box(7), value));
            }
        });
        m.push(("serve.cache.hit_ns".into(), s / MICRO_OPS as f64 * 1e9));
    });
    tracer.time("serve.compute", None, |_| {
        let mut s = Samples::default();
        for (i, id) in COLD.iter().cycle().take(2 * COLD.len()).enumerate() {
            let params = ExperimentParams {
                instructions: COLD_INSTRUCTIONS,
                seed: split_mix64(0xC0DE ^ i as u64),
            };
            let start = Instant::now();
            black_box(reference(id, params));
            s.push(start.elapsed().as_secs_f64());
        }
        m.push(("serve.compute_ms".into(), s.median() * 1e3));
    });
    (m, failures)
}

/// Serial vs threaded wall time of the ablation-cores shared-L2
/// machine at 1 and 16 cores; also whether both engines agreed.
fn multicore() -> (Vec<(String, f64)>, bool) {
    let arch = Architecture::build_pinned(Scenario::B, DesignPoint::Proposal);
    let threads = default_jobs();
    let mut m = Vec::new();
    let mut same = true;
    let mut c1 = (0.0, 0.0);
    for cores in [1usize, 16] {
        let benchmarks: Vec<_> = (0..cores)
            .map(|i| ABLATION_CORES_PROGRAMS[i % ABLATION_CORES_PROGRAMS.len()])
            .collect();
        let mut reports: Vec<MultiCoreReport> = Vec::new();
        let mut time = |sim_threads: usize| {
            median_secs(3, || {
                let mut machine = System::builder()
                    .config(arch.config.clone())
                    .memory(MemoryConfig::with_latency(ABLATION_L2_MEMORY_LATENCY))
                    .l2(L2Config::unified(ABLATION_CORES_L2_KB))
                    .build_multi(cores)
                    .expect("the ablation-cores machine is valid");
                machine.set_sim_threads(sim_threads);
                let sources = multiprogram_sources(&benchmarks, MULTICORE_INSTRUCTIONS, 1);
                reports.push(machine.run(sources, Mode::Hp));
            }) * 1e3
        };
        let serial = time(1);
        let threaded = time(threads);
        same &= reports.windows(2).all(|w| w[0] == w[1]);
        m.push((format!("cachesim.multicore.serial_ms.c{cores}"), serial));
        m.push((format!("cachesim.multicore.threaded_ms.c{cores}"), threaded));
        if cores == 1 {
            c1 = (serial, threaded);
        }
    }
    m.push(("cachesim.multicore.epoch_overhead_ms".into(), c1.1 - c1.0));
    (m, same)
}

/// Encode and decode cost per 32-bit word, via `Protection::build`.
fn edc() -> Vec<(String, f64)> {
    let words: Vec<u64> = (0..MICRO_OPS as u64)
        .map(|i| split_mix64(i) & 0xFFFF_FFFF)
        .collect();
    let mut m = Vec::new();
    for (prot, name) in [
        (Protection::Secded, "secded"),
        (Protection::Dected, "dected"),
    ] {
        let code = prot.build(32).expect("32-bit words are supported");
        let per_op = |secs: f64| secs / MICRO_OPS as f64 * 1e9;
        let mut encoded = Vec::new();
        let enc = median_secs(REPS, || {
            encoded = words.iter().map(|&w| code.encode(black_box(w))).collect();
        });
        m.push((format!("edc.{name}.encode_ns"), per_op(enc)));
        let total = code.total_bits() as u64;
        let mut errs = vec![("clean", 0u32)];
        errs.push(("1err", 1));
        if prot == Protection::Dected {
            errs.push(("2err", 2));
        }
        for (label, flips) in errs {
            let received: Vec<u64> = encoded
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let a = split_mix64(i as u64) % total;
                    let b = (a + 1 + split_mix64(!(i as u64)) % (total - 1)) % total;
                    match flips {
                        0 => c,
                        1 => c ^ (1 << a),
                        _ => c ^ (1 << a) ^ (1 << b),
                    }
                })
                .collect();
            let dec = median_secs(REPS, || {
                for &r in &received {
                    black_box(code.decode(black_box(r)));
                }
            });
            m.push((format!("edc.{name}.decode_{label}_ns"), per_op(dec)));
        }
    }
    m
}

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    let sim = name.starts_with("cachesim.hp.") || name.starts_with("cachesim.ule.");
    match name {
        _ if sim && name.ends_with(".cycles") || name.ends_with("edc_stall_cycles") => "sim_cycles",
        _ if sim && name.ends_with(".ipc") => "sim_instr/cycle",
        _ if sim && name.ends_with("_ratio") => "sim_ratio",
        _ if sim => "sim_count",
        _ if name.ends_with("_minst_s") => "Minst/s",
        _ if name.ends_with("_maccess_s") => "Maccess/s",
        _ if name.ends_with("_meps") => "Mentries/s",
        _ if name.ends_with("bytes_per_entry") => "B/entry",
        _ if name.ends_with("_ms") || name.contains("_ms.") => "ms",
        _ if name.ends_with("_ns") => "ns",
        _ if name.ends_with("_s") || name.contains(".job_s.") => "s",
        _ if name.ends_with("_pct") => "%",
        _ if name.ends_with("ratio")
            || name.ends_with("efficiency")
            || name.contains("self_share") =>
        {
            "ratio"
        }
        _ => "count",
    }
}
