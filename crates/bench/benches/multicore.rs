//! Epoch-parallel scaling harness: measures the multi-core engine's
//! inline vs threaded worker phase per core count, and writes the
//! `BENCH_multicore.json` artifact.
//!
//! ```text
//! cargo bench --bench multicore                 # full measurement
//! cargo bench --bench multicore -- --smoke      # CI smoke mode
//! cargo bench --bench multicore -- --out P.json # artifact path
//! ```
//!
//! `--test` (what `cargo test --benches` passes) behaves like
//! `--smoke`, so the harness doubles as a serial/threaded equivalence
//! smoke test: the measurement asserts the two paths' reports are
//! identical before trusting any timing. The measurement core lives
//! in [`hyvec_bench::multicore`], shared with `hyvec run-all`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut smoke = false;
    let mut path = "BENCH_multicore.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" | "--test" => smoke = true,
            "--out" => match args.next() {
                Some(p) => path = p,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            // Ignore the harness flags cargo itself appends
            // (`--bench`, `--nocapture`, ...).
            _ => {}
        }
    }
    let instructions = if smoke {
        2_000
    } else {
        hyvec_bench::multicore::RUN_ALL_INSTRUCTIONS
    };
    let report =
        hyvec_bench::multicore::measure(instructions, hyvec_bench::multicore::default_threads());
    print!("{}", report.text());
    if let Err(e) = std::fs::write(&path, report.json()) {
        eprintln!("could not write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote epoch-parallel scaling to {path}");
    ExitCode::SUCCESS
}
