//! The hyvec benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics from a traced run.
//!
//! ```text
//! cargo bench --quiet --offline --manifest-path benchmark/Cargo.toml --bench hyvec -- \
//!     --workload sweep|replay|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines (every timing with its median, quartiles,
//! tail percentile and sample count, plus a provenance record) come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates traced and untraced
//! rounds of the workload, adds one traced round of the other two
//! workloads and the layer probes, and reports the per-layer metrics.
//! See `benchmark/BENCHMARK.md` for the metric definitions and the
//! layer-to-workload interaction map.

mod check;
mod probes;
mod replay;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use hyvec_core::report::Report;

use spans::Tracer;
use stats::{num, Samples};

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, kept out of tuning, for checking later claims.
pub const CHECK_SEED: u64 = 20_261_017;
/// Set-up repetitions before the timed phase, and again after it;
/// `setup_s` is the median of all of them, so it samples the host at
/// both ends of the run.
pub const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: cargo bench --manifest-path benchmark/Cargo.toml --bench hyvec -- \
     --workload sweep|replay|serve [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Replay,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Sweep, Workload::Replay, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Replay => "replay",
            Workload::Serve => "serve",
        }
    }
}

/// How a run records spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    Off,
    /// Odd rounds traced, even rounds untraced (the overhead figure).
    Alternate,
    On,
}

impl TraceMode {
    pub fn traced(self, round: usize) -> bool {
        match self {
            TraceMode::Off => false,
            TraceMode::Alternate => round % 2 == 1,
            TraceMode::On => true,
        }
    }
}

/// What every workload needs from the command line.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub seed: u64,
    pub tracer: &'a Tracer,
    pub mode: TraceMode,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup: Samples,
    /// Untraced rounds, seconds.
    pub rounds: Samples,
    /// Traced rounds, seconds.
    pub traced_rounds: Samples,
    /// Host CPU seconds per round.
    pub cpu_s: f64,
    /// Peak resident memory when the timed phase ended, MB (read
    /// before the run's own result bookkeeping grows the heap).
    pub peak_rss_mb: f64,
    /// The workload's fast-path and slow-path operations, seconds.
    pub fast: Samples,
    pub slow: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Human-readable lines: the workload's own metrics by name.
    pub lines: Vec<String>,
    /// Provenance entries: key and a JSON value.
    pub params: Vec<(String, String)>,
    /// Per-layer figures this workload yields.
    pub layer: Vec<(String, f64)>,
    /// The full sweep report (sweep only), for the render probes.
    pub report: Option<Report>,
    /// The replay corpus (replay only), for the layer probes.
    pub corpus: Option<replay::Corpus>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    pub fn param(&mut self, key: &str, json_value: String) {
        self.params.push((key.to_string(), json_value));
    }

    /// Records a named timing: a human line plus its provenance
    /// summary. `scale` converts the samples to `unit`.
    pub fn timing(&mut self, name: &str, samples: Samples, scale: f64, unit: &str) {
        let s = samples.summary();
        self.lines
            .push(format!("{name} [{unit}]: {}", s.describe(scale, unit)));
        self.params.push((format!("timing.{name}"), s.json(scale)));
    }

    /// Records a single figure by name with its unit.
    pub fn figure(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name} [{unit}]: {value:.4}"));
        self.params.push((name.to_string(), num(value)));
    }

    pub fn layer_metrics(&mut self, metrics: Vec<(String, f64)>) {
        self.layer.extend(metrics);
    }

    fn absorb_checks(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// Runs `setup` [`SETUP_REPS`] times, recording each duration in
/// `out.setup`; returns the last result.
pub fn set_up<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        out.setup.push(start.elapsed().as_secs_f64());
    }
    last.expect("SETUP_REPS is at least one")
}

/// Runs timed rounds until `seconds` have passed (at least one, or
/// two when alternating so both kinds are measured), then records
/// host CPU per round.
pub fn rounds(
    ctx: &Ctx,
    seconds: f64,
    out: &mut Outcome,
    mut round: impl FnMut(&mut Outcome, bool) -> f64,
) {
    let min_rounds = if ctx.mode == TraceMode::Alternate {
        2
    } else {
        1
    };
    let cpu0 = stats::process_cpu_s();
    let start = Instant::now();
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let traced = ctx.mode.traced(n);
        ctx.tracer.set_on(traced);
        let secs = round(out, traced);
        ctx.tracer.set_on(false);
        if traced {
            out.traced_rounds.push(secs);
        } else {
            out.rounds.push(secs);
        }
        n += 1;
    }
    out.cpu_s = (stats::process_cpu_s() - cpu0) / n as f64;
    out.peak_rss_mb = stats::peak_rss_mb();
}

fn run_workload(w: Workload, ctx: &Ctx, seconds: f64) -> Outcome {
    match w {
        Workload::Sweep => sweep::run(ctx, seconds),
        Workload::Replay => replay::run(ctx, seconds),
        Workload::Serve => serve::run(ctx, seconds),
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        if flag == "--bench" {
            // Appended by `cargo bench`.
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds must be within 1..=3600".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

/// The git revision and dirty flag of the working directory, when it
/// is the top of a git checkout.
fn git_provenance() -> (String, String) {
    let null = || ("null".to_string(), "null".to_string());
    let Some(root) = checkout_root().to_str().map(str::to_string) else {
        return null();
    };
    let top = command_line("git", &["-C", &root, "rev-parse", "--show-toplevel"])
        .and_then(|t| Path::new(&t).canonicalize().ok());
    if top.as_deref() != Some(checkout_root().as_path()) {
        return null();
    }
    let rev = command_line("git", &["-C", &root, "rev-parse", "HEAD"])
        .map_or("null".to_string(), |r| format!("\"{r}\""));
    let dirty = Command::new("git")
        .args(["-C", &root, "status", "--porcelain"])
        .output()
        .map_or("null".to_string(), |o| (!o.stdout.is_empty()).to_string());
    (rev, dirty)
}

/// The checkout the benchmark was built from: the parent of this
/// package.
fn checkout_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(manifest);
    root.canonicalize().unwrap_or_else(|_| root.to_path_buf())
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", hyvec_core::render::escape_json(s))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.workload.name());
    let mode = if args.trace {
        TraceMode::Alternate
    } else {
        TraceMode::Off
    };
    let ctx = Ctx {
        seed: args.seed,
        tracer: &tracer,
        mode,
    };
    let mut out = run_workload(args.workload, &ctx, args.seconds as f64);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("round_s".into(), out.rounds.median(), "s"));
        metrics.push(("cpu_s".into(), out.cpu_s, "s"));
        metrics.push(("fast_p50_ms".into(), out.fast.median() * 1e3, "ms"));
        metrics.push(("slow_p50_ms".into(), out.slow.median() * 1e3, "ms"));
        metrics.push(("setup_s".into(), out.setup.median(), "s"));
        metrics.push(("peak_rss_mb".into(), out.peak_rss_mb, "MB"));
    } else {
        let overhead = 100.0 * (out.traced_rounds.median() / out.rounds.median() - 1.0);
        let shares = tracer.self_shares(&format!("bench.{}.round", args.workload.name()));
        // One traced round of each other workload supplies the layer
        // figures only that workload produces.
        let on = Ctx {
            mode: TraceMode::On,
            ..ctx
        };
        let mut layer = std::mem::take(&mut out.layer);
        let mut report = out.report.take();
        let mut corpus = out.corpus.take();
        for w in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
            // A short burst is the serve workload's smallest round.
            let mut o = run_workload(w, &on, if w == Workload::Serve { 2.0 } else { 0.0 });
            out.absorb_checks(&o);
            layer.append(&mut o.layer);
            report = report.or(o.report.take());
            corpus = corpus.or(o.corpus.take());
        }
        let report = report.expect("the sweep ran");
        let corpus = corpus.expect("the replay ran");
        tracer.set_on(true);
        let (probed, probe_failures) = probes::run(&tracer, &report, &corpus);
        layer.extend(probed);
        out.op(probe_failures.is_empty(), || probe_failures.join("; "));
        tracer.set_on(false);
        layer.push(("trace.overhead_pct".into(), overhead));
        layer.push(("trace.spans".into(), tracer.len() as f64));
        for (l, share) in shares {
            layer.push((format!("trace.self_share.{l}"), share));
        }
        let dir = checkout_root().join(".bench_build").join("spans");
        if let Err(e) = tracer.write_out(&dir, args.seed) {
            eprintln!("could not write spans under {}: {e}", dir.display());
        }
        metrics.extend(layer.into_iter().map(|(n, v)| {
            let unit = probes::unit_of(&n);
            (n, v, unit)
        }));
    }

    for line in &out.lines {
        println!("{} {line}", args.workload.name());
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    let (git_rev, git_dirty) = git_provenance();
    let rustc =
        command_line("rustc", &["--version"]).map_or("null".to_string(), |r| json_string(&r));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut prov = vec![
        ("workload".to_string(), json_string(args.workload.name())),
        ("seed".to_string(), args.seed.to_string()),
        ("default_seed".to_string(), DEFAULT_SEED.to_string()),
        ("check_seed".to_string(), CHECK_SEED.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("rustc".to_string(), rustc),
        ("git_rev".to_string(), git_rev),
        ("git_dirty".to_string(), git_dirty),
        ("timing.round_s".to_string(), out.rounds.summary().json(1.0)),
        ("timing.setup_s".to_string(), out.setup.summary().json(1.0)),
    ];
    prov.extend(out.params.iter().cloned());
    let body: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("provenance {{{}}}", body.join(", "));

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(n),
                num(*v),
                json_string(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
