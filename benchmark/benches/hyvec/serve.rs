//! `serve`: a loopback `SweepServer` under a closed loop from this
//! process. One connection cycles a warmed hot set (a fixed share sent
//! as `If-None-Match` revalidations); the others send cold misses, each
//! with a fresh seed, over cheap experiments at a reduced budget.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::render::{render, Format};
use hyvec_core::seed::split_mix64;
use hyvec_core::sweep::{default_jobs, par_map, SweepBuilder};
use hyvec_serve::{ServeConfig, SweepServer};

use crate::spans::{SpanId, Tracer};
use crate::stats::{self, fnv1a, Samples};
use crate::{Ctx, Outcome, TraceMode, SETUP_REPS};

/// Hot set: served from the cache at the default budget.
const HOT: [&str; 6] = [
    "methodology/A",
    "methodology/B",
    "area/A",
    "area/B",
    "fig4/A",
    "fig4/B",
];
/// Cold mix: cheap simulated experiments, recomputed on every miss.
/// Both cost about the same, so cold latency is one mode, not a mix.
pub const COLD: [&str; 2] = ["fig4/A", "performance/A"];
/// Instruction budget of a cold request.
pub const COLD_INSTRUCTIONS: u64 = 10_000;
const FORMATS: [Format; 3] = [Format::Text, Format::Json, Format::Csv];
/// Result-cache budget: holds the hot set with room for a few cold
/// entries, so cold inserts evict.
const CACHE_BYTES: usize = 256 * 1024;
/// Every `REVALIDATE_EVERY`-th hot request carries the matching ETag.
const REVALIDATE_EVERY: usize = 4;
/// Every `STALE_EVERY`-th hot request carries a validator that must
/// not match.
const STALE_EVERY: usize = 16;
/// Requests per round on the hot connection (`round_s` is the time to
/// complete them, about 2.5 s on a 2-vCPU host): long enough that each
/// round averages over the host's short contention swings.
const HOT_ROUND: usize = 100_000;
/// Requests per round on a cold connection (about 2 s).
const COLD_ROUND: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Revalidate,
    Cold,
}

/// What one client connection measured.
#[derive(Debug, Default)]
struct ConnLog {
    /// Untraced latencies per class (hot, revalidate, cold), ns.
    latency_ns: [Vec<u32>; 3],
    rounds: Vec<Round>,
    requests: u64,
    failed: u64,
    failures: Vec<String>,
    /// Client-side status tallies: 200, 304, 4xx, other.
    status: [u64; 4],
    colds: Vec<ColdCheck>,
}

/// One round of a connection's requests.
#[derive(Debug, Clone, Copy)]
struct Round {
    secs: f64,
    /// `Some(traced)` when tracing stayed on (or off) for the whole round.
    traced: Option<bool>,
    /// Mean latency of the connection's measured class (hot 200 or
    /// cold), seconds.
    mean_s: f64,
}

/// A cold request to re-render in-process after the run.
#[derive(Debug, Clone)]
struct ColdCheck {
    id: &'static str,
    seed: u64,
    format: Format,
    body_hash: u64,
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    addr: SocketAddr,
    max_requests: usize,
    conn: Option<(TcpStream, BufReader<TcpStream>, usize)>,
}

struct Response {
    status: u16,
    etag: Option<String>,
    body: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr, max_requests: usize) -> Client {
        Client {
            addr,
            max_requests,
            conn: None,
        }
    }

    /// Sends one GET; reconnects first when the server's per-connection
    /// request limit would close the current connection.
    fn get(&mut self, path: &str, if_none_match: Option<&str>) -> io::Result<Response> {
        if self.conn.as_ref().is_none_or(|c| c.2 >= self.max_requests) {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader, 0));
        }
        let (stream, reader, sent) = self.conn.as_mut().expect("connected above");
        *sent += 1;
        let validator = if_none_match.map_or(String::new(), |e| format!("If-None-Match: {e}\r\n"));
        stream.write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\n{validator}\r\n").as_bytes(),
        )?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let (mut length, mut etag) = (0usize, None);
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = value
                            .trim()
                            .parse()
                            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?
                    }
                    "etag" => etag = Some(value.trim().to_string()),
                    _ => {}
                }
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        Ok(Response { status, etag, body })
    }
}

/// The in-process renders of `id` at `params`, one per format, exactly
/// as the daemon computes a miss.
pub fn reference(id: &str, params: ExperimentParams) -> [Vec<u8>; 3] {
    let report = SweepBuilder::new()
        .params(params)
        .jobs(1)
        .filter(id)
        .run()
        .report;
    FORMATS.map(|f| render(&report, f).into_bytes())
}

fn path(id: &str, params: ExperimentParams, format: Format) -> String {
    format!(
        "/report/{id}?seed={}&instructions={}&format={}",
        params.seed,
        params.instructions,
        format.name()
    )
}

/// A hot-set item: path, expected body and the ETag the warm-up saw.
struct HotItem {
    path: String,
    body: Vec<u8>,
    etag: String,
}

/// Stops a running server when dropped.
struct StopOnDrop<'a>(&'a SweepServer);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// `GET /stats` on a connection of its own, closed right after so it
/// does not hold a server worker.
fn fetch_stats(addr: SocketAddr) -> io::Result<String> {
    let r = Client::new(addr, 1).get("/stats", None)?;
    Ok(String::from_utf8_lossy(&r.body).into_owned())
}

/// Reads an integer field of the `/stats` document.
fn stat(doc: &str, key: &str) -> u64 {
    doc.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let nproc = default_jobs();
    let hot_params = ExperimentParams {
        instructions: ExperimentParams::default().instructions,
        seed: ctx.seed,
    };
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: nproc,
        max_cache_bytes: CACHE_BYTES,
        ..ServeConfig::default()
    };
    let expected: Vec<(String, Vec<u8>)> = HOT
        .iter()
        .flat_map(|id| {
            let bodies = reference(id, hot_params);
            FORMATS
                .into_iter()
                .zip(bodies)
                .map(move |(f, b)| (path(id, hot_params, f), b))
        })
        .collect();

    for rep in 0..2 * SETUP_REPS {
        let start = Instant::now();
        let server = SweepServer::bind(config.clone()).expect("binding an ephemeral loopback port");
        thread::scope(|scope| {
            scope.spawn(|| server.run());
            // Stops the server even if the measurement panics, so the
            // scope can join its thread and the panic surfaces.
            let _stop = StopOnDrop(&server);
            let mut client = Client::new(server.local_addr(), config.max_requests_per_connection);
            let mut hot = Vec::new();
            for (p, body) in &expected {
                let r = client.get(p, None);
                let ok = r
                    .as_ref()
                    .is_ok_and(|r| r.status == 200 && r.body == *body && r.etag.is_some());
                out.op(ok, || {
                    format!("warm-up GET {p} did not return the in-process render")
                });
                hot.push(HotItem {
                    path: p.clone(),
                    body: body.clone(),
                    etag: r.ok().and_then(|r| r.etag).unwrap_or_default(),
                });
            }
            out.setup.push(start.elapsed().as_secs_f64());
            // Each open connection holds a server worker; free this one.
            drop(client);
            if rep + 1 == SETUP_REPS {
                measure(ctx, seconds, &server, &config, &hot, nproc, &mut out);
            }
        });
    }
    out.param("threads", nproc.to_string());
    out.param(
        "connections",
        format!(
            "{{\"hot\": 1, \"cold\": {}}}",
            nproc.saturating_sub(1).max(1)
        ),
    );
    out.param("cache_bytes", CACHE_BYTES.to_string());
    out.param(
        "hot_set",
        format!(
            "\"{} x text/json/csv at {} instructions\"",
            HOT.join(","),
            hot_params.instructions
        ),
    );
    out.param(
        "cold_mix",
        format!(
            "\"{} at {COLD_INSTRUCTIONS} instructions, fresh seed each\"",
            COLD.join(",")
        ),
    );
    out.param(
        "revalidate_share",
        format!("\"1/{REVALIDATE_EVERY} matching, 1/{STALE_EVERY} stale\""),
    );
    out
}

fn measure(
    ctx: &Ctx,
    seconds: f64,
    server: &SweepServer,
    config: &ServeConfig,
    hot: &[HotItem],
    nproc: usize,
    out: &mut Outcome,
) {
    let addr = server.local_addr();
    let tracer = ctx.tracer;
    let stop = AtomicBool::new(false);
    let slice_span = AtomicUsize::new(usize::MAX);
    // Completed rounds on the hot and on the cold connections.
    let rounds_done = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let cold_counter = AtomicU64::new(0);
    let cold_base = split_mix64(ctx.seed ^ 0xC01D);
    let before = fetch_stats(addr);
    let cold_conns = nproc.saturating_sub(1).max(1);
    let origin = Instant::now();
    let cpu0 = stats::process_cpu_s();

    let logs: Vec<ConnLog> = thread::scope(|scope| {
        let worker = |hot_conn: bool| {
            let (stop, slice_span, cold_counter, rounds_done) =
                (&stop, &slice_span, &cold_counter, &rounds_done);
            move || {
                let mut client = Client::new(addr, config.max_requests_per_connection);
                let mut log = ConnLog {
                    latency_ns: latency_buffers(seconds, hot_conn),
                    ..ConnLog::default()
                };
                let round_len = if hot_conn { HOT_ROUND } else { COLD_ROUND };
                let (mut round_start, mut round_traced, mut round_untraced) =
                    (Instant::now(), true, true);
                let (mut sum_ns, mut count) = (0u64, 0u64);
                // The hot connection paces the rounds, and with them
                // tracing: round k is traced when the mode says so.
                let mut k = 0usize;
                let mut span = hot_conn.then(|| begin_round(ctx, slice_span, k)).flatten();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let item = &hot[i % hot.len()];
                    let (class, req_path, validator, cold) = if hot_conn {
                        if i % REVALIDATE_EVERY == REVALIDATE_EVERY - 1 {
                            (
                                Class::Revalidate,
                                item.path.clone(),
                                Some(item.etag.as_str()),
                                None,
                            )
                        } else if i % STALE_EVERY == 5 {
                            (
                                Class::Hot,
                                item.path.clone(),
                                Some("\"0000000000000000-stale\""),
                                None,
                            )
                        } else {
                            (Class::Hot, item.path.clone(), None, None)
                        }
                    } else {
                        let n = cold_counter.fetch_add(1, Ordering::Relaxed);
                        let id = COLD[n as usize % COLD.len()];
                        let format = FORMATS[(n as usize / COLD.len()) % FORMATS.len()];
                        let params = ExperimentParams {
                            instructions: COLD_INSTRUCTIONS,
                            seed: split_mix64(cold_base.wrapping_add(n)),
                        };
                        (
                            Class::Cold,
                            path(id, params, format),
                            None,
                            Some((id, params.seed, format)),
                        )
                    };
                    let parent = match slice_span.load(Ordering::Relaxed) {
                        usize::MAX => None,
                        s => Some(s),
                    };
                    let name = match class {
                        Class::Hot => "serve.request.hot",
                        Class::Revalidate => "serve.request.revalidate",
                        Class::Cold => "serve.request.cold",
                    };
                    let traced = tracer.is_on();
                    let start = Instant::now();
                    let r = tracer.time(name, parent, |_| client.get(&req_path, validator));
                    let latency_ns = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
                    log.requests += 1;
                    let ok = match &r {
                        Err(_) => false,
                        Ok(r) => {
                            log.status[match r.status {
                                200 => 0,
                                304 => 1,
                                400..=499 => 2,
                                _ => 3,
                            }] += 1;
                            match (class, r.status) {
                                (Class::Revalidate, 304) => r.body.is_empty(),
                                (Class::Hot, 200) => r.body == item.body,
                                (Class::Cold, 200) => {
                                    let (id, seed, format) =
                                        cold.expect("cold requests carry their inputs");
                                    log.colds.push(ColdCheck {
                                        id,
                                        seed,
                                        format,
                                        body_hash: fnv1a(&r.body),
                                    });
                                    true
                                }
                                _ => false,
                            }
                        }
                    };
                    if ok {
                        let buf = &mut log.latency_ns[class as usize];
                        if !traced && buf.len() < buf.capacity() {
                            buf.push(latency_ns);
                        }
                        if class != Class::Revalidate {
                            sum_ns += u64::from(latency_ns);
                            count += 1;
                        }
                    } else {
                        log.failed += 1;
                        if log.failures.len() < 8 {
                            let got = r.map_or_else(
                                |e| format!("io error {e}"),
                                |r| format!("status {}", r.status),
                            );
                            log.failures
                                .push(format!("{class:?} GET {req_path}: {got}"));
                        }
                        // Start over on a fresh connection.
                        client.conn = None;
                    }
                    round_traced &= traced;
                    round_untraced &= !traced;
                    i += 1;
                    if i.is_multiple_of(round_len) {
                        log.rounds.push(Round {
                            secs: round_start.elapsed().as_secs_f64(),
                            traced: (round_traced || round_untraced).then_some(round_traced),
                            mean_s: sum_ns as f64 / count.max(1) as f64 / 1e9,
                        });
                        rounds_done[usize::from(!hot_conn)].fetch_add(1, Ordering::Relaxed);
                        if hot_conn {
                            end_round(tracer, slice_span, span);
                            k += 1;
                            span = begin_round(ctx, slice_span, k);
                        }
                        (round_start, round_traced, round_untraced) = (Instant::now(), true, true);
                        (sum_ns, count) = (0, 0);
                    }
                }
                if hot_conn {
                    end_round(tracer, slice_span, span);
                }
                log
            }
        };
        let mut handles = vec![scope.spawn(worker(true))];
        for _ in 0..cold_conns {
            handles.push(scope.spawn(worker(false)));
        }
        // Every reported figure needs a whole round: an untraced hot and
        // cold round, and a traced hot round too when alternating.
        let (min_hot, min_cold) = match ctx.mode {
            TraceMode::Off => (1, 1),
            TraceMode::Alternate => (2, 0),
            TraceMode::On => (0, 0),
        };
        while origin.elapsed().as_secs_f64() < seconds
            || rounds_done[0].load(Ordering::Relaxed) < min_hot
            || rounds_done[1].load(Ordering::Relaxed) < min_cold
        {
            thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = origin.elapsed().as_secs_f64();
    let cpu = stats::process_cpu_s() - cpu0;
    out.peak_rss_mb = stats::peak_rss_mb();
    let after = fetch_stats(addr);

    let mut samples: [Samples; 3] = Default::default();
    let mut status = [0u64; 4];
    let (mut requests, mut hot_requests, mut colds) = (0u64, 0u64, Vec::new());
    for (k, log) in logs.into_iter().enumerate() {
        for (s, lat) in samples.iter_mut().zip(&log.latency_ns) {
            for &ns in lat {
                s.push(f64::from(ns) / 1e9);
            }
        }
        // The hot connection (the first) paces the rounds.
        if k == 0 {
            hot_requests = log.requests;
        }
        for r in log.rounds {
            match (k, r.traced) {
                (0, Some(true)) => out.traced_rounds.push(r.secs),
                (0, Some(false)) => {
                    out.rounds.push(r.secs);
                    out.fast.push(r.mean_s);
                }
                (_, Some(false)) => out.slow.push(r.mean_s),
                _ => {}
            }
        }
        requests += log.requests;
        out.attempted += log.requests;
        out.failed += log.failed;
        out.failures.extend(log.failures);
        for (total, n) in status.iter_mut().zip(log.status) {
            *total += n;
        }
        colds.extend(log.colds);
    }
    out.cpu_s = cpu / (hot_requests as f64 / HOT_ROUND as f64);

    check_cold_bodies(&colds, out);

    let [hot_s, reval_s, cold_s] = samples;
    out.timing("serve_hot_p50_us", hot_s.clone(), 1e6, "us");
    out.figure("serve_hot_p99_us", percentile(&hot_s, 0.99) * 1e6, "us");
    out.timing("serve_304_p50_us", reval_s, 1e6, "us");
    out.timing("serve_cold_p50_ms", cold_s, 1e3, "ms");
    out.figure("serve_rps", requests as f64 / elapsed, "req/s");

    let mut layer = vec![
        ("serve.status.200".to_string(), status[0] as f64),
        ("serve.status.304".to_string(), status[1] as f64),
        ("serve.status.4xx".to_string(), status[2] as f64),
        ("serve.status.5xx".to_string(), status[3] as f64),
    ];
    match (before, after) {
        (Ok(b), Ok(a)) => {
            let delta = |k: &str| stat(&a, k).saturating_sub(stat(&b, k)) as f64;
            let (hits, misses, coalesced) = (delta("hits"), delta("misses"), delta("coalesced"));
            layer.push(("serve.cache.hits".into(), hits));
            layer.push(("serve.cache.misses".into(), misses));
            layer.push(("serve.cache.coalesced".into(), coalesced));
            layer.push(("serve.cache.evictions".into(), delta("evictions")));
            layer.push((
                "serve.cache.hit_ratio".into(),
                hits / (hits + misses + coalesced),
            ));
            out.op(delta("evictions") > 0.0, || {
                "cold inserts never evicted".to_string()
            });
        }
        _ => out.op(false, || "GET /stats failed".to_string()),
    }
    out.layer_metrics(layer);
}

/// Latency buffers for one connection, sized from the run length and
/// written once up front, so the samples a run records add the same
/// amount to peak resident memory however fast the run goes. Samples
/// beyond a buffer's capacity are not recorded.
fn latency_buffers(seconds: f64, hot_conn: bool) -> [Vec<u32>; 3] {
    let per_second: [usize; 3] = if hot_conn {
        [200_000, 80_000, 0]
    } else {
        [0, 0, 2_000]
    };
    per_second.map(|n| {
        let mut v = vec![u32::MAX; (n as f64 * seconds.max(1.0)) as usize];
        v.clear();
        v
    })
}

/// Starts hot round `k`: tracing on or off as the mode says, and (when
/// on) a root span the round's requests on every connection hang off.
fn begin_round(ctx: &Ctx, slice_span: &AtomicUsize, k: usize) -> SpanId {
    ctx.tracer.set_on(ctx.mode.traced(k));
    let span = ctx.tracer.begin("bench.serve.round", None);
    slice_span.store(span.unwrap_or(usize::MAX), Ordering::Relaxed);
    span
}

fn end_round(tracer: &Tracer, slice_span: &AtomicUsize, span: SpanId) {
    slice_span.store(usize::MAX, Ordering::Relaxed);
    tracer.set_on(false);
    tracer.end(span);
}

fn percentile(s: &Samples, q: f64) -> f64 {
    let sum = s.summary();
    // Only reported when at least ten samples lie beyond it.
    if (s.len() as f64) * (1.0 - q) >= 10.0 {
        s.quantile(q)
    } else {
        sum.tail.map_or(f64::NAN, |t| t.1)
    }
}

/// Re-renders every cold response in-process and compares bodies.
fn check_cold_bodies(colds: &[ColdCheck], out: &mut Outcome) {
    let results = par_map(colds, default_jobs(), |c| {
        let params = ExperimentParams {
            instructions: COLD_INSTRUCTIONS,
            seed: c.seed,
        };
        let report = SweepBuilder::new()
            .params(params)
            .jobs(1)
            .filter(c.id)
            .run()
            .report;
        fnv1a(render(&report, c.format).as_bytes()) == c.body_hash
    });
    for (c, ok) in colds.iter().zip(results) {
        if !ok {
            out.failed += 1;
            if out.failures.len() < 8 {
                out.failures.push(format!(
                    "cold {} seed {} {} body differs from in-process render",
                    c.id,
                    c.seed,
                    c.format.name()
                ));
            }
        }
    }
}
