//! In-memory span recording around the benchmark's calls into the
//! workspace layers.
//!
//! A span is named `<layer>.<call>`; the layer is the text before the
//! first dot (`bench`, `core`, `cachesim`, `mediabench`, `edc`,
//! `serve`). Spans stay in memory while the run lasts and are written
//! out as JSON lines when it ends. While tracing is off, `begin` is a
//! single atomic load and records nothing, which is how the untraced
//! end-to-end figures are measured.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Identifier of a recorded span (its index), or `None` when the span
/// was not recorded.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// The span store of one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

/// The layers spans are attributed to, in report order.
pub const LAYERS: [&str; 6] = ["bench", "core", "cachesim", "mediabench", "edc", "serve"];

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panic while holding the lock leaves only fully pushed or
        // fully closed spans behind, so the data stays usable.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span when tracing is on.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.is_on() {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.store();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            self.store()[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span; `f` receives the span as the parent of
    /// its children.
    pub fn time<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.begin(name, parent);
        let value = f(id);
        self.end(id);
        value
    }

    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// Self time per layer over the trees under every root span named
    /// `root`: each span's duration minus the part of it its children
    /// cover, summed by layer, as a share of all self time (the roots'
    /// duration when nothing under them runs concurrently).
    pub fn self_shares(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let spans = self.store();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                stack.push(i);
            }
        }
        while let Some(i) = stack.pop() {
            let s = &spans[i];
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *self_ns.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(union);
            stack.extend(&children[i]);
        }
        let total_ns: u64 = self_ns.values().sum();
        self_ns
            .into_iter()
            .map(|(l, ns)| {
                (
                    l,
                    if total_ns > 0 {
                        ns as f64 / total_ns as f64
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }

    /// Writes every span as one JSON line under `dir`.
    pub fn write_out(&self, dir: &Path, seed: u64) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", self.workload));
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.store().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": \"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload
            )?;
        }
        out.flush()
    }
}
