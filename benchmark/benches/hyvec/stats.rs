//! Sample summaries and the process-level readings (CPU time, peak
//! resident memory) every workload reports.

use std::fs;

/// A set of timing samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Median, quartiles and tail of a [`Samples`] set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, value, samples beyond)`; `None` below 11 samples.
    pub tail: Option<(f64, f64, usize)>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn summary(&self) -> Summary {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = (n >= 11).then(|| {
            let k = n - 11;
            (100.0 * k as f64 / (n - 1) as f64, v[k], n - 1 - k)
        });
        Summary {
            n,
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            tail,
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    }
}

/// Linear-interpolated quantile of sorted values (NaN when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

impl Summary {
    /// One-line rendering: median, quartiles, tail and sample count.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v, beyond)) => format!("p{p:.3}={:.4}{unit} ({beyond} beyond)", v * scale),
            None => "tail n/a (<11 samples)".to_string(),
        };
        format!(
            "median={:.4}{unit} q1={:.4}{unit} q3={:.4}{unit} {tail} n={}",
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.n
        )
    }

    /// The same figures as a JSON object (for the provenance line).
    pub fn json(&self, scale: f64) -> String {
        let tail = match self.tail {
            Some((p, v, beyond)) => {
                format!(
                    "{{\"percentile\": {p:.2}, \"value\": {}, \"beyond\": {beyond}}}",
                    v * scale
                )
            }
            None => "null".to_string(),
        };
        format!(
            "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail\": {tail}}}",
            self.n,
            num(self.median * scale),
            num(self.q1 * scale),
            num(self.q3 * scale)
        )
    }
}

/// A finite JSON number (`null` otherwise).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Host CPU seconds (user + system, every thread, live or joined) the
/// process has used so far, from `/proc/self/stat` (clock ticks of
/// 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of the process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over bytes, for report and body fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
