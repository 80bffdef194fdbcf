//! Metric names, statistics and the result line.

use dagfact_rt::RuntimeKind;
use std::collections::BTreeMap;

/// The three engines, in the round-robin order ops rotate through.
pub const ENGINES: [RuntimeKind; 3] =
    [RuntimeKind::Native, RuntimeKind::Dataflow, RuntimeKind::Ptg];

/// Lower-case engine label used in metric names.
pub fn engine_label(e: RuntimeKind) -> &'static str {
    match e {
        RuntimeKind::Native => "native",
        RuntimeKind::Dataflow => "dataflow",
        RuntimeKind::Ptg => "ptg",
    }
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// One timed op of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct OpLog {
    /// Engine the op ran on.
    pub engine: RuntimeKind,
    /// Input group the op drew from (family, member or job kind).
    pub group: usize,
    /// Input handed in → checked answer received, ms.
    pub latency_ms: f64,
    /// The answer passed the check.
    pub certified: bool,
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency of `engine`'s ops: the median of each input group on that
/// engine, combined as a geometric mean weighted by the group's share of
/// all ops. A median pooled over groups whose latencies overlap jumps
/// from one group to another between runs; per-group medians do not.
pub fn engine_latency(ops: &[OpLog], engine: RuntimeKind) -> f64 {
    let mut groups: BTreeMap<usize, (usize, Vec<f64>)> = BTreeMap::new();
    for o in ops {
        let g = groups.entry(o.group).or_default();
        g.0 += 1;
        if o.engine == engine {
            g.1.push(o.latency_ms);
        }
    }
    let (mut log_sum, mut weight) = (0.0, 0.0);
    for (n, lat) in groups.values() {
        if !lat.is_empty() {
            log_sum += *n as f64 * median(lat).ln();
            weight += *n as f64;
        }
    }
    if weight > 0.0 {
        (log_sum / weight).exp()
    } else {
        0.0
    }
}

/// The nine end-to-end metrics of an untraced run.
pub fn end_to_end(ops: &[OpLog], timed_s: f64, setup_s: f64) -> Vec<Metric> {
    let lat: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
    let certified = ops.iter().filter(|o| o.certified).count();
    let mut out = vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("ops_per_s", "1/s", certified as f64 / timed_s.max(1e-9)),
        Metric::new("latency_ms.p50", "ms", quantile(&lat, 0.5)),
        Metric::new("latency_ms.p90", "ms", quantile(&lat, 0.9)),
    ];
    for e in ENGINES {
        out.push(Metric::new(
            format!("latency_ms.{}", engine_label(e)),
            "ms",
            engine_latency(ops, e),
        ));
    }
    out.push(Metric::new("peak_rss_mb", "MB", peak_rss_mb()));
    out.push(Metric::new(
        "certified_frac",
        "frac",
        certified as f64 / ops.len().max(1) as f64,
    ));
    out
}

/// Named sample lists, reduced to per-layer metrics at the end of a run.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Record one sample under `key`.
    pub fn push(&mut self, key: impl Into<String>, v: f64) {
        self.0.entry(key.into()).or_default().push(v);
    }

    /// All samples of `key`.
    pub fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    /// Mean of `key`'s samples (0 when none).
    pub fn mean(&self, key: &str) -> f64 {
        mean(self.get(key))
    }

    /// Median of `key`'s samples (0 when none).
    pub fn median(&self, key: &str) -> f64 {
        median(self.get(key))
    }

    /// Sum of `key`'s samples.
    pub fn sum(&self, key: &str) -> f64 {
        self.get(key).iter().sum()
    }

    /// `sum(num) / sum(den)`, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d > 0.0 {
            self.sum(num) / d
        } else {
            0.0
        }
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (never expected) are written as 0 and
/// make the caller's run incorrect.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
