//! Result formatting: the host stamp, medians, and the one-line JSON
//! result the benchmark prints last.

use std::fmt::Write as _;

use crate::inputs::Kind;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one benchmark run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Runs (or gated layer runs) attempted.
    pub attempted: u64,
    /// Runs that returned an error or failed the correctness gate.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (bottleneck, coverage) printed before
    /// the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every run passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. JSON has no NaN or infinity, so a non-finite metric
    /// is written as 0 and the result marked incorrect.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git commit of the checkout in the current directory, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The stamp every result carries, so each number names its host and
/// input.
pub fn stamp(kind: Kind, seed: u64, parallelism: usize, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "stamp: workload={} seed={} board={} parallelism={} trace={} nproc={} git_sha={} rustc=\"{}\"",
        kind.name(),
        seed,
        kind.board_name(),
        parallelism,
        u8::from(trace),
        nproc,
        git_sha(),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}
