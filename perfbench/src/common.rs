//! Shared plumbing: command-line arguments, order statistics, process
//! memory, bitwise comparisons and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dgcl_tensor::Matrix;

/// The benchmark's command line:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad("a duration in (0, 600]"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(args)
    }
}

/// The `q`-quantile of `values` by the nearest-rank rule (`q` in
/// `(0, 1]`): the smallest sample with at least `q` of all samples at or
/// below it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time stolen from this machine by the hypervisor so far, summed
/// over CPUs, in clock ticks (`/proc/stat`; 100 per second).
pub fn cpu_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Whether two `f32` slices hold the same bits.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two matrices have the same shape and bits.
pub fn matrix_bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape() && bits_eq(a.as_slice(), b.as_slice())
}

/// A wall-clock budget for one measurement phase.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    end: Instant,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Self {
        let start = Instant::now();
        Self {
            start,
            end: start + Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// The share of the budget used so far (1 once spent).
    pub fn fraction(&self) -> f64 {
        let total = (self.end - self.start).as_secs_f64();
        if total <= 0.0 {
            return 1.0;
        }
        (self.start.elapsed().as_secs_f64() / total).min(1.0)
    }

    /// Whether the budget is used up.
    pub fn spent(&self) -> bool {
        Instant::now() >= self.end
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run reports: operation counts, the metrics, the
/// problems its checks found (the run is correct when there are none),
/// and context (provenance, validity, counts) printed ahead of the
/// result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Problems found by the output checks and engagement guards.
    pub errors: Vec<String>,
    /// Context recorded next to the metrics, as `(key, JSON value)`.
    pub context: Vec<(String, String)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a context entry whose value is already JSON.
    pub fn context(&mut self, key: &str, json: String) {
        self.context.push((key.to_string(), json));
    }

    /// Records a failed check or guard (once per distinct message); the
    /// run is then incorrect.
    pub fn error(&mut self, msg: String) {
        if !self.errors.contains(&msg) {
            self.errors.push(msg);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The context object printed on the line before the result.
    pub fn context_line(&self) -> String {
        let mut s = String::from("{\"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {v}", json_str(k));
        }
        s.push_str("}, \"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}", json_str(e));
        }
        s.push_str("]}");
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints (non-finite values, which
/// JSON cannot hold, become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The commit of the checkout, when it is a git work tree (read from
/// `.git` directly, so nothing outside the checkout is consulted).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha.to_string()
    }
}
