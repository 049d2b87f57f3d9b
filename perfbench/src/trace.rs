//! In-memory span recorder for the traced run.
//!
//! The traced run wraps each call into a layer's public functions in a
//! span: name, start, end, rank, layer index, parent span, the training
//! epoch it belongs to, and the bytes it moved. Spans stay in memory
//! while the run executes and are written out once it ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::common::Report;

/// No parent span / no layer / outside any epoch.
pub const NONE: i32 = -1;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    /// Model layer index, or [`NONE`].
    pub layer: i32,
    /// Training epoch (or serving drive) index, or [`NONE`].
    pub epoch: i32,
    /// Index of the enclosing span in the same recorder, or [`NONE`].
    pub parent: i32,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<i32>,
    epoch: i32,
}

/// One rank's recorder. Spans nest: a span opened inside another's
/// closure records it as its parent.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    rank: u32,
    enabled: bool,
    inner: RefCell<Inner>,
}

impl Recorder {
    /// A recorder for `rank`, timing relative to `origin`, with room for
    /// `capacity` spans before it grows.
    pub fn new(origin: Instant, rank: usize, capacity: usize) -> Self {
        Self {
            origin,
            rank: rank as u32,
            enabled: true,
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(8),
                epoch: NONE,
            }),
        }
    }

    /// A recorder that records nothing: the same code path untraced, to
    /// measure what tracing costs.
    pub fn disabled(origin: Instant, rank: usize) -> Self {
        let mut rec = Self::new(origin, rank, 0);
        rec.enabled = false;
        rec
    }

    /// Tags every span started from now on with `epoch`.
    pub fn set_epoch(&self, epoch: i32) {
        self.inner.borrow_mut().epoch = epoch;
    }

    /// Runs `f` inside a span named `name` for `layer`, recording `bytes`.
    pub fn span<T>(&self, name: &'static str, layer: i32, bytes: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len() as i32;
            let parent = inner.open.last().copied().unwrap_or(NONE);
            let epoch = inner.epoch;
            inner.open.push(idx);
            inner.spans.push(Span {
                name,
                rank: self.rank,
                layer,
                epoch,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                bytes,
            });
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        inner.spans[idx as usize].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Names of the spans that are collective calls: every rank makes the
/// same sequence of them, so the `k`-th call on each rank is one
/// operation, and the time a rank spends past the fastest rank's call
/// is time it waited for its peers.
pub const COLLECTIVES: &[&str] = &[
    "runtime.allgather",
    "runtime.scatter",
    "collectives.allreduce",
    "sampling.exchange",
    "sampling.reduce",
    "featcache.halo_gather",
];

/// Per-rank totals over the epoch-tagged spans of one or more runs.
#[derive(Debug, Default, Clone)]
pub struct RankTotals {
    /// Seconds per span name.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Bytes per span name.
    pub bytes: BTreeMap<&'static str, u64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Seconds spent in collective calls beyond the fastest rank's call.
    pub wait_seconds: f64,
}

/// Accumulates per-rank totals from the spans of one cluster run
/// (`per_rank[r]` holds rank `r`'s spans in recording order). Only spans
/// tagged with an epoch count.
pub fn accumulate(totals: &mut Vec<RankTotals>, per_rank: &[Vec<Span>]) {
    if totals.len() < per_rank.len() {
        totals.resize_with(per_rank.len(), RankTotals::default);
    }
    for (t, spans) in totals.iter_mut().zip(per_rank) {
        for s in spans.iter().filter(|s| s.epoch != NONE) {
            *t.seconds.entry(s.name).or_default() += s.seconds();
            *t.bytes.entry(s.name).or_default() += s.bytes;
            *t.calls.entry(s.name).or_default() += 1;
        }
    }
    let collectives: Vec<Vec<&Span>> = per_rank
        .iter()
        .map(|spans| {
            spans
                .iter()
                .filter(|s| COLLECTIVES.contains(&s.name))
                .collect()
        })
        .collect();
    let calls = collectives.iter().map(Vec::len).min().unwrap_or(0);
    for k in 0..calls {
        if collectives.iter().any(|c| c[k].epoch == NONE) {
            continue;
        }
        let fastest = collectives
            .iter()
            .map(|c| c[k].seconds())
            .fold(f64::INFINITY, f64::min);
        for (t, c) in totals.iter_mut().zip(&collectives) {
            t.wait_seconds += c[k].seconds() - fastest;
        }
    }
}

/// The maximum over ranks of `f(rank totals)`.
pub fn max_over_ranks(totals: &[RankTotals], f: impl Fn(&RankTotals) -> f64) -> f64 {
    totals.iter().map(f).fold(0.0, f64::max)
}

/// Seconds spent in spans named `name` on one rank.
pub fn secs(t: &RankTotals, name: &str) -> f64 {
    t.seconds.get(name).copied().unwrap_or(0.0)
}

/// Writes span groups (one recorder's spans each; `parent` indexes
/// within the group) as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, groups: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for (g, spans) in groups.iter().enumerate() {
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"group\": {g}, \"name\": \"{}\", \"rank\": {}, \"layer\": {}, \"epoch\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"bytes\": {}}}",
                s.name, s.rank, s.layer, s.epoch, s.parent, s.start_ns, s.end_ns, s.bytes
            );
        }
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
/// Layers a workload leaves idle report 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("partition.kway_s", "s"),
    ("plan.spst_s", "s"),
    ("plan.full_searches", "count"),
    ("plan.stages", "count"),
    ("featcache.score_s", "s"),
    ("featcache.build_s", "s"),
    ("featcache.hit_ratio", "ratio"),
    ("featcache.bytes_saved", "B"),
    ("runtime.allgather_s", "s"),
    ("runtime.scatter_s", "s"),
    ("runtime.allgather_bytes", "B"),
    ("runtime.wait_s", "s"),
    ("collectives.allreduce_s", "s"),
    ("collectives.allreduce_calls", "count"),
    ("gnn.aggregate_fwd_s", "s"),
    ("gnn.aggregate_bwd_s", "s"),
    ("gnn.dense_fwd_s", "s"),
    ("gnn.dense_bwd_s", "s"),
    ("gnn.loss_s", "s"),
    ("gnn.step_s", "s"),
    ("gnn.serve_forward_s", "s"),
    ("trainer.epoch_s", "s"),
    ("trainer.call_fixed_s", "s"),
    ("trainer.unattributed_s", "s"),
    ("graph.sample_blocks_s", "s"),
    ("sampling.gather_plan_s", "s"),
    ("sampling.exchange_s", "s"),
    ("sampling.reduce_s", "s"),
    ("sampling.exchange_bytes", "B"),
    ("sampling.batches", "count"),
    ("serving.layer0_s", "s"),
    ("serving.batch_mean", "count"),
    ("serving.flushes", "count"),
    ("graph.khop_s", "s"),
    ("serving.closure_rows", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replay_bitwise", "ratio"),
    ("trace.comm_share", "ratio"),
    ("sim.comm_share", "ratio"),
];

/// Per-layer values collected by a traced run; unset metrics are 0.
#[derive(Debug, Default)]
pub struct LayerMetrics {
    values: Vec<(&'static str, f64)>,
}

impl LayerMetrics {
    /// Sets metric `name`, which must be listed in [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Appends every listed metric to `report`.
    pub fn into_report(self, report: &mut Report) {
        for &(name, unit) in LAYER_METRICS {
            let v = self
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            report.metric(name, v, unit);
        }
    }
}
