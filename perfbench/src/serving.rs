//! The serving workload: micro-batched inference over Wiki-Talk under an
//! open-loop, hot-key-skewed request stream.
//!
//! One generator thread (this one) sends requests on a fixed schedule
//! whether or not earlier ones have been answered; the server's worker
//! runs on the other core. Latency runs from each request's scheduled
//! send time to `ServedReply::completed`, so a stall also charges the
//! requests queued behind it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dgcl::serving::{InferenceServer, ServedReply, ServingConfig};
use dgcl_gnn::{AggKind, Architecture, GnnNetwork};
use dgcl_graph::{k_hop_closure_sparse, CsrGraph, Dataset, VertexId};
use dgcl_tensor::{Matrix, XavierInit};

use crate::common::{bits_eq, json_num, median, peak_rss_mb, quantile, timed, Budget, Report};
use crate::trace::{LayerMetrics, Recorder, Span, NONE};
use crate::training::{DIMS, GRAPH_SEED};

/// Offered rate of the latency drives, requests per second.
pub const LATENCY_QPS: f64 = 8_000.0;
/// Offered rate of the saturation drives: far above capacity, so the
/// server's queue never empties while they run.
pub const SATURATION_QPS: f64 = 200_000.0;
/// Length of one latency drive.
const LATENCY_DRIVE_S: f64 = 0.5;
/// Requests per saturation drive (0.15 s of sending at the offered rate).
const SATURATION_REQUESTS: usize = 30_000;
/// A latency drive is invalid when the generator's p99 lateness exceeds
/// this: it then offered less than the stated rate.
const LATENESS_BOUND_S: f64 = 250e-6;
/// `InferenceServer::spawn` calls timed for `setup_s` per round of
/// drives, so that set-up samples spread over the whole run.
const SPAWNS_PER_ROUND: usize = 3;
/// Hot vertices in the request mix, and the share of requests (out of
/// 10) that land on them.
const HOT_SET: u64 = 12;
const HOT_OUT_OF_10: u64 = 9;
/// How long to wait for any one reply before counting it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// splitmix64: deterministic request targets.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Request `i` of stream `seed`: 90% on 12 hot vertices spread across
/// the id range, the rest uniform.
fn target_vertex(seed: u64, i: usize, n: usize) -> VertexId {
    let h = mix(seed ^ i as u64);
    let hot = HOT_SET.min(n as u64);
    if h % 10 < HOT_OUT_OF_10 {
        let slot = (h >> 32) % hot;
        ((slot * (n as u64 / hot)) % n as u64) as VertexId
    } else {
        ((h >> 16) % n as u64) as VertexId
    }
}

/// One open-loop drive's outcome, summarised as it ends so that held
/// replies do not change the allocator state later set-up samples see.
struct Drive {
    attempted: u64,
    /// Missing replies plus replies whose embedding is wrong.
    failed: u64,
    /// Percentiles of the seconds from each answered request's
    /// scheduled send to its reply.
    p50: f64,
    p90: f64,
    /// The generator's p99 and largest lateness against the schedule.
    late_p99: f64,
    late_max: f64,
    /// Requests per flush: answered requests over distinct flushes.
    batch_mean: f64,
    /// Replies per second after the generator stopped sending, while
    /// the backlog it left drains: the server's capacity, measured with
    /// the queue non-empty and no generator competing for a core.
    drain_rate: f64,
    /// `(vertex, reply)` for every answered request, when kept.
    replies: Vec<(VertexId, ServedReply)>,
}

impl Drive {
    /// Whether the generator kept to the schedule (see
    /// [`LATENESS_BOUND_S`]) and any request was answered.
    fn is_valid(&self) -> bool {
        self.late_p99 <= LATENESS_BOUND_S && self.batch_mean > 0.0
    }
}

/// What the saturation drives and the spawns between them measure.
#[derive(Debug, Default)]
struct Saturation {
    /// Drain rate of each saturation drive, replies per second.
    qps: Vec<f64>,
    /// Seconds per timed `InferenceServer::spawn`.
    setup: Vec<f64>,
}

/// Groups replies into flushes: every reply of one flush carries the
/// flush's completion instant.
fn flushes(replies: &[(VertexId, ServedReply)]) -> Vec<Vec<usize>> {
    let mut by_flush: BTreeMap<Instant, Vec<usize>> = BTreeMap::new();
    for (i, (_, r)) in replies.iter().enumerate() {
        by_flush.entry(r.completed).or_default().push(i);
    }
    by_flush.into_values().collect()
}

/// The serving workload's inputs.
pub struct ServeWorkload {
    graph: CsrGraph,
    features: Matrix,
    net: GnnNetwork,
    /// Every vertex's embedding from one full forward, made at set-up.
    full: Matrix,
    cfg: ServingConfig,
    seed: u64,
}

impl ServeWorkload {
    /// GCN 32 → 16 → 8 with the trainer's default weight seed over
    /// Wiki-Talk (scale 0.015), served with the default micro-batching.
    pub fn new(seed: u64) -> Self {
        let graph = Dataset::WikiTalk.generate(0.015, GRAPH_SEED);
        let mut init = XavierInit::new(seed);
        let features = init.features(graph.num_vertices(), DIMS[0]);
        let weight_seed = dgcl::trainer::TrainConfig::new(Architecture::Gcn, &DIMS, 1).weight_seed;
        let net = GnnNetwork::new(Architecture::Gcn, &DIMS, weight_seed);
        let full = net.clone().forward(&graph, &features);
        Self {
            graph,
            features,
            net,
            full,
            cfg: ServingConfig::default(),
            seed,
        }
    }

    fn spawn(&self) -> InferenceServer {
        InferenceServer::spawn(&self.graph, &self.features, &self.net, self.cfg)
    }

    /// Sends `requests` queries at `qps` on a fixed schedule, then
    /// collects and checks every reply. `stream` varies the request
    /// sequence between drives; `keep` keeps the replies for replay.
    fn drive(
        &self,
        server: &InferenceServer,
        requests: usize,
        qps: f64,
        stream: u64,
        keep: bool,
    ) -> Drive {
        let n = server.num_vertices();
        let start = Instant::now() + Duration::from_micros(500);
        let mut lateness = Vec::with_capacity(requests);
        let mut inflight = Vec::with_capacity(requests);
        let mut failed = 0;
        for i in 0..requests {
            let due = start + Duration::from_secs_f64(i as f64 / qps);
            // Coarse sleep, then spin: arrival gaps are below the sleep
            // granularity, and oversleeping would throttle the offered
            // load into a closed loop.
            let now = Instant::now();
            if due > now + Duration::from_micros(200) {
                std::thread::sleep(due - now - Duration::from_micros(100));
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let v = target_vertex(mix(self.seed) ^ mix(stream), i, n);
            lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64());
            match server.query(v) {
                Ok(fut) => inflight.push((v, due, fut)),
                Err(_) => failed += 1,
            }
        }
        let sent = Instant::now();
        // Wait for the last request first: the server answers in order,
        // so the rest are then ready and collecting them wakes nothing
        // while the server works.
        let tail = inflight
            .pop()
            .map(|(v, due, fut)| (v, due, fut.wait_timeout(REPLY_TIMEOUT)));
        let answers = inflight
            .into_iter()
            .map(|(v, due, fut)| (v, due, fut.wait_timeout(REPLY_TIMEOUT)))
            .chain(tail);
        let mut latencies = Vec::with_capacity(requests);
        let mut replies = Vec::with_capacity(requests);
        for (v, due, answer) in answers {
            match answer {
                Some(reply) => {
                    if !bits_eq(&reply.embedding, self.full.row(v as usize)) {
                        failed += 1;
                    }
                    latencies.push(reply.completed.saturating_duration_since(due).as_secs_f64());
                    replies.push((v, reply));
                }
                None => failed += 1,
            }
        }
        let drained: Vec<Instant> = replies
            .iter()
            .map(|(_, r)| r.completed)
            .filter(|&c| c > sent)
            .collect();
        let drain_end = drained.iter().copied().max().unwrap_or(sent);
        let drain_s = drain_end.saturating_duration_since(sent).as_secs_f64();
        let stat = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { quantile(v, q) };
        Drive {
            attempted: requests as u64,
            failed,
            p50: stat(&latencies, 0.5),
            p90: stat(&latencies, 0.9),
            late_p99: stat(&lateness, 0.99),
            late_max: lateness.iter().copied().fold(0.0, f64::max),
            batch_mean: replies.len() as f64 / flushes(&replies).len().max(1) as f64,
            drain_rate: drained.len() as f64 / drain_s.max(1e-9),
            replies: if keep { replies } else { Vec::new() },
        }
    }

    /// Warms the server's worker, its channels and the allocator.
    fn warm_up(&self, server: &InferenceServer, report: &mut Report) {
        let warm = self.drive(server, 2_000, LATENCY_QPS, 0, false);
        report.attempted += warm.attempted;
        report.failed += warm.failed;
    }

    /// Rounds of drives until `seconds` are spent (at least three). Each
    /// round runs a latency drive (`keep` keeps its
    /// replies for replay) and, when `sat` is given, a saturation drive
    /// followed by timed spawns. Alternating the two drives spreads both
    /// metrics over the whole run.
    fn rounds(
        &self,
        server: &InferenceServer,
        seconds: f64,
        report: &mut Report,
        keep: bool,
        mut sat: Option<&mut Saturation>,
    ) -> Vec<Drive> {
        let budget = Budget::new(seconds);
        let requests = (LATENCY_QPS * LATENCY_DRIVE_S) as usize;
        let mut drives: Vec<Drive> = Vec::new();
        while drives.len() < 3 || !budget.spent() {
            let round = drives.len() as u64 + 1;
            let d = self.drive(server, requests, LATENCY_QPS, round, keep);
            report.attempted += d.attempted;
            report.failed += d.failed;
            drives.push(d);
            if let Some(sat) = sat.as_deref_mut() {
                let d = self.drive(
                    server,
                    SATURATION_REQUESTS,
                    SATURATION_QPS,
                    1000 + round,
                    false,
                );
                report.attempted += d.attempted;
                report.failed += d.failed;
                sat.qps.push(d.drain_rate);
                // Spawn time depends on whether its large matrices reuse
                // freed heap or fault in fresh pages; right after a
                // saturation drive has freed its backlog the allocator is
                // in the same state every time.
                for _ in 0..SPAWNS_PER_ROUND {
                    let (spawned, s) = timed(|| self.spawn());
                    sat.setup.push(s);
                    drop(spawned);
                }
            }
        }
        drives
    }

    /// Records the generator's lateness per drive and returns the valid
    /// drives, or every drive when fewer than three are valid (machine
    /// noise stalled the generator; the context line says so).
    fn valid<'a>(&self, drives: &'a [Drive], report: &mut Report) -> Vec<&'a Drive> {
        let late: Vec<String> = drives
            .iter()
            .map(|d| {
                format!(
                    "{{\"p99_s\": {}, \"max_s\": {}}}",
                    json_num(d.late_p99),
                    json_num(d.late_max)
                )
            })
            .collect();
        report.context("generator_lateness", format!("[{}]", late.join(", ")));
        report.context("lateness_bound_s", json_num(LATENESS_BOUND_S));
        let valid: Vec<&Drive> = drives.iter().filter(|d| d.is_valid()).collect();
        report.context("valid_latency_drives", valid.len().to_string());
        let enough = valid.len() >= 3;
        report.context("latency_from_valid_drives", enough.to_string());
        if enough {
            valid
        } else {
            drives.iter().collect()
        }
    }

    /// The end-to-end run: `setup_s` (spawn), request latency at the
    /// fixed latency rate, saturated throughput, peak memory; every
    /// reply checked bitwise against the full forward.
    pub fn run(&self, seconds: f64) -> Report {
        let mut report = Report::default();
        let server = self.spawn();
        self.warm_up(&server, &mut report);
        // Peak memory over set-up and the warm-up drive (see the
        // training workloads for why not the end-of-run peak).
        let rss = peak_rss_mb();
        let mut sat = Saturation::default();
        let drives = self.rounds(&server, seconds, &mut report, false, Some(&mut sat));
        drop(server);
        report.context("peak_rss_end_mb", json_num(peak_rss_mb()));
        let valid = self.valid(&drives, &mut report);
        let batch_mean = median(&drives.iter().map(|d| d.batch_mean).collect::<Vec<_>>());
        report.context("latency_qps", json_num(LATENCY_QPS));
        report.context("saturation_qps", json_num(SATURATION_QPS));
        report.context("batch_mean", json_num(batch_mean));
        report.context("latency_drives", drives.len().to_string());
        report.context("saturation_drives", sat.qps.len().to_string());
        fail_on_failed_requests(&mut report);
        if batch_mean <= 1.0 {
            report.error(format!(
                "engagement: mean flush batch {batch_mean} at the latency rate"
            ));
        }
        let per_drive = |stat: fn(&Drive) -> f64| -> f64 {
            median(&valid.iter().map(|d| stat(d)).collect::<Vec<_>>())
        };
        // The tail is context, not a gated metric (see `README.md`).
        report.context("work_s.p90", json_num(per_drive(|d| d.p90)));
        report.metric("setup_s", median(&sat.setup), "s");
        report.metric("work_s.p50", per_drive(|d| d.p50), "s");
        report.metric("work_per_s", median(&sat.qps), "1/s");
        report.metric("peak_rss_mb", rss, "MiB");
        report
    }

    /// The traced run: the layer-0 forward, then each observed flush of
    /// the latency drives replayed through the same closure and forward
    /// calls, traced and untraced.
    pub fn run_traced(&self, seconds: f64, spans_out: &mut Vec<Vec<Span>>) -> Report {
        let mut report = Report::default();
        let n = self.graph.num_vertices();
        let mut layer0 = Vec::new();
        let mut h1 = Matrix::zeros(0, 0);
        for _ in 0..3 {
            let mut net = self.net.clone();
            let (h, s) = timed(|| net.layers_mut()[0].forward(&self.graph, &self.features, n));
            layer0.push(s);
            h1 = h;
        }
        let server = self.spawn();
        self.warm_up(&server, &mut report);
        let drives = self.rounds(&server, 0.5 * seconds, &mut report, true, None);
        drop(server);
        let valid = self.valid(&drives, &mut report);
        // Replays: untraced, then traced, drive by drive.
        let origin = Instant::now();
        let mut faithful = true;
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let (mut khop, mut fwd, mut rows, mut flush_count) = (0.0, 0.0, 0usize, 0usize);
        for (di, d) in valid.iter().enumerate() {
            let groups = flushes(&d.replies);
            let mut net = self.net.clone();
            let (_, s) = timed(|| {
                let rec = Recorder::disabled(origin, 0);
                for g in &groups {
                    self.replay_flush(&rec, &mut net, &h1, &d.replies, g);
                }
            });
            untraced_s += s;
            let rec = Recorder::new(origin, 0, 4 * groups.len());
            rec.set_epoch(di as i32);
            let (_, s) = timed(|| {
                for g in &groups {
                    let (ok, closure) = self.replay_flush(&rec, &mut net, &h1, &d.replies, g);
                    faithful &= ok;
                    rows += closure;
                }
            });
            traced_s += s;
            let spans = rec.into_spans();
            for sp in &spans {
                match sp.name {
                    "graph.khop" => khop += sp.seconds(),
                    "gnn.serve_forward" => fwd += sp.seconds(),
                    _ => {}
                }
            }
            flush_count += groups.len();
            spans_out.push(spans);
        }
        if !faithful {
            eprintln!("warning: replayed flushes differ from the served embeddings; per-layer numbers are invalid");
        }
        let drives_n = valid.len().max(1) as f64;
        let answered: usize = valid.iter().map(|d| d.replies.len()).sum();
        let mut lm = LayerMetrics::default();
        lm.set("serving.layer0_s", median(&layer0));
        lm.set(
            "serving.batch_mean",
            answered as f64 / flush_count.max(1) as f64,
        );
        lm.set("serving.flushes", flush_count as f64 / drives_n);
        lm.set("graph.khop_s", khop / drives_n);
        lm.set("serving.closure_rows", rows as f64 / drives_n);
        lm.set("gnn.serve_forward_s", fwd / drives_n);
        lm.set(
            "trace.overhead_ratio",
            traced_s / untraced_s.max(f64::MIN_POSITIVE),
        );
        lm.set("trace.replay_bitwise", if faithful { 1.0 } else { 0.0 });
        report.context("replayed_drives", valid.len().to_string());
        fail_on_failed_requests(&mut report);
        lm.into_report(&mut report);
        report
    }

    /// Replays one flush (`group` indexes `replies`): the serving
    /// worker's k-hop closures over the deduplicated seeds, layer-0 rows
    /// of the closure, then layers 1.. over it. Returns whether every
    /// reply of the flush matches the replayed row bit for bit, and the
    /// size of the closure layer 1 reads.
    fn replay_flush(
        &self,
        rec: &Recorder,
        net: &mut GnnNetwork,
        h1: &Matrix,
        replies: &[(VertexId, ServedReply)],
        group: &[usize],
    ) -> (bool, usize) {
        let mut seeds: Vec<VertexId> = group.iter().map(|&i| replies[i].0).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let num_layers = net.num_layers();
        let graph = &self.graph;
        let widen = |set: &[VertexId]| -> Vec<VertexId> {
            k_hop_closure_sparse(graph, set, 1)
                .expect("seeds are in range")
                .into_visited()
        };
        // out_sets[l] is layer l's output set; in_set feeds layer 1.
        let (out_sets, in_set) = rec.span("graph.khop", NONE, 0, || {
            let mut top_down: Vec<Vec<VertexId>> = vec![seeds.clone()];
            for _ in 2..num_layers {
                let next = widen(top_down.last().expect("seeded"));
                top_down.push(next);
            }
            let mut out_sets: Vec<Vec<VertexId>> = vec![Vec::new()];
            out_sets.extend(top_down.into_iter().rev());
            let in_set = widen(&out_sets[1]);
            (out_sets, in_set)
        });
        let out = rec.span("gnn.serve_forward", NONE, 0, || {
            let idx: Vec<usize> = in_set.iter().map(|&v| v as usize).collect();
            let mut h = h1.gather_rows(&idx);
            let mut in_set = in_set.clone();
            for (l, out_set) in out_sets.iter().enumerate().skip(1) {
                let kind = net.layers()[l].arch().agg_kind();
                let agg = tail_aggregate(graph, &h, &in_set, out_set, kind);
                let self_pos: Vec<usize> = out_set
                    .iter()
                    .map(|v| in_set.binary_search(v).expect("closure contains its core"))
                    .collect();
                let h_self = h.gather_rows(&self_pos);
                h = net.layers_mut()[l].forward_agg(&h_self, agg);
                in_set = out_set.clone();
            }
            h
        });
        let ok = group.iter().all(|&i| {
            let (v, reply) = &replies[i];
            let pos = seeds.binary_search(v).expect("every query is a seed");
            bits_eq(&reply.embedding, out.row(pos))
        });
        (ok, in_set.len())
    }
}

/// Records an error when any request failed.
fn fail_on_failed_requests(report: &mut Report) {
    if report.failed > 0 {
        report.error(format!(
            "{} of {} requests failed: no reply, or an embedding not bitwise equal to the full forward",
            report.failed, report.attempted
        ));
    }
}

/// Aggregates `out_set`'s neighbourhoods from `h`, whose rows follow the
/// sorted closure `in_set`.
fn tail_aggregate(
    graph: &CsrGraph,
    h: &Matrix,
    in_set: &[VertexId],
    out_set: &[VertexId],
    kind: AggKind,
) -> Matrix {
    let mut out = Matrix::zeros(out_set.len(), h.cols());
    for (i, &v) in out_set.iter().enumerate() {
        let row = out.row_mut(i);
        for &u in graph.neighbors(v) {
            let p = in_set
                .binary_search(&u)
                .expect("input closure covers the neighbourhood");
            for (o, &x) in row.iter_mut().zip(h.row(p)) {
                *o += x;
            }
        }
        if kind == AggKind::Mean {
            let deg = graph.out_degree(v);
            if deg > 1 {
                let inv = 1.0 / deg as f32;
                for o in row {
                    *o *= inv;
                }
            }
        }
    }
    out
}
