//! Compute-engine benchmark: the training hot path measured directly.
//!
//! Three kernel families, each timed sequentially and on the threaded
//! compute pool at 1/2/4/8 workers:
//!
//! * `matmul` — the cache-blocked threaded dense kernel of
//!   `dgcl-tensor` (forward projection shape);
//! * `aggregate` — row-parallel CSR neighbour aggregation plus the
//!   gather-form (reverse-CSR) backward against the original per-vertex
//!   scatter;
//! * `allgather` — the compiled-schedule `graph_allgather` /
//!   `scatter_backward` against the uncompiled table-walking reference.
//!
//! All parallel kernels are bitwise-deterministic, so speedups come with
//! no numeric drift; thread-scaling numbers are only meaningful when the
//! machine has spare cores (the JSON records `cpus` so CI can tell a
//! genuine regression from a 1-CPU ceiling). The run also times one
//! distributed training epoch per dataset and emits everything as
//! `BENCH_compute.json` in the style of `BENCH_spst.json`.
//!
//! Set `DGCL_BENCH_SMOKE=1` to shrink problem sizes and repetitions for
//! CI smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, BuildOptions};
use dgcl_gnn::aggregate::{
    aggregate_sum_backward_scatter, aggregate_sum_backward_threads, aggregate_sum_threads,
};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;

use crate::harness::{cpus, ms, print_table, RunContext};

/// Thread counts every kernel is measured at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One timed kernel configuration.
struct KernelRecord {
    kernel: &'static str,
    threads: usize,
    seconds: f64,
    baseline_seconds: f64,
    speedup: f64,
}

/// One timed training epoch.
struct EpochRecord {
    dataset: &'static str,
    arch: &'static str,
    epoch_seconds: f64,
}

fn smoke() -> bool {
    std::env::var("DGCL_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Median-of-`reps` wall time of `body` in seconds.
fn time<F: FnMut()>(reps: usize, mut body: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();
    let reps = if smoke { 3 } else { 7 };
    let mut records: Vec<KernelRecord> = Vec::new();
    let mut rows = Vec::new();
    let push = |records: &mut Vec<KernelRecord>,
                rows: &mut Vec<Vec<String>>,
                kernel: &'static str,
                threads: usize,
                seconds: f64,
                baseline: f64| {
        let speedup = baseline / seconds.max(1e-12);
        rows.push(vec![
            kernel.to_string(),
            threads.to_string(),
            ms(seconds),
            format!("{speedup:.2}x"),
        ]);
        records.push(KernelRecord {
            kernel,
            threads,
            seconds,
            baseline_seconds: baseline,
            speedup,
        });
    };

    // Dense matmul, forward-projection shape (visible rows × feature ×
    // hidden).
    let (m, k, n) = if smoke {
        (192, 64, 64)
    } else {
        (1024, 256, 128)
    };
    let mut init = XavierInit::new(ctx.seed);
    let a = init.features(m, k);
    let b = init.features(k, n);
    std::hint::black_box(a.matmul_threads(&b, 1)); // Warm caches/pages.
    let times: Vec<f64> = THREADS
        .iter()
        .map(|&t| {
            time(reps, || {
                std::hint::black_box(a.matmul_threads(&b, t));
            })
        })
        .collect();
    for (&t, &s) in THREADS.iter().zip(&times) {
        push(&mut records, &mut rows, "matmul", t, s, times[0]);
    }

    // CSR aggregation forward on a generated power-law graph.
    let graph = ctx.graph(Dataset::WikiTalk);
    let nv = graph.num_vertices();
    let cols = if smoke { 32 } else { 128 };
    let h = init.features(nv, cols);
    std::hint::black_box(aggregate_sum_threads(&graph, &h, nv, 1)); // Warm-up.
    let times: Vec<f64> = THREADS
        .iter()
        .map(|&t| {
            time(reps, || {
                std::hint::black_box(aggregate_sum_threads(&graph, &h, nv, t));
            })
        })
        .collect();
    for (&t, &s) in THREADS.iter().zip(&times) {
        push(&mut records, &mut rows, "aggregate_fwd", t, s, times[0]);
    }

    // Aggregation backward: reverse-CSR gather vs the original
    // allocate-per-vertex scatter (an algorithmic win independent of the
    // thread count; the scatter is the baseline at every row).
    graph.reversed(); // Warm the cache so timings exclude the one-off build.
    std::hint::black_box(aggregate_sum_backward_scatter(&graph, &h, nv)); // Warm-up.
    let scatter = time(reps, || {
        std::hint::black_box(aggregate_sum_backward_scatter(&graph, &h, nv));
    });
    for t in THREADS {
        let s = time(reps, || {
            std::hint::black_box(aggregate_sum_backward_threads(&graph, &h, nv, t));
        });
        push(&mut records, &mut rows, "aggregate_bwd", t, s, scatter);
    }

    // Graph allgather + backward: compiled schedules vs the table-walking
    // reference (also thread-count independent — the win is the removal
    // of per-op filtering, id resolution and heap churn).
    let ag_graph = ctx.graph(Dataset::WebGoogle);
    let info = build_comm_info(&ag_graph, Topology::fig6(), BuildOptions::default());
    let feat = init.features(ag_graph.num_vertices(), cols);
    let per_device = info.dispatch_features(&feat);
    let ops = if smoke { 2 } else { 5 };
    dgcl::run_cluster(&info, |hdl| {
        // Warm the fabric pool and per-thread state before timing.
        let full = hdl.graph_allgather(&per_device[hdl.rank])?;
        std::hint::black_box(hdl.scatter_backward(&full)?);
        Ok(())
    })
    .expect("healthy cluster");
    let reference = time(reps, || {
        dgcl::run_cluster(&info, |hdl| {
            for _ in 0..ops {
                let full = hdl.graph_allgather_reference(&per_device[hdl.rank])?;
                std::hint::black_box(hdl.scatter_backward_reference(&full)?);
            }
            Ok(())
        })
        .expect("healthy cluster");
    });
    let compiled = time(reps, || {
        dgcl::run_cluster(&info, |hdl| {
            for _ in 0..ops {
                let full = hdl.graph_allgather(&per_device[hdl.rank])?;
                std::hint::black_box(hdl.scatter_backward(&full)?);
            }
            Ok(())
        })
        .expect("healthy cluster");
    });
    push(&mut records, &mut rows, "allgather", 1, compiled, reference);

    print_table(
        &format!(
            "Compute engine: hot-path kernels, median of {reps} ({} cpus{})",
            cpus(),
            if smoke { ", smoke" } else { "" }
        ),
        &["Kernel", "Threads", "Median (ms)", "Speedup"],
        &rows,
    );
    println!(
        "  (baselines: matmul/aggregate_fwd at 1 thread; aggregate_bwd vs the\n   per-vertex scatter; allgather vs the uncompiled table walk. Thread\n   speedups need spare cores — the JSON records `cpus` so a 1-CPU box\n   documents its ceiling instead of faking scaling.)"
    );

    // One distributed training epoch per dataset: the end-to-end number
    // the kernel wins roll up into.
    let mut epoch_rows = Vec::new();
    let mut epochs: Vec<EpochRecord> = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let g = ctx.graph(dataset);
        let nv = g.num_vertices();
        let stats = dataset.stats();
        let feats = if smoke { 16 } else { stats.hidden_size.min(64) };
        let features = init.features(nv, feats);
        let targets = init.features(nv, 8);
        let info = build_comm_info(&g, Topology::fig6(), BuildOptions::default());
        let cfg = TrainConfig::new(Architecture::Gcn, &[feats, 8], 1);
        let secs = time(if smoke { 1 } else { 3 }, || {
            std::hint::black_box(
                train_distributed(&info, &g, &features, &targets, &cfg).expect("healthy cluster"),
            );
        });
        epoch_rows.push(vec![
            dataset.name().to_string(),
            "gcn".to_string(),
            ms(secs),
        ]);
        epochs.push(EpochRecord {
            dataset: dataset.name(),
            arch: "gcn",
            epoch_seconds: secs,
        });
    }
    print_table(
        "Compute engine: distributed GCN epoch (4 simulated GPUs)",
        &["Dataset", "Model", "Epoch (ms)"],
        &epoch_rows,
    );

    match std::fs::write("BENCH_compute.json", render_json(smoke, &records, &epochs)) {
        Ok(()) => println!("  wrote BENCH_compute.json"),
        Err(e) => println!("  could not write BENCH_compute.json: {e}"),
    }
}

/// Hand-rolled JSON (the workspace is offline; no serde).
fn render_json(smoke: bool, records: &[KernelRecord], epochs: &[EpochRecord]) -> String {
    let cpus = cpus();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"compute_engine\",");
    let _ = writeln!(out, "  \"cpus\": {cpus},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"note\": \"{}\",",
        if cpus == 1 {
            "single-cpu machine: thread-scaling speedups are ceiling-limited at ~1x; \
             aggregate_bwd and allgather speedups are algorithmic and hold regardless"
        } else {
            "thread columns measure pool scaling; aggregate_bwd and allgather \
             speedups are algorithmic"
        }
    );
    let _ = writeln!(out, "  \"kernels\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \"baseline_seconds\": {:.6}, \"speedup\": {:.3}}}{}",
            r.kernel, r.threads, r.seconds, r.baseline_seconds, r.speedup, comma,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"epochs\": [");
    for (i, e) in epochs.iter().enumerate() {
        let comma = if i + 1 == epochs.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"dataset\": \"{}\", \"arch\": \"{}\", \"epoch_seconds\": {:.6}}}{}",
            e.dataset, e.arch, e.epoch_seconds, comma,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let records = [KernelRecord {
            kernel: "matmul",
            threads: 4,
            seconds: 0.5,
            baseline_seconds: 1.5,
            speedup: 3.0,
        }];
        let epochs = [EpochRecord {
            dataset: "wiki-talk",
            arch: "gcn",
            epoch_seconds: 0.25,
        }];
        let json = render_json(true, &records, &epochs);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"kernel\": \"matmul\""));
        assert!(json.contains("\"speedup\": 3.000"));
        assert!(json.contains("\"smoke\": true"));
        assert!(json.contains("\"epoch_seconds\": 0.250000"));
    }

    #[test]
    fn median_timer_is_positive() {
        let s = time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(s >= 0.0);
    }
}
