//! Criterion bench for the compute engine (the `compute` experiment's
//! measurement): the gather-form aggregation backward against the
//! per-vertex scatter, and compiled allgather schedules against the
//! uncompiled table walk.

use criterion::{criterion_group, criterion_main, Criterion};
use dgcl::{build_comm_info, BuildOptions};
use dgcl_bench::RunContext;
use dgcl_gnn::aggregate::{aggregate_sum_backward, aggregate_sum_backward_scatter};
use dgcl_graph::Dataset;
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;

fn bench_aggregate(c: &mut Criterion) {
    let mut ctx = RunContext::new(false);
    let graph = ctx.graph(Dataset::WikiTalk);
    let nv = graph.num_vertices();
    let mut init = XavierInit::new(42);
    let h = init.features(nv, 64);
    graph.reversed(); // Exclude the one-off transpose build from timings.
    let mut group = c.benchmark_group("aggregate");
    group.sample_size(20);
    group.bench_function("bwd-gather", |b| {
        b.iter(|| aggregate_sum_backward(&graph, &h, nv))
    });
    group.bench_function("bwd-scatter", |b| {
        b.iter(|| aggregate_sum_backward_scatter(&graph, &h, nv))
    });
    group.finish();
}

fn bench_allgather(c: &mut Criterion) {
    let mut ctx = RunContext::new(false);
    let graph = ctx.graph(Dataset::WebGoogle);
    let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
    let mut init = XavierInit::new(42);
    let feat = init.features(graph.num_vertices(), 64);
    let per_device = info.dispatch_features(&feat);
    let mut group = c.benchmark_group("allgather");
    group.sample_size(10);
    group.bench_function("compiled", |b| {
        b.iter(|| {
            dgcl::run_cluster(&info, |hdl| {
                let full = hdl.graph_allgather(&per_device[hdl.rank])?;
                hdl.scatter_backward(&full)
            })
            .expect("healthy cluster")
        })
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            dgcl::run_cluster(&info, |hdl| {
                let full = hdl.graph_allgather_reference(&per_device[hdl.rank])?;
                hdl.scatter_backward_reference(&full)
            })
            .expect("healthy cluster")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_aggregate, bench_allgather);
criterion_main!(benches);
