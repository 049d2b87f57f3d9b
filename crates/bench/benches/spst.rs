//! Criterion bench for the SPST planner (Table 8's measurement).
//!
//! Benchmarks the exact sequential planner against its reuse tier
//! (`SpstConfig::reuse`), so the demand-class-reuse win is visible on
//! its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgcl_bench::RunContext;
use dgcl_graph::Dataset;
use dgcl_plan::{spst_plan, spst_plan_with_config, SpstConfig};
use dgcl_sim::epoch::partition_for;
use dgcl_topology::Topology;

fn bench_spst(c: &mut Criterion) {
    let mut ctx = RunContext::new(false);
    let mut group = c.benchmark_group("spst");
    group.sample_size(10);
    for dataset in [Dataset::WebGoogle, Dataset::WikiTalk] {
        let graph = ctx.graph(dataset);
        for gpus in [4usize, 8] {
            let topo = Topology::for_gpu_count(gpus);
            let pg = partition_for(&graph, &topo, ctx.seed);
            group.bench_with_input(
                BenchmarkId::new(format!("{}-seq", dataset.name()), gpus),
                &gpus,
                |b, _| b.iter(|| spst_plan(&pg, &topo, 1024, 42)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{}-reuse", dataset.name()), gpus),
                &gpus,
                |b, _| b.iter(|| spst_plan_with_config(&pg, &topo, 1024, 42, SpstConfig::reuse())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_spst);
criterion_main!(benches);
