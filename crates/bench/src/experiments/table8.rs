//! Table 8: wall-clock running time of the SPST planner.
//!
//! This is a *real* measurement of this reproduction's planner, not a
//! simulation: the exact sequential planner against its demand-class
//! reuse tier (`SpstConfig::reuse` through
//! `dgcl_plan::spst_plan_with_config`). Shape: time grows with graph
//! size/density and roughly linearly with the GPU count; the reuse
//! tier's modelled plan cost stays within its 5% tolerance of the
//! sequential planner's.
//!
//! Besides the text table, the run emits `BENCH_spst.json` next to the
//! working directory so CI can track planning speedups machine-readably.
//! The run panics if the reuse tier never committed a cached tree: a
//! table that never exercised the cache measures nothing.

use std::fmt::Write as _;

use dgcl_graph::Dataset;
use dgcl_plan::plan::validate_plan;
use dgcl_plan::{spst_plan, spst_plan_with_config, SpstConfig};
use dgcl_sim::epoch::partition_for;
use dgcl_topology::Topology;

use crate::harness::{cpus, print_table, RunContext};

/// One measured configuration, serialised into `BENCH_spst.json`.
struct Record {
    gpus: usize,
    dataset: &'static str,
    seq_seconds: f64,
    reuse_seconds: f64,
    speedup: f64,
    cost_ratio: f64,
    cache_commits: usize,
    full_searches: usize,
    demands: usize,
}

pub fn run(ctx: &mut RunContext) {
    let mut rows = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    for gpus in [2usize, 4, 8, 16] {
        let topo = Topology::for_gpu_count(gpus);
        for dataset in [
            Dataset::Reddit,
            Dataset::ComOrkut,
            Dataset::WebGoogle,
            Dataset::WikiTalk,
        ] {
            let graph = ctx.graph(dataset);
            let pg = partition_for(&graph, &topo, ctx.seed);
            let seq = spst_plan(&pg, &topo, 1024, ctx.seed);
            let reuse = spst_plan_with_config(&pg, &topo, 1024, ctx.seed, SpstConfig::reuse());
            validate_plan(&seq.plan, &pg).expect("sequential plan invalid");
            validate_plan(&reuse.plan, &pg).expect("reuse plan invalid");
            let speedup = seq.planning_seconds / reuse.planning_seconds.max(1e-9);
            let cost_ratio = reuse.cost.total_time() / seq.cost.total_time().max(1e-18);
            rows.push(vec![
                gpus.to_string(),
                dataset.name().to_string(),
                format!("{:.3}", seq.planning_seconds),
                format!("{:.3}", reuse.planning_seconds),
                format!("{speedup:.2}x"),
                format!("{cost_ratio:.3}"),
                format!(
                    "{}/{}",
                    reuse.stats.cache_commits, reuse.stats.full_searches
                ),
            ]);
            records.push(Record {
                gpus,
                dataset: dataset.name(),
                seq_seconds: seq.planning_seconds,
                reuse_seconds: reuse.planning_seconds,
                speedup,
                cost_ratio,
                cache_commits: reuse.stats.cache_commits,
                full_searches: reuse.stats.full_searches,
                demands: reuse.stats.demands,
            });
        }
    }
    assert!(
        records.iter().any(|r| r.cache_commits > 0),
        "Table 8: the reuse tier committed no cached tree on any cell; \
         the benchmark did not exercise the path it measures"
    );
    let cpus = cpus();
    print_table(
        &format!("Table 8: SPST planning time (s), sequential vs reuse tier, measured on this machine ({cpus} CPUs)"),
        &[
            "GPUs",
            "Dataset",
            "Seq (s)",
            "Reuse (s)",
            "Speedup",
            "Cost ratio",
            "cache/full",
        ],
        &rows,
    );
    println!(
        "  (paper, full-scale C++: 0.74-9.91 Reddit, 4.61-110 Com-Orkut, 0.78-6.76\n   Web-Google, 0.37-3.14 Wiki-Talk for 2-16 GPUs; shape: grows with size,\n   density and GPU count. Default runs use scaled graphs — compare shape.\n   Cost ratio is reuse/sequential modelled plan time; the reuse tier's\n   tolerance bounds it near 1.)"
    );
    match std::fs::write("BENCH_spst.json", render_json(cpus, &records)) {
        Ok(()) => println!("  wrote BENCH_spst.json"),
        Err(e) => println!("  could not write BENCH_spst.json: {e}"),
    }
}

/// Hand-rolled JSON (the workspace is offline; no serde).
fn render_json(cpus: usize, records: &[Record]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"spst_planning\",");
    let _ = writeln!(out, "  \"cpus\": {cpus},");
    let _ = writeln!(out, "  \"tolerance\": 0.05,");
    let _ = writeln!(out, "  \"results\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"gpus\": {}, \"dataset\": \"{}\", \"seq_seconds\": {:.6}, \"reuse_seconds\": {:.6}, \"speedup\": {:.3}, \"cost_ratio\": {:.6}, \"cache_commits\": {}, \"full_searches\": {}, \"demands\": {}}}{}",
            r.gpus,
            r.dataset,
            r.seq_seconds,
            r.reuse_seconds,
            r.speedup,
            r.cost_ratio,
            r.cache_commits,
            r.full_searches,
            r.demands,
            comma,
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
        let records = [Record {
            gpus: 8,
            dataset: "reddit",
            seq_seconds: 1.5,
            reuse_seconds: 0.5,
            speedup: 3.0,
            cost_ratio: 1.01,
            cache_commits: 30,
            full_searches: 5,
            demands: 35,
        }];
        let json = render_json(4, &records);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"speedup\": 3.000"));
        assert!(json.contains("\"dataset\": \"reddit\""));
        assert!(json.contains("\"cpus\": 4"));
        assert!(!json.contains("threads") && !json.contains("speculative"));
    }
}
