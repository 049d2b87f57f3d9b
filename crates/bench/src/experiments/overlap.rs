//! Overlap benchmark: pipelined chunked collectives vs the barriered
//! schedule, on the simulator.
//!
//! [`simulate_overlap`] runs the fluid network model twice per
//! (dataset, device-count) cell: once with the barriered stage schedule,
//! once with fixed-chunk relay pipelining. Both price the schedule the
//! trainer runs — one serial loop per rank in which communication and
//! compute strictly alternate. This is the hardware projection: it
//! models V100-class links, so the pipelined column must come out
//! strictly below the barriered one. The measured counterpart is the
//! repository benchmark's full-batch workload, which times the real
//! threaded trainer end to end.
//!
//! Results go to `BENCH_overlap.json`, which records the machine's `cpus`
//! and the smoke flag alongside the simulated cells.

use std::fmt::Write as _;

use dgcl_graph::Dataset;
use dgcl_sim::{simulate_overlap, GnnModel};
use dgcl_topology::Topology;

use crate::harness::{cpus, ms, print_table, RunContext};

/// Chunk size (rows) used for every pipelined cell; matches
/// `BuildOptions::default().chunk_rows`.
const CHUNK_ROWS: usize = 64;

/// Device counts for the simulated sweep.
const DEVICES: [usize; 3] = [2, 4, 8];

/// One simulated (dataset, device-count) cell.
struct SimRecord {
    dataset: &'static str,
    devices: usize,
    barriered_seconds: f64,
    pipelined_seconds: f64,
    speedup: f64,
}

fn smoke() -> bool {
    std::env::var("DGCL_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

pub fn run(ctx: &mut RunContext) {
    // Simulated sweep: both datasets the acceptance gate names, at every
    // device count, pipelined vs barriered on the fluid-flow model.
    let mut sims: Vec<SimRecord> = Vec::new();
    let mut rows = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph = ctx.graph(dataset);
        let cfg = ctx.epoch_config(dataset, GnnModel::Gcn);
        for devices in DEVICES {
            let topo = Topology::dgx1_subset(devices);
            let b = simulate_overlap(&graph, &topo, &cfg, CHUNK_ROWS);
            let barriered = b.barriered_epoch_seconds();
            let pipelined = b.pipelined_epoch_seconds();
            let speedup = barriered / pipelined.max(1e-12);
            rows.push(vec![
                dataset.name().to_string(),
                devices.to_string(),
                ms(barriered),
                ms(pipelined),
                format!("{speedup:.2}x"),
            ]);
            sims.push(SimRecord {
                dataset: dataset.name(),
                devices,
                barriered_seconds: barriered,
                pipelined_seconds: pipelined,
                speedup,
            });
        }
    }
    print_table(
        "Overlap: simulated epoch, barriered vs chunk-pipelined (V100 model)",
        &[
            "Dataset",
            "GPUs",
            "Barriered (ms)",
            "Pipelined (ms)",
            "Speedup",
        ],
        &rows,
    );
    println!(
        "  (fluid-flow network model; pipelined = fixed-chunk relay forwarding.\n   chunk_rows = {CHUNK_ROWS}.)"
    );

    match std::fs::write("BENCH_overlap.json", render_json(smoke(), &sims)) {
        Ok(()) => println!("  wrote BENCH_overlap.json"),
        Err(e) => println!("  could not write BENCH_overlap.json: {e}"),
    }
}

/// Hand-rolled JSON (the workspace is offline; no serde).
fn render_json(smoke: bool, sims: &[SimRecord]) -> String {
    let cpus = cpus();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"overlap\",");
    let _ = writeln!(out, "  \"cpus\": {cpus},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"chunk_rows\": {CHUNK_ROWS},");
    let _ = writeln!(
        out,
        "  \"note\": \"simulated on the fluid-flow V100 model; the trainer runs one serial \
         loop per rank, so there is no measured overlap to record\","
    );
    let _ = writeln!(out, "  \"simulated\": [");
    for (i, r) in sims.iter().enumerate() {
        let comma = if i + 1 == sims.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"dataset\": \"{}\", \"devices\": {}, \"barriered_seconds\": {:.6}, \"pipelined_seconds\": {:.6}, \"speedup\": {:.3}}}{}",
            r.dataset, r.devices, r.barriered_seconds, r.pipelined_seconds, r.speedup, comma,
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
        let sims = [SimRecord {
            dataset: "wiki-talk",
            devices: 4,
            barriered_seconds: 2.0,
            pipelined_seconds: 1.5,
            speedup: 4.0 / 3.0,
        }];
        let json = render_json(true, &sims);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"bench\": \"overlap\""));
        assert!(json.contains("\"devices\": 4"));
        assert!(json.contains("\"pipelined_seconds\": 1.500000"));
        assert!(!json.contains("hidden_apply_seconds"));
        assert!(json.contains("\"smoke\": true"));
    }
}
