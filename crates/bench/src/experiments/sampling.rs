//! Sampling benchmark: mini-batch sampled training vs full-batch, plus
//! the offline volume model's verdicts.
//!
//! Three readings per graph on the fig6 4-GPU topology:
//!
//! * **Full-batch epoch** — the trainer's full-graph body, the baseline
//!   every sampled configuration is priced against.
//! * **Sampled epochs** — the block path at a tight and a loose fanout:
//!   wall-clock per epoch plus the per-update count
//!   (batches per epoch), since sampling's win is update frequency at
//!   bounded per-update cost, not per-epoch volume.
//! * **Model verdicts** — [`dgcl_sim::SamplingModel`] per-update and
//!   per-epoch volume ratios for the measured fanouts, so the measured
//!   ordering can be checked against the model offline.
//!
//! Sampled training must also *train*: final loss below the first
//! (asserted per configuration). Results go to `BENCH_sampling.json`;
//! `DGCL_BENCH_SMOKE=1` shrinks epochs for CI.

use std::fmt::Write as _;
use std::time::Instant;

use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, BuildOptions};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_sim::SamplingModel;
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;

use crate::harness::{cpus, ms, print_table, RunContext};

/// One (graph, configuration) training measurement.
struct SamplingRecord {
    dataset: &'static str,
    config: &'static str,
    epochs: usize,
    batches_per_epoch: usize,
    epoch_seconds: f64,
    first_loss: f32,
    last_loss: f32,
    model_step_ratio: f64,
    model_epoch_ratio: f64,
}

fn smoke() -> bool {
    std::env::var("DGCL_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();
    let epochs = if smoke { 2 } else { 4 };
    let batch_size = 128usize;
    let num_parts = 4usize;

    let mut records: Vec<SamplingRecord> = Vec::new();
    let mut rows = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph = ctx.graph(dataset);
        let nv = graph.num_vertices();
        let avg_degree = graph.num_edges() as f64 / nv as f64;
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut init = XavierInit::new(ctx.seed);
        let features = init.features(nv, 8);
        let targets = init.features(nv, 4);
        let model = SamplingModel {
            num_vertices: nv,
            avg_degree,
            width: 8,
            remote_fraction: 1.0 - 1.0 / num_parts as f64,
        };

        let configs: [(&'static str, Option<Vec<Option<usize>>>); 3] = [
            ("full-batch", None),
            ("fanout-2", Some(vec![Some(2), Some(2)])),
            ("fanout-8", Some(vec![Some(8), Some(8)])),
        ];
        for (name, fanouts) in configs {
            let mut cfg = TrainConfig::new(Architecture::Gcn, &[8, 6, 4], epochs);
            cfg.lr = 5e-4;
            let (batches, step_ratio, epoch_ratio) = match &fanouts {
                Some(f) => {
                    cfg.sampling = Some(SamplingConfig::new(batch_size, f.clone()));
                    (
                        nv.div_ceil(batch_size),
                        model.batch_exchange_bytes(batch_size, f)
                            / model.full_batch_epoch_bytes(f.len()),
                        model.epoch_volume_ratio(batch_size, f),
                    )
                }
                None => (1, 1.0, 1.0),
            };
            let t = Instant::now();
            let report = train_distributed(&info, &graph, &features, &targets, &cfg)
                .expect("healthy cluster");
            let epoch_seconds = t.elapsed().as_secs_f64() / epochs as f64;
            let first = report.epoch_losses[0];
            let last = *report.epoch_losses.last().expect("ran epochs");
            assert!(
                last < first,
                "{} {name}: loss did not decrease ({first} -> {last})",
                dataset.name()
            );
            rows.push(vec![
                dataset.name().to_string(),
                name.to_string(),
                batches.to_string(),
                ms(epoch_seconds),
                format!("{first:.1}"),
                format!("{last:.1}"),
                format!("{step_ratio:.4}"),
                format!("{epoch_ratio:.2}"),
            ]);
            records.push(SamplingRecord {
                dataset: dataset.name(),
                config: name,
                epochs,
                batches_per_epoch: batches,
                epoch_seconds,
                first_loss: first,
                last_loss: last,
                model_step_ratio: step_ratio,
                model_epoch_ratio: epoch_ratio,
            });
        }
    }
    print_table(
        "Sampling: mini-batch vs full-batch training (4 GPUs, GCN 8-6-4)",
        &[
            "Dataset",
            "Config",
            "Batches/ep",
            "Epoch (ms)",
            "Loss[0]",
            "Loss[-1]",
            "Step vol",
            "Epoch vol",
        ],
        &rows,
    );
    println!(
        "  (step/epoch vol: modelled exchange volume relative to one full-batch epoch —\n   sampling buys small per-update transfers, paying halo redundancy per epoch.)"
    );

    match std::fs::write("BENCH_sampling.json", render_json(smoke, &records)) {
        Ok(()) => println!("  wrote BENCH_sampling.json"),
        Err(e) => println!("  could not write BENCH_sampling.json: {e}"),
    }
}

/// Hand-rolled JSON (the workspace is offline; no serde).
fn render_json(smoke: bool, records: &[SamplingRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"sampling\",");
    let _ = writeln!(out, "  \"cpus\": {},", cpus());
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"dataset\": \"{}\", \"config\": \"{}\", \"epochs\": {}, \"batches_per_epoch\": {}, \"epoch_seconds\": {:.6}, \"first_loss\": {:.4}, \"last_loss\": {:.4}, \"loss_decreased\": {}, \"model_step_ratio\": {:.6}, \"model_epoch_ratio\": {:.4}}}{}",
            r.dataset,
            r.config,
            r.epochs,
            r.batches_per_epoch,
            r.epoch_seconds,
            r.first_loss,
            r.last_loss,
            r.last_loss < r.first_loss,
            r.model_step_ratio,
            r.model_epoch_ratio,
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
        let records = [SamplingRecord {
            dataset: "wiki-talk",
            config: "fanout-2",
            epochs: 4,
            batches_per_epoch: 12,
            epoch_seconds: 0.21,
            first_loss: 100.0,
            last_loss: 80.0,
            model_step_ratio: 0.011,
            model_epoch_ratio: 1.9,
        }];
        let json = render_json(true, &records);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"bench\": \"sampling\""));
        assert!(json.contains("\"loss_decreased\": true"));
        assert!(json.contains("\"config\": \"fanout-2\""));
    }
}
