//! The repository benchmark: full-batch, sampled and serving workloads
//! timed end to end through the public API, with a traced run that
//! times each layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fullbatch-wikitalk|sampled-reddit|serve-wikitalk> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the spans to `perfbench/out/`). The last line of
//! standard output is the result object; the line before it holds the
//! run's context (provenance, validity, counts). A failed output check or
//! engagement guard sets `correct` to false and exits with status 1.

mod common;
mod replay;
mod serving;
mod trace;
mod training;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{json_str, Args, Report};
use serving::ServeWorkload;
use training::TrainWorkload;

/// The workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["fullbatch-wikitalk", "sampled-reddit", "serve-wikitalk"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown workload {:?}; expected one of {WORKLOADS:?}",
                a.workload
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut spans = Vec::new();
    let steal_before = common::cpu_steal_ticks();
    let mut report = match (args.workload.as_str(), args.trace) {
        ("serve-wikitalk", false) => ServeWorkload::new(args.seed).run(args.seconds),
        ("serve-wikitalk", true) => {
            ServeWorkload::new(args.seed).run_traced(args.seconds, &mut spans)
        }
        (name, trace) => {
            let w = if name == "fullbatch-wikitalk" {
                TrainWorkload::fullbatch(args.seed)
            } else {
                TrainWorkload::sampled(args.seed)
            };
            if trace {
                w.run_traced(args.seconds, &mut spans)
            } else {
                w.run(args.seconds)
            }
        }
    };
    provenance(&mut report, &args);
    // CPU time the hypervisor gave other guests while this run waited:
    // a run with much of it was measured on a contended machine.
    let steal = steal_before
        .zip(common::cpu_steal_ticks())
        .map(|(a, b)| b.saturating_sub(a) as f64 / 100.0);
    report.context("cpu_steal_s", steal.map_or("null".into(), common::json_num));
    if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        ));
        match trace::write_spans(&path, &spans) {
            Ok(()) => report.context("spans_file", json_str(&path.to_string_lossy())),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    println!("{}", report.context_line());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What produced the numbers: machine, thread counts, workload seed and
/// commit.
fn provenance(report: &mut Report, args: &Args) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.context("workload", json_str(&args.workload));
    report.context("seed", args.seed.to_string());
    report.context("trace", args.trace.to_string());
    report.context("seconds", common::json_num(args.seconds));
    report.context("cpus", cpus.to_string());
    report.context(
        "compute_threads",
        dgcl_tensor::compute_threads().to_string(),
    );
    report.context("commit", json_str(&common::commit()));
}
