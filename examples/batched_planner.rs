//! The SPST planner's reuse tier: plan the same communication relation
//! with the exact sequential planner and with `SpstConfig::reuse`,
//! compare wall-clock, modelled cost and how each demand was resolved,
//! and check the determinism contract.
//!
//! ```text
//! cargo run --release --example batched_planner
//! ```

use dgcl_graph::Dataset;
use dgcl_partition::{multilevel::kway, PartitionedGraph};
use dgcl_plan::plan::validate_plan;
use dgcl_plan::report::render_planner_stats;
use dgcl_plan::{spst_plan, spst_plan_with_config, SpstConfig};
use dgcl_topology::Topology;

fn main() {
    let graph = Dataset::WikiTalk.generate(0.01, 42);
    let topo = Topology::dgx1();
    let parts = kway(&graph, topo.num_gpus(), 42);
    let pg = PartitionedGraph::new(&graph, parts, topo.num_gpus());

    let seq = spst_plan(&pg, &topo, 1024, 42);
    validate_plan(&seq.plan, &pg).expect("sequential plan invalid");
    println!(
        "sequential: {:.4}s, modelled time {:.3e}s",
        seq.planning_seconds,
        seq.cost.total_time()
    );

    let reuse = spst_plan_with_config(&pg, &topo, 1024, 42, SpstConfig::reuse());
    validate_plan(&reuse.plan, &pg).expect("reuse plan invalid");
    println!(
        "\nreuse: {:.4}s ({:.2}x), cost ratio {:.4}",
        reuse.planning_seconds,
        seq.planning_seconds / reuse.planning_seconds.max(1e-9),
        reuse.cost.total_time() / seq.cost.total_time()
    );
    print!("{}", render_planner_stats(&reuse.stats));

    // Determinism contract: same (seed, order, reuse) => bit-identical
    // plan.
    let again = spst_plan_with_config(&pg, &topo, 1024, 42, SpstConfig::reuse());
    assert_eq!(reuse.plan.steps, again.plan.steps, "non-deterministic");
    assert_eq!(
        reuse.cost.total_time().to_bits(),
        again.cost.total_time().to_bits()
    );
    println!("\ndeterminism contract held");
}
