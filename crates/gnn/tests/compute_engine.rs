//! Property tests for the aggregation backward kernels: the gather form
//! against the scatter form, bitwise.
//!
//! The gather-form backward walks the cached edge-reversed CSR; because
//! reversed adjacency lists are sorted ascending, it accumulates each
//! output element in exactly the order the original scatter delivered
//! contributions — so the two formulations must agree to the bit, not
//! just within a tolerance.

use dgcl_gnn::aggregate::{
    aggregate_mean_backward, aggregate_mean_backward_scatter, aggregate_sum_backward,
    aggregate_sum_backward_scatter,
};
use dgcl_graph::{CsrGraph, GraphBuilder};
use dgcl_tensor::Matrix;
use proptest::prelude::*;

/// A random directed graph on `n` vertices plus matching features: edge
/// list drawn as (src, dst) pairs, self-loops dropped by the builder.
fn arb_graph_and_features() -> impl Strategy<Value = (CsrGraph, Matrix, usize)> {
    (2usize..60, 1usize..12, 0usize..240).prop_map(|(n, cols, edges)| {
        let mut b = GraphBuilder::new(n);
        let mut h = 0x5DEE_CE66u64;
        for _ in 0..edges {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((h >> 33) as usize % n) as u32;
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((h >> 33) as usize % n) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build_directed();
        let data: Vec<f32> = (0..n * cols)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if x.is_multiple_of(4) {
                    0.0
                } else {
                    (x % 500) as f32 / 125.0 - 2.0
                }
            })
            .collect();
        (g, Matrix::from_vec(n, cols, data), cols)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gather_backward_matches_scatter_bitwise(
        (g, grad, _) in arb_graph_and_features()
    ) {
        let n = g.num_vertices();
        // num_total >= grad rows: the distributed backward produces
        // gradients for all visible rows, including never-referenced ones.
        for num_total in [n, n + 3] {
            prop_assert_eq!(
                &aggregate_sum_backward(&g, &grad, num_total),
                &aggregate_sum_backward_scatter(&g, &grad, num_total),
                "sum bwd total={}", num_total
            );
            prop_assert_eq!(
                &aggregate_mean_backward(&g, &grad, num_total),
                &aggregate_mean_backward_scatter(&g, &grad, num_total),
                "mean bwd total={}", num_total
            );
        }
    }

    #[test]
    fn gather_backward_handles_truncated_gradient(
        (g, grad, _) in arb_graph_and_features()
    ) {
        // grad rows < num_vertices: only a prefix of vertices carries
        // gradient (mirrors partial consumption); the reversed-CSR early
        // break must not skip valid sources or read invalid ones.
        let n = g.num_vertices();
        let rows = (n / 2).max(1);
        let head = grad.head_rows(rows);
        prop_assert_eq!(
            &aggregate_sum_backward(&g, &head, n),
            &aggregate_sum_backward_scatter(&g, &head, n)
        );
        prop_assert_eq!(
            &aggregate_mean_backward(&g, &head, n),
            &aggregate_mean_backward_scatter(&g, &head, n)
        );
    }
}
