//! Neighbour aggregation kernels on CSR graphs.
//!
//! Every kernel is sequential: it runs on the calling thread, which in
//! distributed training is one rank — one simulated device. The
//! backward passes run in *gather* form over the cached edge-reversed
//! CSR ([`CsrGraph::reversed`]): `grad_h[u] = Σ_{v : u ∈ N(v)}
//! grad_out[v]` writes each output row exactly once — no per-vertex
//! scratch allocation — and, because reversed adjacency lists are sorted
//! ascending, accumulates each element in the same order as the scatter
//! formulation, so the two agree bitwise (property-tested).

use dgcl_graph::CsrGraph;
use dgcl_tensor::Matrix;

/// Sum-aggregates neighbour embeddings: `out[v] = Σ_{u ∈ N(v)} h[u]` for
/// the first `num_out` vertices.
///
/// # Panics
///
/// Panics if `num_out` exceeds the adjacency's vertex count or a
/// neighbour id exceeds `h`'s rows.
pub fn aggregate_sum(adj: &CsrGraph, h: &Matrix, num_out: usize) -> Matrix {
    assert!(
        num_out <= adj.num_vertices(),
        "num_out {} exceeds {} vertices",
        num_out,
        adj.num_vertices()
    );
    let mut out = Matrix::zeros(num_out, h.cols());
    for v in 0..num_out {
        let row = out.row_mut(v);
        for &u in adj.neighbors(v as u32) {
            for (o, &x) in row.iter_mut().zip(h.row(u as usize)) {
                *o += x;
            }
        }
    }
    out
}

/// Mean-aggregates neighbour embeddings; vertices without neighbours get
/// zeros.
pub fn aggregate_mean(adj: &CsrGraph, h: &Matrix, num_out: usize) -> Matrix {
    let mut out = aggregate_sum(adj, h, num_out);
    for v in 0..num_out {
        let deg = adj.out_degree(v as u32);
        if deg > 1 {
            let inv = 1.0 / deg as f32;
            for o in out.row_mut(v) {
                *o *= inv;
            }
        }
    }
    out
}

/// Backward of [`aggregate_sum`] in gather form over the cached reversed
/// CSR: produces gradients for all `num_total` visible rows without
/// per-vertex allocation. Bitwise-identical to
/// [`aggregate_sum_backward_scatter`].
pub fn aggregate_sum_backward(adj: &CsrGraph, grad_out: &Matrix, num_total: usize) -> Matrix {
    gather_backward(adj, grad_out, num_total, |_| 1.0)
}

/// Backward of [`aggregate_mean`], gather form (see
/// [`aggregate_sum_backward`]).
pub fn aggregate_mean_backward(adj: &CsrGraph, grad_out: &Matrix, num_total: usize) -> Matrix {
    gather_backward(adj, grad_out, num_total, |v| 1.0 / adj.out_degree(v) as f32)
}

/// `grad_h[u] = Σ weight(v) · grad_out[v]` over the sources `v` whose
/// adjacency lists hold `u`, ascending. Every such `v` has out-degree at
/// least one.
fn gather_backward(
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
    weight: impl Fn(u32) -> f32,
) -> Matrix {
    let rev = adj.reversed();
    let sources = grad_out.rows() as u32;
    let mut grad_h = Matrix::zeros(num_total, grad_out.cols());
    for u in 0..num_total.min(rev.num_vertices()) {
        let row = grad_h.row_mut(u);
        // Reversed lists are sorted ascending, so the sources beyond the
        // gradient rows form a suffix.
        for &v in rev.neighbors(u as u32) {
            if v >= sources {
                break;
            }
            let w = weight(v);
            for (o, &x) in row.iter_mut().zip(grad_out.row(v as usize)) {
                *o += x * w;
            }
        }
    }
    grad_h
}

/// The original scatter formulation of [`aggregate_sum_backward`], kept
/// as the reference the gather kernels are property-tested against (and
/// as the baseline `BENCH_compute.json` measures the reverse-CSR win
/// over).
pub fn aggregate_sum_backward_scatter(
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
) -> Matrix {
    let mut grad_h = Matrix::zeros(num_total, grad_out.cols());
    for v in 0..grad_out.rows() {
        let g = grad_out.row(v).to_vec();
        for &u in adj.neighbors(v as u32) {
            for (o, &x) in grad_h.row_mut(u as usize).iter_mut().zip(&g) {
                *o += x;
            }
        }
    }
    grad_h
}

/// The original scatter formulation of [`aggregate_mean_backward`]
/// (reference, see [`aggregate_sum_backward_scatter`]).
pub fn aggregate_mean_backward_scatter(
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
) -> Matrix {
    let mut grad_h = Matrix::zeros(num_total, grad_out.cols());
    for v in 0..grad_out.rows() {
        let deg = adj.out_degree(v as u32);
        if deg == 0 {
            continue;
        }
        let inv = 1.0 / deg as f32;
        let g: Vec<f32> = grad_out.row(v).iter().map(|&x| x * inv).collect();
        for &u in adj.neighbors(v as u32) {
            for (o, &x) in grad_h.row_mut(u as usize).iter_mut().zip(&g) {
                *o += x;
            }
        }
    }
    grad_h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::GraphBuilder;

    fn path3() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build_symmetric()
    }

    #[test]
    fn sum_aggregation() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let a = aggregate_sum(&g, &h, 3);
        // N(0)={1}, N(1)={0,2}, N(2)={1}.
        assert_eq!(a.as_slice(), &[2.0, 5.0, 2.0]);
    }

    #[test]
    fn mean_aggregation_divides_by_degree() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let a = aggregate_mean(&g, &h, 3);
        assert_eq!(a.as_slice(), &[2.0, 2.5, 2.0]);
    }

    #[test]
    fn partial_output_rows() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let a = aggregate_sum(&g, &h, 2);
        assert_eq!(a.shape(), (2, 1));
        assert_eq!(a.as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn sum_backward_is_transpose() {
        // For a symmetric graph, aggregate and its backward use the same
        // adjacency; check the adjoint property <Agg(h), g> = <h, Agg^T(g)>.
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let grad = Matrix::from_rows(&[&[0.5], &[1.0], &[0.25]]);
        let fwd = aggregate_sum(&g, &h, 3);
        let bwd = aggregate_sum_backward(&g, &grad, 3);
        let lhs: f32 = fwd.hadamard(&grad).sum();
        let rhs: f32 = h.hadamard(&bwd).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn mean_backward_is_adjoint() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, -1.0], &[4.0, 0.5]]);
        let grad = Matrix::from_rows(&[&[0.5, 1.0], &[1.0, 2.0], &[0.25, -1.0]]);
        let fwd = aggregate_mean(&g, &h, 3);
        let bwd = aggregate_mean_backward(&g, &grad, 3);
        let lhs: f32 = fwd.hadamard(&grad).sum();
        let rhs: f32 = h.hadamard(&bwd).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn isolated_vertex_gets_zeros() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build_directed(); // 1 has no out-neighbours.
        let h = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let a = aggregate_mean(&g, &h, 2);
        assert_eq!(a.row(1), &[0.0]);
    }
}
