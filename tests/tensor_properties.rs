//! Property-based tests on the tensor substrate: algebraic identities the
//! GNN backward passes rely on.

use dgcl_tensor::Matrix;
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Deterministic `rows x cols` fill from `salt`; a quarter of entries
/// are exactly zero, so the kernels' zero-skip path runs.
fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if h.is_multiple_of(4) {
                0.0
            } else {
                (h % 1000) as f32 / 250.0 - 2.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// `out[i][j] = Σ_p a(i, p) * b(p, j)` for `p` ascending from `0.0`: the
/// naive unblocked product every matmul variant must match bit for bit.
fn naive_product(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            out[(i, j)] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 2),
        c in arb_matrix(4, 2),
    ) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn matmul_tn_is_transpose_matmul(a in arb_matrix(4, 3), b in arb_matrix(4, 2)) {
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_nt_is_matmul_transpose(a in arb_matrix(3, 4), b in arb_matrix(2, 4)) {
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn identity_is_neutral(a in arb_matrix(3, 3)) {
        prop_assert!(a.matmul(&Matrix::eye(3)).max_abs_diff(&a) < 1e-6);
        prop_assert!(Matrix::eye(3).matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn hstack_split_round_trips(a in arb_matrix(3, 2), b in arb_matrix(3, 4)) {
        let joined = a.hstack(&b);
        let (left, right) = joined.split_cols(2);
        prop_assert_eq!(left, a);
        prop_assert_eq!(right, b);
    }

    #[test]
    fn transpose_preserves_frobenius_norm(a in arb_matrix(4, 5)) {
        prop_assert!((a.norm_sq() - a.transpose().norm_sq()).abs() < 1e-2);
    }

    #[test]
    fn gather_rows_selects_correctly(a in arb_matrix(5, 3), idx in proptest::collection::vec(0usize..5, 1..8)) {
        let g = a.gather_rows(&idx);
        prop_assert_eq!(g.rows(), idx.len());
        for (out_row, &src) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), a.row(src));
        }
    }

    #[test]
    fn axpy_matches_scale_and_add(a in arb_matrix(3, 3), b in arb_matrix(3, 3), alpha in -5.0f32..5.0) {
        let mut x = a.clone();
        x.axpy(alpha, &b);
        let y = a.add(&b.scale(alpha));
        prop_assert!(x.max_abs_diff(&y) < 1e-4);
    }

    #[test]
    fn blocked_matmuls_match_the_naive_loop_bitwise(
        // The shared dimension spans several BLOCK_K = 128 windows; the
        // other two cross a 16-row band boundary.
        (m, k, n) in (1usize..40, 129usize..400, 1usize..40)
    ) {
        let a = filled(m, k, 1);
        let b = filled(k, n, 2);
        let want = naive_product(m, k, n, |i, p| a[(i, p)], |p, j| b[(p, j)]);
        prop_assert_eq!(&a.matmul(&b), &want);
        // a^T (k x m) times b: the shared dimension is the row count.
        let at = a.transpose();
        prop_assert_eq!(&at.matmul_tn(&b), &want);
        // a times (b^T)^T: the shared dimension is the column count.
        let bt = b.transpose();
        prop_assert_eq!(&a.matmul_nt(&bt), &want);
    }

    #[test]
    fn transpose_is_an_involution(rows in 1usize..90, cols in 1usize..40) {
        let a = filled(rows, cols, 3);
        let t = a.transpose();
        prop_assert_eq!(t.shape(), (cols, rows));
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(t[(c, r)], a[(r, c)]);
            }
        }
        prop_assert_eq!(&t.transpose(), &a);
    }
}
