//! Sparse-matrix × dense-matrix multiply for the CAGNET aggregation
//! backend.
//!
//! The CAGNET algorithms (Tripathy et al., *Reducing Communication in
//! Graph Neural Network Training*) drive GNN aggregation as a sequence of
//! broadcasts interleaved with local SpMM over block-partitioned
//! adjacency. This module supplies the block type ([`CsrBlock`]) and the
//! sequential accumulate kernel ([`spmm_csr_dense_into`]).
//!
//! Blocks are *pattern-only*: GNN adjacency is unweighted, so every
//! stored entry has the implicit value `1.0` and a multiply is a plain
//! gather-and-add. Mean normalization is applied by the caller (it
//! depends on the *global* degree, which a block cannot know).
//!
//! # Determinism contract
//!
//! The kernel accumulates each output row in stored column order, so
//! results are bitwise identical to a single-device fold *if* the caller
//! presents blocks whose columns appear in ascending global order and
//! accumulates blocks in ascending global column-range order.

/// A pattern-only CSR block: `rows × cols`, entries implicitly `1.0`.
///
/// Column indices are local to the block (in `0..cols`). Within each row
/// they are stored in whatever order the builder supplied — the CAGNET
/// builders keep them ascending so accumulation order matches the
/// single-device reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrBlock {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
}

impl CsrBlock {
    /// Builds a block from raw CSR parts.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not a valid monotone CSR index of
    /// `indices`, or if any column index is out of range.
    pub fn from_parts(rows: usize, cols: usize, offsets: Vec<usize>, indices: Vec<u32>) -> Self {
        assert_eq!(offsets.len(), rows + 1, "offsets must have rows+1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("non-empty offsets"),
            indices.len(),
            "offsets must end at indices.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert!(
            indices.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        CsrBlock {
            rows,
            cols,
            offsets,
            indices,
        }
    }

    /// An all-zero block.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrBlock {
            rows,
            cols,
            offsets: vec![0; rows + 1],
            indices: Vec::new(),
        }
    }

    /// Builds a block from per-row column lists (kept in given order).
    pub fn from_rows(cols: usize, rows: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0usize);
        let mut indices = Vec::new();
        for row in rows {
            indices.extend_from_slice(row);
            offsets.push(indices.len());
        }
        Self::from_parts(rows.len(), cols, offsets, indices)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The column indices of row `r`, in stored order.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.indices[self.offsets[r]..self.offsets[r + 1]]
    }
}

/// `out += block · dense`, bitwise-deterministic.
///
/// `dense` is row-major `block.cols() × cols`; `out` is row-major
/// `block.rows() × cols`. Each output row `r` accumulates the dense rows
/// named by `block.row(r)` in stored order, after whatever `out` already
/// holds — callers chain calls over several blocks to extend the fold.
///
/// # Panics
///
/// Panics if the buffer shapes do not match the block.
pub fn spmm_csr_dense_into(block: &CsrBlock, dense: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(
        dense.len(),
        block.cols() * cols,
        "dense shape mismatch: {} != {} x {cols}",
        dense.len(),
        block.cols(),
    );
    assert_eq!(
        out.len(),
        block.rows() * cols,
        "output shape mismatch: {} != {} x {cols}",
        out.len(),
        block.rows(),
    );
    if cols == 0 {
        return;
    }
    for (r, orow) in out.chunks_mut(cols).enumerate() {
        for &c in block.row(r) {
            let src = &dense[c as usize * cols..(c as usize + 1) * cols];
            for (o, x) in orow.iter_mut().zip(src) {
                *o += *x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(block: &CsrBlock, dense: &[f32], cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; block.rows() * cols];
        for r in 0..block.rows() {
            for &c in block.row(r) {
                for k in 0..cols {
                    out[r * cols + k] += dense[c as usize * cols + k];
                }
            }
        }
        out
    }

    fn arbitrary_block(rows: usize, cols: usize, seed: u64) -> (CsrBlock, Vec<f32>) {
        // Tiny deterministic LCG so the test needs no RNG dependency.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut row_lists = Vec::with_capacity(rows);
        for _ in 0..rows {
            let deg = next() % (cols + 1);
            let mut row: Vec<u32> = (0..deg).map(|_| (next() % cols) as u32).collect();
            row.sort_unstable();
            row.dedup();
            row_lists.push(row);
        }
        let block = CsrBlock::from_rows(cols, &row_lists);
        let feat = 5;
        let dense: Vec<f32> = (0..cols * feat)
            .map(|i| (next() % 97) as f32 - 48.0 + i as f32 * 0.25)
            .collect();
        (block, dense)
    }

    #[test]
    fn matches_reference_fold() {
        for seed in 0..8u64 {
            let (block, dense) = arbitrary_block(23, 11, seed);
            let cols = 5;
            let want = reference(&block, &dense, cols);
            let mut got = vec![0.0f32; block.rows() * cols];
            spmm_csr_dense_into(&block, &dense, cols, &mut got);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let block = CsrBlock::from_rows(2, &[vec![0, 1], vec![1]]);
        let dense = vec![1.0, 2.0, 10.0, 20.0];
        let mut out = vec![100.0, 200.0, 300.0, 400.0];
        spmm_csr_dense_into(&block, &dense, 2, &mut out);
        assert_eq!(out, vec![111.0, 222.0, 310.0, 420.0]);
    }

    #[test]
    fn empty_block_is_identity() {
        let block = CsrBlock::empty(3, 4);
        let dense = vec![1.0f32; 8];
        let mut out = vec![7.0f32; 6];
        spmm_csr_dense_into(&block, &dense, 2, &mut out);
        assert_eq!(out, vec![7.0f32; 6]);
        assert_eq!(block.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn out_of_range_column_is_rejected() {
        CsrBlock::from_parts(1, 2, vec![0, 1], vec![2]);
    }
}
